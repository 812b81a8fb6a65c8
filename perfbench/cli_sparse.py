"""Workload `cli-sparse`: one `python -m abalg.cli` process per request.

Requests cover every subcommand except `selftest`: sparse expressions at
high order (20 to 40), small JSON documents (matrices of rank <= 3,
factored products with k <= 3, xi elements), JSON and `--pretty` output,
and about 5% of requests that must exit 2 (malformed input) or 3 (domain
error).  The latency a CLI user sees is mostly interpreter start, the
`abalg.cli` import, and parse, elaborate and serialise; the `elements`
layer is used sparse and at high order, so a dense layout that wins on
`dense-kernels` but loses on sparse input shows here.

An op's args are (argv, files, expected exit code).  argv entries that
start with "@" name one of the op's JSON files; they are written to a work
directory at set-up and replaced by their paths when the request runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from abalg import cli, division, elements, expansions, jsonio, modules, oracle
from abalg.coefficients import fraction_to_str
from abalg.expr import format_element, format_poly, parse_element, parse_scalar
from abalg.series import APolynomial

import gen
from harness import Op, run_child

NAME = "cli-sparse"

#: A request that runs longer than this has failed (and is killed).
REQUEST_TIMEOUT_S = 60

_COEFFS = ("2", "3", "1/2", "2/3", "5/4", "i", "2*i", "(1 + i)", "(2 - 3*i)", "(1/2 - i)")
_SCALARS = ("3/2", "-2", "1/3", "-5/2", "1 + i", "2*i", "-1/2 + 3*i")


def _monomial(p, q):
    parts = [f"a^{p}" if p > 1 else "a" if p else "", f"b^{q}" if q > 1 else "b" if q else ""]
    return "*".join(s for s in parts if s) or "1"


def _sparse_expr(rng, shape, degrees, lead=""):
    """One monomial of each given degree, after an optional leading term.

    `shape` (a random.Random of a constant seed) draws the a-exponents and
    the multiset of coefficients, so they are the same for every seed;
    `rng` draws signs and which monomial gets which coefficient.
    """
    start = shape.randrange(len(_COEFFS))
    coeffs = [_COEFFS[(start + i) % len(_COEFFS)] for i in range(len(degrees))]
    rng.shuffle(coeffs)
    bits = [lead] if lead else []
    for d, coeff in zip(degrees, coeffs):
        p = shape.randrange(0, d + 1)
        sign = "-" if rng.randrange(2) else "+"
        body = f"{coeff}*{_monomial(p, d - p)}"
        bits.append(f"{sign} {body}" if bits else ("-" if sign == "-" else "") + body)
    return " ".join(bits)


_BASES = ("(1 + {}*a*b)", "(a - {}*b)", "(b + {}*a*b^2)")


def _shaped_expr(rng, base, n, tail):
    """A power of a binomial minus a b-power, e.g. (1 + 2*a*b)^7 - 3*b^20."""
    return f"{_BASES[base].format(rng.choice(_COEFFS))}^{n} - {rng.choice(_COEFFS)}*b^{tail}"


def _scalar_text(c):
    return f"({fraction_to_str(c.re)} + {fraction_to_str(c.im)}*i)" if c.im else \
        f"({fraction_to_str(c.re)})"


def _coeff_json(c):
    return {"re": fraction_to_str(c.re), "im": fraction_to_str(c.im)}


def _element_json(table, order):
    return {"order": order, "ordering": "left",
            "terms": [dict({"p": p, "q": q}, **_coeff_json(c)) for (p, q), c in table]}


def _product_json(rng, shape, k, order):
    factors = []
    for lam in gen.product_lambdas(rng, k):
        s = gen.bseries_unit(rng, shape, order)
        factors.append({"lambda": {"re": fraction_to_str(lam), "im": "0"},
                        "S": _element_json([((0, q), c) for q, c in enumerate(s.coeffs) if c],
                                           order)})
    return {"factors": factors}


def _matrix_json(theta):
    return {"k": theta.shape[0], "entries": [[_coeff_json(c) for c in row] for row in theta.rows]}


def _xi_json(rng):
    dim = rng.randrange(1, 3)
    terms = []
    seen = set()
    for _ in range(rng.randrange(2, 5)):
        key = (rng.choice(("1", "1/2", "2/3", "1/4")), rng.randrange(0, 4), rng.randrange(0, 3))
        if key in seen:
            continue
        seen.add(key)
        terms.append({"alpha": key[0], "m": key[1], "j": key[2],
                      "c": [_coeff_json(rng.choice(gen.SMALL)) for _ in range(dim)]})
    return {"dim": dim, "log_depth": 2, "terms": terms}


def _dump(doc):
    return json.dumps(doc, indent=2)


# Every request slot has a fixed shape (orders, degrees, powers, ranks); the
# seed draws only coefficients, a-exponents, lambdas and flags, so that each
# seed asks for about the same work.  (TINY, FULL) shapes per subcommand:
SLOTS = {
    "normalize": ([(6, (1, 3, 5), None)], [(27, None, (0, 8, 13)), (34, (5, 14, 30), None)]),
    "mul": ([(5, (1, 3), (1, 3, 2))],
            [(22, (2, 6, 11), (1, 7, 15)), (38, (3, 12, 25), (2, 5, 33))]),
    "inv": ([(6, (2, 4))], [(20, (3, 7)), (40, (6, 13))]),
    "div-linear": ([(5, (1, 3))], [(24, (4, 9, 15, 21)), (38, (6, 13, 22, 33))]),
    "div": ([(6, 2, (2, 5))], [(24, 2, (5, 12, 19, 24)), (20, 3, (4, 11, 16, 20))]),
    "tau": ([(5, (2, 4))], [(22, (3, 8, 14)), (38, (4, 17, 33))]),
    "anti-f": ([(6, (1, 3, 4))], [(32, (0, 9, 28))]),
    "act": ([(5, (1, 4))], [(40, (8, 21, 37))]),
    "factor": ([(6, 3, 1)], [(28, 4, 1), (34, 5, 2)]),
    "bernstein": ([2], [3]),
    "geometric": ([2], [3]),
    "ode2ab": ([(2, 3)], [(3, 6)]),
    "fresco-act": ([(6, 2, (1, 4))], [(26, 2, (5, 12, 20))]),
    "xi-act": ([None], [None]),
}


def make_inputs(seed: int, tiny: bool = False) -> list:
    rng = random.Random(f"{NAME}:{seed}")
    shape = random.Random(f"{NAME}:shape")
    slots = {cmd: shapes[0 if tiny else 1] for cmd, shapes in SLOTS.items()}
    reqs = []

    def sparse(degrees, lead=""):
        return _sparse_expr(rng, shape, degrees, lead)

    def pretty():
        return ["--pretty"] if rng.randrange(2) else []

    def form():
        return ["--form", rng.choice(("left", "right"))]

    def add(argv, files=None):
        reqs.append((argv, files or {}))

    for n, degrees, shaped in slots["normalize"]:
        expr = sparse(degrees) if degrees else _shaped_expr(rng, *shaped)
        add(["normalize", "--order", str(n)] + form() + pretty() + [expr])
    for n, degrees, shaped in slots["mul"]:
        add(["mul", "--order", str(n)] + form() + pretty()
            + [sparse(degrees), _shaped_expr(rng, *shaped)])
    for n, degrees in slots["inv"]:
        add(["inv", "--order", str(n)] + pretty() + [sparse(degrees, lead="1")])
    for n, degrees in slots["div-linear"]:
        add(["div-linear", "--order", str(n), f"--lambda={rng.choice(_SCALARS)}"] + pretty()
            + [sparse(degrees)])
    for n, k, degrees in slots["div"]:
        add(["div", "--order", str(n), "--product", "@product"] + pretty()
            + [sparse(degrees)], {"product": _dump(_product_json(rng, shape, k, n))})
    for n, degrees in slots["tau"]:
        add(["tau", "--order", str(n), f"--x={rng.choice(_SCALARS)}"] + form() + pretty()
            + [sparse(degrees)])
    for n, shaped in slots["anti-f"]:
        add(["anti-f", "--order", str(n)] + form() + pretty() + [_shaped_expr(rng, *shaped)])
    for n, degrees in slots["act"]:
        series = {"degree": 3 * n, "terms": [
            dict({"m": m}, **_coeff_json(rng.choice(gen.SMALL)))
            for m in sorted(shape.sample(range(0, n), 3))]}
        add(["act", "--order", str(n), "--input", "@series", sparse(degrees)],
            {"series": _dump(series)})
    for n, forms, j in slots["factor"]:
        body = "*".join(f"(a - {_scalar_text(lam)}*b)" for lam in gen.lambdas(rng, forms))
        add(["factor", "--order", str(n), f"{rng.choice(_COEFFS)}*{_monomial(0, j)}*{body}"])
    for k in slots["bernstein"]:
        theta, _ = gen.spectrum_matrix(rng, k)
        add(["bernstein", "--matrix", "@matrix"] + pretty(), {"matrix": _dump(_matrix_json(theta))})
    for k in slots["geometric"]:
        theta, _ = gen.spectrum_matrix(rng, k)
        add(["geometric", "--matrix", "@matrix"], {"matrix": _dump(_matrix_json(theta))})
    for k, n in slots["ode2ab"]:
        system = {"k": k, "coeffs": [_matrix_json(gen.shuffled_matrix(rng, k)) for _ in range(2)]}
        add(["ode2ab", "--order", str(n), "--system", "@system"], {"system": _dump(system)})
    for n, k, degrees in slots["fresco-act"]:
        # the representative's a-degree must stay below the rank k
        rep = f"{rng.choice(_COEFFS)}*b^{shape.randrange(0, 4)} + {rng.choice(_COEFFS)}*a*b^2"
        add(["fresco-act", "--order", str(n), "--product", "@product"] + pretty()
            + [sparse(degrees), rep], {"product": _dump(_product_json(rng, shape, k, n))})
    for _ in slots["xi-act"]:
        add(["xi-act", "--input", "@xi", "--op", rng.choice("ab")], {"xi": _dump(_xi_json(rng))})

    ops = [Op(i, argv[0], f"#{i}", (tuple(argv), tuple(sorted(files.items())), 0))
           for i, (argv, files) in enumerate(reqs)]
    # About 5% of requests must fail cleanly: one of the four error kinds per seed.
    errors = [
        ("normalize", ("normalize", "--order", "20", "a +* b^3"), (), 2),
        ("bernstein", ("bernstein", "--matrix", "@matrix"),
         (("matrix", '{"k": 2, "entries": [['),), 2),
        ("inv", ("inv", "--order", "30", "a*b - 3*b^7"), (), 3),
        ("factor", ("factor", "--order", "30", "a^3 + 2*b"), (), 3),
    ]
    for kind, argv, files, code in rng.sample(errors, 1):
        ops.append(Op(len(ops), kind, f"#{len(ops)} exit {code}", (argv, files, code)))
    return ops


class Requests:
    """Writes the requests' JSON files and runs requests, as processes or in-process."""

    def __init__(self, ops, work: Path):
        self.peak_rss_mb = 0.0  # of the largest request process so far
        self.paths = {}
        for op in ops:
            for name, text in op.args[1]:
                path = work / f"op{op.id}-{name}.json"
                path.write_text(text, encoding="utf-8")
                self.paths[(op.id, name)] = str(path)

    def argv(self, op: Op) -> list:
        return [self.paths[(op.id, a[1:])] if a.startswith("@") else a for a in op.args[0]]

    def spawn(self, op: Op):
        """(exit code, stdout) of a fresh `python -m abalg.cli` process."""
        code, stdout, _, _, rss = run_child([sys.executable, "-m", "abalg.cli"] + self.argv(op),
                                            REQUEST_TIMEOUT_S)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return code, stdout

    def in_process(self, op: Op):
        """(exit code, stdout) of `abalg.cli.main` run in this process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv(op))
        return code, out.getvalue()


def cold_start(op: Op):
    """Empty the reorder cache before an in-process request, as a fresh process starts."""
    elements.reorder_coeff.cache_clear()


def expected_stdout(op: Op, argv: list) -> str:
    """What the CLI must print: the library result serialised through jsonio or the printer."""
    cmd = argv[0]
    flags = {}
    pos = []
    it = iter(argv[1:])
    for a in it:
        if a.startswith("--") and "=" in a:
            key, value = a[2:].split("=", 1)
            flags[key] = value
        elif a == "--pretty":
            flags["pretty"] = True
        elif a.startswith("--"):
            flags[a[2:]] = next(it)
        else:
            pos.append(a)
    order = int(flags.get("order", 8))
    pretty = flags.get("pretty", False)
    ordering = {"left": elements.LEFT, "right": elements.RIGHT}[flags.get("form", "left")]

    def load(key):
        with open(flags[key], encoding="utf-8") as fh:
            return json.load(fh)

    def element(x):
        return format_element(x) + "\n" if pretty else _dump(jsonio.element_to_json(x)) + "\n"

    def quotient_remainder(q, r):
        if pretty:
            return f"Q = {format_element(q)}\nR = {format_element(r)}\n"
        return _dump({"quotient": jsonio.element_to_json(q),
                      "remainder": jsonio.element_to_json(r)}) + "\n"

    if cmd == "normalize":
        return element(parse_element(pos[0], order, ordering))
    if cmd == "mul":
        x, y = parse_element(pos[0], order), parse_element(pos[1], order)
        return element(elements.mul(x, y).with_ordering(ordering))
    if cmd == "inv":
        return element(division.invert(parse_element(pos[0], order)))
    if cmd == "div-linear":
        q, r = division.divide_linear(parse_element(pos[0], order), parse_scalar(flags["lambda"]))
        return quotient_remainder(q, r.to_element())
    if cmd == "div":
        product = jsonio.factored_product_from_json(load("product"), order)
        res = division.divide(parse_element(pos[0], order), product)
        return quotient_remainder(res.quotient, res.remainder.to_element())
    if cmd == "tau":
        x = parse_element(pos[0], order)
        return element(elements.shear(parse_scalar(flags["x"]), x).with_ordering(ordering))
    if cmd == "anti-f":
        return element(elements.anti_automorphism(parse_element(pos[0], order), ordering))
    if cmd == "act":
        f = jsonio.polyseries_from_json(load("input"))
        f = oracle.PolySeries(3 * order, f.coeffs)
        return _dump(jsonio.polyseries_to_json(oracle.act(parse_element(pos[0], order), f))) + "\n"
    if cmd == "factor":
        fact = division.factor_homogeneous(parse_element(pos[0], order))
        return _dump(jsonio.factorization_to_json(fact)) + "\n"
    if cmd == "bernstein":
        p = modules.bernstein(modules.SimplePoleModule(jsonio.matrix_from_json(load("matrix")), 0))
        return format_poly(p.coeffs) + "\n" if pretty else _dump(jsonio.poly_to_json(p)) + "\n"
    if cmd == "geometric":
        chk = modules.is_geometric_spectrum(
            modules.SimplePoleModule(jsonio.matrix_from_json(load("matrix")), 0))
        return _dump({"geometric": chk.is_geometric,
                      "eigenvalues": None if chk.eigenvalues is None
                      else [fraction_to_str(e) for e in chk.eigenvalues],
                      "diagnostic": chk.diagnostic}) + "\n"
    if cmd == "ode2ab":
        system = jsonio.system_from_json(load("system"))
        _, coeffs = modules.from_differential_system(system, order)
        return _dump(jsonio.series_matrix_to_json(coeffs)) + "\n"
    if cmd == "fresco-act":
        product = jsonio.factored_product_from_json(load("product"), order)
        rep = APolynomial.from_element(parse_element(pos[1], order, elements.RIGHT))
        out = modules.fresco_act(parse_element(pos[0], order), rep, modules.Fresco(product))
        return element(out.to_element())
    if cmd == "xi-act":
        xi = jsonio.xi_from_json(load("input"))
        out = expansions.xi_act_a(xi) if flags["op"] == "a" else expansions.xi_act_b(xi)
        return _dump(jsonio.xi_to_json(out)) + "\n"
    raise ValueError(f"unknown subcommand {cmd}")


def make_check(requests: Requests):
    def check(op: Op, result) -> bool:
        code, stdout = result
        expected_code = op.args[2]
        if code != expected_code:
            return False
        if expected_code:
            return stdout == ""
        return stdout == expected_stdout(op, requests.argv(op))
    return check
