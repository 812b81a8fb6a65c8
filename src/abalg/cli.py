"""Command-line front end.

One subcommand per operation, JSON documents on stdout (deterministic
term order), --pretty for the human-readable rendering where it makes
sense.  Exit codes: 0 success; 2 expression/usage/input-document errors;
3 domain errors (e.g. inverting a non-unit); 4 internal invariant
violations, which are always bugs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .elements import LEFT, RIGHT, AlgebraElement, anti_automorphism, mul, shear
from .errors import AbalgError, ExprError, SchemaError
from .expr import format_element, parse_element, parse_scalar

_FORMS = {"left": LEFT, "right": RIGHT}


def _emit(doc):
    print(json.dumps(doc, indent=2))


#: The largest --order any subcommand accepts; --degree may go to 3 * MAX_ORDER,
#: its default at that order.  Larger values are usage errors (exit 2).
MAX_ORDER = 100

#: The largest work estimate top * order^2 * k^3 that ode2ab accepts, top the
#: degree of M(s) once the matrices above the order are dropped: about twice
#: the block-entry products of modules.from_differential_system.  Larger work
#: is a usage error (exit 2), refused before any arithmetic; at the limit, a
#: system of small Gaussian rationals with k = 10, three matrices and order
#: 100 takes about 5 s on one Xeon vCPU.
MAX_ODE2AB_WORK = 20_000_000

#: The largest work estimate that xi-act --op b accepts: the sum over the
#: terms (alpha, m, j) of (j + 1) * (4 dim + j + 1) * (L + 64), L the bit
#: length of the numerator of alpha + m + 1 in lowest terms.  b maps a term
#: to j + 1 terms of dim coefficients, and the estimate charges their
#: weights (j + 1)^2 steps that grow with the words of L.  The weights are a
#: running product of j + 1 fractions, so the limit is conservative.  Larger
#: work is a usage error (exit 2), refused before any arithmetic; at the
#: limit, inputs of every shape tried take 0.4-2 s on one Xeon vCPU, apart
#: from reading a large file.
MAX_XI_ACT_WORK = 50_000_000

#: The largest work estimate that act accepts: R ((T + D w_t)(w_x + 16)
#: + (w_x + w_t)^2 / 8), with R the output degrees the series reaches, T the
#: terms of X and D their distinct total degrees, w_t one plus the sum of
#: the bit lengths of the series' denominators over 64 (the lcm that the
#: oracle puts the series over is no longer) and w_x one plus the bit length
#: of X's largest numerator or denominator over 64.  Per output degree, the
#: oracle multiplies each term of X by a weight of up to about 16 words, each
#: of the D sums by a series numerator, and reduces one fraction over both
#: sizes.  Larger work is a usage error (exit 2), refused before any
#: arithmetic; near the limit, inputs of every shape tried take 1-3 s as one
#: process on one Xeon vCPU, the elaboration of X included.
MAX_ACT_WORK = 200_000_000


def _act_work(x: AlgebraElement, f) -> int:
    """The work estimate of MAX_ACT_WORK for acting with x on the series f."""
    degrees = {p + q for p, q in x.table}
    reached = len({r + d for r in f.coeffs for d in degrees if r + d <= f.degree_bound})
    w_t = 1 + sum(c.re.denominator.bit_length() + c.im.denominator.bit_length()
                  for c in f.coeffs.values()) // 64
    w_x = 1 + max([x.den.bit_length(),
                   *(abs(v).bit_length() for c in x.table.values() for v in c)]) // 64
    return reached * ((len(x.table) + len(degrees) * w_t) * (w_x + 16) + (w_x + w_t) ** 2 // 8)


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise SchemaError("input file is nested too deeply") from None
        except json.JSONDecodeError:
            raise
        except ValueError as exc:  # not UTF-8, or an integer past sys.get_int_max_str_digits()
            raise SchemaError(f"input file cannot be read: {exc}") from None


def _element_args(sub, order_default=8):
    sub.add_argument("--order", type=int, default=order_default,
                     help=f"truncation order (default {order_default})")
    sub.add_argument("--pretty", action="store_true",
                     help="print a monomial sum instead of JSON")


def _print_element(x: AlgebraElement, pretty: bool):
    if pretty:
        print(format_element(x))
    else:
        from .jsonio import element_to_json
        _emit(element_to_json(x))


def _print_quotient_remainder(q: AlgebraElement, r: AlgebraElement, pretty: bool):
    if pretty:
        print(f"Q = {format_element(q)}")
        print(f"R = {format_element(r)}")
    else:
        from .jsonio import element_to_json
        _emit({"quotient": element_to_json(q), "remainder": element_to_json(r)})


def _form_expr_args(s):
    _element_args(s)
    s.add_argument("--form", choices=("left", "right"), default="left")
    s.add_argument("expr")


def _mul_args(s):
    _element_args(s)
    s.add_argument("--form", choices=("left", "right"), default="left")
    s.add_argument("x")
    s.add_argument("y")


def _inv_args(s):
    _element_args(s)
    s.add_argument("expr")


def _div_linear_args(s):
    _element_args(s)
    s.add_argument("--lambda", dest="lam", required=True, metavar="SCALAR")
    s.add_argument("expr")


def _div_args(s):
    _element_args(s)
    s.add_argument("--product", required=True, metavar="FILE")
    s.add_argument("expr")


def _tau_args(s):
    _element_args(s)
    s.add_argument("--x", dest="x", required=True, metavar="SCALAR")
    s.add_argument("--form", choices=("left", "right"), default="left")
    s.add_argument("expr")


def _act_args(s):
    s.add_argument("--order", type=int, default=8)
    s.add_argument("--input", required=True, metavar="FILE", help="PolySeries JSON")
    s.add_argument("--degree", type=int, default=None,
                   help="working degree bound (default 3*order)")
    s.add_argument("expr")


def _factor_args(s):
    s.add_argument("--order", type=int, default=8)
    s.add_argument("expr")


def _bernstein_args(s):
    s.add_argument("--matrix", required=True, metavar="FILE")
    s.add_argument("--pretty", action="store_true")


def _geometric_args(s):
    s.add_argument("--matrix", required=True, metavar="FILE")


def _ode2ab_args(s):
    s.add_argument("--system", required=True, metavar="FILE")
    s.add_argument("--order", type=int, required=True, help="b-adic truncation of X")


def _fresco_act_args(s):
    _element_args(s)
    s.add_argument("--product", required=True, metavar="FILE")
    s.add_argument("x")
    s.add_argument("r", help="representative of a-degree below the rank")


def _xi_act_args(s):
    s.add_argument("--input", required=True, metavar="FILE", help="XiElement JSON")
    s.add_argument("--op", choices=("a", "b"), required=True)


def _selftest_args(s):
    s.add_argument("--seed", type=int, default=20260810)
    s.add_argument("--json", action="store_true",
                   help="one JSON object per suite instead of the text rows")


#: Every subcommand, in the order of the help text: its help line and the
#: function that adds its arguments.
_COMMANDS = {
    "normalize": ("parse an expression and normal-order it", _form_expr_args),
    "mul": ("product of two expressions", _mul_args),
    "inv": ("inverse of a unit", _inv_args),
    "div-linear": ("division with remainder by (a - lambda*b)", _div_linear_args),
    "div": ("division with remainder by a factored product", _div_args),
    "tau": ("apply the automorphism a -> a + x*b", _tau_args),
    "anti-f": ("apply the anti-automorphism a -> a, b -> -b", _form_expr_args),
    "act": ("act on a truncated power series in z", _act_args),
    "factor": ("factor a homogeneous element into linear forms", _factor_args),
    "bernstein": ("Bernstein polynomial of a simple-pole module", _bernstein_args),
    "geometric": ("is the matrix spectrum positive rational?", _geometric_args),
    "ode2ab": ("convert s dF/ds = M(s) F to ae = X(b)be", _ode2ab_args),
    "fresco-act": ("act on a class in the cyclic quotient by P", _fresco_act_args),
    "xi-act": ("apply a or b to a multivalued expansion", _xi_act_args),
    "selftest": ("run every invariant suite", _selftest_args),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone.

    For an argv that starts with `command`, the two parse alike and print
    the same help, usage and errors: the top-level usage shows the full list
    of subcommands as the metavar.  The full parser sets no metavar, which
    would stand for `command` in the error for a missing or unknown one.
    """
    parser = argparse.ArgumentParser(
        prog="abalg",
        description="Exact truncated arithmetic in the algebra with ab - ba = b^2.")
    names = _COMMANDS if command is None else (command,)
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments = _COMMANDS[name]
        add_arguments(subs.add_parser(name, help=help_text))
    return parser


def _run(args) -> int:
    cmd = args.command
    if not 0 <= getattr(args, "order", 0) <= MAX_ORDER:
        raise SchemaError(f"--order must be between 0 and {MAX_ORDER}")
    degree = getattr(args, "degree", None)
    if degree is not None and not 0 <= degree <= 3 * MAX_ORDER:
        raise SchemaError(f"--degree must be between 0 and {3 * MAX_ORDER}")
    # Each branch imports the kernels it uses, so that a process loads only
    # what its subcommand needs.
    if cmd == "normalize":
        x = parse_element(args.expr, args.order, _FORMS[args.form])
        _print_element(x, args.pretty)
    elif cmd == "mul":
        x = parse_element(args.x, args.order)
        y = parse_element(args.y, args.order)
        _print_element(mul(x, y).with_ordering(_FORMS[args.form]), args.pretty)
    elif cmd == "inv":
        from .division import invert
        x = parse_element(args.expr, args.order)
        _print_element(invert(x), args.pretty)
    elif cmd == "div-linear":
        from .division import divide_linear
        x = parse_element(args.expr, args.order)
        q, r = divide_linear(x, parse_scalar(args.lam))
        _print_quotient_remainder(q, r.to_element(), args.pretty)
    elif cmd == "div":
        from .division import divide
        from .jsonio import factored_product_from_json
        product = factored_product_from_json(_load(args.product), args.order)
        x = parse_element(args.expr, args.order)
        res = divide(x, product)
        _print_quotient_remainder(res.quotient, res.remainder.to_element(), args.pretty)
    elif cmd == "tau":
        x = parse_element(args.expr, args.order)
        _print_element(shear(parse_scalar(args.x), x).with_ordering(_FORMS[args.form]),
                       args.pretty)
    elif cmd == "anti-f":
        x = parse_element(args.expr, args.order)
        _print_element(anti_automorphism(x, _FORMS[args.form]), args.pretty)
    elif cmd == "act":
        from .jsonio import polyseries_from_json, polyseries_to_json
        from .oracle import PolySeries, act
        x = parse_element(args.expr, args.order)
        f = polyseries_from_json(_load(args.input))
        bound = args.degree if args.degree is not None else 3 * args.order
        f = PolySeries(bound, f.coeffs)
        work = _act_work(x, f)
        if work > MAX_ACT_WORK:
            raise SchemaError(f"the work estimate of act on this series, {work}, is over "
                              f"{MAX_ACT_WORK}")
        _emit(polyseries_to_json(act(x, f)))
    elif cmd == "factor":
        from .division import factor_homogeneous
        from .jsonio import factorization_to_json
        x = parse_element(args.expr, args.order)
        _emit(factorization_to_json(factor_homogeneous(x)))
    elif cmd == "bernstein":
        from .jsonio import matrix_from_json, poly_to_json
        from .modules import SimplePoleModule, bernstein
        theta = matrix_from_json(_load(args.matrix))
        p = bernstein(SimplePoleModule(theta, 0))
        if args.pretty:
            from .expr import format_poly
            print(format_poly(p.coeffs))
        else:
            _emit(poly_to_json(p))
    elif cmd == "geometric":
        from .coefficients import fraction_to_str
        from .jsonio import matrix_from_json
        from .modules import SimplePoleModule, is_geometric_spectrum
        theta = matrix_from_json(_load(args.matrix))
        chk = is_geometric_spectrum(SimplePoleModule(theta, 0))
        _emit({"geometric": chk.is_geometric,
               "eigenvalues": None if chk.eigenvalues is None
               else [fraction_to_str(e) for e in chk.eigenvalues],
               "diagnostic": chk.diagnostic})
    elif cmd == "ode2ab":
        from .jsonio import series_matrix_to_json, system_from_json
        from .modules import from_differential_system
        system = system_from_json(_load(args.system))
        work = min(len(system.coeffs) - 1, args.order) * args.order ** 2 * system.rank ** 3
        if work > MAX_ODE2AB_WORK:
            raise SchemaError(f"the work estimate top*order^2*k^3 = {work} of this system is "
                              f"over {MAX_ODE2AB_WORK}")
        _, coeffs = from_differential_system(system, args.order)
        _emit(series_matrix_to_json(coeffs))
    elif cmd == "fresco-act":
        from .jsonio import factored_product_from_json
        from .modules import Fresco, fresco_act
        from .series import APolynomial
        product = factored_product_from_json(_load(args.product), args.order)
        fresco = Fresco(product)
        x = parse_element(args.x, args.order)
        r = APolynomial.from_element(parse_element(args.r, args.order, RIGHT))
        out = fresco_act(x, r, fresco)
        _print_element(out.to_element(), args.pretty)
    elif cmd == "xi-act":
        from .expansions import xi_act_a, xi_act_b
        from .jsonio import xi_from_json, xi_to_json
        xi = xi_from_json(_load(args.input))
        if args.op == "b":
            work = sum((j + 1) * (4 * xi.dim + j + 1)
                       * ((alpha.numerator + (m + 1) * alpha.denominator).bit_length() + 64)
                       for alpha, m, j in xi.terms)
            if work > MAX_XI_ACT_WORK:
                raise SchemaError(f"the work estimate of b on this expansion, {work}, is over "
                                  f"{MAX_XI_ACT_WORK}")
        out = xi_act_a(xi) if args.op == "a" else xi_act_b(xi)
        _emit(xi_to_json(out))
    elif cmd == "selftest":
        from .checks import run_all  # here, so that no other subcommand loads the suites
        if not run_all(seed=args.seed, as_json=args.json):
            return 4
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(f"unknown command {cmd}")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A request builds the subparser of its own subcommand only; no argument,
    # a leading option or an unknown command gets the full parser and its
    # help or error.
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    code = 0
    try:
        code = _run(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`abalg ... | head -1`): not an error,
        # and the exit code is the run's own if it got that far.  Point the
        # descriptor at devnull so that the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (ExprError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: input file is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AbalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # internal invariant violation: always a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
