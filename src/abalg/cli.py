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

from .division import divide, divide_linear, factor_homogeneous, invert
from .elements import LEFT, RIGHT, AlgebraElement, anti_automorphism, mul, shear
from .errors import AbalgError, ExprError, SchemaError
from .expansions import xi_act_a, xi_act_b
from .expr import format_element, parse_element, parse_scalar
from .jsonio import (element_to_json, factored_product_from_json, factorization_to_json,
                     matrix_from_json, poly_to_json, polyseries_from_json,
                     polyseries_to_json, series_matrix_to_json, system_from_json,
                     xi_from_json, xi_to_json)
from .modules import (Fresco, SimplePoleModule, bernstein, fresco_act,
                      from_differential_system, is_geometric_spectrum)
from .oracle import PolySeries, act
from .series import APolynomial

_FORMS = {"left": LEFT, "right": RIGHT}


def _emit(doc):
    print(json.dumps(doc, indent=2))


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _element_args(sub, order_default=8):
    sub.add_argument("--order", type=int, default=order_default,
                     help=f"truncation order (default {order_default})")
    sub.add_argument("--pretty", action="store_true",
                     help="print a monomial sum instead of JSON")


def _print_element(x: AlgebraElement, pretty: bool):
    if pretty:
        print(format_element(x))
    else:
        _emit(element_to_json(x))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abalg",
        description="Exact truncated arithmetic in the algebra with ab - ba = b^2.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("normalize", help="parse an expression and normal-order it")
    _element_args(s)
    s.add_argument("--form", choices=("left", "right"), default="left")
    s.add_argument("expr")

    s = subs.add_parser("mul", help="product of two expressions")
    _element_args(s)
    s.add_argument("--form", choices=("left", "right"), default="left")
    s.add_argument("x")
    s.add_argument("y")

    s = subs.add_parser("inv", help="inverse of a unit")
    _element_args(s)
    s.add_argument("expr")

    s = subs.add_parser("div-linear", help="division with remainder by (a - lambda*b)")
    _element_args(s)
    s.add_argument("--lambda", dest="lam", required=True, metavar="SCALAR")
    s.add_argument("expr")

    s = subs.add_parser("div", help="division with remainder by a factored product")
    _element_args(s)
    s.add_argument("--product", required=True, metavar="FILE")
    s.add_argument("expr")

    s = subs.add_parser("tau", help="apply the automorphism a -> a + x*b")
    _element_args(s)
    s.add_argument("--x", dest="x", required=True, metavar="SCALAR")
    s.add_argument("--form", choices=("left", "right"), default="left")
    s.add_argument("expr")

    s = subs.add_parser("anti-f", help="apply the anti-automorphism a -> a, b -> -b")
    _element_args(s)
    s.add_argument("--form", choices=("left", "right"), default="left")
    s.add_argument("expr")

    s = subs.add_parser("act", help="act on a truncated power series in z")
    s.add_argument("--order", type=int, default=8)
    s.add_argument("--input", required=True, metavar="FILE", help="PolySeries JSON")
    s.add_argument("--degree", type=int, default=None,
                   help="working degree bound (default 3*order)")
    s.add_argument("expr")

    s = subs.add_parser("factor", help="factor a homogeneous element into linear forms")
    s.add_argument("--order", type=int, default=8)
    s.add_argument("expr")

    s = subs.add_parser("bernstein", help="Bernstein polynomial of a simple-pole module")
    s.add_argument("--matrix", required=True, metavar="FILE")
    s.add_argument("--pretty", action="store_true")

    s = subs.add_parser("geometric", help="is the matrix spectrum positive rational?")
    s.add_argument("--matrix", required=True, metavar="FILE")

    s = subs.add_parser("ode2ab", help="convert s dF/ds = M(s) F to ae = X(b)be")
    s.add_argument("--system", required=True, metavar="FILE")
    s.add_argument("--order", type=int, required=True, help="b-adic truncation of X")

    s = subs.add_parser("fresco-act", help="act on a class in the cyclic quotient by P")
    _element_args(s)
    s.add_argument("--product", required=True, metavar="FILE")
    s.add_argument("x")
    s.add_argument("r", help="representative of a-degree below the rank")

    s = subs.add_parser("xi-act", help="apply a or b to a multivalued expansion")
    s.add_argument("--input", required=True, metavar="FILE", help="XiElement JSON")
    s.add_argument("--op", choices=("a", "b"), required=True)

    s = subs.add_parser("selftest", help="run every invariant suite")
    s.add_argument("--seed", type=int, default=20260810)
    s.add_argument("--json", action="store_true",
                   help="one JSON object per suite instead of the text rows")

    return parser


def _run(args) -> int:
    cmd = args.command
    if getattr(args, "order", 0) < 0:
        raise SchemaError("--order must be nonnegative")
    degree = getattr(args, "degree", None)
    if degree is not None and degree < 0:
        raise SchemaError("--degree must be nonnegative")
    if cmd == "normalize":
        x = parse_element(args.expr, args.order, _FORMS[args.form])
        _print_element(x, args.pretty)
    elif cmd == "mul":
        x = parse_element(args.x, args.order)
        y = parse_element(args.y, args.order)
        _print_element(mul(x, y).with_ordering(_FORMS[args.form]), args.pretty)
    elif cmd == "inv":
        x = parse_element(args.expr, args.order)
        _print_element(invert(x), args.pretty)
    elif cmd == "div-linear":
        x = parse_element(args.expr, args.order)
        q, r = divide_linear(x, parse_scalar(args.lam))
        if args.pretty:
            print(f"Q = {format_element(q)}")
            print(f"R = {format_element(r.to_element())}")
        else:
            _emit({"quotient": element_to_json(q),
                   "remainder": element_to_json(r.to_element())})
    elif cmd == "div":
        product = factored_product_from_json(_load(args.product), args.order)
        x = parse_element(args.expr, args.order)
        res = divide(x, product)
        rem = res.remainder.to_element()
        if args.pretty:
            print(f"Q = {format_element(res.quotient)}")
            print(f"R = {format_element(rem)}")
        else:
            _emit({"quotient": element_to_json(res.quotient),
                   "remainder": element_to_json(rem)})
    elif cmd == "tau":
        x = parse_element(args.expr, args.order)
        _print_element(shear(parse_scalar(args.x), x).with_ordering(_FORMS[args.form]),
                       args.pretty)
    elif cmd == "anti-f":
        x = parse_element(args.expr, args.order)
        _print_element(anti_automorphism(x, _FORMS[args.form]), args.pretty)
    elif cmd == "act":
        x = parse_element(args.expr, args.order)
        f = polyseries_from_json(_load(args.input))
        bound = args.degree if args.degree is not None else 3 * args.order
        f = PolySeries(bound, f.coeffs)
        _emit(polyseries_to_json(act(x, f)))
    elif cmd == "factor":
        x = parse_element(args.expr, args.order)
        _emit(factorization_to_json(factor_homogeneous(x)))
    elif cmd == "bernstein":
        theta = matrix_from_json(_load(args.matrix))
        p = bernstein(SimplePoleModule(theta, 0))
        if args.pretty:
            from .expr import format_poly
            print(format_poly(p.coeffs))
        else:
            _emit(poly_to_json(p))
    elif cmd == "geometric":
        theta = matrix_from_json(_load(args.matrix))
        chk = is_geometric_spectrum(SimplePoleModule(theta, 0))
        from .coefficients import fraction_to_str
        _emit({"geometric": chk.is_geometric,
               "eigenvalues": None if chk.eigenvalues is None
               else [fraction_to_str(e) for e in chk.eigenvalues],
               "diagnostic": chk.diagnostic})
    elif cmd == "ode2ab":
        system = system_from_json(_load(args.system))
        _, coeffs = from_differential_system(system, args.order)
        _emit(series_matrix_to_json(coeffs))
    elif cmd == "fresco-act":
        product = factored_product_from_json(_load(args.product), args.order)
        fresco = Fresco(product)
        x = parse_element(args.x, args.order)
        r = APolynomial.from_element(parse_element(args.r, args.order, RIGHT))
        out = fresco_act(x, r, fresco)
        if args.pretty:
            print(format_element(out.to_element()))
        else:
            _emit(element_to_json(out.to_element()))
    elif cmd == "xi-act":
        xi = xi_from_json(_load(args.input))
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
    parser = _build_parser()
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
