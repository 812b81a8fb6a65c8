import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import abalg
from abalg import checks
from abalg import cli
from abalg.cli import MAX_ORDER, main
from abalg.coefficients import GaussianRational
from abalg.elements import (LEFT, RIGHT, AlgebraElement, binomial_pow, gen_a, gen_b, mul,
                            scale)
from abalg.errors import AbalgError, ExprError
from abalg.expr import (MAX_EXPONENT, MAX_NESTING, format_element, parse, parse_element,
                        parse_scalar)
from abalg.jsonio import (MAX_RANK, coeff_from_json, element_from_json, matrix_to_json,
                          polyseries_from_json, polyseries_to_json, series_matrix_to_json,
                          xi_from_json, xi_to_json)
from abalg.linalg import QMatrix
from abalg.modules import DifferentialSystem
from abalg.oracle import PolySeries
from abalg.expansions import XiElement


# -- parsing ------------------------------------------------------------------

def test_defining_relation_elaborates_to_zero():
    assert parse_element("a*b - b*a - b^2", 5).is_zero


def test_parenthesized_power():
    x = parse_element("(a - 1/2*b)^3", 6)
    assert x.to_right() == binomial_pow(Fraction(-1, 2), 3, 6)


def test_parse_error_offset_and_expectations():
    with pytest.raises(ExprError) as err:
        parse("a**b")
    assert err.value.offset == 2
    assert "number" in " ".join(err.value.expected)


@pytest.mark.parametrize("bad, offset", [
    ("", 0),
    ("a +", 3),
    ("(a", 2),
    ("a b", 2),
    ("2 ^ b", 4),
    ("a $ b", 2),
])
def test_parse_errors(bad, offset):
    with pytest.raises(ExprError) as err:
        parse(bad)
    assert err.value.offset == offset


@pytest.mark.parametrize("bad, found", [
    ("a^1/2", "'1/2'"),
    ("a^6/4", "'6/4'"),
    ("a 3", "'3'"),
    ("2 ^ b", "'b'"),
    ("(a", "end of input"),
])
def test_parse_errors_quote_the_literal_text(bad, found):
    with pytest.raises(ExprError) as err:
        parse(bad)
    assert err.value.found == found


def test_cli_parse_error_quotes_the_number_as_written(capsys):
    code, out, err = run_cli(capsys, "normalize", "a^1/2")
    assert code == 2 and out == ""
    assert err == ("error: parse error at offset 2: expected natural number exponent, "
                   "found '1/2'\n")


@pytest.mark.parametrize("text", ["a^4/2", "a^2/1", "(a + b)^0/3"])
def test_cli_refuses_an_exponent_written_as_a_fraction(capsys, text):
    # the grammar says "^" nat: a fraction of whole value is not an exponent
    code, out, err = run_cli(capsys, "normalize", "--pretty", text)
    assert code == 2 and out == ""
    assert "expected natural number exponent" in err


@pytest.mark.parametrize("text, offset, found", [
    ("a^١", 2, "'١'"),   # ARABIC-INDIC DIGIT ONE
    ("²", 0, "'²'"),     # SUPERSCRIPT TWO
    ("1/٣", 2, "'٣'"),
])
def test_cli_refuses_a_non_ascii_digit(capsys, text, offset, found):
    # numbers are ASCII digits; str.isdigit would read these as numbers
    code, out, err = run_cli(capsys, "normalize", "--pretty", text)
    assert code == 2 and out == ""
    assert err.startswith(f"error: parse error at offset {offset}: expected ")
    assert err.endswith(f", found {found}\n")


def test_no_implicit_multiplication():
    with pytest.raises(ExprError):
        parse("2a")
    with pytest.raises(ExprError):
        parse("a(b)")


def test_unary_minus_and_scalars():
    assert parse_element("-a + b", 4) == -gen_a(4) + gen_b(4)
    assert parse_scalar("-1/2") == GaussianRational(Fraction(-1, 2))
    assert parse_scalar("2*i - 1") == GaussianRational(-1, 2)
    with pytest.raises(ExprError):
        parse_scalar("a + 1")


def test_long_sums_and_products_fold_left_to_right():
    a, b = gen_a(6), gen_b(6)
    assert parse_element("a + b - a*b - b + a", 6) == a + b - mul(a, b) - b + a
    assert parse_element("a*b*a*(a + b)*a", 6) == mul(mul(mul(mul(a, b), a), a + b), a)
    assert parse_element("a+" * 3000 + "a", 6) == 3001 * a


def test_nesting_is_limited():
    # one level per "(" and per unary "-", counted together; each is one byte,
    # so the first level too many is at offset MAX_NESTING
    a = gen_a(3)
    for opener, closer, value in [("(", ")", a), ("-", "", (-1) ** MAX_NESTING * a),
                                  ("-(", ")", (-1) ** (MAX_NESTING // 2) * a)]:
        levels = MAX_NESTING // len(opener)
        assert parse_element(opener * levels + "a" + closer * levels, 3) == value
        with pytest.raises(ExprError) as err:
            parse(opener * (levels + 1) + "a" + closer * (levels + 1))
        assert err.value.offset == MAX_NESTING
    assert parse_element(" + ".join(["(a)"] * 2 * MAX_NESTING), 3) == 2 * MAX_NESTING * a


def test_exponents_are_limited():
    a = gen_a(3)
    assert parse_element(f"a^{MAX_EXPONENT}", 3).is_zero
    assert parse_element(f"(1 + a)^{MAX_EXPONENT}", 3) == sum(
        (scale(math.comb(MAX_EXPONENT, k), a ** k) for k in range(1, 4)), AlgebraElement.one(3))
    for text in (f"a^{MAX_EXPONENT + 1}", "(1/3 + a)^1000000000000"):
        with pytest.raises(ExprError) as err:
            parse(text)
        assert err.value.offset == text.index("^") + 1
        assert f"at most {MAX_EXPONENT}" in str(err.value)


def test_imaginary_arithmetic():
    x = parse_element("i^2 + 1", 3)
    assert x.is_zero
    assert parse_element("i*a", 3) == AlgebraElement(3, LEFT, {(1, 0): GaussianRational(0, 1)})


# -- printing -----------------------------------------------------------------------

def test_format_uses_degree_then_bpower_order():
    x = AlgebraElement(4, LEFT, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (1, 3): -1})
    assert format_element(x) == "1 + a*b + a^2*b^2 - a*b^3"
    y = AlgebraElement(4, RIGHT, {(2, 1): 1, (1, 2): 2, (0, 3): 2})
    assert format_element(y) == "b*a^2 + 2*b^2*a + 2*b^3"
    assert format_element(AlgebraElement.zero(3)) == "0"


def test_format_gaussian_coefficients():
    x = AlgebraElement(3, LEFT, {
        (1, 0): GaussianRational(0, 1),
        (0, 1): GaussianRational(-1, 2),
        (0, 2): GaussianRational(0, Fraction(-1, 2)),
    })
    text = format_element(x)
    assert text == "i*a + (-1 + 2*i)*b - 1/2*i*b^2"
    assert parse_element(text, 3) == x


# -- JSON schemas -----------------------------------------------------------------------

def test_polyseries_json_round_trip():
    f = PolySeries(9, {0: 1, 4: GaussianRational(Fraction(2, 3), -1)})
    assert polyseries_from_json(json.loads(json.dumps(polyseries_to_json(f)))) == f


def test_xi_json_round_trip():
    xi = XiElement(2, 1, 3, {(Fraction(1, 2), 1, 1):
                             (GaussianRational(1), GaussianRational(0, -2))})
    assert xi_from_json(json.loads(json.dumps(xi_to_json(xi)))) == xi


@pytest.mark.parametrize("dim, depth", [(-3, -1), (-1, 0), (1, -1)])
@pytest.mark.parametrize("terms", [[], [{"alpha": "1", "m": 0, "j": 0, "c": []}]])
def test_cli_xi_act_refuses_a_negative_dim_or_log_depth(capsys, tmp_path, dim, depth, terms):
    xi = tmp_path / "xi.json"
    xi.write_text(json.dumps({"dim": dim, "log_depth": depth, "terms": terms}))
    code, out, err = run_cli(capsys, "xi-act", "--input", str(xi), "--op", "a")
    assert code == 2 and out == "" and "nonnegative" in err


def test_cli_refuses_a_rational_that_int_alone_would_take(capsys, tmp_path):
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"k": 1, "entries": [[{"re": " 1_0 ", "im": "0"}]]}))
    code, out, err = run_cli(capsys, "bernstein", "--matrix", str(theta), "--pretty")
    assert code == 2 and out == "" and "bad rational string" in err


def test_matrix_and_system_json_shapes():
    theta = QMatrix([[Fraction(1, 2), 0], [1, 3]])
    doc = matrix_to_json(theta)
    assert doc["k"] == 2 and doc["entries"][0][0] == {"re": "1/2", "im": "0/1"}
    sysdoc = series_matrix_to_json(DifferentialSystem((theta,)).coeffs)
    assert sysdoc["k"] == 2 and len(sysdoc["coeffs"]) == 1


# -- the CLI ----------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_normalize_documented_output(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--order", "4", "--form", "right",
                           "--pretty", "a^2*b")
    assert code == 0 and out == "b*a^2 + 2*b^2*a + 2*b^3\n"


def test_cli_inv_documented_output(capsys):
    code, out, _ = run_cli(capsys, "inv", "--order", "4", "--pretty", "1 - a*b")
    assert code == 0 and out == "1 + a*b + a^2*b^2 - a*b^3\n"


def test_cli_div_linear_documented_output(capsys):
    code, out, _ = run_cli(capsys, "div-linear", "--lambda", "1", "--order", "6",
                           "--pretty", "a^2")
    assert code == 0 and out == "Q = a + b\nR = 2*b^2\n"


def test_cli_json_output_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "normalize", "--order", "5", "i*a*b - 2/3*b^2")
    code2, out2, _ = run_cli(capsys, "normalize", "--order", "5", "i*a*b - 2/3*b^2")
    assert code1 == code2 == 0 and out1 == out2
    doc = json.loads(out1)
    assert element_from_json(doc) == parse_element("i*a*b - 2/3*b^2", 5)


def test_cli_mul_tau_antif(capsys):
    code, out, _ = run_cli(capsys, "mul", "--order", "4", "--pretty", "b", "a")
    assert code == 0 and out == "a*b - b^2\n"
    code, out, _ = run_cli(capsys, "tau", "--x", "1", "--order", "4", "--form", "right",
                           "--pretty", "a^2")
    assert code == 0 and out == "a^2 + 2*b*a + 2*b^2\n"
    code, out, _ = run_cli(capsys, "anti-f", "--order", "4", "--pretty", "a*b")
    assert code == 0 and out == "-a*b + b^2\n"


def test_cli_act_and_factor(capsys, tmp_path):
    poly = tmp_path / "f.json"
    poly.write_text(json.dumps(polyseries_to_json(PolySeries.monomial(0, 6))))
    code, out, _ = run_cli(capsys, "act", "--input", str(poly), "--order", "2",
                           "--degree", "6", "a - 3*b")
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [{"m": 1, "re": "-2/1", "im": "0/1"}]
    code, out, _ = run_cli(capsys, "factor", "--order", "6", "a^2 - 3*a*b + 3*b^2")
    doc = json.loads(out)
    assert code == 0 and doc["complete"] is True
    assert [lam["re"] for lam in doc["lambdas"]] == ["1/1", "2/1"]


@pytest.mark.parametrize("order, text, seconds, digest", [
    # 0.02-0.05 s, 0.06-0.10 s and 0.05-0.11 s in-process on one Xeon vCPU
    (60, "(a-b)^20*(a-2*b)^20*(a-3*i*b)^20", 3,
     "22a7dfa6e4dc99959b8cdd7bea208dc55f53e0263c7d1a2aad6a57d1659dcfbf"),
    (100, "(a-b)^34*(a-2*b)^33*(a-3*i*b)^33", 10,
     "9c4a81f186bf552c6d9c71560759d30e49c1da9cdef5ad14fa107321e62872c1"),
    # one power at the cap: rho has 100 integer roots, distinct mod 101
    (100, "(a-b)^100", 10,
     "8829d54fd42a2883a022e2d33d76fbed34563e1ab94504c0db1d88c314db6ff8"),
])
def test_cli_factor_of_three_powers_in_bounded_time(capsys, order, text, seconds, digest):
    """rho is square-free; in the first two rows its roots meet modulo the
    first primes, so the certificate decides.  The output is pinned by its
    SHA-256."""
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "factor", "--order", str(order), text)
    assert time.perf_counter() - start < seconds
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def _cap_product(k: int) -> dict:
    """k factors (a - lam_j b) S_j for the order cap: lam_j Gaussian over
    denominators up to 7; S_j = 2 + (1/2 - i) b^(j mod 3 + 1) for every
    tenth j, else 1."""
    def c(re, im="0"):
        return {"re": re, "im": im}

    factors = []
    for j in range(k):
        terms = [{"p": 0, "q": 0, **c("1")}]
        if j % 10 == 0:
            terms = [{"p": 0, "q": 0, **c("2")}, {"p": 0, "q": j % 3 + 1, **c("1/2", "-1")}]
        factors.append({"lambda": c(f"{(-1) ** j * (j % 9 + 1)}/{j % 7 + 1}",
                                    f"{j % 5 - 2}/{j % 3 + 1}"),
                        "S": {"order": 100, "ordering": "left", "terms": terms}})
    return {"factors": factors}


@pytest.mark.parametrize("k, args, seconds, digest", [
    # 1.5-2.0 s and 1.1-1.6 s in-process on one Xeon vCPU (2.3-2.4 s and
    # 2.2-2.3 s when the check R = x - Q P expanded P and called mul, 4.3 s
    # and 3.7 s before the peels ran on one integer table); the output is
    # 0.9 MB and 1.5 MB
    (100, ["div", "(1+a+b)^100"], 8,
     "cfcbb54d9ef12e6687f9a11245fca4c7a469973e4497c64fc69c0ab53b080272"),
    (30, ["fresco-act", "(1+a+b)^100", "1 + a*b"], 8,
     "4be79a69e9c6120adf5b0c919f6749abcdaaccd787cd082732494719f062fad7"),
])
def test_cli_division_at_the_order_cap_in_bounded_time(capsys, tmp_path, k, args, seconds,
                                                       digest):
    """Factored division at order 100 by 100 and by 30 factors, pinned by the
    SHA-256 of stdout."""
    product = tmp_path / "p.json"
    product.write_text(json.dumps(_cap_product(k)))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, args[0], "--order", "100", "--product", str(product), *args[1:])
    assert time.perf_counter() - start < seconds
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, "normalize", "--order", "4", "a**b")
    assert code == 2 and "offset 2" in err
    code, _, err = run_cli(capsys, "inv", "--order", "4", "b")
    assert code == 3 and "unit" in err
    # malformed input documents are usage errors
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "act", "--input", str(bad), "a")
    assert code == 2
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "bernstein", "--matrix", str(missing))
    assert code == 2
    # bad usage (unknown flag) is 2 as well
    code, _, _ = run_cli(capsys, "normalize", "--nope", "a")
    assert code == 2


def test_cli_deeply_nested_json_is_a_schema_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, out, err = run_cli(capsys, "bernstein", "--matrix", str(deep))
    assert code == 2 and out == ""
    assert "nested too deeply" in err and "internal error" not in err


def test_cli_order_and_degree_limits(capsys, tmp_path):
    series = tmp_path / "series.json"
    series.write_text(json.dumps(polyseries_to_json(PolySeries.monomial(1, 3))))
    act = ("act", "--input", str(series), "--order", "2", "a")
    assert run_cli(capsys, "normalize", "--order", str(MAX_ORDER), "a")[0] == 0
    assert run_cli(capsys, *act, "--degree", str(3 * MAX_ORDER))[0] == 0
    for argv in [("inv", "--order", str(MAX_ORDER + 1), "1 - a*b"),
                 ("factor", "--order", str(MAX_ORDER + 1), "a^2"),
                 act + ("--degree", str(3 * MAX_ORDER + 1))]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "must be between 0 and" in err


def test_cli_bernstein_geometric_ode2ab(capsys, tmp_path):
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(matrix_to_json(QMatrix([[Fraction(1, 2), 0], [0, 3]]))))
    code, out, _ = run_cli(capsys, "bernstein", "--matrix", str(theta), "--pretty")
    assert code == 0 and out == "x^2 + 7/2*x + 3/2\n"
    code, out, _ = run_cli(capsys, "geometric", "--matrix", str(theta))
    assert code == 0 and json.loads(out)["geometric"] is True

    system = tmp_path / "sys.json"
    system.write_text(json.dumps(series_matrix_to_json(
        DifferentialSystem((QMatrix([[2]]), QMatrix([[3]]))).coeffs)))
    code, out, _ = run_cli(capsys, "ode2ab", "--system", str(system), "--order", "3")
    doc = json.loads(out)
    values = [m["entries"][0][0]["re"] for m in doc["coeffs"]]
    assert code == 0 and values == ["2/1", "9/1", "27/1", "81/1"]


def _system_file(path, k: int, matrices: int):
    """A system of `matrices` k x k matrices of small Gaussian rationals."""
    path.write_text(json.dumps(series_matrix_to_json(tuple(
        QMatrix([[GaussianRational(Fraction((7 * i + 3 * j + d) % 5 - 2, (i + j + d) % 3 + 1),
                                   Fraction((2 * i + j + d) % 3 - 1, (j + d) % 2 + 1))
                  for j in range(k)] for i in range(k)]) for d in range(matrices)))))
    return str(path)


def test_cli_ode2ab_refuses_work_over_the_limit_before_any_arithmetic(capsys, tmp_path):
    # k = 10, order 100 and four matrices: 3 * 100^2 * 10^3 = 3e7 > 2e7 (three
    # matrices would be 2e7, at the limit and accepted, in about 5 s); at
    # order 45 the matrices above the 45th are dropped, so top = 45
    assert cli.MAX_ODE2AB_WORK == 20_000_000
    for order, matrices, work in [(100, 4, 30_000_000), (100, 101, 1_000_000_000),
                                  (45, 100, 45 * 45 ** 2 * 1000)]:
        system = _system_file(tmp_path / "sys.json", 10, matrices)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "ode2ab", "--system", system, "--order", str(order))
        assert time.perf_counter() - start < 2
        assert code == 2 and out == "" and f"= {work} of this system is over 20000000" in err


def test_cli_ode2ab_work_limit_is_inclusive(capsys, tmp_path, monkeypatch):
    # the cli-sparse shape, k = 3, order 6 and two matrices, costs 1 * 6^2 * 3^3
    # = 972, far below the limit; with the limit moved to 972 and 971 it sits
    # exactly at it and one above
    system = _system_file(tmp_path / "sys.json", 3, 2)
    code, out, _ = run_cli(capsys, "ode2ab", "--system", system, "--order", "6")
    assert code == 0 and len(json.loads(out)["coeffs"]) == 7
    monkeypatch.setattr(cli, "MAX_ODE2AB_WORK", 972)
    assert run_cli(capsys, "ode2ab", "--system", system, "--order", "6")[:2] == (0, out)
    monkeypatch.setattr(cli, "MAX_ODE2AB_WORK", 971)
    code, out, err = run_cli(capsys, "ode2ab", "--system", system, "--order", "6")
    assert code == 2 and out == "" and "= 972 of this system is over 971" in err
    # one matrix (top = 0) costs nothing, and matrices above the order do not count
    system = _system_file(tmp_path / "one.json", 3, 1)
    assert run_cli(capsys, "ode2ab", "--system", system, "--order", "6")[0] == 0
    system = _system_file(tmp_path / "high.json", 3, 9)
    assert run_cli(capsys, "ode2ab", "--system", system, "--order", "1")[0] == 0


def _act_series_file(path, d: int, bound: int = 300):
    """The README's series of the act rows: z^0..z^bound, the m-th coefficient
    (N + m)/(N - 2m + 1) - (N + 3m)/(N + m + 2) i with N = 10^(d-1) + 7."""
    n = 10 ** (d - 1) + 7
    path.write_text(json.dumps(polyseries_to_json(PolySeries(bound, {
        m: GaussianRational(Fraction(n + m, n - 2 * m + 1), -Fraction(n + 3 * m, n + m + 2))
        for m in range(bound + 1)}))))
    return str(path)


def test_cli_act_refuses_work_over_the_limit_before_any_arithmetic(
        capsys, tmp_path, monkeypatch):
    # on the README series with 100-digit denominators this ran 26-33 s
    # before it exited 3; with 30-digit ones the oracle took 3.3-4.1 s
    from abalg import oracle

    def refused(x, f):
        raise AssertionError("the oracle ran on a refused request")
    monkeypatch.setattr(oracle, "act", refused)
    assert cli.MAX_ACT_WORK == 200_000_000
    for d in (100, 30):
        series = _act_series_file(tmp_path / "series.json", d)
        code, out, err = run_cli(capsys, "act", "--order", "100", "--input", series,
                                 "(1+a+b)^100")
        assert code == 2 and out == "" and "is over 200000000" in err


@pytest.mark.parametrize("expr", ["0", "a - a"])
def test_cli_act_of_zero_is_the_zero_series(capsys, tmp_path, expr):
    # zero has no terms, so its work estimate reads X's size off the
    # denominator alone
    series = _act_series_file(tmp_path / "series.json", 3, bound=10)
    code, out, _ = run_cli(capsys, "act", "--order", "4", "--input", series, expr)
    assert code == 0 and json.loads(out)["terms"] == []


def test_cli_act_work_limit_is_inclusive(capsys, tmp_path, monkeypatch):
    # a - 3*b on z^0 + z^1 at degree bound 6: the degrees 1 and 2 are reached,
    # T = 2, D = 1, w_t = 1 + 4 // 64 and w_x = 1 + 2 // 64, so the work is
    # 2 ((2 + 1) (1 + 16) + (1 + 1)^2 // 8) = 102
    series = tmp_path / "f.json"
    series.write_text(json.dumps(polyseries_to_json(PolySeries(6, {0: 1, 1: 1}))))
    act = ("act", "--input", str(series), "--order", "2", "--degree", "6", "a - 3*b")
    code, out, _ = run_cli(capsys, *act)
    assert code == 0 and [t["m"] for t in json.loads(out)["terms"]] == [1, 2]
    monkeypatch.setattr(cli, "MAX_ACT_WORK", 102)
    assert run_cli(capsys, *act)[:2] == (0, out)
    monkeypatch.setattr(cli, "MAX_ACT_WORK", 101)
    code, out, err = run_cli(capsys, *act)
    assert code == 2 and out == "" and "on this series, 102, is over 101" in err


def test_cli_refuses_a_matrix_above_the_rank_limit_before_any_arithmetic(capsys, tmp_path):
    k = MAX_RANK + 1
    theta = QMatrix([[GaussianRational(Fraction(7 * i - 3 * j, j % 5 + 1), Fraction(1, 3))
                      for j in range(k)] for i in range(k)])
    matrix, system = tmp_path / "theta.json", tmp_path / "sys.json"
    matrix.write_text(json.dumps(matrix_to_json(theta)))
    system.write_text(json.dumps(series_matrix_to_json(DifferentialSystem((theta,)).coeffs)))
    for argv in [("bernstein", "--matrix", str(matrix)), ("geometric", "--matrix", str(matrix)),
                 ("ode2ab", "--system", str(system), "--order", "4")]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and f"at most {MAX_RANK}" in err
        assert "internal error" not in err


def test_cli_xi_act(capsys, tmp_path):
    xi = tmp_path / "xi.json"
    xi.write_text(json.dumps(xi_to_json(
        XiElement.symbol(Fraction(1, 2), 0, 0, m_bound=2))))
    code, out, _ = run_cli(capsys, "xi-act", "--input", str(xi), "--op", "b")
    doc = json.loads(out)
    assert code == 0
    assert doc["terms"] == [{"alpha": "1/2", "m": 1, "j": 0,
                             "c": [{"re": "2/3", "im": "0/1"}]}]


@pytest.mark.parametrize("dim, code", [(1849, 0), (1850, 2)])
def test_cli_xi_act_b_refuses_work_over_the_limit_before_any_arithmetic(
        capsys, tmp_path, monkeypatch, dim, code):
    # one term s^1 (log s)^100: the estimate is 101 * (4 dim + 101) * (L + 64)
    # with L = 2, the bit length of the numerator of alpha + m + 1 = 2, so
    # dim 1849 is the largest that b accepts
    from abalg import expansions
    acted = []
    monkeypatch.setattr(expansions, "xi_act_b", lambda xi: acted.append(xi) or xi)
    xi = tmp_path / "xi.json"
    xi.write_text(json.dumps({"dim": dim, "log_depth": 100, "terms": [
        {"alpha": "1", "m": 0, "j": 100, "c": [{"re": "1", "im": "0"}] * dim}]}))
    got, _, err = run_cli(capsys, "xi-act", "--input", str(xi), "--op", "b")
    assert got == code and len(acted) == (code == 0)
    assert code == 0 or f"over {cli.MAX_XI_ACT_WORK}" in err


@pytest.mark.parametrize("key, value, message", [
    ("m", 10 ** 100, "m must be below 10^100"),
    ("m", int("9" * 4300), "m must be below 10^100"),
    ("m_bound", 10 ** 100 + 1, "m_bound must be at most 10^100"),
])
def test_cli_xi_act_refuses_a_shift_past_the_bound(capsys, tmp_path, key, value, message):
    # with m = 10^4300 - 1 and no m_bound, the default m_bound m + 1 has
    # 4301 digits, which json cannot write: that document once exited 4
    term = {"alpha": "1/2", "m": value if key == "m" else 0, "j": 0, "c": [{"re": "1", "im": "0"}]}
    doc = {"dim": 1, "log_depth": 0, "terms": [term]}
    if key == "m_bound":
        doc["m_bound"] = value
    xi = tmp_path / "xi.json"
    xi.write_text(json.dumps(doc))
    for op in ("a", "b"):
        code, out, err = run_cli(capsys, "xi-act", "--input", str(xi), "--op", op)
        assert code == 2 and out == "" and message in err


DIGIT_LIMIT = sys.get_int_max_str_digits()
needs_digit_limit = pytest.mark.skipif(DIGIT_LIMIT == 0, reason="int/str digit limit is off")


@needs_digit_limit
@pytest.mark.parametrize("pretty", [(), ("--pretty",)])
def test_cli_coefficient_beyond_the_digit_limit_is_a_domain_error(capsys, pretty):
    # 2^(4 * limit) has more than limit decimal digits
    code, out, err = run_cli(capsys, "normalize", "--order", "1", *pretty, f"2^{4 * DIGIT_LIMIT}")
    assert code == 3 and out == ""
    assert f"{DIGIT_LIMIT}-digit limit" in err and "internal error" not in err


@needs_digit_limit
def test_cli_literal_beyond_the_digit_limit_is_a_parse_error(capsys):
    digits = "7" * (DIGIT_LIMIT + 1)
    code, out, err = run_cli(capsys, "normalize", "--order", "1", digits + "*a")
    assert code == 2 and out == ""
    assert f"at most {DIGIT_LIMIT} digits" in err and "internal error" not in err
    code, _, err = run_cli(capsys, "normalize", "--order", "1", "1/" + digits)
    assert code == 2 and "offset 2" in err and "internal error" not in err


@needs_digit_limit
@pytest.mark.parametrize("text", [
    f"(1/3 + a + b)^{MAX_EXPONENT}",
    "((1/3)^50000)^50000",
    "((3/5 + 4/5*i)^40000)^40000",
    "(2^3000 + a)^2000",
    "(1/2^3000 + b)^2000",
])
def test_cli_power_with_a_huge_constant_term_is_a_domain_error_before_it_is_computed(capsys,
                                                                                     text):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "normalize", "--order", "12", text)
    assert time.perf_counter() - start < 5
    assert code == 3 and out == ""
    assert f"{DIGIT_LIMIT}-digit limit" in err and "internal error" not in err


@pytest.mark.parametrize("text", [f"(1 + a + b)^{MAX_EXPONENT}", f"(i - a*b)^{MAX_EXPONENT - 1}",
                                  f"(a + b)^{MAX_EXPONENT}", "(1 + 1/3*a)^30000",
                                  f"(-i + 1/7*a + 1/9*b)^{MAX_EXPONENT}"])
def test_cli_power_with_a_unit_or_zero_constant_term_ends_in_bounded_time(capsys, text):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "normalize", "--order", "12", text)
    assert time.perf_counter() - start < 5
    assert code == 0 and err == ""


@needs_digit_limit
def test_cli_power_whose_constant_term_prints_is_not_refused_for_other_denominators(capsys):
    """2^12000 has 3613 digits; the 1/1000003 of a must not count toward c^n."""
    code, out, err = run_cli(capsys, "normalize", "--order", "3", "(2 + 1/1000003*a)^12000")
    assert code == 0 and err == "" and f"\"{2 ** 12000}/1\"" in out


@needs_digit_limit
def test_the_early_power_error_only_fires_when_printing_would_fail():
    """Wherever the power check raises, the constant term c^n does not print,
    also when another coefficient of the base has a larger denominator than c."""
    rng = random.Random(5)
    values = [Fraction(1, 3), Fraction(2), Fraction(-3, 2), Fraction(5, 4), Fraction(7, 8)]
    others = ["a", "1/7*a", "1/1000003*a", "(2/3 + 1/9*i)*a", "1/6*a + 1/35*b"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the smallest limit there is, so that c^n stays cheap
    try:
        raised = 0
        for _ in range(300):
            c = GaussianRational(rng.choice(values + [0, 1, -1]), rng.choice(values + [0, 1, -1]))
            n = rng.randrange(1, 6000)
            text = f"(({format_element(AlgebraElement.scalar(c, 0))}) + {rng.choice(others)})^{n}"
            try:
                parse_element(text, 1)
            except AbalgError as exc:
                assert "digit limit" in str(exc)
                raised += 1
                with pytest.raises(AbalgError):
                    format_element(AlgebraElement.scalar(c ** n, 0))
        assert raised > 50
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("text, expected", [
    ("a+" * 5000 + "a", 0),
    ("a*" * 5000 + "a", 0),
    ("(" * 300 + "a" + ")" * 300, 2),
    ("1*" + "-" * 2000 + "a", 2),
], ids=["long-sum", "long-product", "deep-parentheses", "deep-unary-minus"])
def test_cli_long_and_deeply_nested_expressions_end_in_bounded_time(capsys, text, expected):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "normalize", "--order", "4", text)
    assert time.perf_counter() - start < 5
    assert code == expected and "internal error" not in err
    if expected == 2:
        assert f"at most {MAX_NESTING} nested" in err and out == ""


def test_selftest_reports_a_crashing_suite_and_runs_the_rest(monkeypatch):
    def crash(rng):
        raise ZeroDivisionError("boom")

    ran = []
    monkeypatch.setattr(checks, "CHECKS", {"crash": crash, "fine": ran.append})
    lines = []
    assert checks.run_all(seed=7, out=lines.append) is False
    assert lines[0].split() == ["crash", "FAIL", "ZeroDivisionError:", "boom", "(seed", "7)"]
    assert lines[1].split() == ["fine", "PASS"] and len(ran) == 1


def test_selftest_json_reports_each_suite_with_its_time(monkeypatch, capsys):
    def crash(rng):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(checks, "CHECKS", {"crash": crash, "fine": lambda rng: None})
    code, out, _ = run_cli(capsys, "selftest", "--seed", "7", "--json")
    assert code == 4
    rows = [json.loads(line) for line in out.splitlines()]
    assert [set(row) for row in rows] == [{"suite", "ok", "seconds", "seed", "error"}] * 2
    assert [(r["suite"], r["ok"], r["seed"], r["error"]) for r in rows] == [
        ("crash", False, 7, "ZeroDivisionError: boom"), ("fine", True, 7, None)]
    assert all(isinstance(r["seconds"], float) and r["seconds"] >= 0 for r in rows)
    monkeypatch.setattr(checks, "CHECKS", {"fine": lambda rng: None})
    assert run_cli(capsys, "selftest", "--json")[0] == 0


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("seed", ["-5", "0", "9" * 4300, "-" + "9" * 4300],
                         ids=["negative", "zero", "4300-digits", "minus-4300-digits"])
def test_selftest_at_the_seed_caps(monkeypatch, capsys, seed, as_json):
    """Every seed that int takes, up to its 4300 digits, seeds the suites and
    is printed back in full in bounded time; a longer one is a usage error."""
    def crash(rng):
        raise ZeroDivisionError("boom")

    fine = "cli/deterministic-output"
    monkeypatch.setattr(checks, "CHECKS", {"crash": crash, fine: checks.CHECKS[fine]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "selftest", "--seed", seed, *["--json"][:as_json])
    assert time.perf_counter() - start < 5
    assert code == 4 and err == ""
    if as_json:
        rows = [json.loads(line) for line in out.splitlines()]
        assert [(r["suite"], r["ok"], r["seed"]) for r in rows] == [
            ("crash", False, int(seed)), (fine, True, int(seed))]
    else:
        lines = out.splitlines()
        assert lines[0].endswith(f"ZeroDivisionError: boom (seed {seed})")
        assert lines[1].split() == [fine, "PASS"]
    code, out, err = run_cli(capsys, "selftest", "--seed", "9" * 5000, *["--json"][:as_json])
    assert code == 2 and out == "" and "invalid int value" in err


# -- the parser of one subcommand -------------------------------------------------------

# A valid argv of each subcommand; the parser does not open the files.
_VALID_ARGV = {
    "normalize": ["--order", "4", "--form", "right", "--pretty", "a^2*b"],
    "mul": ["--order", "4", "a", "b"],
    "inv": ["1 - a*b"],
    "div-linear": ["--lambda", "1", "a^2"],
    "div": ["--product", "p.json", "a^3"],
    "tau": ["--x", "1/2", "--form", "right", "a"],
    "anti-f": ["--pretty", "a*b"],
    "act": ["--input", "f.json", "--degree", "9", "a"],
    "factor": ["--order", "3", "a^2"],
    "bernstein": ["--matrix", "m.json", "--pretty"],
    "geometric": ["--matrix", "m.json"],
    "ode2ab": ["--system", "s.json", "--order", "3"],
    "fresco-act": ["--product", "p.json", "a*b", "1 + b"],
    "xi-act": ["--input", "xi.json", "--op", "b"],
    "selftest": ["--seed", "7", "--json"],
}


def _parse(capsys, parser, argv):
    """(exit code, the parsed arguments, stdout, stderr) of parsing argv."""
    try:
        args, code = vars(parser.parse_args(argv)), 0
    except SystemExit as exc:
        args, code = None, exc.code
    out, err = capsys.readouterr()
    return code, args, out, err


def test_every_subcommand_has_a_valid_argv():
    assert list(_VALID_ARGV) == list(cli._COMMANDS)


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("command", list(_VALID_ARGV))
def test_the_parser_of_one_subcommand_parses_as_the_full_parser(capsys, monkeypatch, command,
                                                                 columns):
    """Help, usage and every error read the same from the one-subcommand parser,
    the top-level usage of an unrecognized argument included, at any width."""
    monkeypatch.setenv("COLUMNS", columns)
    valid = _VALID_ARGV[command]
    argvs = [valid, ["--help"], valid[:-1], valid + ["--order", "x"], valid + ["--form", "up"],
             valid + ["--bogus"], valid + ["extra"]]
    for argv in argvs:
        argv = [command, *argv]
        full = _parse(capsys, cli._build_parser(), argv)
        assert _parse(capsys, cli._build_parser(command), argv) == full, argv
    assert _parse(capsys, cli._build_parser(), [command, *valid])[0] == 0


@pytest.mark.parametrize("argv, built_for, code", [
    ([], None, 2), (["-h"], None, 0), (["mull", "a", "b"], None, 2),
    (["--order", "3", "mul", "a", "b"], None, 2),
    (["mul", "--order", "3", "a", "b"], "mul", 0), (["div-linear", "--help"], "div-linear", 0),
])
def test_main_builds_one_subparser_for_a_known_command_only(capsys, monkeypatch, argv, built_for,
                                                            code):
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda command=None: built.append(command) or build(command))
    assert main(argv) == code
    assert built == [built_for]


# Runs the CLI as `python -m abalg.cli` does, then lists the abalg modules it loaded.
_LOADED_BY = """
import runpy, sys
try:
    runpy.run_module("abalg.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(" ".join(sorted(sys.modules)))
"""

_KERNELS = {"division", "modules", "linalg", "polynomials", "series"}
_NOT_LOADED_BY = [
    (["normalize", "--pretty", "--order", "6", "a^2*b"],
     _KERNELS | {"oracle", "expansions", "jsonio", "checks"}),
    (["normalize", "--order", "6", "a^2*b"], _KERNELS | {"oracle", "checks"}),
    (["mul", "--order", "6", "a", "b"], _KERNELS | {"oracle", "checks"}),
    (["tau", "--x", "1/2", "--order", "6", "a^2*b"], _KERNELS | {"oracle", "checks"}),
    (["anti-f", "--order", "6", "a^2*b"], _KERNELS | {"oracle", "checks"}),
    (["inv", "--order", "6", "1 + a*b"], {"modules", "linalg", "polynomials", "checks"}),
    (["div-linear", "--lambda", "2", "--order", "6", "a^2*b"],
     {"modules", "linalg", "polynomials", "checks"}),
    (["div", "--order", "6", "--product", "{product}", "a^3"],
     {"modules", "linalg", "polynomials", "checks"}),
    (["bernstein", "--matrix", "{matrix}"], {"division", "checks"}),
    (["geometric", "--matrix", "{matrix}"], {"division", "checks"}),
    (["ode2ab", "--system", "{system}", "--order", "3"], {"division", "checks"}),
    (["fresco-act", "--order", "6", "--product", "{product}", "a*b", "1 + b"], {"checks"}),
]
_ALSO_LOADED_BY = [
    (["act", "--order", "4", "--input", "{series}", "a*b"], {"oracle"}),
]


def test_cli_import_does_not_load_the_invariant_suites(tmp_path):
    """Each subcommand loads only what it uses, none loads the suites, and none
    loads `dataclasses` or `inspect` (with their own imports, about 10 ms of a
    request's start-up)."""
    theta = matrix_to_json(QMatrix([[Fraction(1, 2), 1], [0, 3]]))
    docs = {
        "matrix": theta,
        "system": {"k": 2, "coeffs": [theta, theta]},
        "series": polyseries_to_json(PolySeries(6, {0: GaussianRational(1)})),
        "product": {"factors": [
            {"lambda": {"re": "2", "im": "0"}, "S": {"order": 6, "ordering": "left", "terms": [
                {"p": 0, "q": 0, "re": "1", "im": "0"}]}}]},
    }
    files = {}
    for name, doc in docs.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    cases = ([(argv, not_loaded, set()) for argv, not_loaded in _NOT_LOADED_BY]
             + [(argv, set(), also_loaded) for argv, also_loaded in _ALSO_LOADED_BY])
    for argv, not_loaded, also_loaded in cases:
        argv = [arg.format(**files) for arg in argv]
        result = subprocess.run([sys.executable, "-c", _LOADED_BY, *argv],
                                capture_output=True, text=True, env=_checkout_env())
        assert result.returncode == 0, result.stderr
        modules = set(result.stdout.splitlines()[-1].split())
        loaded = {name.removeprefix("abalg.") for name in modules if name.startswith("abalg.")}
        assert {"elements", "expr"} | also_loaded <= loaded, argv
        assert not loaded & not_loaded, argv
        assert not modules & {"dataclasses", "inspect"}, argv


def _checkout_env():
    """The environment with this checkout's source first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(abalg.__file__))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _cli_process(*args, **kwargs):
    """Popen of `python -m abalg.cli args` on this checkout's source."""
    return subprocess.Popen([sys.executable, "-m", "abalg.cli", *args], env=_checkout_env(),
                            **kwargs)


# a document larger than the pipe's buffer, and one that is written only at exit
@pytest.mark.parametrize("expr", ["(1 + a + b)^12", "a"])
def test_cli_output_to_a_closed_pipe_is_not_an_error(expr):
    proc = _cli_process("normalize", "--order", "12", expr,
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader is gone before the first write, as with `| head -0`
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_cli_factor_with_a_semiprime_coefficient_ends_partial_in_bounded_time():
    # rho = x^2 + 1000000007*1000000009 has no root in Q(i); no integer is factored
    proc = _cli_process("factor", "--order", "4", "a^2 + 1000000007*1000000009*b^2",
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    start = time.perf_counter()
    try:
        out, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
    assert time.perf_counter() - start < 5
    assert proc.returncode == 0 and "internal error" not in err
    doc = json.loads(out)
    assert doc["complete"] is False and doc["lambdas"] == []
    assert element_from_json(doc["core"]) == parse_element(
        "a^2 + 1000000007*1000000009*b^2", 4)


def test_cli_factor_finds_gaussian_lambdas(capsys):
    text = "(a - (3/2 + 2*i)*b)*(a - (1 - 1/4*i)*b)*(a - 5/3*i*b)"
    code, out, _ = run_cli(capsys, "factor", "--order", "3", text)
    doc = json.loads(out)
    assert code == 0 and doc["complete"] is True and doc["core"] is None
    assert doc["b_power"] == 0 and coeff_from_json(doc["scale"]) == 1
    lambdas = [coeff_from_json(lam) for lam in doc["lambdas"]]
    assert lambdas == [GaussianRational(Fraction(3, 2), 2), GaussianRational(1, Fraction(-1, 4)),
                       GaussianRational(0, Fraction(5, 3))]
    product = AlgebraElement.monomial(0, 0, 3)
    for lam in lambdas:
        product = mul(product, gen_a(3) - scale(lam, gen_b(3)))
    assert product == parse_element(text, 3)
