import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import abalg
from abalg import checks
from abalg.checks import random_element
from abalg.cli import main
from abalg.coefficients import GaussianRational
from abalg.elements import (LEFT, RIGHT, AlgebraElement, binomial_pow, gen_a, gen_b, mul,
                            scale)
from abalg.errors import ExprError
from abalg.expr import format_element, parse, parse_element, parse_scalar
from abalg.jsonio import (coeff_from_json, element_from_json, element_to_json, matrix_to_json,
                          polyseries_from_json, polyseries_to_json, system_to_json,
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


def test_print_parse_round_trip_random():
    rng = random.Random(2024)
    for _ in range(200):
        order = rng.randrange(0, 9)
        x = random_element(rng, order, terms=rng.randrange(0, 7),
                           ordering=rng.choice([LEFT, RIGHT]))
        assert parse_element(format_element(x), order, x.ordering) == x


# -- JSON schemas -----------------------------------------------------------------------

def test_element_json_round_trip():
    rng = random.Random(31)
    for _ in range(50):
        x = random_element(rng, 7, terms=5, ordering=rng.choice([LEFT, RIGHT]))
        doc = json.loads(json.dumps(element_to_json(x)))
        assert element_from_json(doc) == x


def test_polyseries_json_round_trip():
    f = PolySeries(9, {0: 1, 4: GaussianRational(Fraction(2, 3), -1)})
    assert polyseries_from_json(json.loads(json.dumps(polyseries_to_json(f)))) == f


def test_xi_json_round_trip():
    xi = XiElement(2, 1, 3, {(Fraction(1, 2), 1, 1):
                             (GaussianRational(1), GaussianRational(0, -2))})
    assert xi_from_json(json.loads(json.dumps(xi_to_json(xi)))) == xi


def test_matrix_and_system_json_shapes():
    theta = QMatrix([[Fraction(1, 2), 0], [1, 3]])
    doc = matrix_to_json(theta)
    assert doc["k"] == 2 and doc["entries"][0][0] == {"re": "1/2", "im": "0/1"}
    sysdoc = system_to_json(DifferentialSystem((theta,)))
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


def test_cli_bernstein_geometric_ode2ab(capsys, tmp_path):
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(matrix_to_json(QMatrix([[Fraction(1, 2), 0], [0, 3]]))))
    code, out, _ = run_cli(capsys, "bernstein", "--matrix", str(theta), "--pretty")
    assert code == 0 and out == "x^2 + 7/2*x + 3/2\n"
    code, out, _ = run_cli(capsys, "geometric", "--matrix", str(theta))
    assert code == 0 and json.loads(out)["geometric"] is True

    system = tmp_path / "sys.json"
    system.write_text(json.dumps(system_to_json(
        DifferentialSystem((QMatrix([[2]]), QMatrix([[3]]))))))
    code, out, _ = run_cli(capsys, "ode2ab", "--system", str(system), "--order", "3")
    doc = json.loads(out)
    values = [m["entries"][0][0]["re"] for m in doc["coeffs"]]
    assert code == 0 and values == ["2/1", "9/1", "27/1", "81/1"]


def test_cli_xi_act(capsys, tmp_path):
    xi = tmp_path / "xi.json"
    xi.write_text(json.dumps(xi_to_json(
        XiElement.symbol(Fraction(1, 2), 0, 0, m_bound=2))))
    code, out, _ = run_cli(capsys, "xi-act", "--input", str(xi), "--op", "b")
    doc = json.loads(out)
    assert code == 0
    assert doc["terms"] == [{"alpha": "1/2", "m": 1, "j": 0,
                             "c": [{"re": "2/3", "im": "0/1"}]}]


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


def test_cli_import_does_not_load_the_invariant_suites():
    src = os.path.dirname(os.path.dirname(abalg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, abalg.cli; assert 'abalg.checks' not in sys.modules, 'loaded'"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr


def _cli_process(*args, **kwargs):
    """Popen of `python -m abalg.cli args` on this checkout's source."""
    src = os.path.dirname(os.path.dirname(abalg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "abalg.cli", *args],
                            env={**os.environ, "PYTHONPATH": path}, **kwargs)


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
