"""Acceptance criteria, one test per criterion, at the full prescribed volumes.

Criteria 1-11 are rows of TABLE: each runs a suite of `abalg.checks` in-process
with the criterion's seed and its volume keywords, so every invariant is
written once, in the suite.  The suites that no criterion names run here too,
at their `selftest` volume or above.  All arithmetic is exact over the
Gaussian rationals.  Each criterion prints a PASS line so a plain
`pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import random
import subprocess
import sys

import pytest

from abalg.checks import CHECKS
from abalg.cli import main as cli_main

# (criterion, suite, seed, volume); criterion None is a suite no criterion names
TABLE = [
    (1, "core-algebra/defining-relation-and-ring-axioms", 101, dict(triples=200, order=12)),
    (2, "core-algebra/reorder-coeff-recursions", 102, dict(bound=30)),
    (3, "core-algebra/ordering-round-trip", 103, dict(count=500, order=10)),
    (4, "oracle/representation-property", 104, dict(count=200, order=8, bound=24)),
    (5, "core-algebra/shifted-power-exercise", 105, dict(order=12, draws=20)),
    (5, "core-algebra/integer-shift-identity", 105, dict(order=12)),
    (5, "core-algebra/double-power-formula", 105, dict(top=6)),
    (5, "core-algebra/binomial-sum-identity", 105, dict(bound=20)),
    (6, "division/two-sided-inverse", 106, dict(count=200, order=10)),
    (7, "division/closed-form-powers", 107, dict(count=200, top=10)),
    (7, "division/factored-products", 107, dict(count=100, order=10)),
    (8, "core-algebra/shear-group-law", 108, dict(count=100, order=8)),
    (8, "core-algebra/anti-automorphism", 108, dict(count=100, order=8)),
    (9, "abmod/module-law", 109, dict(count=30, order=8)),
    (9, "abmod/simple-pole-containment", 109, dict(count=30, order=8)),
    (9, "abmod/bernstein", 109, dict(count=30, order=8)),
    (9, "abmod/fresco", 109, dict(count=30, order=8)),
    (10, "abmod/differential-systems", 110, dict(count=50, order=6)),
    (11, "abmod/xi-representation", 111, dict(count=200, poles=50)),
    (None, "core-algebra/grading", 112, {}),
    (None, "division/linear-identity-and-uniqueness", 113, {}),
    (None, "division/truncation-stability", 114, {}),
    (None, "division/homogeneous-factorization", 115, {}),
    (None, "oracle/kernel-vs-composed", 116, {}),
    (None, "oracle/faithfulness-witness", 117, {}),
    (None, "cli/print-parse-round-trip", 118, {}),
    (None, "cli/deterministic-output", 119, dict(count=50)),
]

CRITERIA = {
    1: "ab - ba = b^2; associativity and distributivity, 200 triples at N=12, exact",
    2: "closed form matches both recursions (p,q <= 30) and the expansion acts "
       "correctly on monomials (p,q <= 6)",
    3: "to_left and to_right are mutually inverse on 500 random elements at N=10",
    4: "act(mul(X,Y)) = act(X) o act(Y) on z^r, r <= 8, for 200 pairs at N=8, D=24",
    5: "collapsed binomial powers, the shift identities, the double-power "
       "formula and the binomial sum identity all hold exactly",
    6: "two-sided inverses for 200 random units at N=10; geometric series closed form",
    7: "closed-form agreement (m <= 10), X = QP + R with deg_a R <= k-1 for "
       "100 instances, remainder invariant under X -> X + ZP",
    8: "shears are unit-preserving homomorphisms with inverse shear(-x); the "
       "anti-automorphism reverses products and is involutive",
    9: "module action associative (k <= 3); a E inside b E; Bernstein polynomial "
       "= minimal annihilator of -theta; the unit fresco satisfies a.e = b.e",
    10: "X(0) = M(0) and ae = M(a)be holds mod b^6 after substitution for 50 "
        "random systems (k <= 2, degree <= 2); constant systems return X = M(0)",
    11: "ab - ba = b^2 on 200 random expansions; a[s^(alpha+m)] = "
        "(alpha+m+1) b[s^(alpha+m)] for 50 random (alpha, m)",
}


def run_row(row):
    _, name, seed, volume = row
    CHECKS[name](random.Random(seed), **volume)


def criterion(n):
    for row in TABLE:
        if row[0] == n:
            run_row(row)
    print(f"[PASS] criterion {n}: {CRITERIA[n]}")


def test_the_table_runs_every_suite_once():
    names = [name for _, name, _, _ in TABLE]
    assert sorted(names) == sorted(CHECKS)
    assert sorted({n for n, *_ in TABLE if n is not None}) == sorted(CRITERIA)


def test_criterion_1_relation_and_ring_axioms():
    criterion(1)


def test_criterion_2_reordering_table():
    criterion(2)


def test_criterion_3_ordering_round_trip():
    criterion(3)


def test_criterion_4_oracle_equivalence():
    criterion(4)


def test_criterion_5_classical_identities():
    criterion(5)


def test_criterion_6_inversion():
    criterion(6)


def test_criterion_7_division():
    criterion(7)


def test_criterion_8_automorphisms():
    criterion(8)


def test_criterion_9_modules():
    criterion(9)


def test_criterion_10_differential_systems():
    criterion(10)


def test_criterion_11_expansions():
    criterion(11)


@pytest.mark.parametrize("row", [row for row in TABLE if row[0] is None], ids=lambda row: row[1])
def test_suite_without_a_criterion(row):
    run_row(row)


def test_criterion_12_cli(capsys):
    cases = [
        (["normalize", "--order", "4", "--form", "right", "--pretty", "a^2*b"],
         "b*a^2 + 2*b^2*a + 2*b^3\n"),
        (["inv", "--order", "4", "--pretty", "1 - a*b"],
         "1 + a*b + a^2*b^2 - a*b^3\n"),
        (["div-linear", "--lambda", "1", "--order", "6", "--pretty", "a^2"],
         "Q = a + b\nR = 2*b^2\n"),
    ]
    for argv, expected in cases:
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == expected
        # byte-identical across runs
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == expected
    assert cli_main(["normalize", "--order", "4", "a**b"]) == 2
    assert cli_main(["inv", "--order", "4", "b"]) == 3
    capsys.readouterr()
    result = subprocess.run([sys.executable, "-m", "abalg.cli", "selftest"],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "FAIL" not in result.stdout
    print(f"[PASS] criterion 12: documented CLI outputs byte-identical; selftest exits 0; "
          "parse and domain errors use exit codes 2 and 3")
