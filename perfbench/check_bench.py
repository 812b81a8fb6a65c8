"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/check_bench.py

They check that a tiny run of each workload reports every metric that
BENCHMARK.json names, with its unit and no failed op; that a seed gives a
byte-identical input digest; and that a result with one coefficient
perturbed fails its exact check, so the referee is not vacuous.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import harness

harness.require_program()

from abalg.coefficients import GaussianRational  # noqa: E402
from abalg.division import DivisionResult, HomogeneousFactorization  # noqa: E402
from abalg.elements import AlgebraElement  # noqa: E402
from abalg.linalg import QMatrix  # noqa: E402
from abalg.modules import ModuleElement, SeriesPoleModule, SpectrumCheck  # noqa: E402
from abalg.oracle import PolySeries  # noqa: E402
from abalg.polynomials import Poly  # noqa: E402
from abalg.series import APolynomial, BSeries  # noqa: E402

import cli_sparse  # noqa: E402
import dense_kernels  # noqa: E402
import module_stack  # noqa: E402

RUN = Path(__file__).with_name("run.py")
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ONE = GaussianRational(1)


def _bump_first(table: dict) -> dict:
    """The same table with its first coefficient perturbed by 1; empty stays empty."""
    out = dict(table)
    if out:
        key = min(out)
        out[key] = out[key] + ONE
    return out


def perturb(result):
    """The result with exactly one coefficient changed."""
    if isinstance(result, AlgebraElement):
        if not result.coeffs:
            return AlgebraElement.scalar(ONE, result.order, result.ordering)
        return AlgebraElement(result.order, result.ordering, _bump_first(result.coeffs))
    if isinstance(result, PolySeries):
        return PolySeries(result.degree_bound, _bump_first(result.coeffs) or {0: ONE})
    if isinstance(result, BSeries):
        return BSeries(result.order, [result.coeffs[0] + ONE] + list(result.coeffs[1:]))
    if isinstance(result, APolynomial):
        parts = list(result.parts) or [BSeries.zero(result.order)]
        return APolynomial(result.order, [perturb(parts[0])] + parts[1:])
    if isinstance(result, QMatrix):
        rows = [list(r) for r in result.rows]
        rows[0][0] = rows[0][0] + ONE
        return QMatrix(rows)
    if isinstance(result, Poly):
        return Poly([result.coeffs[0] + ONE] + list(result.coeffs[1:]))
    if isinstance(result, DivisionResult):
        return DivisionResult(perturb(result.quotient), result.remainder)
    if isinstance(result, HomogeneousFactorization):
        return HomogeneousFactorization(result.scale + ONE, result.b_power, result.lambdas,
                                        result.core, result.order)
    if isinstance(result, ModuleElement):
        return ModuleElement(result.module, (perturb(result.entries[0]),) + result.entries[1:])
    if isinstance(result, SpectrumCheck):
        eigen = (result.eigenvalues[0] + 1,) + result.eigenvalues[1:]
        return SpectrumCheck(result.is_geometric, eigen, result.diagnostic)
    if isinstance(result, tuple) and isinstance(result[0], SeriesPoleModule):  # ode2ab
        module, coeffs = result
        bumped = (coeffs[0],) + (perturb(coeffs[1]),) + coeffs[2:]
        return SeriesPoleModule(bumped, module.order), bumped
    if isinstance(result, tuple) and isinstance(result[0], AlgebraElement):  # divide_linear
        return (perturb(result[0]),) + result[1:]
    if isinstance(result, tuple) and isinstance(result[1], str):  # a CLI request
        code, stdout = result
        if not stdout:
            return code + 1, stdout
        i = next(i for i, ch in enumerate(stdout) if ch.isdigit())
        return code, stdout[:i] + str((int(stdout[i]) + 1) % 10) + stdout[i + 1:]
    raise TypeError(f"cannot perturb a {type(result).__name__}")


def _run(workload, trace, seed=1):
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", "0.3", "--trace", str(trace), "--tiny"],
                          cwd=harness.ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode:
        raise AssertionError(f"run.py exited {done.returncode}: {done.stderr}")
    return done.stdout.rstrip("\n").split("\n")


class TinyRuns(unittest.TestCase):
    def test_every_metric_with_its_unit_and_no_failure(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines = _run(workload, trace)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     expected)
                    self.assertTrue(any(line.split()[:2] == ["failed_frac", "0"]
                                        for line in lines), "failed_frac = 0 not printed")

    def test_all_metrics_are_positive_end_to_end(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                metrics = json.loads(_run(workload, 0)[-1])["metrics"]
                self.assertTrue(all(m["value"] > 0 for m in metrics.values()), metrics)


class Inputs(unittest.TestCase):
    def test_same_seed_same_digest(self):
        for module in (dense_kernels, module_stack, cli_sparse):
            with self.subTest(workload=module.NAME):
                first = harness.input_digest(module.make_inputs(7))
                self.assertEqual(first, harness.input_digest(module.make_inputs(7)))
                self.assertNotEqual(first, harness.input_digest(module.make_inputs(8)))


class Referee(unittest.TestCase):
    def _calls(self, module, ops, work):
        if module is cli_sparse:
            requests = cli_sparse.Requests(ops, work)
            return requests.in_process, cli_sparse.make_check(requests)
        return module.execute, module.check

    def test_a_perturbed_coefficient_fails_every_check(self):
        for module in (dense_kernels, module_stack, cli_sparse):
            ops = module.make_inputs(1, tiny=True)
            harness.OUT.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=harness.OUT) as work:
                execute, check = self._calls(module, ops, Path(work))
                for op in ops:
                    with self.subTest(workload=module.NAME, op=op.kind, label=op.label):
                        result = execute(op)
                        self.assertTrue(check(op, result))
                        self.assertFalse(check(op, perturb(result)))

    def test_a_corrupted_op_counts_as_failed(self):
        ops = dense_kernels.make_inputs(1, tiny=True)
        bad = ops[0]

        def execute(op):
            result = dense_kernels.execute(op)
            return perturb(result) if op is bad else result

        ledger, samples = harness.Ledger(), []
        harness.run_pass(ops, execute, ledger, samples)
        harness.run_pass(ops, execute, ledger, samples)
        failed, _, notes = ledger.referee(ops, dense_kernels.check)
        self.assertEqual(failed, 2)
        self.assertIn(f"op {bad.id}", notes[0])

    def test_a_differing_repeat_counts_as_failed(self):
        ops = dense_kernels.make_inputs(1, tiny=True)
        calls = []

        def execute(op):
            calls.append(op)
            result = dense_kernels.execute(op)
            return perturb(result) if len(calls) == len(ops) + 1 else result

        ledger = harness.Ledger()
        harness.run_pass(ops, execute, ledger, [])
        harness.run_pass(ops, execute, ledger, [])
        self.assertEqual(ledger.referee(ops, dense_kernels.check)[0], 1)


if __name__ == "__main__":
    unittest.main()
