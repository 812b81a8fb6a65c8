"""The abalg benchmark: one workload, measured end to end or traced layer by layer.

    python3 perfbench/run.py --workload dense-kernels --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; abalg is imported from `src/`.  With
--trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run.  Every op's result is checked
exactly outside the timed region.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; a fuller record
(inputs digest, raw samples, metadata, spans) goes to .bench_out/.
`--workload all` runs the three workloads one after another.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness

WORKLOADS = {"dense-kernels": "dense_kernels", "module-stack": "module_stack",
             "cli-sparse": "cli_sparse"}

END_TO_END = (("setup_s", "s"), ("throughput_ops_s", "ops/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mb", "MiB"))

# (metric, unit, where it comes from): "self" is span self time in seconds, "calls" a
# span count, "count" a tracer counter; all are per pass over the input pool.
PER_LAYER = (
    ("coefficients.scalar_ops", "count", ("count", "scalar_ops")),
    ("coefficients.max_bits", "bits", ("max_bits", None)),
    ("elements.mul_self_s", "s", ("self", "elements.mul")),
    ("elements.mul_calls", "count", ("calls", "elements.mul")),
    ("elements.ordering_self_s", "s", ("self", "elements.ordering")),
    ("elements.shear_self_s", "s", ("self", "elements.shear")),
    ("elements.out_terms", "count", ("count", "mul_out_terms")),
    ("elements.reorder_coeff_hit_ratio", "ratio", ("ratio", ("reorder_hits", "reorder_misses"))),
    ("elements.power_self_s", "s", ("self", "elements.power")),
    ("division.invert_self_s", "s", ("self", "division.invert")),
    ("division.divide_linear_self_s", "s", ("self", "division.divide_linear")),
    ("division.remainder_polynomial_self_s", "s", ("self", "division.remainder_polynomial")),
    ("division.divide_linear_calls", "count", ("calls", "division.divide_linear")),
    ("division.factor_self_s", "s", ("self", "division.factor")),
    ("division.factor_peel_ratio", "ratio", ("peel", None)),
    ("division.divide_self_s", "s", ("self", "division.divide")),
    ("polynomials.roots_self_s", "s", ("self", "polynomials.roots")),
    ("polynomials.interpolate_self_s", "s", ("self", "polynomials.interpolate")),
    ("series.bseries_mul_self_s", "s", ("self", "series.bseries_mul")),
    ("series.bseries_inverse_self_s", "s", ("self", "series.bseries_inverse")),
    ("modules.ode2ab_self_s", "s", ("self", "modules.ode2ab")),
    ("modules.series_act_a_calls", "count", ("calls", "modules.series_act_a")),
    ("modules.act_self_s", "s", ("self", "modules.act")),
    ("modules.fresco_act_self_s", "s", ("self", "modules.fresco_act")),
    ("modules.bernstein_self_s", "s", ("self", "modules.bernstein")),
    ("modules.geometric_self_s", "s", ("self", "modules.geometric")),
    ("linalg.matmul_self_s", "s", ("self", "linalg.matmul")),
    ("linalg.minpoly_self_s", "s", ("self", "linalg.minpoly")),
    ("linalg.charpoly_self_s", "s", ("self", "linalg.charpoly")),
    ("oracle.act_self_s", "s", ("self", "oracle.act")),
    ("expansions.xi_act_self_s", "s", ("self", "expansions.xi_act")),
    ("expr.parse_self_s", "s", ("self", "expr.parse")),
    ("expr.elaborate_self_s", "s", ("self", "expr.elaborate")),
    ("expr.format_self_s", "s", ("self", "expr.format")),
    ("jsonio.encode_self_s", "s", ("self", "jsonio.encode")),
    ("jsonio.decode_self_s", "s", ("self", "jsonio.decode")),
    ("cli.interp_start_s", "s", ("probe", "interp")),
    ("cli.import_s", "s", ("probe", "import")),
    ("cli.main_self_s", "s", ("self", "cli.main")),
    ("trace.overhead_frac", "ratio", ("overhead", None)),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=harness.PRIMARY_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time: whole passes over the inputs that fit in it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def _workload_calls(name, module, ops, traced, work):
    """(execute, check, before-op hook, peak RSS in MiB) for one workload."""
    if name == "cli-sparse":
        requests = module.Requests(ops, work)
        check = module.make_check(requests)
        if traced:
            return requests.in_process, check, module.cold_start, harness.self_peak_rss_mb
        return requests.spawn, check, None, lambda: requests.peak_rss_mb
    harness.warm_up(ops, module.execute)
    return module.execute, module.check, None, harness.self_peak_rss_mb


def _measure(args, module, ops, work) -> dict:
    """The untraced run: end-to-end metrics.

    Every time is scaled to the reference machine speed by the calibration
    slices around it (harness.at_reference_speed); the record keeps the
    wall times too.
    """
    setup, setup_wall = [], []

    def set_up_once():
        cal = harness.calibrate_process()
        if args.workload == "cli-sparse":
            setup_wall.extend(harness.fresh_process_seconds(
                [sys.executable, "-c", "import abalg.cli"], 1))
        else:
            setup_wall.append(harness.probe_setup_seconds(args.workload, args.seed, args.tiny))
        setup.append(harness.at_reference_speed(setup_wall[-1], cal, harness.calibrate_process(),
                                                harness.PROCESS_CALIBRATION_REF_S))

    execute, check, before, peak_rss = _workload_calls(args.workload, module, ops, False, work)
    # a CLI request is a fresh process, so it is scaled by a fresh process's calibration
    calibration = {"calibrator": harness.calibrate_process,
                   "reference": harness.PROCESS_CALIBRATION_REF_S} \
        if args.workload == "cli-sparse" else {}
    ledger, samples, scaled, pass_times = harness.Ledger(), [], [], []
    while harness.passes_fit(pass_times, args.seconds, harness.min_passes(ops)):
        # Fresh set-ups are spread evenly over the measuring time, between passes.
        if len(setup) * args.seconds <= harness.SETUP_REPEATS * sum(pass_times):
            set_up_once()
        start = time.perf_counter()
        harness.run_pass(ops, execute, ledger, samples, before, scaled=scaled, **calibration)
        pass_times.append(time.perf_counter() - start)
    while len(setup) < harness.SETUP_REPEATS:
        set_up_once()
    failed, referee_s, notes = ledger.referee(ops, check)
    lat, wall = harness.op_medians(scaled), harness.op_medians(samples)
    p90 = harness.percentile(lat, 90)
    beyond = sum(x > p90 for x in lat) * len(pass_times)
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "throughput_ops_s": len(ops) / sum(lat),
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_p90_ms": 1000 * p90,
            "peak_rss_mb": peak_rss(),
        },
        "notes": {
            "setup_s": f"median of {len(setup)} fresh set-ups spread over the run "
                       f"(wall {statistics.median(setup_wall):.4g} s)",
            "throughput_ops_s": f"{len(ops)} ops per pass, each op's median of {len(pass_times)} "
                                f"passes (wall {len(ops) / sum(wall):.4g})",
            "latency_p50_ms": f"over {len(ops)} per-op medians of {len(pass_times)} passes "
                              f"(wall {1000 * statistics.median(wall):.4g} ms)",
            "latency_p90_ms": f"{len(scaled)} samples, {beyond} beyond "
                              f"(wall {1000 * harness.percentile(wall, 90):.4g} ms)",
            "peak_rss_mb": "largest request process" if args.workload == "cli-sparse"
            else "this process",
        },
        "attempted": len(samples), "failed": failed, "failures": notes,
        "referee_s": referee_s, "setup_samples_s": setup, "setup_wall_s": setup_wall,
        "pass_times_s": pass_times, "samples": samples, "scaled_samples": scaled,
    }


def _trace(args, module, ops, work) -> dict:
    """The traced run: each op runs untraced, then traced; per-layer metrics per pass.

    Running the two back to back exposes both to the same state of the
    machine, so trace.overhead_frac compares like with like.
    """
    import tracing

    interp = statistics.median(harness.fresh_process_seconds([sys.executable, "-c", "pass"]))
    imported = statistics.median(
        harness.fresh_process_seconds([sys.executable, "-c", "import abalg.cli"]))
    execute, check, prepare, _ = _workload_calls(args.workload, module, ops, True, work)
    tracer = tracing.Tracer()
    ledger, samples, plain_samples, pass_times = harness.Ledger(), [], [], []

    def before_traced(op):
        if prepare is not None:
            prepare(op)
        tracer.op_started(op)
        tracer.install()

    def after_traced(op, result):
        tracer.uninstall()
        tracer.op_finished(op, result)

    # each pass runs every op twice, so two passes already fill the measuring time
    while harness.passes_fit(pass_times, args.seconds, minimum=2):
        start = time.perf_counter()
        for op in ops:
            harness.run_pass([op], execute, ledger, plain_samples, prepare)
            harness.run_pass([op], execute, ledger, samples, before_traced, after_traced)
        pass_times.append(time.perf_counter() - start)
    failed, referee_s, notes = ledger.referee(ops, check)
    n = len(pass_times)
    counts = tracer.counts
    sources = {
        "self": lambda key: tracer.self_s.get(key, 0.0) / n,
        "calls": lambda key: tracer.calls.get(key, 0) / n,
        "count": lambda key: counts.get(key, 0) / n,
        "max_bits": lambda _: tracer.max_bits,
        "ratio": lambda keys: counts[keys[0]] / max(counts[keys[0]] + counts[keys[1]], 1),
        "peel": lambda _: counts["lambdas_peeled"] / max(
            tracer.calls["division.remainder_polynomial"], 1),
        "probe": lambda key: interp if key == "interp" else imported - interp,
        "overhead": lambda _: (harness.typical_pass_seconds(samples)
                               / harness.typical_pass_seconds(plain_samples) - 1),
    }
    metrics = {name: sources[kind](key) for name, _, (kind, key) in PER_LAYER}
    op_wall = sum(dt for _, dt in samples)
    return {
        "metrics": metrics,
        "notes": {"trace.overhead_frac": f"each op traced against itself untraced, "
                                         f"median of {n} passes"},
        "attempted": len(samples) + len(plain_samples), "failed": failed, "failures": notes,
        "referee_s": referee_s,
        "self_time_coverage": sum(tracer.self_s.values()) / op_wall,
        "self_s_per_pass": {k: v / n for k, v in sorted(tracer.self_s.items())},
        "calls_per_pass": {k: v / n for k, v in sorted(tracer.calls.items())},
        "pass_times_s": pass_times, "samples": samples, "untraced_samples": plain_samples,
        "spans": tracer.spans,
    }


def _report(args, digest, n_ops, run, units):
    attempted, failed = run["attempted"], run["failed"]
    meta = harness.metadata()
    print(f"{args.workload}  seed={args.seed}  inputs={digest}  {n_ops} ops per pass  "
          f"(src {meta['src_lines']} lines, python {meta['python']}, nproc {meta['nproc']})")
    for name, value in run["metrics"].items():
        print(f"  {name:38s} {value:14.6g} {units[name]:6s} {run['notes'].get(name, '')}")
    print(f"  {'failed_frac':38s} {failed / attempted:14.6g} {'ratio':6s} "
          f"{failed} of {attempted} ops attempted")
    print(f"  {'referee_s':38s} {run['referee_s']:14.6g} {'s':6s} outside the timed region")
    if "self_time_coverage" in run:
        print(f"  {'trace.self_time_coverage':38s} {run['self_time_coverage']:14.6g} "
              f"{'ratio':6s} summed span self time over traced op wall time")
    for note in run["failures"][:20]:
        print(f"  FAILED: {note}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    spans = run.pop("spans", None)
    if spans is not None:
        with open(harness.OUT / f"{stem}-spans.csv", "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_s", "end_s", "parent", "op"))
            out.writerows(spans)
    record = dict(run, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  inputs_digest=digest, ops_per_pass=n_ops, metadata=meta,
                  failed_frac={"value": failed / attempted, "failed": failed,
                               "attempted": attempted})
    (harness.OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in run["metrics"].items()}}))


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS and caches stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv + (["--tiny"] if args.tiny else []), capture_output=True,
                              text=True, check=True)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    harness.require_program()
    harness.pin_to_one_cpu()
    if args.workload == "all":
        return _run_all(args)
    module = importlib.import_module(WORKLOADS[args.workload])
    ops = module.make_inputs(args.seed, args.tiny)
    digest = harness.input_digest(ops)
    harness.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.OUT, prefix="work-") as work:
        if args.trace:
            run = _trace(args, module, ops, Path(work))
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            run = _measure(args, module, ops, Path(work))
            units = dict(END_TO_END)
    _report(args, digest, len(ops), run, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
