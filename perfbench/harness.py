"""Shared machinery of the abalg benchmark: inputs, the timed loop, statistics.

A workload module supplies a pool of `Op`s built from the seed, a function
that executes one op, and a referee that checks one result exactly.  The
harness runs whole passes over the pool as a closed loop with one caller,
times every op, and referees every result outside the timed region.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Seed the published numbers use, and the seed that confirms a claim.
PRIMARY_SEED = 1
CONFIRM_SEED = 2

#: Fresh set-ups (processes) whose median is reported as setup_s; also the
#: fresh processes behind each start-up probe of the traced run.
SETUP_REPEATS = 9

#: Seconds that `calibrate()` and `calibrate_process()` take at the reference
#: machine speed, to which the end-to-end times are scaled: about their typical
#: times on the 2.0 GHz Xeon vCPU the benchmark was developed on (Python 3.11),
#: so scaled times read close to wall times there.
CALIBRATION_REF_S = 0.004
PROCESS_CALIBRATION_REF_S = 0.035


def require_program():
    """Put `src/` on the import path, or fail before any measurement."""
    if not (SRC / "abalg" / "__init__.py").is_file():
        raise SystemExit(f"error: no abalg package under {SRC}; run from a checkout of the repo")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass(frozen=True)
class Op:
    """One timed operation: `kind` names the call, `label` its size class."""

    id: int
    kind: str
    label: str
    args: tuple


# -- canonical form of inputs, for the digest ------------------------------------


def canon(obj) -> str:
    """A deterministic text form of an input value (independent of the program's reprs)."""
    from abalg.coefficients import GaussianRational
    from abalg.division import FactoredProduct
    from abalg.elements import AlgebraElement
    from abalg.linalg import QMatrix
    from abalg.modules import DifferentialSystem, Fresco, ModuleElement, SimplePoleModule
    from abalg.oracle import PolySeries
    from abalg.series import APolynomial, BSeries

    if isinstance(obj, GaussianRational):
        return f"{obj.re}|{obj.im}"
    if isinstance(obj, (int, str, Fraction)):
        return str(obj)
    if isinstance(obj, AlgebraElement):
        terms = ",".join(f"{k}:{canon(c)}" for k, c in sorted(obj.coeffs.items()))
        return f"E({obj.order},{obj.ordering.value},{terms})"
    if isinstance(obj, BSeries):
        return f"S({obj.order},{canon(obj.coeffs)})"
    if isinstance(obj, APolynomial):
        return f"A({obj.order},{canon(obj.parts)})"
    if isinstance(obj, PolySeries):
        terms = ",".join(f"{m}:{canon(c)}" for m, c in sorted(obj.coeffs.items()))
        return f"P({obj.degree_bound},{terms})"
    if isinstance(obj, QMatrix):
        return f"M{canon(obj.rows)}"
    if isinstance(obj, FactoredProduct):
        return f"F({obj.order},{canon(obj.factors)})"
    if isinstance(obj, Fresco):
        return f"R({canon(obj.product)})"
    if isinstance(obj, SimplePoleModule):
        return f"T({obj.order},{canon(obj.theta)})"
    if isinstance(obj, ModuleElement):
        return f"V({canon(obj.module)},{canon(obj.entries)})"
    if isinstance(obj, DifferentialSystem):
        return f"D{canon(obj.coeffs)}"
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(canon(x) for x in obj) + ")"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k}:{canon(v)}" for k, v in sorted(obj.items())) + "}"
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def input_digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.id};{op.kind};{op.label};{canon(op.args)}\n".encode())
    return "sha256:" + h.hexdigest()


# -- the timed closed loop ----------------------------------------------------------


class Ledger:
    """Every result of a run: the first result of each op is refereed, repeats must equal it."""

    def __init__(self):
        self.first: dict = {}
        self.repeats: dict = {}
        self.mismatches: dict = {}
        self.raised: dict = {}

    def record(self, op: Op, result):
        if isinstance(result, BaseException):
            self.raised[op.id] = self.raised.get(op.id, 0) + 1
        elif op.id not in self.first:
            self.first[op.id] = result
            self.repeats[op.id] = 1
        elif result == self.first[op.id]:
            self.repeats[op.id] += 1
        else:
            self.mismatches[op.id] = self.mismatches.get(op.id, 0) + 1

    def referee(self, ops, check) -> tuple[int, float, list]:
        """(failed count, referee seconds, failure descriptions)."""
        start = time.perf_counter()
        failed = sum(self.raised.values()) + sum(self.mismatches.values())
        notes = [f"op {i} raised {n}x" for i, n in self.raised.items()]
        notes += [f"op {i} gave {n} differing repeat results" for i, n in self.mismatches.items()]
        for op in ops:
            if op.id not in self.first:
                continue
            try:
                ok = check(op, self.first[op.id])
            except Exception as exc:  # a referee crash is a failed check, reported
                ok = False
                notes.append(f"op {op.id} ({op.kind} {op.label}) referee raised {exc!r}")
            if not ok:
                failed += self.repeats[op.id]
                notes.append(f"op {op.id} ({op.kind} {op.label}) failed its exact check")
        return failed, time.perf_counter() - start, notes


def pin_to_one_cpu():
    """Run this process and the children it starts on one CPU.

    The calibration slices and the timed work then share a CPU, and with it
    that CPU's share of the host.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# The calibration slice: a fixed piece of stdlib work of the kind abalg spends
# its time on (Fraction arithmetic on growing integers, small dicts).  It
# never calls abalg, so only the speed of the machine moves its time.
_SLICE = """
from fractions import Fraction
x, table = Fraction(1), {}
for i in range(1, 400):
    x = x * Fraction(i + 1, 2 * i + 1) + Fraction(1, i)
    table[i % 17] = x.numerator % 1000003
"""
_SLICE_CODE = compile(_SLICE, "<calibration slice>", "exec")


def calibrate() -> float:
    """Wall time of one calibration slice run in this process."""
    start = time.perf_counter()
    exec(_SLICE_CODE, {})
    return time.perf_counter() - start


def calibrate_process() -> float:
    """Wall time of a fresh isolated interpreter that runs one calibration slice.

    Work done in fresh processes (process start, imports, page faults) slows
    down with other tenants differently from work in a warm process, so
    times of fresh processes are scaled by this instead of `calibrate`.
    """
    code, _, start, end, _ = run_child([sys.executable, "-I", "-S", "-c", _SLICE], timeout=120)
    if code:
        raise RuntimeError(f"calibration process exited {code}")
    return end - start


def at_reference_speed(seconds: float, cal_before: float, cal_after: float,
                       reference: float = CALIBRATION_REF_S) -> float:
    """A wall time scaled to the machine speed at which a calibration takes `reference`.

    On a shared host, other tenants slow the machine down by a third or more
    in spells that last minutes, longer than a run.  The calibrations right
    before and after a timed call see the same spell as the call, so the
    ratio to their mean cancels it.
    """
    return seconds * reference / ((cal_before + cal_after) / 2)


def run_pass(ops, execute, ledger: Ledger, samples: list, before=None, after=None,
             scaled=None, calibrator=calibrate, reference=CALIBRATION_REF_S) -> float:
    """One closed-loop pass over the pool; returns the summed op wall time.

    `before(op)` and `after(op, result)` run outside the timed region.  With
    a `scaled` list, `calibrator` runs before the first op and after every
    op, and `scaled` gets each op's time at the reference speed.
    """
    total = 0.0
    cal = calibrator() if scaled is not None else 0.0
    for op in ops:
        if before is not None:
            before(op)
        t0 = time.perf_counter()
        try:
            result = execute(op)
        except Exception as exc:  # an unexpected exception is a failed op
            result = exc
        dt = time.perf_counter() - t0
        if scaled is not None:
            cal_after = calibrator()
            scaled.append((op.id, at_reference_speed(dt, cal, cal_after, reference)))
            cal = cal_after
        total += dt
        samples.append((op.id, dt))
        ledger.record(op, result)
        if after is not None:
            after(op, result)
    return total


def warm_up(ops, execute):
    """One op of each kind, on the smallest inputs: the pools list those first."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            execute(op)


def min_passes(ops) -> int:
    """At least three passes, and enough that the ops beyond the 90th percentile
    of the per-op medians hold ten samples or more."""
    beyond = max(1, len(ops) - int(0.9 * (len(ops) + 1)))
    return max(3, -(-10 // beyond))


def passes_fit(pass_times: list, seconds: float, minimum: int = 3) -> bool:
    """Whether another whole pass fits in the measuring time (at least `minimum` run)."""
    if len(pass_times) < minimum:
        return True
    return sum(pass_times) + statistics.median(pass_times) <= seconds


# -- statistics and resources --------------------------------------------------------


def op_medians(samples) -> list:
    """Each op's median time over the passes, in pool order.

    Percentiles are taken over these.  A percentile of all samples pooled
    would interpolate between the extreme samples of two ops, which move
    more from run to run than their medians.
    """
    by_op: dict = {}
    for op_id, dt in samples:
        by_op.setdefault(op_id, []).append(dt)
    return [statistics.median(times) for times in by_op.values()]


def typical_pass_seconds(samples) -> float:
    """Summed over the ops of the pool, each op's median time over the passes."""
    return sum(op_medians(samples))


def percentile(values, pct: int) -> float:
    """The pct-th percentile as statistics.quantiles(n=100) gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ChildTimeout(Exception):
    """A child process outlived its time limit and was killed."""


def run_child(argv, timeout: float):
    """(exit code, stdout, start, end, peak RSS in MiB) of one child process.

    start and end are time.monotonic() at spawn and at exit.  The child is
    reaped with a blocking wait4: Popen.wait(timeout) polls with sleeps of up
    to 50 ms, which would round the measured times.  A timer kills a child
    that outlives `timeout`, and the call then raises ChildTimeout.
    """
    killed = []
    start = time.monotonic()
    proc = subprocess.Popen(argv, env=program_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(timeout, lambda: (killed.append(True), proc.kill()))
    timer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if killed:
        raise ChildTimeout(f"{argv[1:3]} outlived {timeout} s")
    return proc.returncode, out.decode("utf-8"), start, end, usage.ru_maxrss / 1024.0


def fresh_process_seconds(argv, repeats: int = SETUP_REPEATS) -> list:
    """Wall time from spawn to exit of `repeats` fresh processes."""
    out = []
    for _ in range(repeats):
        code, _, start, end, _ = run_child(argv, timeout=120)
        if code:
            raise RuntimeError(f"{argv} exited {code}")
        out.append(end - start)
    return out


def probe_setup_seconds(workload: str, seed: int, tiny: bool) -> float:
    """Spawn-to-ready time of a fresh process that imports abalg, builds inputs and warms up.

    The probe prints time.monotonic() when ready; CLOCK_MONOTONIC is shared
    by all processes of the machine, so the difference is the set-up time.
    """
    argv = [sys.executable, str(Path(__file__).with_name("probe.py")),
            "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    code, stdout, start, _, _ = run_child(argv, timeout=120)
    if code:
        raise RuntimeError(f"set-up probe exited {code}")
    return float(stdout.split()[-1]) - start


# -- metadata ----------------------------------------------------------------------------


def metadata() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = done.stdout.strip() or None
    h = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "src_lines": lines,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "primary_seed": PRIMARY_SEED,
        "confirm_seed": CONFIRM_SEED,
    }
