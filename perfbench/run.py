"""Benchmark of obliq: protocol sessions, bound audits and the leakage search.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sessions --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 0

A run imports obliq from the checkout's src/ and builds the workload's
families (timed as set-up), then repeats whole passes of the workload's
operations until --seconds have gone by, checking every output.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it runs every
pass twice, untraced and then traced, and reports the per-layer metrics of
the traced passes.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("sessions", "audits", "leakage")
SETUP_PROBES = 2  # fresh processes timed for setup_s, besides the run's own process
SELF_TEST_CASES = {"sessions": 2, "audits": 1, "leakage": 1}
CAL_EVERY_S = 0.2  # least time between two calibration samples
CAL_REFERENCE_S = 0.005  # time of one calibration sample at the reference speed
CAL_WINDOW = 5  # a pass is scaled by the median of at least this many recent samples

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "batch_s": "s", "op_geomean_ms": "ms"}


def import_obliq():
    """Import obliq from this checkout's src/, refusing any other copy."""
    if not (SRC / "obliq" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'obliq'} not found; run from the root of an obliq checkout")
    sys.path.insert(0, str(SRC))
    import obliq
    from obliq import analysis, cli, encodings, gf2, hardening, povm, protocol, qmath  # noqa: F401

    if Path(obliq.__file__).resolve().parent != (SRC / "obliq").resolve():
        raise SystemExit(f"error: imported obliq from {obliq.__file__}, not from {SRC}")
    return obliq


def set_up(workload: str, seed: int):
    """Import obliq and build every family the workload uses; returns (seconds, workload)."""
    t0 = time.perf_counter()
    obliq = import_obliq()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](obliq, seed)
    wl.setup()
    return time.perf_counter() - t0, wl


class Calibration:
    """A fixed numpy kernel, independent of obliq, timed between operations.

    On a shared virtual machine the speed of identical work drifts by up to
    a third over seconds.  The kernel drifts with it, so a time multiplied
    by CAL_REFERENCE_S / (a nearby sample) reads as seconds at the
    reference machine's speed.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self._v = rng.standard_normal(48) + 0j
        self.samples = []
        self._last = -1.0
        self.sample()  # warm-up: first calls load code paths
        self.samples.clear()

    def sample(self) -> float:
        np, a, v = self._np, self._a, self._v
        t0 = time.perf_counter()
        for _ in range(300):
            (np.abs(a @ v) ** 2).sum()
        h = a + a.conj().T
        for _ in range(10):
            np.linalg.eigh(h)
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)
        return self.samples[-1]

    def maybe_sample(self):
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.sample()

    def factor(self, samples) -> float:
        """Multiplier that turns a time measured beside `samples` into reference seconds."""
        return CAL_REFERENCE_S / statistics.median(samples)


def probe_setups(workload: str, seed: int) -> list:
    """Set-up seconds in SETUP_PROBES fresh processes, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def machine_block() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        openblas = "unknown"
    nproc = None
    if shutil.which("nproc"):
        proc = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
        nproc = int(proc.stdout) if proc.returncode == 0 else None
    return {
        "nproc": nproc,
        "os.cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        **{var: os.environ.get(var, "unset") for var in ("OBLIQ_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# passes


class Tally:
    """Every counted operation of a run and what became of it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_errors = []
        self.failures = {}  # label -> [first error, count]
        # (kind, label, units, seconds, calibration factor); ops are not kept,
        # so memory does not grow with the number of passes
        self.latencies = []
        self.pass_times = []  # (raw seconds, calibration factor)
        self.first_outputs = None


def timed_calls(ops, cal=None):
    """Call each op once; returns [(op, seconds, value, error)] and their summed seconds.

    With a Calibration, a sample is taken before the pass and between calls
    at least CAL_EVERY_S apart, never inside a timed call.
    """
    rows = []
    total = 0.0
    if cal is not None:
        cal.sample()
    for op in ops:
        if cal is not None:
            cal.maybe_sample()
        t0 = time.perf_counter()
        try:
            value, error = op.call(), None
        except Exception as exc:  # a failing call is a failed operation, not the end of the run
            value, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        total += dt
        rows.append((op, dt, value, error))
    return rows, total


def settle(rows, tally: Tally, factor: float = 1.0) -> list:
    """Count the calls and check their outputs; returns the outputs that passed."""
    from workloads import CheckFailed

    kept = []
    for op, dt, value, error in rows:
        tally.attempted += 1
        tally.latencies.append((op.kind, op.label, op.units, dt, factor))
        if error is None:
            try:
                op.check(value)
            except (CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
                if op.kind == "malformed":
                    error = str(exc)
                else:
                    tally.check_errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        if error is None:
            kept.append((op, value))
        else:
            tally.failed += 1
            tally.failures.setdefault(op.label, [error, 0])[1] += 1
    return kept


def measure(wl, seconds: float, tracer=None, cal=None):
    """Whole passes until `seconds` have gone by.

    Traced: each pass runs first untraced, then again on identical inputs
    with the tracer installed; only the traced run is counted and checked.
    Returns the tally and, per traced pass, (traced s, untraced s, untraced
    cpu s, untraced wall s).
    """
    tally = Tally()
    twins = []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        factor = 1.0
        if tracer is None:
            rows, t_pass = timed_calls(wl.make_pass(index), cal)
            if cal is not None:
                factor = cal.factor(cal.samples[-CAL_WINDOW:])
        else:
            ops = wl.make_pass(index)
            cpu0, wall0 = time.process_time(), time.perf_counter()
            _, t_plain = timed_calls(ops)
            cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
            ops = wl.make_pass(index)
            tracer.install(wl.o)
            try:
                rows, t_pass = timed_calls(ops)
            finally:
                tracer.uninstall()
            twins.append((t_pass, t_plain, cpu, wall))
        outputs = settle(rows, tally, factor)
        tally.pass_times.append((t_pass, factor))
        if index == 0:
            tally.first_outputs = outputs
        index += 1
        if time.perf_counter() >= deadline:
            return tally, twins


def self_test(wl, tally: Tally):
    """Feed each check a corrupted output; every one must be rejected."""
    from workloads import CheckFailed

    cases = wl.corruptions(tally.first_outputs)
    if len(cases) != SELF_TEST_CASES[wl.name]:
        tally.check_errors.append(f"self-test built {len(cases)} corruptions, expected {SELF_TEST_CASES[wl.name]}")
    for desc, check, bad in cases:
        try:
            check(bad)
        except (CheckFailed, ValueError):
            print(f"self-test: {desc}: rejected")
        else:
            tally.check_errors.append(f"self-test: the check accepted {desc}")


# ---------------------------------------------------------------------------
# reporting


def label_medians(tally: Tally, calibrated: bool) -> dict:
    """Median latency of each kind of operation, keyed by its label."""
    groups = {}
    for _, label, _, dt, factor in tally.latencies:
        groups.setdefault(label, []).append(dt * factor if calibrated else dt)
    return {label: statistics.median(v) for label, v in groups.items()}


def batch_seconds(tally: Tally, calibrated: bool) -> float:
    return statistics.median(t * f if calibrated else t for t, f in tally.pass_times)


def end_to_end(tally: Tally, setup_times) -> dict:
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "batch_s": batch_seconds(tally, calibrated=True),
        "op_geomean_ms": statistics.geometric_mean(label_medians(tally, calibrated=True).values()) * 1e3,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def workload_figures(wl, tally: Tally) -> list:
    """The workload's own figures, printed by name and unit beside the metrics."""
    kinds = {}
    for kind, _, units, dt, _ in tally.latencies:
        k = kinds.setdefault(kind, {"s": 0.0, "units": 0, "lat": []})
        k["s"] += dt
        k["units"] += units
        k["lat"].append(dt)
    rows = [("passes", len(tally.pass_times), "count")]
    if wl.name == "sessions":
        plain = kinds["session"]["lat"]
        done = kinds["session"]["units"] + kinds["cli-session"]["units"]
        rows.append(("sessions_per_s", done / (kinds["session"]["s"] + kinds["cli-session"]["s"]), "1/s"))
        rows.append(("session_p50_ms", statistics.median(plain) * 1e3, "ms"))
        ordered = sorted(plain)
        p99 = int(0.99 * len(ordered))
        if len(ordered) - 1 - p99 >= 10:  # a tail of at least ten samples beyond it
            rows.append(("session_p99_ms", ordered[p99] * 1e3, "ms"))
        rows.append(("sessions_timed", len(plain), "count"))
        rows.append(("attack_trials_per_s", kinds["attack"]["units"] / kinds["attack"]["s"], "1/s"))
    elif wl.name == "audits":
        rows.append(("audit_s", batch_seconds(tally, calibrated=True), "s"))
    else:
        rows.append(("search_s", batch_seconds(tally, calibrated=True), "s"))
        rows.append(("leak_bits", wl.leak_bits(), "bits"))
    rows.append(("batch_raw_s", batch_seconds(tally, calibrated=False), "s"))
    rows.append(("op_geomean_raw_ms", statistics.geometric_mean(label_medians(tally, False).values()) * 1e3, "ms"))
    for label, dt in label_medians(tally, calibrated=False).items():
        rows.append((f"median_raw_ms[{label}]", dt * 1e3, "ms"))
    return rows


def traced_metrics(wl, tracer, twins) -> dict:
    import spans as sp

    recorded = tracer.spans()
    traced = sum(t for t, _, _, _ in twins)
    plain = sum(p for _, p, _, _ in twins)
    covered = sp.root_coverage(recorded, threading.get_ident())
    print(f"{wl.name}.trace_overhead_s = {traced - plain:.6g} s (traced {traced:.4f} s, untraced {plain:.4f} s, "
          f"{len(twins)} passes each)")
    print(f"{wl.name}.trace_coverage = {covered / traced:.4f} of traced call time in top-level layer spans")
    print(f"{wl.name}.spans = {len(recorded)} count")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{wl.name}.jsonl"
    tracer.write_jsonl(path, recorded)
    print(f"spans written to {path.relative_to(ROOT)}")
    leak = wl.leak_bits() if wl.name == "leakage" else 0.0
    cpu = sum(c for _, _, c, _ in twins)
    wall = sum(w for _, _, _, w in twins)
    return sp.layer_metrics(recorded, len(twins), cpu, wall, leak)


# ---------------------------------------------------------------------------
# entry points


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own fresh process, then one combined summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name}.{metric} = {entry['value']:.6g} {entry['unit']}")
            summary["metrics"][f"{name}.{metric}"] = entry
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        seconds, _ = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    seconds, wl = set_up(args.workload, args.seed)
    print("machine: " + json.dumps(machine_block()))
    setup_times = [seconds] if args.trace else [seconds] + probe_setups(args.workload, args.seed)
    wl.prepare_references()

    tracer = cal = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    elif wl.calibrated:
        cal = Calibration()
    tally, twins = measure(wl, args.seconds, tracer, cal)
    self_test(wl, tally)
    from workloads import CheckFailed

    try:
        wl.finish()
    except CheckFailed as exc:
        tally.check_errors.append(str(exc))
    for err in tally.check_errors:
        print(f"check failed: {err}", file=sys.stderr)
    for label, (error, count) in tally.failures.items():
        print(f"failed {count}x: {label}: {error}")

    if args.trace:
        metrics = traced_metrics(wl, tracer, twins)
    else:
        metrics = end_to_end(tally, setup_times)
        print("setup samples (s): " + " ".join(f"{t:.4f}" for t in setup_times))
        print("pass times, raw (s): " + " ".join(f"{t:.4f}" for t, _ in tally.pass_times))
        if cal is not None:
            print("calibration factors: " + " ".join(f"{f:.4f}" for _, f in tally.pass_times))
            print(f"calibration: {len(cal.samples)} samples, median {statistics.median(cal.samples):.6f} s, "
                  f"reference {CAL_REFERENCE_S} s")
        for name, value, unit in workload_figures(wl, tally):
            print(f"{wl.name}.{name} = {value:.6g} {unit}")
    print(f"{wl.name}: attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({
        "correct": not tally.check_errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
