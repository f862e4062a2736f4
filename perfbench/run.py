"""End-to-end benchmark with a per-layer split.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats the workload untraced for ``--seconds`` and reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
repeats and reports the per-layer split.  Every repeat runs the same
inputs, is checked, and must produce the same output digest.  Host times
are in reference seconds (see :class:`Timer`).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One BLAS thread: the load is driven from this one process, no threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_ROUNDS = 5
MIN_REPEATS = 3          # untraced repeats per run, at least
MIN_TRACED = 2           # traced (and interleaved untraced) repeats, at least

# Per-layer counts besides <layer>.calls / <layer>.self_s: (name, unit).
LAYER_COUNTS = (
    ("runtime.core.events", "count"),
    ("runtime.trace.lines", "count"),
    ("runtime.trace.bytes", "bytes"),
    ("serving.generators.arrivals", "count"),
    ("serving.tenancy.metered", "count"),
    ("serving.batcher.batch_size_mean", "count"),
    ("serving.batcher.sim_wait_ms_mean", "ms"),
    ("serving.router.admitted", "count"),
    ("serving.router.shed", "count"),
    ("serving.router.admit_ratio", "ratio"),
    ("serving.router.dispatches", "count"),
    ("serving.router.requeued", "count"),
    ("serving.autoscaler.rescales", "count"),
    ("telemetry.samples", "count"),
    ("core.inference.rows", "count"),
    ("core.backends.rows", "count"),
    ("sched.cosched.harvests", "count"),
    ("chaos.events", "count"),
    ("core.executor.steps", "count"),
)

IMPORT_PROBE = "import repro, repro.serving, repro.sched, repro.chaos"


# The calibration kernel's time at reference speed: about its median on the
# 2-vCPU Xeon VM the benchmark was tuned on.  Host times are reported in
# reference seconds, so they move far less when the host's speed swings.
REFERENCE_CALIBRATION_S = 0.0215


def calibration_seconds() -> float:
    """One run of a fixed interpreter + numpy + BLAS kernel, in seconds."""
    import numpy as np

    start = time.perf_counter()
    table = {}
    for i in range(60_000):
        table[i % 997] = table.get(i % 997, 0) + i
    sorted([float(i) for i in range(30_000)], reverse=True)
    a = np.arange(20_000.0)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    m = np.full((128, 128), 1e-3)
    for _ in range(20):
        m @ m
    return time.perf_counter() - start


class Timer:
    """Times a region in reference seconds; optionally traced.

    The calibration kernel runs just before and just after the region.
    ``scale`` is the reference time of the kernel over the mean of the two
    runs, and ``elapsed`` is the wall time of the region times ``scale``:
    what the region would have taken at reference speed.
    """

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.wall = 0.0
        self.scale = 1.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._calibration = calibration_seconds()
        if self.recorder is not None:
            self.recorder.install()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._start
        if self.recorder is not None:
            self.recorder.restore()
        calibration = (self._calibration + calibration_seconds()) / 2
        self.scale = REFERENCE_CALIBRATION_S / calibration
        self.elapsed = self.wall * self.scale


def import_package() -> None:
    """Import the package in a fresh interpreter, and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                   timeout=120, check=True)


class Run:
    """Repeats one workload, checks every repeat and collects the figures."""

    def __init__(self, workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = str(workdir)
        self.inputs = workload.build(seed)
        self.outcomes = []       # (Timer, Outcome) of each timed repeat
        self.digest = None       # of the first repeat; every repeat matches
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def setup_seconds(self) -> float:
        """Median set-up round: a fresh import plus the workload's set-up."""
        rounds = []
        for _ in range(SETUP_ROUNDS):
            with Timer() as timer:
                import_package()
                self.workload.setup(self.seed, self.workdir)
            rounds.append(timer.elapsed)
        return median(rounds)

    def repeat(self, recorder=None, warmup: bool = False) -> bool:
        """One checked repeat; False (and the error recorded) if it failed.

        A warm-up repeat is checked like any other but not timed: the first
        run of the workload in a process pays allocation and cache warm-up.
        A repeat that raises or fails a check counts as one failed
        operation.
        """
        from workloads import CheckFailed, check

        timer = Timer(recorder)
        try:
            outcome = self.workload.run(self.inputs, self.workdir, timer)
            self.digest = self.digest or outcome.digest
            check(outcome.digest == self.digest,
                  f"output digest changed between repeats "
                  f"({self.digest} -> {outcome.digest})")
        except CheckFailed as exc:
            return self._fail(f"check failed: {exc}")
        except Exception:
            return self._fail(traceback.format_exc())
        self.attempted += outcome.attempted
        if not warmup:
            self.outcomes.append((timer, outcome))
        return True

    def _fail(self, message: str) -> bool:
        print(message, file=sys.stderr)
        self.errors.append(message)
        self.attempted += 1
        self.failed += 1
        return False

    def untraced(self):
        return [(t, o) for t, o in self.outcomes if t.recorder is None]

    def traced(self):
        return [(t, o) for t, o in self.outcomes if t.recorder is not None]


def end_to_end(run: Run, setup_s: float) -> dict:
    repeats = run.untraced()
    first = repeats[0][1]
    metrics = {
        "setup_s": (setup_s, "s"),
        "completed_per_s": (
            median(o.completed / t.elapsed for t, o in repeats), "1/s"),
        "attempted_per_s": (
            median(o.attempted / t.elapsed for t, o in repeats), "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_completed_per_s": (first.sim["sim_completed_per_s"], "1/s"),
        "served_fraction": (first.sim["served_fraction"], "ratio"),
        "slo_attainment": (first.sim["slo_attainment"], "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(run: Run) -> dict:
    from spans import LAYER_NAMES

    traced = run.traced()
    untraced = run.untraced()
    first_timer, first = traced[0]
    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = (first_timer.recorder.calls[name], "count")
        out[f"{name}.self_s"] = (median(
            t.recorder.self_ns[name] / 1e9 * t.scale for t, _ in traced), "s")
    for name, unit in LAYER_COUNTS:
        value = first.counts.get(name,
                                 first_timer.recorder.counts.get(name, 0))
        out[name] = (value, unit)
    out["bench.trace_overhead"] = (
        median(t.elapsed for t, _ in traced)
        / median(t.elapsed for t, _ in untraced), "ratio")
    out["bench.host_calibration_s"] = (median(
        REFERENCE_CALIBRATION_S / t.scale for t, _ in run.outcomes), "s")
    out["bench.unattributed_s"] = (median(
        (t.wall - sum(t.recorder.self_ns.values()) / 1e9) * t.scale
        for t, _ in traced), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def measure(run: Run, seconds: float, trace: bool) -> None:
    from spans import Recorder

    if not run.repeat(warmup=True):
        return
    deadline = time.perf_counter() + seconds
    if not trace:
        while run.repeat() and (len(run.outcomes) < MIN_REPEATS
                                or time.perf_counter() < deadline):
            pass
        return
    while run.repeat() and run.repeat(Recorder()):
        if (len(run.traced()) >= MIN_TRACED
                and time.perf_counter() >= deadline):
            return


def describe(run: Run) -> None:
    if not run.outcomes:
        return
    timers = [t for t, _ in run.outcomes]
    outcome = run.outcomes[0][1]
    print(f"workload {run.workload.name}  seed {run.seed}  "
          f"repeats {len(run.untraced())} untraced, {len(run.traced())} traced")
    for note in run.workload.notes:
        print(f"  {note}")
    print(f"  digest {run.digest}")
    print(f"  attempted {outcome.attempted}  completed {outcome.completed} "
          f"per repeat")
    print(f"  host speed over reference {median(t.scale for t in timers):.3f}"
          f"  wall-clock completed/s "
          f"{median(outcome.completed / t.wall for t in timers):.6g}")
    for key, value in {**outcome.sim, **outcome.info}.items():
        print(f"  {key} {value:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source ({SRC}) is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, workdir)
        # Set-up first: it also fills caches and finishes lazy imports
        # before anything is timed.
        setup_s = run.setup_seconds()
        measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    correct = not run.errors
    describe(run)
    if correct:
        metrics = per_layer(run) if args.trace else end_to_end(run, setup_s)
    else:
        metrics = {}
    print(json.dumps({"correct": correct, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
