#!/usr/bin/env python3
"""End-to-end benchmark of the plunnecke-lab verifier.

Usage (from the repository root):

    python3 benchmark/run.py --workload battery --seed 7 --seconds 30 --trace 0

One process, one client, closed loop: the next instance starts when the
previous one has finished.  Every instance's canonical report must hold and
match the digest recorded for it in ``benchmark/reference/``; anything else
is a failed instance.  End-to-end times are scaled to a reference host
speed, read from a calibration kernel as the run goes (see ``HostSpeed``);
the record line keeps them unscaled.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a separate traced run.  The
last line of standard output is the JSON result; the line before it records
the machine and the run.  See ``benchmark/README.md``.
"""

from __future__ import annotations

import argparse
import base64
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

SETUP_REPEATS = 3           # setup_s is the median of this many set-ups
MIN_INSTANCES = 100         # p90 needs ten samples beyond it
CALIBRATE_EVERY_S = 0.2     # host-speed reading interval
CALIBRATION_WINDOW = 5      # readings in the median that scales a time
REFERENCE_NS = 1_600_000    # the calibration kernel's time at reference speed
ANCHOR = "anchor"
# ROADMAP reference instance: Z/128, A = {0, 1, 3}, Y = every third atom, h = 3
ANCHOR_N, ANCHOR_A, ANCHOR_STEP, ANCHOR_H = 128, (0, 1, 3), 3, 3
ANCHOR_MAXFLOWS = {"magnification.magnification_mincut": 44,
                   "magnification.min_weight_cutset": 383}


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources or reference)."""


def digest(text: str) -> str:
    """18 bits of the report's SHA-256, as three base64 letters."""
    return base64.b64encode(hashlib.sha256(text.encode()).digest()[:3]).decode()[:3]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> tuple[int, list[str]]:
    """The generation seed ``seed`` folds onto, and its expected digests.

    The reference records generation seeds 0..N-1; ``--seed`` folds onto
    them modulo N, so any seed has a recorded expected output.
    """
    path = reference_path(workload)
    try:
        seeds = json.loads(path.read_text())["seeds"]
        gen_seed = seed % len(seeds)
        packed = seeds[str(gen_seed)]
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        raise BenchmarkError(f"no usable reference for {workload} in {path}: {exc!r}")
    return gen_seed, [packed[i:i + 3] for i in range(0, len(packed), 3)]


def machine_record() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": model}


def _kernel() -> None:
    """Fixed pure-Python work that does not touch the package: dict and set
    updates on small ints, the kind of work the package spends its time on."""
    counts: dict[int, int] = {}
    seen: set[int] = set()
    for i in range(6000):
        counts[i % 97] = counts.get(i % 89, 0) + i
        seen.add(i * 7 % 113)


class HostSpeed:
    """How fast this host runs right now, read from a calibration kernel.

    On a shared 2-core VM, other tenants moved the host's speed by up to 40%
    within minutes and by up to half within a second, far more than the
    benchmark's bounds, and the program slowed with the kernel.  A time
    measured now is therefore
    scaled to reference speed: multiplied by REFERENCE_NS over the median of
    the last CALIBRATION_WINDOW readings, each the kernel's best of three.
    Inside ``with``, a timer signal takes a reading every CALIBRATE_EVERY_S,
    whatever the process is doing; ``paused_ns`` sums the time readings
    took, so that callers can take it out of what they time.  Outside it,
    ``refresh`` takes a reading when the last is that old, at points the
    caller chooses.
    """

    def __init__(self):
        self.readings: list[int] = []
        self.paused_ns = 0
        self.read_at = 0
        self.read()

    def read(self, *_signal) -> None:
        start = time.perf_counter_ns()
        best = None
        for _ in range(3):
            t0 = time.perf_counter_ns()
            _kernel()
            took = time.perf_counter_ns() - t0
            best = took if best is None else min(best, took)
        self.readings.append(best)
        self.read_at = time.perf_counter_ns()
        self.paused_ns += self.read_at - start

    def refresh(self) -> None:
        if time.perf_counter_ns() - self.read_at >= CALIBRATE_EVERY_S * 1e9:
            self.read()

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        return REFERENCE_NS / statistics.median(self.readings[-CALIBRATION_WINDOW:])


def set_up(workload: str, seed: int):
    """Import, pool build, reference load and warm-up.

    Returns the wall time, the factor that scales it to reference speed
    (from the kernel readings taken before, during and after it), and the
    state.
    """
    with HostSpeed() as speed:
        paused = speed.paused_ns
        started = time.perf_counter_ns()
        mods = workloads.import_package()
        gen_seed, expected = load_reference(workload, seed)
        pool = workloads.build(workload, gen_seed, mods)
        if len(expected) != len(pool.labels):
            raise BenchmarkError(f"the {workload} reference for seed {gen_seed} lists "
                                 f"{len(expected)} instances, the pool has {len(pool.labels)}")
        for i in pool.warmup:
            try:
                pool.instances[i]()
            except Exception:  # the timed loop runs it again and counts the failure
                pass
        # Move the pool and the reference out of the collector's reach, so that
        # collections in the timed loop traverse only what the program allocates.
        gc.collect()
        gc.freeze()
        took = time.perf_counter_ns() - started - (speed.paused_ns - paused)
        speed.read()
    scale = REFERENCE_NS / statistics.median(speed.readings)
    return took / 1e9, scale, mods, gen_seed, pool, expected


def set_up_in_child(workload: str, seed: int) -> tuple[float, float]:
    """Time one set-up in a forked child; returns set_up's time and scale.

    This process has not imported the package yet, so the child's set-up is
    a first import, like this process's own.  This process then imports and
    builds once, and peak_rss_mb counts one set-up, not several.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:
            took, scale = set_up(workload, seed)[:2]
            os.write(write, f"{took!r} {scale!r}".encode())
            os._exit(0)
        except BaseException as exc:
            print(f"benchmark: set-up failed: {exc!r}", file=sys.stderr)
        os._exit(1)
    os.close(write)
    with os.fdopen(read) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise BenchmarkError(f"a set-up failed in a child process (status {status})")
    took, scale = text.split()
    return float(took), float(scale)


class Loop:
    """Closed loop over a pool's schedule, checking every output."""

    def __init__(self, pool, expected, speed, tracer=None):
        self.pool, self.expected = pool, expected
        self.speed, self.tracer = speed, tracer
        self.latencies: list[int] = []     # ns per instance
        self.scaled: list[float] = []      # the same, at reference speed
        self.failed = 0
        self.first_failure: str | None = None

    def _step(self, i: int) -> None:
        """Run and check instance ``i``."""
        pool, speed = self.pool, self.speed
        if self.tracer is not None:
            self.tracer.instance = pool.labels[i]
        speed.refresh()
        paused = speed.paused_ns
        t0 = time.perf_counter_ns()
        try:
            holds, text = pool.instances[i]()
        except Exception as exc:  # an instance that raises is a failed instance
            holds, text = False, f"{type(exc).__name__}: {exc}"
        took = time.perf_counter_ns() - t0 - (speed.paused_ns - paused)
        self.latencies.append(took)
        self.scaled.append(took * speed.scale())
        if not holds or digest(text) != self.expected[i]:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = f"{pool.labels[i]}: holds={holds} {text[:200]!r}"

    def run_pass(self) -> int:
        """One whole pass over the schedule; returns its wall time in ns."""
        start = time.perf_counter_ns()
        for i in self.pool.schedule:
            self._step(i)
        return time.perf_counter_ns() - start

    def run_passes(self, seconds: float) -> int:
        """Whole passes over the schedule, so every run of a seed measures the
        same instances: at least MIN_INSTANCES instances, then stop at the
        pass boundary nearest to ``seconds``.  Returns the wall time in ns."""
        size = len(self.pool.schedule)
        elapsed = passes = 0
        while True:
            elapsed += self.run_pass()
            passes += 1
            if passes * size >= MIN_INSTANCES and elapsed * (1 + 0.5 / passes) >= seconds * 1e9:
                return elapsed


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = [set_up_in_child(workload, seed) for _ in range(SETUP_REPEATS - 1)]
    took, scale, _mods, gen_seed, pool, expected = set_up(workload, seed)
    setups.append((took, scale))
    with HostSpeed() as speed:
        loop = Loop(pool, expected, speed)
        wall_ns = loop.run_passes(seconds) - speed.paused_ns
    ms = [x / 1e6 for x in loop.scaled]
    wall_ms = [x / 1e6 for x in loop.latencies]
    metrics = {
        "instances_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "instance_p50_ms": (statistics.median(ms), "ms"),
        "instance_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(t * s for t, s in setups), "s"),
    }
    # The same figures unscaled, as this host delivered them during the run.
    wall = {"instances_per_s": len(ms) / (wall_ns / 1e9),
            "instance_p50_ms": statistics.median(wall_ms),
            "instance_p90_ms": statistics.quantiles(wall_ms, n=10)[8],
            "setups_s": [t for t, _s in setups],
            "kernel_ms": statistics.median(speed.readings) / 1e6}
    run = {"attempted": len(ms), "failed": loop.failed, "problems": [],
           "generation_seed": gen_seed,
           "first_failure": loop.first_failure, "pool": len(pool.labels),
           "passes": len(ms) / len(pool.schedule), "wall": wall}
    return metrics, run


def _anchor_graph(mods):
    dyn = mods["dynamics"]
    act = dyn.translation_action(dyn.FinAbGroup((ANCHOR_N,)))
    A = dyn.GroupSet.of(act.group, [(a,) for a in ANCHOR_A])
    Y = frozenset(str(x) for x in range(0, ANCHOR_N, ANCHOR_STEP))
    return dyn.orbit_graph(act, A, Y, ANCHOR_H)


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    _took, _scale, mods, gen_seed, pool, expected = set_up(workload, seed)
    anchor = _anchor_graph(mods)
    # One whole pass untraced, then the same pass traced, whatever
    # ``seconds`` is: the traced instances are fixed by the seed, so counts
    # repeat exactly and the overhead ratio compares the same instances.
    # Host-speed readings are taken between instances, outside every span.
    plain = Loop(pool, expected, HostSpeed())
    plain.run_pass()
    tracer = tracing.Tracer()
    loop = Loop(pool, expected, HostSpeed(), tracer)
    tracer.install()
    try:
        loop.run_pass()
        tracer.instance = ANCHOR
        mods["magnification"].magnification_mincut(anchor, ANCHOR_H)
        mods["magnification"].min_weight_cutset(anchor, 1)
    finally:
        tracer.restore()
    problems = [f"wrapper left installed: {where}" for where in tracing.leftover_wrappers()]
    layer = tracer.summary(keep=lambda span: span.instance != ANCHOR)
    anchor_rows = tracer.summary(keep=lambda span: span.instance == ANCHOR)
    for name in tracing.EXERCISED[workload]:
        if layer.get(name, {}).get("calls", 0) == 0:
            problems.append(f"span {name} recorded no calls on {workload}")
    metrics = {name: (value, tracing.layer_unit(name))
               for name, value in tracing.layer_values(layer).items()}
    metrics["trace.overhead_ratio"] = (sum(loop.scaled) / sum(plain.scaled), "ratio")
    for span_name, want in ANCHOR_MAXFLOWS.items():
        got = anchor_rows.get(span_name, {}).get("maxflows", 0)
        metrics[f"anchor.{span_name.split('.')[1]}.maxflows"] = (got, "count")
        if got != want:
            problems.append(f"anchor {span_name} used {got} max-flows, expected {want}")
    run = {"attempted": len(plain.latencies) + len(loop.latencies),
           "generation_seed": gen_seed,
           "failed": plain.failed + loop.failed, "problems": problems,
           "first_failure": plain.first_failure or loop.first_failure,
           "pool": len(pool.labels), "spans": len(tracer.spans)}
    return metrics, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "plunnecke_lab" / "__init__.py").is_file():
        print(f"benchmark: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("PLUNNECKE_LAB_JOBS", None)
    measure = traced if args.trace else end_to_end
    try:
        metrics, run = measure(args.workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    for problem in run["problems"]:
        print(f"benchmark: {problem}", file=sys.stderr)
    if run["first_failure"]:
        print(f"benchmark: first failed instance {run['first_failure']}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(),
              "failed_frac": run["failed"] / run["attempted"],
              **{k: v for k, v in run.items() if k not in ("problems", "first_failure")}}
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": run["failed"] == 0 and not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
