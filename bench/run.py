"""slicereg benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload decide --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics with nothing
wrapped; its timings are corrected for host contention (see `Clock`).  ``--trace 1`` replays the first rounds of the same inputs once
untraced and once with spans around every layer, and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is the JSON result; a copy with provenance goes to
``bench/results/``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
from fractions import Fraction
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# A seed kept out of every tuning run; a claimed gain is re-checked on it.
HELD_OUT_SEED = 7919
MIN_SAMPLES = 100       # p90 then has at least 10 samples beyond it
MAX_RUN_SECONDS = 120   # hard cap while topping up to MIN_SAMPLES
SPAWNS = 15             # fresh interpreters per start-up median
TRACE_ROUNDS = 3        # rounds replayed by a traced run
# Time of `calibration_loop` on an idle host: the 2-vCPU machine the
# benchmark was built on (fastest run-minimum seen there 0.61-0.72 ms).
CALIBRATION_S = 0.65e-3


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def calibration_loop() -> Fraction:
    """Fixed Fraction arithmetic.  It runs no slicereg code, so a change to
    the program does not change its time."""
    x = Fraction(1)
    for k in range(1, 150):
        x = x * Fraction(k, k + 1) + Fraction(1, k)
    return x


class Clock:
    """Wall times of operations, reported at a fixed reference speed.

    On a shared host the same code runs up to 2x slower in stretches of a
    tenth of a second to minutes, and the share of slow stretches changes
    from one run to the next; so does the fastest stretch a run happens to
    get.  The calibration loop is timed before the first operation and
    after each one, and an operation's wall time is scaled by CALIBRATION_S
    over the mean of the two calibrations around it.  A slower program
    still reads slower, because the loop does not run the program.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.probes = [self._probe()]

    @staticmethod
    def _probe() -> float:
        t0 = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - t0

    def lap(self, seconds: float) -> None:
        """Record one operation's wall time; call right after it ends."""
        self.raw.append(seconds)
        self.probes.append(self._probe())

    def corrected(self) -> list[float]:
        return correct(self.raw, self.probes)

    def slowdown(self) -> float:
        """Median calibration time over CALIBRATION_S."""
        return statistics.median(self.probes) / CALIBRATION_S


def correct(raw: list[float], probes: list[float]) -> list[float]:
    """``raw[i]`` ran between ``probes[i]`` and ``probes[i + 1]``."""
    return [dt * 2.0 * CALIBRATION_S / (before + after)
            for dt, before, after in zip(raw, probes, probes[1:])]


def spawn(code: str, clock: Clock) -> None:
    """Time SPAWNS fresh interpreters running ``code`` on ``clock``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                       check=True)
        clock.lap(time.perf_counter() - t0)


IMPORT = "import slicereg, slicereg.cli"


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit, "seed": seed,
            "held_out_seed": HELD_OUT_SEED}


def timed(workload, op, in_process: bool):
    """Run one operation; returns (seconds, status, detail, result), with
    status and detail None unless the call raised."""
    from workloads import CRASH
    call = workload.run_in_process if in_process else workload.run
    t0 = time.perf_counter()
    try:
        result = call(op)
    except Exception as exc:  # an uncaught error is a failed operation
        return time.perf_counter() - t0, CRASH, f"{type(exc).__name__}: {exc}", None
    return time.perf_counter() - t0, None, None, result


class Tally:
    def __init__(self):
        self.attempted = 0
        self.crashed = 0
        self.wrong = 0
        self.problems: dict[str, int] = {}
        self.crashed_keys: set[str] = set()

    def add(self, status: str, detail: str | None, op) -> None:
        from workloads import CRASH, WRONG
        self.attempted += 1
        if status == CRASH:
            self.crashed += 1
            self.crashed_keys.add(op.key or op.kind)
        elif status == WRONG:
            self.wrong += 1
        if detail:
            key = f"{status} [{op.key or op.kind}] {detail}"
            self.problems[key] = self.problems.get(key, 0) + 1

    @property
    def failed(self) -> int:
        return self.crashed + self.wrong

    @property
    def correct(self) -> bool:
        """No wrong answer, and crashes only where they are known."""
        from workloads import KNOWN_CRASH
        return self.wrong == 0 and self.crashed_keys <= KNOWN_CRASH


def settle(workload, outcomes, tally: Tally) -> None:
    """Check answers (after timing, with any tracer removed)."""
    for op, status, detail, result in outcomes:
        if status is None:
            status, detail = workload.status(op, result)
        tally.add(status, detail, op)


def run_pass(workload, ops, tally: Tally, clock: Clock) -> None:
    """Time each op as a user would run it, on ``clock``."""
    outcomes = []
    for op in ops:
        if workload.in_process:
            gc.collect()
        dt, status, detail, result = timed(workload, op, in_process=False)
        clock.lap(dt)
        outcomes.append((op, status, detail, result))
    settle(workload, outcomes, tally)


def measure(workload, seconds: int, clock: Clock):
    """Whole rounds until the next one would overrun ``seconds``."""
    tally, sizes = Tally(), []
    start = time.perf_counter()
    rnd, last = 0, 0.0
    while True:
        elapsed = time.perf_counter() - start
        if rnd and len(sizes) >= MIN_SAMPLES and elapsed + last > seconds:
            break
        if elapsed > MAX_RUN_SECONDS:
            break
        t0 = time.perf_counter()
        ops = workload.make_round(rnd)
        run_pass(workload, ops, tally, clock)
        sizes += [dict(op.size, kind=op.kind) for op in ops]
        last = time.perf_counter() - t0
        rnd += 1
    return tally, sizes, rnd


def end_to_end(workload, seconds: int, record: dict):
    clock = Clock()
    spawn(IMPORT, clock)
    tally, sizes, rounds = measure(workload, seconds, clock)
    corrected = clock.corrected()
    setup_ms = statistics.median(corrected[:SPAWNS]) * 1000.0
    times = corrected[SPAWNS:]
    raw = clock.raw[SPAWNS:]
    for size, dt, r in zip(sizes, times, raw):
        size.update(ms=dt * 1000.0, raw_ms=r * 1000.0)
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ordered = sorted(times)
    n = len(ordered)
    raw_sorted = sorted(raw)
    record.update(rounds=rounds, samples=n,
                  samples_beyond_p90=n - math.ceil(0.9 * n),
                  slowdown=clock.slowdown(),
                  calibration_floor_ms=min(clock.probes) * 1000.0,
                  raw={"ops_per_s": n / sum(raw),
                       "p50_ms": percentile(raw_sorted, 0.5) * 1000.0,
                       "p90_ms": percentile(raw_sorted, 0.9) * 1000.0,
                       "setup_s": statistics.median(clock.raw[:SPAWNS])},
                  failed_ratio=tally.failed / tally.attempted,
                  problems=tally.problems, sizes=sizes)
    record["oracle"] = workload.cross_check()
    metrics = {
        "ops_per_s": (n / sum(times), "1/s"),
        "p50_ms": (percentile(ordered, 0.5) * 1000.0, "ms"),
        "p90_ms": (percentile(ordered, 0.9) * 1000.0, "ms"),
        "ok_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (setup_ms / 1000.0, "s"),
    }
    return tally, metrics


def traced(workload, record: dict):
    from tracing import Tracer, layer_metrics
    clock = Clock()
    spawn("pass", clock)
    spawn(IMPORT, clock)
    spawns = clock.corrected()
    interp_ms = statistics.median(spawns[:SPAWNS]) * 1000.0
    import_ms = statistics.median(spawns[SPAWNS:]) * 1000.0 - interp_ms
    ops = [op for rnd in range(TRACE_ROUNDS)
           for op in workload.make_round(rnd)]
    # Each op runs untraced and traced back to back, alternating which goes
    # first, so drift and warm-up cancel out of the overhead.
    tracer, tally = Tracer(), Tally()
    spent = {False: 0.0, True: 0.0}
    outcomes = []
    for n, op in enumerate(ops):
        for with_tracer in ((False, True) if n % 2 else (True, False)):
            gc.collect()
            tracer.op = n
            if with_tracer:
                with tracer:
                    dt, *outcome = timed(workload, op, in_process=True)
            else:
                dt, *outcome = timed(workload, op, in_process=True)
            spent[with_tracer] += dt
            outcomes.append((op, *outcome))
    plain, with_spans = spent[False], spent[True]
    settle(workload, outcomes, tally)
    metrics = layer_metrics(tracer)
    metrics["startup.interpreter_ms"] = (interp_ms, "ms")
    metrics["startup.import_ms"] = (import_ms, "ms")
    metrics["trace.overhead_ms"] = ((with_spans - plain) * 1000.0 / len(ops), "ms")
    metrics["trace.overhead_ratio"] = (with_spans / plain - 1.0, "ratio")
    record.update(samples=len(ops), plain_s=plain, traced_s=with_spans,
                  failed_ratio=tally.failed / tally.attempted,
                  problems=tally.problems, spans=len(tracer.spans))
    spans_file = RESULTS / f"spans_{workload.name}_seed{record['env']['seed']}.json"
    spans_file.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "op"],
         "spans": tracer.spans}))
    record["spans_file"] = str(spans_file.relative_to(ROOT))
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "slicereg" / "__init__.py").is_file():
        fail(f"no slicereg sources under {SRC}; run from a source checkout")
    if not (ROOT / "README.md").is_file():
        fail("README.md is missing; the cli workload checks its examples")

    # Users run compiled bytecode, so compile before anything is timed.
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    RESULTS.mkdir(exist_ok=True)

    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "env": environment(args.seed)}
    if args.trace:
        tally, metrics = traced(workload, record)
    else:
        tally, metrics = end_to_end(workload, args.seconds, record)
    correct = tally.correct and not record.get("oracle")
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": float(v), "unit": u}
                          for k, (v, u) in metrics.items()}}
    record["result"] = result
    out = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload} seed {args.seed}: "
          f"{tally.attempted} ops, failed_ratio {record['failed_ratio']:.4f}, "
          f"samples {record['samples']}"
          + (f", slowdown {record['slowdown']:.2f}" if "slowdown" in record else ""))
    for problem, count in sorted(record["problems"].items()):
        print(f"  {count} x {problem}")
    for problem in record.get("oracle", []):
        print(f"  oracle: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
