"""Benchmark of the borelcover pipeline: one workload per invocation.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload cover --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: the operations of a workload run back
to back, and whole passes repeat until --seconds have elapsed.  With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced pass and the tracing overhead.  --workload all runs
every workload in its own process and prints each result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"
WORKLOADS = ("cover", "equations", "locate", "certify")
SETUP_REPEATS = 7
TRACE_ROUNDS = 3
# Time of calibration_loop() at the reference speed: full speed of the 2-CPU
# machine that the README's figures come from.
REFERENCE_S = 0.010

END_TO_END = {"run_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
TRACE_METRICS = {"trace.untraced_run_s": "s", "trace.run_s": "s",
                 "trace.overhead_s": "s"}


def _import_workloads():
    """Import the benchmark's modules and the package under test."""
    if not (SRC / "borelcover").is_dir():
        raise ImportError(f"no borelcover package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    return workloads


def calibration_loop():
    """A fixed piece of pure-Python work: dict, tuple and integer operations."""
    table = {}
    acc = 1
    for i in range(40000):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + 1
        acc = (acc * 3 + i) % 1000003
    return acc


def machine_speed():
    """REFERENCE_S over the calibration loop's time now; 1.0 at reference speed."""
    t0 = time.perf_counter()
    calibration_loop()
    return REFERENCE_S / (time.perf_counter() - t0)


def run_pass(ops, tracer=None, calibrate=False):
    """Run every operation once.

    Returns (seconds, output, error, speed) per operation.  With calibrate,
    the machine speed is measured between operations and `speed` is the
    mean of the readings just before and just after the operation;
    otherwise it is 1.0.
    """
    results = []
    clock = time.perf_counter
    speed = machine_speed() if calibrate else 1.0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.request = index
        t0 = clock()
        try:
            out, error = op.run(), None
        except Exception as exc:  # an operation that raises counts as failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = clock() - t0
        after = machine_speed() if calibrate else 1.0
        results.append((seconds, out, error, (speed + after) / 2))
        speed = after
    return results


def digests_of(ops, results):
    """(sha256 of the canonical output, error) per operation."""
    out = []
    for op, (_, value, error, _) in zip(ops, results):
        digest = None if error else hashlib.sha256(op.canon(value).encode()).hexdigest()
        out.append((digest, error))
    return out


def check_pass(ops, results):
    """Problems per operation, from the independent checks."""
    problems = []
    for op, (_, out, error, _) in zip(ops, results):
        if error is not None:
            problems.append([])
            continue
        try:
            problems.append(op.check(out))
        except Exception as exc:  # a check that cannot run is a failed check
            problems.append([f"check raised {type(exc).__name__}: {exc}"])
    return problems


class Tally:
    """Attempted and failed operations; wrong answers also clear `correct`.

    Only the first pass is checked in full.  A later pass must reproduce its
    outputs exactly and then shares its verdict, so the failed share of a
    run does not depend on how many passes it made.
    """

    def __init__(self, ops, first):
        self.labels = [op.label for op in ops]
        self.reference = [(digest, problems) for (digest, _), problems in
                          zip(digests_of(ops, first), check_pass(ops, first))]
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = set()

    def add_pass(self, digests):
        for label, (want, problems), (digest, error) in zip(
                self.labels, self.reference, digests):
            self.attempted += 1
            if error is not None:
                self.failed += 1
                self.notes.add(f"FAILED {label}: {error}")
                continue
            if digest != want:
                problems = ["output differs from the first pass"]
            if problems:
                self.failed += 1
                self.correct = False
                self.notes.update(f"WRONG {label}: {p}" for p in problems)

    def digest(self):
        """One sha256 over every operation's output (information only)."""
        return hashlib.sha256("".join(d or "-" for d, _ in self.reference)
                              .encode()).hexdigest()


def setup_probe(name, seed):
    """A fresh interpreter that imports the package and builds the inputs.

    Returns its wall time scaled to the reference speed, like an operation's.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    speed = machine_speed()
    t0 = time.perf_counter()
    # No timeout: waiting with one polls at up to 50 ms steps, which would
    # quantize the figure.  The child only imports and builds inputs.
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    seconds = time.perf_counter() - t0
    return seconds * (speed + machine_speed()) / 2


def measure(workloads, name, seed, seconds):
    setup = statistics.median(setup_probe(name, seed) for _ in range(SETUP_REPEATS))
    ops = workloads.build(name, seed)

    def timed_digests(results):
        return [(t, speed, digest, error) for (t, _, _, speed), (digest, error)
                in zip(results, digests_of(ops, results))]

    start = time.perf_counter()
    first = run_pass(ops, calibrate=True)
    passes = [timed_digests(first)]
    while time.perf_counter() - start < seconds:
        passes.append(timed_digests(run_pass(ops, calibrate=True)))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tally = Tally(ops, first)
    for results in passes:
        tally.add_pass([(digest, error) for _, _, digest, error in results])
    # Per operation: the median over the run's passes of its wall time scaled
    # to the reference speed.  A pass is the sum over the operations.
    columns = list(zip(*passes))
    scaled = [statistics.median(t * speed for t, speed, _, _ in c) for c in columns]
    wall = [statistics.median(t for t, _, _, _ in c) for c in columns]
    speeds = [speed for results in passes for _, speed, _, _ in results]
    metrics = {"run_s": sum(scaled), "op_p50_s": statistics.median(scaled),
               "setup_s": setup, "peak_rss_mib": peak_rss_mib}
    info = {"passes": len(passes), "operations": len(ops),
            "op_seconds": dict(zip(tally.labels, zip(wall, scaled))),
            "wall_run_s": sum(wall),
            "speed": (min(speeds), statistics.median(speeds), max(speeds))}
    return tally, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, info


def measure_traced(workloads, tracer_module, name, seed):
    """Per-layer metrics of one traced pass, and the tracing overhead.

    Untraced and traced passes alternate TRACE_ROUNDS times; the overhead is
    the difference of their median wall times.  Layer metrics come from the
    first traced pass, so counts are those of one pass.
    """
    ops = workloads.build(name, seed)
    plain_s, traced_s, tracers, tally = [], [], [], None
    for _ in range(TRACE_ROUNDS):
        plain = run_pass(ops)
        tracer = tracer_module.Tracer()
        with tracer:
            traced = run_pass(ops, tracer)
        tracers.append(tracer)
        if tally is None:
            tally = Tally(ops, plain)
        for results, seconds in ((plain, plain_s), (traced, traced_s)):
            tally.add_pass(digests_of(ops, results))
            seconds.append(sum(t for t, _, _, _ in results))
    tracer = tracers[0]
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)

    units = tracer_module.METRICS
    metrics = {k: (v, units[k]) for k, v in tracer.metrics().items()}
    plain_med, traced_med = statistics.median(plain_s), statistics.median(traced_s)
    for key, value in zip(TRACE_METRICS, (plain_med, traced_med,
                                          traced_med - plain_med)):
        metrics[key] = (value, TRACE_METRICS[key])
    info = {"passes": 2 * TRACE_ROUNDS, "operations": len(ops),
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT))}
    return tally, metrics, info


def report(name, seed, tally, metrics, info):
    print(f"perfbench {name} seed={seed}: {info['passes']} pass(es) of "
          f"{info['operations']} operations, closed loop, 1 thread")
    for key, (value, unit) in metrics.items():
        print(f"  {key:40s} {value:>14.6g} {unit}")
    if "speed" in info:
        low, mid, high = info["speed"]
        print(f"  machine speed {mid:.3f} of reference (min {low:.3f}, "
              f"max {high:.3f}); unscaled pass {info['wall_run_s']:.4f} s")
        for label, (wall, scaled) in info["op_seconds"].items():
            print(f"  op {label:52s} {wall:8.4f} s wall {scaled:8.4f} s scaled")
    if "spans" in info:
        print(f"  {info['spans']} spans written to {info['spans_file']}")
    print(f"  output sha256 {tally.digest()} (information only)")
    print(f"  attempted {tally.attempted}, failed {tally.failed}, "
          f"correct {str(tally.correct).lower()}")
    for note in sorted(tally.notes):
        print(f"  {note}")
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)


def run_all(args):
    """Each workload in its own process, so peak memory stays per workload."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        totals["correct"] &= last["correct"]
        totals["attempted"] += last["attempted"]
        totals["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            totals["metrics"][f"{name}.{key}"] = value
    print(json.dumps(totals), flush=True)
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import the package, build the inputs and exit")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        workloads = _import_workloads()
    except ImportError as exc:
        print(f"perfbench: cannot import the package under test: {exc}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.build(args.workload, args.seed)
        return 0
    if args.trace:
        import tracer
        tally, metrics, info = measure_traced(workloads, tracer, args.workload,
                                              args.seed)
    else:
        tally, metrics, info = measure(workloads, args.workload, args.seed,
                                       args.seconds)
    report(args.workload, args.seed, tally, metrics, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
