"""pyrastab benchmark: one process, one client, closed loop.

Run from the repository root:

    python3 bench/run.py --workload spectra --seed 0 --seconds 15 --trace 0

The package is imported from ``src/`` of the current directory, with BLAS
and OpenMP pinned to one thread.  Operations of the workload's pass run back
to back, each timed alone and checked afterwards, until ``--seconds`` have
passed and at least one whole pass is done.  ``--trace 0`` prints the
end-to-end metrics, with operation times scaled to the speed of a fixed
reference kernel timed alongside them (reference.py); ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics.  The last line of standard output is the
result object; the full result set, with the environment, goes to
``bench/out/``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
SAMPLE_INTERVAL_S = 0.2
OUT_DIR = os.path.join("bench", "out")
clock = time.perf_counter


class Tally:
    """Times, outcomes and digest items of the operations run so far."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.times = defaultdict(list)
        self.scaled = defaultdict(list)
        self.scaled_ok = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.unexpected: list = []
        self.expected: Counter = Counter()
        self.summaries: list = []

    def run_op(self, op, tracer=None, timer=clock) -> tuple:
        """Run, time and check one operation; returns (seconds, passed)."""
        scope = contextlib.nullcontext()
        if tracer is not None:
            tracer.install()
            scope = tracer.operation(op.kind)
        error = output = None
        try:
            with scope:
                start = timer()
                try:
                    output = op.call()
                except Exception as exc:  # an operation's failure is a result
                    error = exc
                elapsed = timer() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        if error is not None:
            reasons = [f"{type(error).__name__}: {error}"]
            summary = {"error": type(error).__name__}
        else:
            reasons = op.check(output)
            summary = op.summary(output)
        self.attempted += 1
        self.times[op.kind].append(elapsed)
        if reasons:
            self.failed += 1
            if op.known_defect:
                self.expected[op.kind] += 1
            else:
                self.unexpected.append({"op": op.kind, "reasons": reasons})
        if len(self.summaries) < len(self.ops):
            self.summaries.append([op.kind, summary])
        return elapsed, not reasons

    def run_pass(self, tracer=None) -> float:
        return sum(self.run_op(op, tracer)[0] for op in self.ops)

    def add_scaled(self, op, seconds: float, passed: bool) -> None:
        self.scaled[op.kind].append(seconds)
        if passed:
            self.scaled_ok[op.kind].append(seconds)

    def digest(self) -> str:
        text = json.dumps(self.summaries, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def interquartile_mean(values) -> float:
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def mix_metrics(tally: Tally) -> dict:
    """Rate and percentiles over the pass mix, from scaled times.

    Each operation of the pass is represented by the interquartile mean of
    its own samples, so where the deadline cuts the last pass does not
    change the mix.  On a shared host the machine's speed jumps for seconds
    at a time: a per-operation median then flips to whichever speed held
    longest, and a plain mean takes in the rare stall of a millisecond
    operation.  The percentiles cover the operations that succeeded, or all
    of them when none did."""
    typical = {kind: interquartile_mean(ts) for kind, ts in tally.scaled.items()}
    pass_s = sum(typical[op.kind] for op in tally.ops)
    ok = sorted(interquartile_mean(tally.scaled_ok[op.kind])
                for op in tally.ops if tally.scaled_ok[op.kind])
    ok = ok or sorted(typical.values())
    return {
        "ops_per_s": len(tally.ops) / pass_s,
        "op_s.p50": _quantile(ok, 0.5),
        "op_s.p90": _quantile(ok, 0.9),
    }


def measure(tally: Tally, reference, seconds: float) -> list:
    """Run operations in pass order until ``seconds`` have passed.

    A pass with known-defect operations is always finished, so the failed
    share of every run is exactly that of one pass and does not depend on
    where the deadline falls.  Other passes may stop after any operation,
    which keeps the long periodic passes within the run's time.

    The reference kernel (see reference.py) runs before the first
    operation, after each one, and every ``SAMPLE_INTERVAL_S`` in between,
    also inside an operation.  An operation's time leaves out the kernel
    runs inside it and is scaled by the mean kernel time from the sample
    before it to the sample after it."""
    n = len(tally.ops)
    whole_passes = any(op.known_defect for op in tally.ops)
    deadline = clock() + seconds
    done = 0
    with reference.Sampler(SAMPLE_INTERVAL_S) as sampler:
        sampler.sample()
        while (done < n or clock() < deadline
               or (whole_passes and done % n)):
            op = tally.ops[done % n]
            first = len(sampler.samples) - 1
            elapsed, passed = tally.run_op(op, timer=sampler.clock)
            sampler.sample()
            speed = statistics.fmean(sampler.samples[first:])
            tally.add_scaled(op, elapsed * reference.NOMINAL_S / speed, passed)
            done += 1
    return sampler.samples


def measure_traced(tally: Tally, tracer, seconds: float) -> tuple:
    """Alternate untraced and traced passes; returns both lists of pass times."""
    deadline = clock() + seconds
    plain, traced = [], []
    while not traced or clock() < deadline:
        plain.append(tally.run_pass())
        traced.append(tally.run_pass(tracer))
    return plain, traced


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": seed,
        "commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "pyrastab", "__init__.py")):
        print("bench: src/pyrastab not found; run from the repository root", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)

    started = clock()
    import layers
    import reference
    import workloads
    from tracer import Tracer
    import_s = clock() - started

    import pyrastab
    if not os.path.abspath(pyrastab.__file__).startswith(src + os.sep):
        print(f"bench: imported pyrastab from {pyrastab.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup = workloads.WORKLOADS[args.workload]

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = clock()
            ops = setup(workdir, args.seed)
            setup_times.append(clock() - start)
        tally = Tally(ops)
        samples = []
        if args.trace:
            tracer = Tracer(layers.FUNCTIONS, layers.METHODS)
            plain, traced = measure_traced(tally, tracer, args.seconds)
            values = layers.per_layer(tracer, len(traced))
            values["trace.overhead"] = statistics.median(plain) / statistics.median(traced)
            values["error_rate"] = tally.failed / tally.attempted
            tracer.write_spans(os.path.join(
                OUT_DIR, f"spans-{args.workload}-s{args.seed}.jsonl"))
            wanted = spec["per_layer"]
        else:
            samples = measure(tally, reference, args.seconds)
            values = mix_metrics(tally)
            values["setup_s"] = import_s + statistics.median(setup_times)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "digest": tally.digest(),
        "environment": environment(args.seed),
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "op_times_s": dict(tally.times),
        "op_scaled_s": dict(tally.scaled),
        "reference_samples_s": samples,
        "known_defect_failures": dict(tally.expected),
        "unexpected_failures": tally.unexpected,
        "result": result,
    }
    path = os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    print(json.dumps({"digest": record["digest"], "record": path,
                      "environment": record["environment"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
