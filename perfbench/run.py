"""Closed-loop benchmark of explab: one workload, one seed, one result line.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; explab is imported from ./src. A
single caller issues each operation of the workload only after the previous
one has returned, and repeats whole passes over the workload while another
pass still fits in --seconds (at least one pass). Every output is checked by
the workload's oracle and against the first pass's output.

--trace 0 reports the end-to-end metrics, as times scaled to the machine's
nominal speed by a SpeedProbe. --trace 1 runs untraced passes for half the
time, then traced passes for the other half, and reports the per-layer
metrics of the traced passes and the tracing overhead, in raw seconds;
outputs of the traced passes must match the untraced ones byte for byte.

Stdout ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
The lines before it print every metric by name with its unit. Exits 2 when
the checkout has no explab sources.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Pinned before numpy is imported, so the numbers measure the program and not
# the scheduler. EXPLAB_THREADS sizes classify's row-assembly pool.
PINNED_THREADS = {"EXPLAB_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
                  "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}

# setup_s is the median of this many fresh interpreters, each timed from
# start until explab.cli is imported and the seeded inputs are built
SETUP_PROBES = 7
# reference_work() runs this many times before and after each of them
SETUP_SAMPLES = 5

# Seconds that reference_work() takes at the machine's nominal speed: about
# its median on the 2-vCPU Xeon VM the baseline was measured on. The
# end-to-end times read as seconds on a machine running at that speed.
NOMINAL_REF_S = 0.01

# (name, unit, better) of the end-to-end metrics, as in BENCHMARK.json
END_TO_END = (("setup_s", "s", "lower"), ("wall_s", "s", "lower"),
              ("cpu_s", "s", "lower"), ("peak_rss_mb", "MB", "lower"),
              ("query_p50_ms", "ms", "lower"), ("query_p90_ms", "ms", "lower"))


def reference_work() -> Fraction:
    """Fixed exact rational arithmetic, the kind explab's exact layers do:
    elimination of a nonsingular 14x14 rational matrix and a 1200-term
    harmonic sum."""
    n = 14
    rows = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(n)]
            for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det + sum(Fraction(1, k) for k in range(1, 1200))


class SpeedProbe:
    """Samples the machine's speed while operations run, to scale their times.

    The shared 2-vCPU VM this benchmark was built on runs the same Python
    code up to 1.5x slower for seconds to minutes at a time, in CPU time as
    much as in wall time, so raw times of one run spread by 20-30% between
    runs. Inside `with SpeedProbe()`, a SIGALRM handler, which Python runs in
    the caller's thread between two bytecodes, times reference_work() every
    PERIOD_S of wall time. `scaled` takes the handler's own time out of an
    operation and scales the rest by NOMINAL_REF_S over the mean reference
    time sampled during it and WINDOW_S either side of it. The reference
    does not depend on explab, so a change to the program shows in full.
    """

    PERIOD_S = 0.1
    WINDOW_S = 1.0

    def __init__(self) -> None:
        self.starts: List[float] = []  # perf_counter at the start of each sample
        self.walls: List[float] = []
        self.cpus: List[float] = []
        self._previous = None

    def sample(self, *_signal) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        reference_work()
        self.cpus.append(time.process_time() - c0)
        self.walls.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scaled(self, start: float, end: float, cpu_s: float) -> Tuple[float, float]:
        """(wall, cpu) seconds at nominal speed of an operation that ran from
        `start` to `end` and took `cpu_s` of CPU time."""
        first, last = bisect_left(self.starts, start), bisect_left(self.starts, end)
        own_wall = sum(self.walls[first:last])
        own_cpu = sum(self.cpus[first:last])
        lo = bisect_left(self.starts, start - self.WINDOW_S)
        hi = bisect_left(self.starts, end + self.WINDOW_S)
        if lo == hi:  # the handler was held off: the nearest sample each side
            lo, hi = max(lo - 1, 0), hi + 1
        factor = NOMINAL_REF_S / statistics.fmean(self.walls[lo:hi])
        return (end - start - own_wall) * factor, (cpu_s - own_cpu) * factor


@dataclass
class PassResult:
    wall_s: float  # raw, probe included
    cpu_s: float
    spans: List[Tuple[float, float, float]]  # (start, end, CPU seconds) per operation
    outputs: List[object]
    errors: List[Optional[str]]  # an operation that raised has its error here


def run_pass(ops, tracer=None) -> PassResult:
    """One closed-loop pass over `ops`; oracles run later, outside the timing."""
    spans, outputs, errors = [], [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in ops:
        if tracer is not None:
            tracer.begin_op()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out, err = op.run(), None
        except Exception as exc:  # counted as a failed operation; the loop goes on
            out, err = None, "%s: %s" % (type(exc).__name__, exc)
        spans.append((t0, time.perf_counter(), time.process_time() - c0))
        outputs.append(out)
        errors.append(err)
    return PassResult(time.perf_counter() - wall0, time.process_time() - cpu0,
                      spans, outputs, errors)


def measure(ops, seconds: float, tracer=None) -> List[PassResult]:
    """Passes while one more, at the median pass time, fits in `seconds`."""
    passes, start = [], time.perf_counter()
    while True:
        passes.append(run_pass(ops, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall_s for p in passes) > seconds:
            return passes


def failures(ops, passes: List[PassResult]) -> List[str]:
    """One message per failed (pass, operation): it raised, its oracle
    rejected it, or its output differs from the first pass's."""
    reference = [None if err else op.fingerprint(out) for op, out, err
                 in zip(ops, passes[0].outputs, passes[0].errors)]
    found = []
    for n, result in enumerate(passes):
        for op, out, err, ref in zip(ops, result.outputs, result.errors, reference):
            if err is None:
                err = op.check(out)
            if err is None and ref is not None and op.fingerprint(out) != ref:
                err = "output differs from the first pass"
            if err is not None:
                found.append("pass %d, %s: %s" % (n, op.label, err))
    return found


def end_to_end_metrics(setup: List[float], passes: List[PassResult],
                       probe: SpeedProbe) -> dict:
    """Times at nominal speed: wall_s and cpu_s are medians over passes;
    the query deciles are over operations, of each one's median over passes,
    so they do not depend on how many passes fit in the run."""
    scaled = [[probe.scaled(*span) for span in p.spans] for p in passes]
    per_op = [statistics.median(times[k][0] for times in scaled)
              for k in range(len(passes[0].spans))]
    deciles = statistics.quantiles([s * 1e3 for s in per_op], n=10, method="inclusive")
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(w for w, _ in times) for times in scaled),
        "cpu_s": statistics.median(sum(c for _, c in times) for times in scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "query_p50_ms": deciles[4],
        "query_p90_ms": deciles[8],
    }
    return {name: (values[name], unit) for name, unit, _ in END_TO_END}


def _reference_s() -> float:
    """Median time of SETUP_SAMPLES runs of reference_work()."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _probe_setup(args) -> float:
    """Set-up time of one fresh interpreter, at nominal speed."""
    before = _reference_s()
    started = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)],
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    elapsed = time.perf_counter() - started
    return elapsed * NOMINAL_REF_S / statistics.fmean((before, _reference_s()))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import explab and build the inputs, then exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.update(PINNED_THREADS)
    if not (SRC / "explab" / "__init__.py").is_file():
        print("error: no explab sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.setup_probe:
            workloads.build(args.workload, args.seed, workdir)
            return 0
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            import spans
            plain = measure(ops, args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = measure(ops, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            passes = plain + traced
            metrics = tracer.layer_metrics(len(traced))
            overhead = (statistics.median(p.wall_s for p in traced)
                        - statistics.median(p.wall_s for p in plain))
            metrics["trace.overhead_s"] = (overhead, "s")
        else:
            setup = [_probe_setup(args) for _ in range(SETUP_PROBES)]
            with SpeedProbe() as probe:
                passes = measure(ops, args.seconds)
            metrics = end_to_end_metrics(setup, passes, probe)
        failed = failures(ops, passes)

    attempted = len(ops) * len(passes)
    for message in failed[:20]:
        print("FAIL " + message, file=sys.stderr)
    print("workload %s, seed %d, %d operations x %d passes, threads pinned: %s"
          % (args.workload, args.seed, len(ops), len(passes),
             " ".join("%s=%s" % kv for kv in PINNED_THREADS.items())))
    for name, (value, unit) in metrics.items():
        print("%-52s %16.6f %s" % (name, value, unit))
    print("%-52s %16.6f %s" % ("fail_frac", len(failed) / attempted, "ratio"))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
