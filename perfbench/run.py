#!/usr/bin/env python3
"""fluxdsm benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) in this process, items in
sequence, timing each item from outside the program, and checks every
output. Every timing but setup_s is reported at the reference host
speed (see hostspeed.py); the raw timings are printed beside the
metrics. With --trace 0 it prints the end-to-end metrics; with
--trace 1 it patches spans and counters around each module's public
functions (see tracing.py) and prints the per-layer metrics instead.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

fluxdsm is imported from the checkout's own src/. Artifacts go to a
temporary directory inside the checkout that is removed at exit.
"""

import os

# one BLAS/OpenMP thread, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import slowness  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"

# Fresh-interpreter set-ups per run whose median is setup_s.
SETUP_PROBES = 7
MIN_PASSES = 3
# Untraced, an item cheaper than this is run back to back until its
# runs add up to it, at most REPEAT_MAX times, so that a
# few-millisecond item gets as many chances as a slow one to run
# undisturbed.
REPEAT_SECONDS = 0.05
REPEAT_MAX = 25


def import_program():
    """Import fluxdsm from ROOT/src and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import fluxdsm
    where = Path(fluxdsm.__file__).resolve().parent.parent
    if where != src:
        raise ImportError(f"fluxdsm imported from {where}, not {src}")
    return fluxdsm


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("scenarios", "loop_sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the passes run, after set-up")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced workload and one pass, for the self-test")
    p.add_argument("--reference", default=str(REFERENCE),
                   help="reference outputs to check against")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_item(item, errors):
    t0 = time.perf_counter()
    try:
        out = item.run()
    except errors as exc:
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None


class Runner:
    """Runs passes over the items and keeps latencies and failures."""

    def __init__(self, items, reference, errors, repeat):
        self.items = items
        self.reference = reference
        self.errors = errors
        self.repeat = repeat
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, item, out, error):
        """Count one run of an item. Its first output is checked against
        the reference; every later one must be byte-identical to it."""
        self.attempted += 1
        problems = [error] if error else []
        if out is not None:
            digest = item.digest(out)
            if item.name not in self.digests:
                self.digests[item.name] = digest
                problems += item.check(out, self.reference)
            elif digest != self.digests[item.name]:
                problems.append("outputs differ from the first run")
        if problems:
            self.failed += 1
            self.problems += [f"{item.name}: {p}" for p in problems]

    def runs(self, item):
        """Latencies of one item's runs in one pass."""
        runs = []
        while True:
            seconds, out, error = run_item(item, self.errors)
            self.record(item, out, error)
            runs.append(seconds)
            if (not self.repeat or sum(runs) >= REPEAT_SECONDS
                    or len(runs) >= REPEAT_MAX):
                return runs

    def one_pass(self):
        """Run every item; returns, for each, its runs and the host's
        slowness around them (hostspeed.py), timed before every item
        and after the last."""
        out = []
        before = slowness()
        for item in self.items:
            runs = self.runs(item)
            after = slowness()
            out.append((runs, math.sqrt(before * after)))
            before = after
        return out

    def passes(self, seconds, min_passes, on_pass=None):
        """Passes until the next one would end after `seconds`, and at
        least min_passes of them."""
        start = time.perf_counter()
        done = []
        while True:
            t0 = time.perf_counter()
            done.append(self.one_pass())
            if on_pass:
                on_pass()
            last = time.perf_counter() - t0
            if (len(done) >= min_passes
                    and time.perf_counter() - start + last > seconds):
                return done


def probe_setup(args):
    """Seconds from starting a fresh interpreter on this workload to the
    end of its warm-up item. Most of it is importing numpy and scipy,
    module loading that the kernel in hostspeed.py does not track, so
    it is reported at the host's own speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--reference", args.reference, "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    return elapsed


def pass_latencies(passes, normalize=True):
    """Per pass, each item's latency: the median of its runs in the
    pass, divided by the host's slowness around them unless normalize
    is false."""
    return [[statistics.median(runs) / (slow if normalize else 1.0)
             for runs, slow in one] for one in passes]


def summarize(passes, normalize=True):
    """Each item's median latency over the passes, and the median
    over passes of a pass's summed latencies."""
    per_pass = pass_latencies(passes, normalize)
    items = [statistics.median(lat) for lat in zip(*per_pass)]
    return items, statistics.median(sum(one) for one in per_pass)


def host_line():
    import numpy
    import scipy
    load = ", ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"host: nproc={os.cpu_count()} python={platform.python_version()}"
            f" numpy={numpy.__version__} scipy={scipy.__version__}"
            f" loadavg={load}")


def end_to_end(passes, items, setup):
    latency, wall = summarize(passes)
    raw_latency, raw_wall = summarize(passes, normalize=False)
    slowest = sorted(zip(latency, [item.name for item in items]),
                     reverse=True)
    slow = [s for one in passes for _, s in one]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "item_p50_ms": statistics.median(latency) * 1e3,
        "item_tail_ms": slowest[0][0] * 1e3,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"passes = {len(passes)}, items = {len(items)}, item runs = "
             f"{sum(len(runs) for p in passes for runs, _ in p)}",
             f"item_tail_ms is the slowest of {len(items)} item latencies"
             f" (p100): {slowest[0][1]}",
             "item latencies (ms): " + ", ".join(
                 f"{name} {t * 1e3:.3f}" for t, name in slowest),
             f"setup_s probes (s): {', '.join(f'{t:.4f}' for t in setup)}",
             "host slowness (hostspeed.py) over the item runs: median "
             f"{statistics.median(slow):.3f}, min {min(slow):.3f}, "
             f"max {max(slow):.3f}",
             f"raw, at the host's own speed: wall_s {raw_wall:.6g} s, "
             f"item_p50_ms {statistics.median(raw_latency) * 1e3:.6g} ms, "
             f"item_tail_ms {max(raw_latency) * 1e3:.6g} ms"]
    return metrics, notes


def per_layer(runner, seconds):
    """Untraced passes for half the time, then traced passes for the
    other half, at least one of each; returns the per-layer metrics
    (counts of one pass, times of the fastest traced pass) and lines
    describing the spans."""
    from tracing import Tracer, layer_counts, layer_times, span_summary

    plain = runner.passes(seconds / 2.0, 1)
    tracer = Tracer()
    counts, times, all_spans, all_hot = [], [], [], {}

    def collect():
        spans, hot = tracer.take()
        counts.append(layer_counts(spans, hot))
        times.append(layer_times(spans, hot))
        all_spans.extend(spans)
        for name, (calls, secs) in hot.items():
            entry = all_hot.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += secs

    tracer.install()
    try:
        traced = runner.passes(seconds / 2.0, 1, on_pass=collect)
    finally:
        tracer.uninstall()
    if any(c != counts[0] for c in counts):
        runner.problems.append("per-pass counts differ between passes")
        runner.failed += 1
    metrics = dict(counts[0])
    for name in times[0]:
        metrics[name] = min(t[name] for t in times)
    metrics["trace.overhead_ratio"] = (summarize(traced)[1]
                                       / summarize(plain)[1])
    notes = [f"untraced passes = {len(plain)}, traced passes = "
             f"{len(traced)}"] + span_summary(all_spans, all_hot)
    return metrics, notes


def main(argv=None):
    args = parse_args(argv)
    try:
        import_program()
        import workloads
        from fluxdsm.errors import FluxDsmError
    except ImportError as exc:
        print(f"error: cannot import fluxdsm from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    with open(args.reference, "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_units = {m["name"]: m["unit"] for m in units["per_layer"]}
    e2e_units = {m["name"]: m["unit"] for m in units["end_to_end"]}

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        items, warmup = workloads.WORKLOADS[args.workload](
            args.seed, tmp, args.quick)
        _, _, error = run_item(warmup, FluxDsmError)
        if error:
            print(f"error: warm-up item failed: {error}", file=sys.stderr)
            return 1
        slowness()  # warms the host-speed kernel too
        own_setup = time.perf_counter() - START
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        runner = Runner(items, reference, FluxDsmError,
                        repeat=not args.trace)
        if args.trace:
            metrics, notes = per_layer(runner, args.seconds)
            wanted = layer_units
        else:
            passes = runner.passes(args.seconds,
                                   1 if args.quick else MIN_PASSES)
            # after the passes, so that they start right after warm-up
            setup = ([own_setup] if args.quick else
                     [probe_setup(args) for _ in range(SETUP_PROBES)])
            metrics, notes = end_to_end(passes, items, setup)
            wanted = e2e_units

    print(host_line())
    print(f"workload = {args.workload}, seed = {args.seed}, "
          f"trace = {args.trace}")
    for line in notes:
        print(line)
    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(f"failed_ratio = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} item runs)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {wanted[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


START = time.perf_counter()

if __name__ == "__main__":
    sys.exit(main())
