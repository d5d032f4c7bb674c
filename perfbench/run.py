"""Benchmark of the morreycircle package; perfbench/README.md explains it.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Runs one workload as a closed loop (one client, the next operation starts
when the previous one ends) for ``--seconds``, checks every operation's
output outside the timed region, and prints a table followed, as the last
line, by one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics that BENCHMARK.json lists (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import traceback
from math import fsum
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("reproduce", "certify", "oracle", "arcs")
SETUP_REPEATS = 7

# span names of the wrapped public functions; each gets .calls and .self_s
LAYERS = (
    "cli.counterexample",
    "counterexample.build_f",
    "counterexample.build_g",
    "counterexample.f_prefix_ratio",
    "counterexample.g_ratio_upper_bound",
    "circle_step.rotated",
    "circle_step.integral_p",
    "circle_step.decreasing_rearrangement",
    "circle_step.equimeasurable",
    "morrey.morrey_ratio",
    "morrey.morrey_norm_exact",
    "morrey.morrey_norm_grid",
    "io.save_step_function",
    "io.load_step_function",
)
# the layer each workload exists for; its share of op time is reported
DOMINANT = (
    "morrey.morrey_norm_exact",         # reproduce
    "counterexample.f_prefix_ratio",    # certify
    "morrey.morrey_norm_grid",          # oracle
    "circle_step.integral_p",           # arcs
)
PAIRED = ("morrey.morrey_norm_exact", "morrey.morrey_norm_grid")  # .ns_per_pair
# work counters computed from each call's inputs and outputs; 0 where the
# workload never reaches the layer
COUNTERS = (
    "morrey.morrey_norm_exact.pairs",
    "morrey.morrey_norm_grid.pairs",
    "counterexample.f_prefix_ratio.width_ratio",
    "circle_step.integral_p.segment_visits",
    "circle_step.equimeasurable.segments",
    "io.bytes",
    "counterexample.build.segments",
    "counterexample.divergence_margin",
    "counterexample.g_margin",
)
# counters combined by an extreme rather than summed over an operation
EXTREMES = {
    "counterexample.f_prefix_ratio.width_ratio": max,
    "counterexample.divergence_margin": min,
    "counterexample.g_margin": min,
}


def kind(metric):
    """How a metric is obtained: computed from inputs and outputs, counted
    by the wrappers, or measured with the clock or the kernel."""
    if metric in COUNTERS:
        return "computed"
    return "counted" if metric.endswith(".calls") else "measured"


def timed(fn, i):
    """Run one operation; an exception is that operation's failure."""
    t0 = perf_counter()
    try:
        result = fn(i)
    except Exception:
        return perf_counter() - t0, None, traceback.format_exc(limit=-3)
    return perf_counter() - t0, result, None


def checked(wl, i, result, error):
    problems = [error] if error else wl.check(i, result)
    for p in problems[:3]:
        print(f"op {i} failed: {p}", file=sys.stderr)
    return problems


def setup_probe(args):
    """Set-up seconds of a fresh process: package import plus inputs."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--setup-only"],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True)
    return float(done.stdout.split()[-1])


def untraced_run(wl, args):
    """Time ops for ``--seconds``, with set-up probes spread over the run.

    Spreading the probes makes their median, like the ops', cover the whole
    run rather than one moment of it; probe time does not count against
    ``--seconds``.
    """
    seconds = args.seconds
    times, setups, failed = [], [], 0
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        if (len(setups) < SETUP_REPEATS
                and perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS):
            t0 = perf_counter()
            setups.append(setup_probe(args))
            start += perf_counter() - t0
        dt, result, error = timed(wl.op, i)
        times.append(dt)
        failed += bool(checked(wl, i, result, error))
        i += 1
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_probe(args))
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "ops_per_s": (len(times) - failed) / fsum(times),
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    if len(times) >= 100:       # at least ten samples beyond p90
        print(f"op_p90_s: {statistics.quantiles(times, n=10)[-1]} s "
              f"({len(times)} samples)")
    else:
        print(f"op_p90_s: not reported, {len(times)} samples < 100")
    return len(times), failed, metrics


def op_counts(spans):
    """Calls per layer and work counters of one traced operation."""
    counts = {}
    for s in spans:
        key = s["name"] + ".calls"
        counts[key] = counts.get(key, 0) + 1
        for name, v in s["counters"].items():
            if name in counts:
                v = EXTREMES.get(name, operator.add)(counts[name], v)
            counts[name] = v
    return counts


def traced_run(wl, seconds, tracer):
    """Alternate an untraced and a traced in-process operation on one input.

    Runs until ``seconds`` have passed and every input was traced once.
    """
    plain, traced, per_op = [], [], []
    per_input = {}
    failed = 0
    start = perf_counter()
    i = 0
    while i < wl.inputs or perf_counter() - start < seconds:
        dt, result, error = timed(wl.op_inproc, i)
        plain.append(dt)
        failed += bool(checked(wl, i, result, error))

        tracer.op = i
        first = len(tracer.spans)
        with tracer.patched(wl.trace_targets()):
            dt, result, error = timed(tracer.wrap("bench.op", wl.op_inproc), i)
        traced.append(dt)
        problems = checked(wl, i, result, error)
        counts = op_counts(tracer.spans[first:])
        if not problems:
            counts.update(wl.output_counters(result))
            if per_input.setdefault(i % wl.inputs, counts) != counts:
                problems.append("work counters differ from an earlier op on this input")
                print(f"op {i} failed: {problems[-1]}", file=sys.stderr)
        per_op.append(counts)
        failed += bool(problems)
        i += 1

    n, op_total = len(traced), fsum(traced)
    self_s = {}
    for span, s in zip(tracer.spans, tracer.self_times()):
        self_s[span["name"]] = self_s.get(span["name"], 0.0) + s
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = 0
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0) / n
    for layer in DOMINANT:
        metrics[f"{layer}.share"] = self_s.get(layer, 0.0) / op_total
    for name in COUNTERS:
        metrics[name] = 0
    for layer in PAIRED:
        pairs = sum(c.get(f"{layer}.pairs", 0) for c in per_op)
        metrics[f"{layer}.ns_per_pair"] = (self_s.get(layer, 0.0) * 1e9 / pairs
                                           if pairs else 0.0)
    # counters: the mean over the input set (exact repeats), or its extreme
    for name in set().union(*per_input.values()):
        vals = [c.get(name, 0) for _, c in sorted(per_input.items())]
        metrics[name] = (EXTREMES[name](vals) if name in EXTREMES
                         else fsum(vals) / len(vals))
    metrics["trace.op_p50_s"] = statistics.median(traced)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1

    print(f"traced ops: {n} (+{len(plain)} untraced in-process); "
          f"inputs: {wl.inputs}; traced op total {op_total:.4f} s")
    print(f"{'layer':40} {'calls/op':>10} {'self s/op':>12} {'share':>7}")
    for name in sorted(self_s, key=self_s.get, reverse=True):
        calls = sum(c.get(name + ".calls", 0) for c in per_op) / n
        print(f"{name:40} {calls:10.4g} {self_s[name] / n:12.6f} "
              f"{self_s[name] / op_total:7.2%}")
    return 2 * n, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "morreycircle" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a checkout of the repository "
              "(needs src/morreycircle and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.setup_only:
            t0 = perf_counter()
            import workloads

            workloads.make(args.workload, args.seed, ROOT, Path(tmp))
            print(perf_counter() - t0)
            return 0

        import workloads
        import numpy

        wl = workloads.make(args.workload, args.seed, ROOT, Path(tmp))
        print(f"machine: cpus={os.cpu_count()} python={platform.python_version()} "
              f"numpy={numpy.__version__} platform={platform.platform()}")
        print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            attempted, failed, metrics = traced_run(wl, args.seconds, tracer)
            metrics["cli.startup_s"] = workloads.cli_startup_s(ROOT)
            dump = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(dump)
            print(f"spans: {dump}")
        else:
            attempted, failed, metrics = untraced_run(wl, args)
        print(f"ops: {attempted}  failed: {failed}  failed_frac: {failed / attempted}")

    spec = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}
    for name, m in result.items():
        print(f"{name:48} {m['value']!r} {m['unit']} ({kind(name)})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
