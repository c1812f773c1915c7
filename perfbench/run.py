"""equiaffine benchmark: one closed-loop client, single process, single thread.

    python3 perfbench/run.py --workload pipeline-n2 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Run from the root of a checkout; the program is imported from its ``src``.
Every op's output is checked (see workloads.py).  Every timing is divided by
a reference kernel timed around and during the op and multiplied by a fixed
nominal kernel time (see kernel.py); raw and kernel times are printed beside
the normalised ones in the ``detail:`` line.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` the per-layer
ones (see layers.py) and the hyperboloid dimension sweep.  The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import kernel
import layers
import workloads

# No bytecode is written, so every cold start imports the package from source.
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
PROBES = 5  # cold starts per run; setup_s is their median
PROBE_TIMEOUT_S = 60
COUNT_SEED = 0  # the exact-count pass always uses this seed's inputs
SWEEP_POINTS = {1: 5, 2: 5, 3: 5, 4: 5, 5: 3, 6: 1, 7: 1}  # hyperboloid n -> timed points


class Run:
    """Ops performed by this process, timed by ``meter``, and their outcome."""

    def __init__(self, wl: workloads.Workload, meter: kernel.Meter):
        self.wl = wl
        self.meter = meter
        self.next_op = 0
        self.attempted = 0
        self.errors: list[str] = []

    def call(self, label, fn, check) -> kernel.Timing:
        """Perform, time and check one op."""
        self.attempted += 1
        result, error, timing = self.meter.measure(fn)
        error = error or check(result)
        if error:
            self.errors.append(f"{label}: {error}")
        return timing

    def absorb(self, other: "Run") -> None:
        """Count another Run's ops as this one's."""
        self.attempted += other.attempted
        self.errors += other.errors

    def op(self) -> kernel.Timing:
        """The workload's next op."""
        i = self.next_op
        self.next_op += 1
        return self.call(f"op {i}", lambda: self.wl.run(i), self.wl.check)


def timed_ops(run: Run, seconds: float, min_ops: int = 1, before_op=None, after_op=None) -> list:
    """Closed loop of ops for ``seconds``; returns each op's Timing.

    The hooks run outside the timed region: ``before_op(k)`` and
    ``after_op(k, timing)`` for the k-th op of the loop.
    """
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < min_ops or time.perf_counter() < deadline:
        k = len(samples)
        if before_op:
            before_op(k)
        samples.append(run.op())
        if after_op:
            after_op(k, samples[-1])
    return samples


def probe_setup(name: str, seed: int) -> list[dict]:
    """Cold starts of the workload in fresh processes (see probe.py)."""
    out = []
    for _ in range(PROBES):
        proc = subprocess.run(
            [sys.executable, "-B", str(HERE / "probe.py"), "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=workloads.ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def setup_metrics(probes: list[dict], op_ms_p90: float) -> dict:
    """Per start, import time plus the first op's excess over the warm ops'
    90th percentile; medians over the starts.  The excess is taken over p90,
    not the median, because a 2 s op's first run in a fresh process spreads
    by several percent, as much as the import takes; warm ops show that
    spread too, so it is not set-up."""
    excess = [max(0.0, p["first_op_ms"] - op_ms_p90) for p in probes]
    return {
        "setup_ms": statistics.median(p["import_ms"] + e for p, e in zip(probes, excess)),
        "import_ms": statistics.median(p["import_ms"] for p in probes),
        "first_op_excess_ms": statistics.median(excess),
    }


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    run.op()  # warm-up: caches fill and lazy set-up finishes before timing
    samples = timed_ops(run, seconds)
    raw = np.array([t.raw_ms for t in samples])
    ker = np.array([t.kernel_ms for t in samples])
    norm = np.array([t.ms for t in samples])
    p50, p90 = float(np.median(norm)), float(np.percentile(norm, 90))
    metrics = {
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "ops_per_s": (len(norm) / (float(norm.sum()) / 1e3), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "samples": len(norm),
        "p90_tail_samples": int((norm > p90).sum()),
        "raw_ms_p50": float(np.median(raw)),
        "raw_ms_p90": float(np.percentile(raw, 90)),
        "kernel_ms_p50": float(np.median(ker)),
        "kernel_ms_range": [float(ker.min()), float(ker.max())],
    }
    return metrics, detail


def count_pass(run: Run) -> tuple[dict, set]:
    """Exact calls per op, over the first ops of the fixed count seed.  Its
    ops are checked and counted as ``run``'s."""
    wl = type(run.wl)(COUNT_SEED)
    count_run = Run(wl, run.meter)
    count_run.op()  # warm-up, not counted
    counts = layers.CallCounts()
    counts.patches.apply()
    try:
        for _ in range(wl.count_ops):
            count_run.op()
    finally:
        counts.patches.revert()
    run.absorb(count_run)
    return {k: v / wl.count_ops for k, v in counts.calls.items()}, counts.patches.present


def span_pass(run: Run, seconds: float) -> tuple[dict, list, list, set]:
    """Untraced and traced ops in alternation.  Returns the per-layer medians
    of normalised ms per op, the normalised times of the untraced and of the
    traced ops, and the spans found."""
    spans = layers.Spans(run.meter.clock)
    plain, traced = [], []
    layer_ms = defaultdict(list)

    def before_op(k):
        if k % 2:
            spans.reset()
            spans.patches.apply()

    def after_op(k, timing):
        if not k % 2:
            plain.append(timing.ms)
            return
        spans.patches.revert()
        traced.append(timing.ms)
        for metric, (_, kind, sources) in layers.METRICS.items():
            if kind != "calls":
                per_span = spans.self_s if kind == "self" else spans.total_s
                layer_ms[metric].append(1e3 * timing.factor * sum(per_span.get(s, 0.0) for s in sources))

    try:
        timed_ops(run, seconds, min_ops=2, before_op=before_op, after_op=after_op)
    finally:
        spans.patches.revert()
    medians = {m: statistics.median(v) for m, v in layer_ms.items()}
    return medians, plain, traced, spans.patches.present


def dimension_sweep(run: Run, seed: int) -> dict:
    """Normalised ms per blaschke_at point on hyperboloid(n), n = 1..7, and
    the fitted cost factor per extra dimension; its ops count as ``run``'s."""
    ea = run.wl.ea
    rng = np.random.default_rng([seed, 7])
    ms = {}
    with kernel.Meter("interp") as meter:
        sweep_run = Run(run.wl, meter)
        for n, count in SWEEP_POINTS.items():
            chart = ea.catalog.hyperboloid(n)
            points = rng.uniform(-0.5, 0.5, (count + 1, n))
            times = []
            for j, point in enumerate(points):
                timing = sweep_run.call(f"sweep n={n} point {j}", lambda: ea.blaschke_at(chart, point),
                                        workloads.hyperboloid_error)
                if j:  # the first point of each n fills that n's jet tables
                    times.append(timing.ms)
            ms[n] = statistics.median(times)
    run.absorb(sweep_run)
    slope = np.polyfit(list(ms), [math.log(v) for v in ms.values()], 1)[0]
    metrics = {"blaschke.dim_cost_ratio": (math.exp(slope), "ratio")}
    metrics.update({f"sweep.hyperboloid_n{n}_ms": (v, "ms") for n, v in ms.items()})
    return metrics


def traced(run: Run, seconds: float, probes: list[dict]) -> tuple[dict, dict]:
    counts, found = count_pass(run)
    run.op()  # warm-up
    layer_ms, plain, traced_ms, spans_found = span_pass(run, seconds)
    p50 = statistics.median(plain)
    found |= spans_found
    metrics, absent = {}, []
    for metric, (unit, kind, sources) in layers.METRICS.items():
        present = any(s in found for s in sources)
        if not present:
            absent.append(metric)
        value = float(sum(counts.get(s, 0) for s in sources)) if kind == "calls" else layer_ms[metric]
        metrics[metric] = (value if present else 0.0, unit)
    points = run.wl.points_per_op
    metrics["blaschke.calls_per_point"] = (counts.get("blaschke.blaschke_at", 0) / points if points else 0.0, "calls/point")
    setup = setup_metrics(probes, float(np.percentile(plain, 90)))
    metrics["setup.import_ms"] = (setup["import_ms"], "ms")
    metrics["setup.first_op_excess_ms"] = (setup["first_op_excess_ms"], "ms")
    metrics["trace.overhead_ratio"] = (statistics.median(traced_ms) / p50, "ratio")
    return metrics, {"absent": absent, "untraced_ops": len(plain), "traced_ops": len(traced_ms), "untraced_op_ms_p50": p50}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    probes = probe_setup(name, seed)
    wl = workloads.WORKLOADS[name](seed)
    with kernel.Meter(wl.kernel) as meter:
        run = Run(wl, meter)
        if trace:
            metrics, detail = traced(run, seconds, probes)
        else:
            metrics, detail = end_to_end(run, seconds)
            metrics["setup_s"] = (setup_metrics(probes, metrics["op_ms_p90"][0])["setup_ms"] / 1e3, "s")
    if trace:  # its own meter: the sweep is jet work whatever the workload
        metrics.update(dimension_sweep(run, seed))
    for k, p in enumerate(probes):
        if p["error"]:
            run.errors.append(f"setup probe {k}: {p['error']}")
    attempted = run.attempted + len(probes)
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        **detail,
        "failed_frac": len(run.errors) / attempted,
        "setup_probes": probes,
    }
    for err in run.errors[:5]:
        print(f"{name}: {err}", file=sys.stderr)
    return {
        "correct": not run.errors,
        "attempted": attempted,
        "failed": len(run.errors),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
        "detail": detail,
    }


def print_result(res: dict) -> None:
    d = res["detail"]
    print(f"workload {d['workload']}  seed {d['seed']}  trace {d['trace']}"
          + (f"  samples {d['samples']} ({d['p90_tail_samples']} beyond p90)" if "samples" in d else ""))
    absent = set(d.get("absent", ()))
    for name, m in res["metrics"].items():
        shown = "absent" if name in absent else f"{m['value']:.6g} {m['unit']}"
        print(f"  {name:42s} {shown}")
    print(f"  {'failed_frac':42s} {d['failed_frac']:.6g} ({res['failed']} of {res['attempted']} ops)")
    print("detail: " + json.dumps(d))


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=workloads.ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}/{m}": v for m, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="equiaffine benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads.import_program()
    except workloads.MissingProgram as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:  # a cold start failed
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print_result(res)
    del res["detail"]
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
