"""Check that the traced run's exact counts repeat.

Runs the traced benchmark twice per workload, with different seeds, and
compares every count metric (``*.calls``, ``jets.mul_calls``,
``jets.jet_objects``, ``blaschke.calls_per_point``).  They come from a
fixed input set, so they must agree exactly; a later change may then cite
them by name.  Exits 1 on any difference.

    python3 perfbench/check_counts.py                      # every workload
    python3 perfbench/check_counts.py --workload check-sl3
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
COUNT_METRICS = [m for m, (_, kind, _) in layers.METRICS.items() if kind == "calls"] + ["blaschke.calls_per_point"]


def traced_counts(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=workloads.ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: traced run exited {proc.returncode}: {proc.stderr.strip()}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {m: metrics[m]["value"] for m in COUNT_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="check that the traced run's exact counts repeat")
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        first, second = traced_counts(name, 1), traced_counts(name, 2)
        diff = {m: (first[m], second[m]) for m in COUNT_METRICS if first[m] != second[m]}
        ok &= not diff
        print(f"{name}: {'counts repeat' if not diff else 'counts differ: ' + json.dumps(diff)}")
        for m in COUNT_METRICS:
            print(f"  {m:36s} {first[m]:g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
