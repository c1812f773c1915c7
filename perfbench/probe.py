"""One cold start of a workload, in a fresh process.

Prints one JSON line: the normalised time to import equiaffine and its CLI
(numpy already imported), and the normalised time of the first op,
including building the workload's chart.  run.py starts this several times
and turns the results into ``setup_s``.

    python3 perfbench/probe.py --workload pipeline-n2 --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys

import kernel
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    # import is interpreted Python whatever the workload; the first op
    # (building the workload's chart included) is timed like its warm ops
    with kernel.Meter("interp") as meter:
        _, error, imported = meter.measure(workloads.import_program)
    if error:
        print(f"probe: {error}", file=sys.stderr)
        return 2
    wl = None

    def first_op():
        nonlocal wl
        wl = workloads.WORKLOADS[args.workload](args.seed)
        return wl.run(0)

    with kernel.Meter(workloads.WORKLOADS[args.workload].kernel) as meter:
        result, error, first = meter.measure(first_op)
    print(json.dumps({
        "import_ms": imported.ms,
        "first_op_ms": first.ms,
        "import_raw_ms": imported.raw_ms,
        "first_op_raw_ms": first.raw_ms,
        "kernel_ms": [imported.kernel_ms, first.kernel_ms],
        "error": error or wl.check(result),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
