#!/usr/bin/env python3
"""The whole-path benchmark: three workloads, end to end, checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload nail-closure --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run that alternates plain and traced rounds.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("nail-closure", "glue-bom", "server-durable")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program under test is the checkout's own source tree, never an
    # installed copy.
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from common import OUT, emit

    out_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    if args.workload == "nail-closure":
        import w_closure as workload
    elif args.workload == "glue-bom":
        import w_bom as workload
    else:
        import w_server as workload
    problems, attempted, failed, metrics, traced = workload.run(
        args.seed, args.seconds, bool(args.trace)
    )
    if args.trace:
        count = traced.recorder.dump(os.path.join(out_dir, "spans.jsonl"))
        print(f"perfbench: {count} spans in {out_dir}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"perfbench: wrong answer: {problem}", file=sys.stderr)
    emit(not problems, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
