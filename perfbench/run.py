"""Run one benchmark workload of the akhodge engine.

    python3 perfbench/run.py --workload catalog_report --seed 1 \
        --seconds 30 --trace 0

Run from the repository root: the engine is imported from ./src.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).  The line before it records the run: inputs
digest, Python version, nproc, load average at start.  A human-readable
table goes to standard error.  With --trace 1 the spans of the first traced
unit and its set-up are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "akhodge" / "__init__.py").is_file():
        print(f"error: no engine sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    started = {"python": "Python " + platform.python_version(),
               "nproc": len(os.sched_getaffinity(0)),
               "loadavg": list(os.getloadavg())}

    spans_path = None
    if args.trace:
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    result, info = workloads.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), spans_path)

    moves = {name: why for name, _, why in workloads.PER_LAYER}
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6f} {metric['unit']:6s} "
              f"{moves.get(name, '')}", file=sys.stderr)
    print(json.dumps({"run": {**info, **started}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
