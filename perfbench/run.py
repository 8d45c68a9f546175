"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload live-streams --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the engine is imported from its
``src/`` directory and nowhere else. With ``--trace 0`` the result carries the
end-to-end metrics, with ``--trace 1`` the per-layer ones. Diagnostics and
named failures go to the lines before the last; the last line of standard
output is the result object.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("live-streams", "long-stream", "enhance-file")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="keep starting whole rounds until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_engine():
    """Import ofifnet from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "ofifnet" / "__init__.py").is_file():
        print(f"error: no ofifnet package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ofifnet
    if Path(ofifnet.__file__).resolve().parent != SRC / "ofifnet":
        print(f"error: ofifnet imported from {ofifnet.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    import_engine()
    import workloads
    result = workloads.run(args.workload, ROOT, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
