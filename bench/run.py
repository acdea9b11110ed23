"""pooldesign benchmark: end-to-end metrics per workload, per-layer metrics traced.

Run from the repository root:

    python3 bench/run.py --workload site-batch --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-check      # every workload, short, all metrics
    python3 bench/run.py --write-manifest  # rewrite BENCHMARK.json from MANIFEST

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The full record (versions,
seed, sample counts, tail percentile) is printed on the line before it and
written to .bench_out/, together with the spans of a traced run.
README.md maps every metric to its layer and workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if not (args.self_check or args.workload or args.write_manifest):
        parser.error("give --workload, --self-check or --write-manifest")
    if not (SRC / "pooldesign" / "__init__.py").is_file():
        print(f"error: no pooldesign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # ahead of any installed pooldesign
    import harness

    if args.workload and args.workload not in harness.WORKLOAD_WHY:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOAD_WHY)}")
    seconds = args.seconds or harness.MANIFEST["run_seconds"]
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(harness.MANIFEST, indent=2) + "\n")
        return 0
    if args.self_check:
        return harness.self_check(min(seconds, 2.0))
    try:
        record = harness.run(args.workload, args.seed, seconds, bool(args.trace))
    except (harness.SetupError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    harness.emit(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
