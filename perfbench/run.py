"""Run one workload of the kegat benchmark and print its result.

    python3 perfbench/run.py --workload train-a-full --seed 1 --seconds 55 --trace 0

Run it from the root of a checkout: it imports `kegat` from `src/` there and
nowhere else, and exits with code 2 without a result if that is missing.
Inputs come from `--seed`. With `--trace 0` the result carries the
end-to-end metrics; with `--trace 1` the per-layer metrics from a traced
run, whose spans are written under `.bench_build/perfbench/`.

The next-to-last output line is a report (environment, seeds, sample
counts, output checks and digests); the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

# one BLAS/OpenMP thread, set before numpy loads, so a run stays on one core
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

WORKLOAD_NAMES = ("train-a-full", "infer-b-cold")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help="input and schedule sizes; tiny is for smoke tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kegat" / "__init__.py").is_file():
        print(f"error: no kegat sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    BUILD.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=BUILD) as tmp:
        result, report = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            Path(tmp), scale=args.scale, spans_dir=BUILD / "perfbench")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
