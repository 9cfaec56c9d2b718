"""rffkrr trial benchmark.

    python3 perfbench/run.py --workload krr-s64 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  Each workload runs in its own
process.  With ``--trace 0`` the end-to-end metrics are measured; with
``--trace 1`` a separate run wraps the package's public functions and
reports per-layer self times, counters and the tracing overhead.  The
human-readable report comes first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Working files (the generated CSV, span dumps) go to ./.perfbench.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
# One experiment thread and one BLAS thread.  On a 2-core machine two
# BLAS threads made krr trials slower and their times noisier.
BLAS_THREADS = "1"
IMPORT_REPEATS = 3


def use_checkout_source():
    """Put ./src first on the import path; fail if it holds no rffkrr."""
    if not (SOURCE / "rffkrr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rffkrr package under {SOURCE}")
    sys.path.insert(0, str(SOURCE))


def time_import():
    """Median seconds to import numpy and rffkrr, each time in a fresh
    interpreter (an import can be timed only once per process)."""
    code = (f"import sys, time; sys.path.insert(0, {str(SOURCE)!r}); "
            "t = time.perf_counter(); import numpy, rffkrr; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout)
        for _ in range(IMPORT_REPEATS)
    )


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args):
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = _parse(argv)
    use_checkout_source()
    if args.workload == "all":
        return _run_all(args)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS

    import_s = time_import()
    from harness import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)} or all")
    lines, result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace), str(WORKDIR), import_s=import_s)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
