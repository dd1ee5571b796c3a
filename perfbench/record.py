"""Run every workload, untraced and traced, and write one JSON record.

    python3 perfbench/record.py --seed 0 --out perfbench/results/BENCH_<commit>.json

Run it from the repository root. Each run is a separate run.py process,
measuring for run_seconds of BENCHMARK.json.
The record carries the Python version, the CPU count and the git commit of
the measured sources, so later records can be compared with it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seconds = json.loads(SPEC.read_text())["run_seconds"]

    record = {
        "commit": git("rev-parse", "HEAD"),
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": seconds,
        "load": "closed loop, 1 client, one request process at a time",
        "runs": {},
    }
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            sys.stdout.write(f"== {workload} trace={trace}\n{proc.stdout}")
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            ok = ok and result is not None
            record["runs"][f"{workload}/trace{trace}"] = {
                "returncode": proc.returncode,
                "result": result,
                "report": lines[:-1],
            }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
