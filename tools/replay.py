"""Replay a fixed list of flagflow requests through fresh processes and hash what they print.

    python tools/replay.py [--python EXE]... [--src DIR]...

Each request runs as `EXE -m flagflow.cli ARGV`, with DIR as PYTHONPATH, in a temporary
working directory that holds the golden job file as job.json and each file of JOBS. Its
record is the label, argv, exit code, stdout and stderr; check's one run-dependent line,
"wall_time_s", is left out of stdout. Each interpreter and source tree (a run; by default
this interpreter and this tree's src) prints one sha256 over its records. Then every
request whose record differs between runs is listed by label and argv, and the exit code
is 1.

The requests are, in order: the golden requests of tests/data, one cycle each of the
cli-small and cli-large benchmark streams at seed 0 (imported from
perfbench/workloads.py), check --seed 0, 1 and 2, each value of the rational grammar
table, tests/data/rational_grammar.json, as flow's --t, and three refused requests: a
describe and an invariants job that carry fields of other commands, and a flow class of
71 entries. The tool needs only the standard library and runs on every interpreter that
pyproject.toml admits.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
GOLDEN = [DATA / "cli_golden.json", DATA / "cli_golden_check.json"]
GRAMMAR_REQUEST = ["flow", "--type", "A", "--rank", "1", "--class", "1"]
# job files written beside the golden one: each carries fields its command does not take
JOBS = {
    "describe.json": {"lie_family": "A", "rank": 1, "class": ["1"], "t": "1/4"},
    "invariants.json": {"lie_family": "A", "rank": 1, "divisor": ["1"], "samples": 2,
                        "t_max_fraction": "1/2"},
}


def _golden() -> list[dict]:
    return [case for path in GOLDEN for case in json.loads(path.read_text())]


def requests() -> list[tuple[str, list[str]]]:
    """(label, argv) of every request, in the order they run."""
    out = [(f"golden {i}", ["job.json" if arg == "JOB" else arg for arg in case["argv"]])
           for i, case in enumerate(_golden())]
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import cycle_length, stream
    for workload in ("cli-small", "cli-large"):
        cycle = itertools.islice(stream(workload, 0), cycle_length(workload))
        out += [(f"{workload} {i}", request.argv()) for i, request in enumerate(cycle)]
    out += [(f"check {seed}", ["check", "--seed", str(seed)]) for seed in range(3)]
    table = json.loads((DATA / "rational_grammar.json").read_text(encoding="utf-8"))
    out += [(f"grammar {i}", [*GRAMMAR_REQUEST, f"--t={case['text']}"])
            for i, case in enumerate(table)]
    out += [("refused 0", ["describe", "--job", "describe.json"]),
            ("refused 1", ["invariants", "--job", "invariants.json"]),
            ("refused 2", [*GRAMMAR_REQUEST[:-1], ",".join(["1"] * 71)])]
    return out


def run(python: str, src: str, reqs: list[tuple[str, list[str]]]) -> list[str]:
    """The record of each request, as one JSON line, run by python on the flagflow in src."""
    [job] = [case["job"] for case in _golden() if "job" in case]
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    records = []
    with tempfile.TemporaryDirectory() as cwd:
        for name, content in [("job.json", job), *JOBS.items()]:
            Path(cwd, name).write_text(json.dumps(content))
        for label, argv in reqs:
            proc = subprocess.run([python, "-m", "flagflow.cli", *argv], cwd=cwd, env=env,
                                  capture_output=True, timeout=600)
            out, err = (data.decode("utf-8", "surrogateescape")
                        for data in (proc.stdout, proc.stderr))
            out = re.sub(r'^ *"wall_time_s": .*\n', "", out, flags=re.M)
            records.append(json.dumps([label, argv, proc.returncode, out, err]))
    return records


def digest(records: list[str]) -> str:
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def differing(runs: list[list[str]]) -> list[int]:
    """Indices of the requests whose records are not the same in every run."""
    return [i for i, records in enumerate(zip(*runs)) if len(set(records)) > 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--python", action="append",
                        help="interpreter to run the requests with (repeatable; "
                             "default: this one)")
    parser.add_argument("--src", action="append",
                        help="directory that holds the flagflow package (repeatable; "
                             "default: this tree's src)")
    args = parser.parse_args(argv)
    reqs = requests()
    runs = []
    for python, src in itertools.product(args.python or [sys.executable],
                                         args.src or [str(ROOT / "src")]):
        runs.append(run(python, src, reqs))
        print(digest(runs[-1]), python, src, f"{len(reqs)} requests", flush=True)
    differ = differing(runs)
    for i in differ:
        label, request = reqs[i]
        print(f"differs: {label}: {request}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
