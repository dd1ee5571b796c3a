"""Replay a fixed list of flagflow requests through fresh processes and hash what they print
and write, or compare the CPU and peak memory of two source trees on the benchmark's requests.

    python tools/replay.py [--python EXE]... [--src DIR]...
    python tools/replay.py [--python EXE] --base DIR --change DIR [--pairs N]

Each request runs as `EXE -m flagflow.cli ARGV`, with DIR as PYTHONPATH, in a temporary
working directory that holds the golden job file as job.json and each file of JOBS. Its
record is the label, argv, exit code, stdout, stderr and the sha256 of each file the
request creates there, by name; check's one run-dependent line, "wall_time_s", is left out
of stdout, and the files are removed once hashed. Each interpreter and source tree (a run;
by default this interpreter and this tree's src) prints one sha256 over its records. Then
every request whose record differs between runs is listed by label and argv, an argument
of more than 40 characters by its length, and the exit code is 1.

The requests are, in order: the golden requests of tests/data, one cycle each of the
cli-small and cli-large benchmark streams at seed 0 (imported from
perfbench/workloads.py), check --seed 0, 1 and 2, each value of the rational grammar
table, tests/data/rational_grammar.json, as flow's --t, seventeen refused requests, two
that write files and two whose integer flag has 5000 digits. The refused ones are a
describe and an invariants job that carry fields of other commands, a flow class of 71
entries, a describe, a flow and an invariants job whose lie_family is "X", "" and "a",
describe at A0, A71, D51, E9 and a 3000-digit A rank, an A70 flow job of 70 rationals of
131072 nines (35 times the job file's byte cap), describe with a 5000-digit --rank, a
describe job whose rank is a 5000-digit JSON integer, describe with a --theta that lists
the index 1 71 times, and describe with --type X and flow with an empty --type, so that
a family is refused from a flag as from a job. The writing ones are a flow to a CSV
file, which writes its JSON sidecar too, and a describe to a JSON file. The long ones are
check with a 5000-digit --seed and a Borel invariants with a 5000-digit --lct-m, each
read in full. The last ten give a negative value after its flag and after "=", five
pairs that exit alike: flow's --class -1,2 and --t -1/2, invariants' --divisor -1,1,
describe's --theta -1,2 and check's --seed -1_0.

Compare mode runs N pairs (default 10). Pair k runs one cycle of the cli-small and of
the cli-large stream at seed k in the --base and in the --change tree, base first in even
pairs and change first in odd ones. Each request is its own `EXE -m flagflow.cli ARGV`
process, run one at a time by a small `EXE -S` runner that reads its CPU time and
ru_maxrss from os.wait4 (a child's ru_maxrss counts the memory of the process that starts
it), and its wall time from time.perf_counter around the spawn and the wait. The
children inherit this environment, as the benchmark's do; with PYTHONDONTWRITEBYTECODE=1,
trees without __pycache__ are measured with cold bytecode caches, as the benchmark
measures them. Per workload the tool prints how many requests exited nonzero, and per
metric (CPU per request, the cycle's peak RSS, the cycle's median wall time per request)
each tree's median and the median change/base ratio with its quartiles, "unresolved"
where they span 1 or there is one pair. A workload whose cycle holds a check request in
every pair gets one more such line, check_cpu_s, the CPU of its check requests.

The tool needs only the standard library and runs on every interpreter that
pyproject.toml admits.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
GOLDEN = [DATA / "cli_golden.json", DATA / "cli_golden_check.json"]
GRAMMAR_REQUEST = ["flow", "--type", "A", "--rank", "1", "--class", "1"]
# job files written beside the golden one, as JSON or as the text given: the first two
# carry fields their command does not take, the next three a family outside A-G, then
# one over the byte cap and one whose rank is past Python's 4300-digit limit
JOBS = {
    "describe.json": {"lie_family": "A", "rank": 1, "class": ["1"], "t": "1/4"},
    "invariants.json": {"lie_family": "A", "rank": 1, "divisor": ["1"], "samples": 2,
                        "t_max_fraction": "1/2"},
    "describe-family.json": {"lie_family": "X", "rank": 2},
    "flow-family.json": {"lie_family": "", "rank": 2, "class": ["1", "2"]},
    "invariants-family.json": {"lie_family": "a", "rank": 2, "divisor": ["1", "1"]},
    "a70.json": {"lie_family": "A", "rank": 70, "class": ["9" * 131072] * 70},
    "describe-rank.json": '{"lie_family": "A", "rank": ' + "9" * 5000 + "}",
}
# (argv up to a flag, a negative value for it): a value after the flag as after "="
NEGATIVE = [
    (["flow", "--type", "A", "--rank", "2", "--class"], "-1,2"),
    (["flow", "--type", "A", "--rank", "2", "--class", "1,2", "--t"], "-1/2"),
    (["invariants", "--type", "A", "--rank", "2", "--divisor"], "-1,1"),
    (["describe", "--type", "A", "--rank", "2", "--theta"], "-1,2"),
    (["check", "--seed"], "-1_0"),
]
WORKLOADS = ("cli-small", "cli-large")
# runs `python -m flagflow.cli ARGV` for each argv of the JSON list on stdin, one at a
# time, and prints its exit code, CPU seconds and ru_maxrss (KiB) from os.wait4, and
# the wall seconds from its spawn to its wait
RUNNER = (
    "import json, os, sys, time\n"
    "quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]\n"
    "for argv in json.load(sys.stdin):\n"
    "    start = time.perf_counter()\n"
    "    pid = os.posix_spawn(sys.executable, [sys.executable, '-m', 'flagflow.cli', *argv],"
    " os.environ, file_actions=quiet)\n"
    "    _, status, usage = os.wait4(pid, 0)\n"
    "    wall = time.perf_counter() - start\n"
    "    print(os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime,"
    " usage.ru_maxrss, wall)\n")
# metric -> its value over one tree's run of a cycle, a list of (code, CPU s, KiB, wall s)
METRICS = {
    "cpu_per_request_s": lambda run: sum(cpu for _, cpu, _, _ in run) / len(run),
    "peak_rss_mb": lambda run: max(kib for _, _, kib, _ in run) / 1024,
    "latency_p50_s": lambda run: statistics.median(wall for *_, wall in run),
}


def _golden() -> list[dict]:
    return [case for path in GOLDEN for case in json.loads(path.read_text())]


def cycle(workload: str, seed: int) -> list[list[str]]:
    """argv of each request of one cycle of a benchmark stream."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import cycle_length, stream
    return [request.argv() for request in
            itertools.islice(stream(workload, seed), cycle_length(workload))]


def requests() -> list[tuple[str, list[str]]]:
    """(label, argv) of every request, in the order they run."""
    out = [(f"golden {i}", ["job.json" if arg == "JOB" else arg for arg in case["argv"]])
           for i, case in enumerate(_golden())]
    for workload in WORKLOADS:
        out += [(f"{workload} {i}", argv) for i, argv in enumerate(cycle(workload, 0))]
    out += [(f"check {seed}", ["check", "--seed", str(seed)]) for seed in range(3)]
    table = json.loads((DATA / "rational_grammar.json").read_text(encoding="utf-8"))
    out += [(f"grammar {i}", [*GRAMMAR_REQUEST, f"--t={case['text']}"])
            for i, case in enumerate(table)]
    out += [("refused 0", ["describe", "--job", "describe.json"]),
            ("refused 1", ["invariants", "--job", "invariants.json"]),
            ("refused 2", [*GRAMMAR_REQUEST[:-1], ",".join(["1"] * 71)]),
            ("refused 3", ["describe", "--job", "describe-family.json"]),
            ("refused 4", ["flow", "--job", "flow-family.json"]),
            ("refused 5", ["invariants", "--job", "invariants-family.json"])]
    out += [(f"refused {i}", ["describe", "--type", family, "--rank", rank])
            for i, (family, rank) in enumerate(
                [("A", "0"), ("A", "71"), ("D", "51"), ("E", "9"), ("A", "9" * 3000)], 6)]
    out += [("refused 11", ["flow", "--job", "a70.json"]),
            ("refused 12", ["describe", "--type", "A", "--rank", "9" * 5000]),
            ("refused 13", ["describe", "--job", "describe-rank.json"]),
            ("refused 14", ["describe", "--type", "A", "--rank", "1",
                            "--theta", ",".join(["1"] * 71)]),
            ("refused 15", ["describe", "--type", "X", "--rank", "2"]),
            ("refused 16", ["flow", "--type=", "--rank", "2", "--class", "1,1"])]
    out += [("written 0", ["flow", "--type", "B", "--rank", "3", "--class", "1/2,2,3/5",
                           "--samples", "3", "--format", "csv", "--output", "traj.csv"]),
            ("written 1", ["describe", "--type", "B", "--rank", "3", "--output",
                           "describe-out.json"])]
    out += [("long 0", ["check", "--seed", "9" * 5000]),
            ("long 1", ["invariants", "--type", "A", "--rank", "2", "--divisor", "1,1",
                        "--lct-m", "9" * 5000])]
    spelt = [form for (*argv, flag), value in NEGATIVE
             for form in ([*argv, flag, value], [*argv, f"{flag}={value}"])]
    out += [(f"negative {i}", argv) for i, argv in enumerate(spelt)]
    return out


def run(python: str, src: str, reqs: list[tuple[str, list[str]]]) -> list[str]:
    """The record of each request, as one JSON line, run by python on the flagflow in src."""
    [job] = [case["job"] for case in _golden() if "job" in case]
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    records = []
    with tempfile.TemporaryDirectory() as cwd:
        for name, content in [("job.json", job), *JOBS.items()]:
            Path(cwd, name).write_text(content if isinstance(content, str)
                                       else json.dumps(content))
        before = set(os.listdir(cwd))
        for label, argv in reqs:
            proc = subprocess.run([python, "-m", "flagflow.cli", *argv], cwd=cwd, env=env,
                                  capture_output=True, timeout=600)
            out, err = (data.decode("utf-8", "surrogateescape")
                        for data in (proc.stdout, proc.stderr))
            out = re.sub(r'^ *"wall_time_s": .*\n', "", out, flags=re.M)
            files = {}
            for name in sorted(set(os.listdir(cwd)) - before):
                path = Path(cwd, name)
                files[name] = hashlib.sha256(path.read_bytes()).hexdigest()
                path.unlink()
            records.append(json.dumps([label, argv, proc.returncode, out, err, files]))
    return records


def digest(records: list[str]) -> str:
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def differing(runs: list[list[str]]) -> list[int]:
    """Indices of the requests whose records are not the same in every run."""
    return [i for i, records in enumerate(zip(*runs)) if len(set(records)) > 1]


def measure(python: str, src: str,
            argvs: list[list[str]]) -> list[tuple[int, float, int, float]]:
    """(exit code, CPU seconds, ru_maxrss in KiB, wall seconds) of each request, run by
    python on the flagflow in src, one at a time."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([python, "-S", "-c", RUNNER], input=json.dumps(argvs),
                              cwd=cwd, env=env, capture_output=True, text=True, check=True,
                              timeout=600 * len(argvs))
    return [(int(code), float(cpu), int(kib), float(wall))
            for code, cpu, kib, wall in map(str.split, proc.stdout.splitlines())]


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def compare(python: str, base: str, change: str, pairs: int, cycles=cycle) -> list[str]:
    """The compare mode's lines for the flagflow in base and in change; pair k runs
    cycles(workload, k) of each workload in both trees."""
    runs = {}  # (workload, side) -> one run of the cycle per pair
    checks = {}  # workload -> the indices of its cycle's check requests, per pair
    for pair in range(pairs):
        for workload in WORKLOADS:
            argvs = cycles(workload, pair)
            checks.setdefault(workload, []).append(
                [i for i, argv in enumerate(argvs) if argv[0] == "check"])
            order = [("base", base), ("change", change)]
            for side, src in order if pair % 2 == 0 else order[::-1]:
                runs.setdefault((workload, side), []).append(measure(python, src, argvs))
    lines = []
    for workload in WORKLOADS:
        sides = runs[workload, "base"], runs[workload, "change"]
        failed = [sum(code != 0 for run in side for code, *_ in run) for side in sides]
        lines.append(f"{workload}: pairs {pairs}, requests per tree {sum(map(len, sides[0]))}"
                     f", exited nonzero: base {failed[0]}, change {failed[1]}")
        values = {name: [list(map(metric, side)) for side in sides]
                  for name, metric in METRICS.items()}
        if all(checks[workload]):
            values["check_cpu_s"] = [[sum(run[i][1] for i in idx)
                                      for run, idx in zip(side, checks[workload])]
                                     for side in sides]
        for name, (base_values, change_values) in values.items():
            q1, median, q3 = _quartiles([c / b for b, c in zip(base_values, change_values)])
            verdict = ("unresolved" if pairs < 2 or q1 <= 1 <= q3 else
                       "change lower" if q3 < 1 else "change higher")
            lines.append(f"{workload} {name}: base {statistics.median(base_values):.4g}, "
                         f"change {statistics.median(change_values):.4g}; change/base "
                         f"median {median:.4f}, quartiles {q1:.4f}-{q3:.4f}: {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--python", action="append",
                        help="interpreter to run the requests with (repeatable; "
                             "default: this one)")
    parser.add_argument("--src", action="append",
                        help="directory that holds the flagflow package (repeatable; "
                             "default: this tree's src)")
    parser.add_argument("--base", metavar="DIR",
                        help="compare mode: directory that holds the base flagflow package")
    parser.add_argument("--change", metavar="DIR",
                        help="compare mode: directory that holds the changed flagflow package")
    parser.add_argument("--pairs", type=int, default=10,
                        help="compare mode: number of pairs of runs (default 10)")
    args = parser.parse_args(argv)
    if args.base is not None or args.change is not None:
        if None in (args.base, args.change) or args.src or len(args.python or []) > 1:
            parser.error("--base and --change go together, with no --src and one --python")
        if args.pairs < 1:
            parser.error("--pairs must be at least 1")
        python = (args.python or [sys.executable])[0]
        for line in compare(python, args.base, args.change, args.pairs):
            print(line, flush=True)
        return 0
    reqs = requests()
    runs = []
    for python, src in itertools.product(args.python or [sys.executable],
                                         args.src or [str(ROOT / "src")]):
        runs.append(run(python, src, reqs))
        print(digest(runs[-1]), python, src, f"{len(reqs)} requests", flush=True)
    differ = differing(runs)
    for i in differ:
        label, request = reqs[i]
        shown = [arg if len(arg) <= 40 else f"<{len(arg)} characters>" for arg in request]
        print(f"differs: {label}: {shown}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
