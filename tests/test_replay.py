"""tools/replay.py hashes what flagflow prints and writes: the same requests hash alike
twice, and a tree whose output or written files differ by one byte hashes otherwise, with
those requests named. Its compare mode prints a change/base ratio per workload and metric."""

import importlib.util
import json
import re
import shutil
import sys
from pathlib import Path

import flagflow

TOOL = Path(__file__).resolve().parents[1] / "tools" / "replay.py"


def load_replay():
    spec = importlib.util.spec_from_file_location("replay", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_replay_hash_sees_one_byte_of_output(tmp_path):
    replay = load_replay()
    reqs = replay.requests()
    # four golden requests and a refused grammar value, whose stderr shows no version
    subset = reqs[:4] + [req for req in reqs if req[1][-1] == "--t=1__0"]
    assert len(subset) == 5
    src = str(Path(flagflow.__file__).parents[1])
    first, second = (replay.run(sys.executable, src, subset) for _ in range(2))
    assert replay.digest(first) == replay.digest(second)
    assert replay.differing([first, second]) == []

    # a copy whose version, printed in every document, differs in one byte
    copy = tmp_path / "flagflow"
    shutil.copytree(Path(flagflow.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    version = flagflow.__version__
    bumped = version[:-1] + chr(ord(version[-1]) ^ 1)
    init = copy / "__init__.py"
    init.write_text(init.read_text().replace(f'"{version}"', f'"{bumped}"'))
    changed = replay.run(sys.executable, str(tmp_path), subset)
    assert replay.digest(changed) != replay.digest(first)
    assert replay.differing([first, changed]) == [0, 1, 2, 3]


def test_the_replay_hash_sees_one_byte_of_a_written_file(tmp_path):
    replay = load_replay()
    written = [req for req in replay.requests() if req[0].startswith("written")]
    src = str(Path(flagflow.__file__).parents[1])
    first = replay.run(sys.executable, src, written)
    # the CSV, its JSON sidecar and the describe document, and nothing on stdout
    assert [sorted(json.loads(record)[-1]) for record in first] == [
        ["traj.csv", "traj.csv.json"], ["describe-out.json"]]
    assert all(json.loads(record)[3] == "" for record in first)

    # a copy whose every written file has its last byte changed
    copy = tmp_path / "flagflow"
    shutil.copytree(Path(flagflow.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = copy / "cli.py"
    source = cli.read_text()
    assert source.count("fh.write(text)") == 1
    cli.write_text(source.replace("fh.write(text)",
                                  "fh.write(text[:-1] + chr(ord(text[-1]) ^ 1))"))
    changed = replay.run(sys.executable, str(tmp_path), written)
    assert replay.digest(changed) != replay.digest(first)
    assert replay.differing([first, changed]) == [0, 1]


def test_the_compare_mode_prints_a_ratio_per_workload_and_metric():
    replay = load_replay()
    src = str(Path(flagflow.__file__).parents[1])

    def subset(workload, seed):  # two requests of cli-small; cli-large's first and check
        requests = replay.cycle(workload, seed)
        if workload == "cli-small":
            return requests[:2]
        return [requests[0], *(argv for argv in requests if argv[0] == "check")]

    lines = replay.compare(sys.executable, src, src, 1, subset)
    number = r"[0-9.e+-]+"
    shapes = []
    for workload, count, metrics in (
            ("cli-small", 2, ("cpu_per_request_s", "peak_rss_mb", "latency_p50_s")),
            ("cli-large", 2, ("cpu_per_request_s", "peak_rss_mb", "latency_p50_s",
                              "check_cpu_s"))):
        shapes.append(rf"{workload}: pairs 1, requests per tree {count}, "
                      r"exited nonzero: base \d+, change \d+")
        shapes += [rf"{workload} {metric}: base {number}, change {number}; change/base "
                   rf"median {number}, quartiles {number}-{number}: unresolved"
                   for metric in metrics]
    assert len(lines) == len(shapes), lines
    for shape, line in zip(shapes, lines):
        assert re.fullmatch(shape, line), line


def test_the_long_integer_requests_are_read_in_full():
    # check's --seed and invariants' --lct-m of 5000 digits, echoed whole in the document
    replay = load_replay()
    long = [req for req in replay.requests() if req[0].startswith("long")]
    src = str(Path(flagflow.__file__).parents[1])
    records = [json.loads(record) for record in replay.run(sys.executable, src, long)]
    assert [(label, code, err) for label, _, code, _, err, _ in records] == [
        ("long 0", 0, ""), ("long 1", 0, "")]
    assert all(f": {'9' * 5000}" in out for *_, out, _, _ in records)


def test_a_negative_value_prints_alike_after_its_flag_and_after_equals():
    # argparse reads "-1,2", "-1/2" and "-1_0" as values, so each pair of spellings gets
    # one record: read_descriptor's refusal, or check's document for the seed -10
    replay = load_replay()
    negative = [req for req in replay.requests() if req[0].startswith("negative")]
    src = str(Path(flagflow.__file__).parents[1])
    records = [json.loads(record)[2:] for record in replay.run(sys.executable, src, negative)]
    assert records[0::2] == records[1::2]
    assert [code for code, *_ in records[0::2]] == [3, 3, 3, 3, 0]
    assert '"seed": -10' in records[-1][1]
