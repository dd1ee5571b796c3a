"""Generated CLI contract: every subcommand x flag x hostile value class, given as a
flag and, for the descriptor fields, in a --job file. Each request must exit 0-3
within a time limit, with no traceback and a short stderr, and a value must exit
alike after its flag, after "=" and as its job field."""

import contextlib
import functools
import io
import json
import random
import time

import pytest

import flagflow.oracle as oracle
from flagflow.cli import main

NINES = "9" * 5000  # past Python's 4300-digit int-string limit
DEEP = 100_000
# value class -> flag values; one is drawn per (subcommand, flag, class)
VALUES = {
    "valid": ["1", "2", "1/2", "3/4"],
    "empty": [""],
    "comma-only": [",", ",,,", " , "],
    "huge-integer": [NINES, "-" + NINES, "1/" + NINES, "1," + NINES],
    "negative": ["-1", "-3/2", "1,-2", "-0", "-1,2", "-.5", "-1e3", "-1_0"],
    "decimal-exponent": ["1e3", "2.5e-2", "1e999999999", "1E-999999999"],
    "unicode-digits": ["٣", "١/٢", "２", "١,٢"],
    "zero-denominator": ["1/0", "0/0", "1,1/0"],
    "unknown-choice": ["X", "json5", "E"],
    "duplicate-indices": ["1,1", "2,1,2"],
    "nested-json": ["[" * 5000 + "]" * 5000, "[[1]]", '{"a": [1]}'],
}
# subcommand -> (base flags, flags to vary); a --job file is varied in its own loop,
# and check, which takes none, must refuse one
COMMANDS = {
    "describe": (["--type", "A", "--rank", "2"],
                 ["--type", "--rank", "--theta", "--format", "--output"]),
    "flow": (["--type", "A", "--rank", "2", "--class", "1,2"],
             ["--type", "--rank", "--theta", "--class", "--divisor", "--t", "--samples",
              "--t-max-fraction", "--format", "--output"]),
    "invariants": (["--type", "A", "--rank", "2", "--divisor", "1,2"],
                   ["--type", "--rank", "--theta", "--divisor", "--lct-m", "--format",
                    "--output"]),
    "check": (["--seed", "0"], ["--seed", "--format", "--output", "--job"]),
}
# subcommand -> the job object that each varied field is put into
JOB_BASES = {
    "describe": {"lie_family": "A", "rank": 2},
    "flow": {"lie_family": "A", "rank": 2, "class": ["1", "2"]},
    "invariants": {"lie_family": "A", "rank": 2, "divisor": ["1", "2"]},
}
JOB_FIELDS = ("lie_family", "rank", "theta", "class", "divisor", "t", "samples",
              "t_max_fraction", "lct_m")
# value class -> raw JSON texts for a job field: the flag values as JSON strings,
# then the forms only JSON has
JOB_TEXTS = {name: [json.dumps(v) for v in values] for name, values in VALUES.items()}
JOB_TEXTS["huge-integer"] += [NINES, "-" + NINES]
JOB_TEXTS["negative"] += ["-1", "-2.5"]
JOB_TEXTS["decimal-exponent"] += ["1e3", "1e400", "NaN"]
JOB_TEXTS["nested-json"] += ["[" * DEEP + "]" * DEEP, "[[1], 2]", '{"a": 1}', "true", "null"]
JOB_TEXTS["valid"] += ["1", "2", "[1, 2]", '["1", "2"]', "[]"]
# descriptor flag -> the job field that carries its value; --lct-m is a flag only
JOB_FIELD_OF = {"--type": "lie_family", "--rank": "rank", "--theta": "theta",
                "--class": "class", "--divisor": "divisor", "--t": "t",
                "--samples": "samples", "--t-max-fraction": "t_max_fraction"}
EXIT_CODES = {0, 1, 2, 3}
MAX_STDERR = 700  # the longest usage text, flow's, is about 450 characters
MAX_SECONDS = 2.0
SEED = 20211


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # an escaped exception is a traceback at the shell
            code = f"raised {type(exc).__name__}: {str(exc)[:100]}"
    return code, err.getvalue(), time.perf_counter() - start


def _flag_cases(rng):
    """(argv but the varied flag, what, flag, value, whether it is spelt "flag=value")
    for every flag case, each value and its spelling drawn from rng."""
    for command, (base, flags) in COMMANDS.items():
        for flag in flags:
            for name, values in VALUES.items():
                value = rng.choice(values)
                argv = [command, *base]
                if flag in argv:
                    del argv[argv.index(flag):argv.index(flag) + 2]
                yield argv, f"{command} {flag} {name}", flag, value, rng.random() < 0.5


def _requests(tmp_path):
    """(argv, what) for every case, in a fixed order drawn from a fixed seed."""
    rng = random.Random(SEED)
    for argv, what, flag, value, joined in _flag_cases(rng):
        yield [*argv, *([f"{flag}={value}"] if joined else [flag, value])], what
    job = tmp_path / "job.json"
    for command, base in JOB_BASES.items():
        for field in JOB_FIELDS:
            for name, texts in JOB_TEXTS.items():
                fields = {key: json.dumps(v) for key, v in base.items()}
                fields[field] = rng.choice(texts)
                job.write_text("{" + ", ".join(
                    f"{json.dumps(key)}: {text}" for key, text in fields.items()) + "}")
                yield [command, "--job", str(job)], f"{command} --job {field} {name}"


@pytest.fixture
def small_suite(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # --output values become files here
    # check's suite on A1, its grid check run once: the contract is about the request
    config = oracle.SuiteConfig
    monkeypatch.setattr(oracle, "SuiteConfig", lambda seed: config(
        types=(("A", 1),), classes_per_flag=1, seed=seed))
    monkeypatch.setattr(oracle, "check_weyl_gt_grid", functools.cache(oracle.check_weyl_gt_grid))


def test_every_flag_and_job_field_keeps_the_exit_contract(tmp_path, small_suite):
    seen = set()
    count = 0
    for argv, what in _requests(tmp_path):
        code, err, seconds = _run(argv)
        count += 1
        seen.add(code)
        shown = f"{what}: {str(argv)[:120]}"
        assert code in EXIT_CODES, (shown, code, err[-300:])
        assert "Traceback" not in err, (shown, err[-300:])
        assert len(err) < MAX_STDERR and len(err.encode()) < MAX_STDERR, (
            shown, len(err), len(err.encode()), err[-300:])
        assert seconds < MAX_SECONDS, (shown, seconds)
    assert count > 500
    assert {0, 2, 3} <= seen


def test_a_value_exits_alike_as_its_flag_and_as_its_job_field(tmp_path, small_suite):
    # each drawn value, after its flag, after "=" and, for a descriptor flag, as the same
    # JSON string in its field of the command's job object, must exit alike: one judge
    # of every value. The two flag forms print the same stderr, and so does a family's
    # job form, refused by read_descriptor alone
    job = tmp_path / "job.json"
    differ = []
    for argv, what, flag, value, _ in _flag_cases(random.Random(SEED)):
        if flag == "--job":  # check takes none: argparse repeats an unknown option as spelt
            continue
        runs = [_run([*argv, flag, value])[:2], _run([*argv, f"{flag}={value}"])[:2]]
        if argv[0] in JOB_BASES and flag in JOB_FIELD_OF:
            job.write_text(json.dumps({**JOB_BASES[argv[0]], JOB_FIELD_OF[flag]: value}))
            runs.append(_run([argv[0], "--job", str(job)])[:2])
        errs = {err for _, err in runs[:3 if flag == "--type" else 2]}
        if len({code for code, _ in runs}) > 1 or len(errs) > 1:
            differ.append((what, value[:20], [(code, err[-80:]) for code, err in runs]))
    assert differ == []
