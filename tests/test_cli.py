"""Command-line interface: document shapes, frozen values, exit codes."""

import ast
import contextlib
import csv
import errno
import gc
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import flagflow
import flagflow.dimcount
import flagflow.oracle as oracle
from flagflow import cli, errors
from flagflow.cli import main
from flagflow.errors import all_digits, brief, normal_float, plain
from test_cli_contract import MAX_STDERR

P2 = ["--type", "A", "--rank", "2", "--theta", "2"]
A2_FULL = ["--type", "A", "--rank", "2"]
P1 = ["--type", "A", "--rank", "1"]
GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
# check's stdout with its one run-dependent line, "wall_time_s", left out
CHECK_GOLDEN = Path(__file__).parent / "data" / "cli_golden_check.json"
# the same, for check on A1 alone under one fault each (FAILING_CHECKS)
FAILING_CHECK_GOLDEN = Path(__file__).parent / "data" / "cli_failing_check.json"


def sixteen_bit_class(rank, integral):
    rng = random.Random(1)
    top = 2 ** 16
    return ",".join(
        str(rng.randint(top // 2, top)) if integral
        else f"{rng.randint(top // 2, top)}/{rng.randint(top // 2, top)}"
        for _ in range(rank))


def count_calls(monkeypatch, home, name):
    """Record each call of home.name, through every flagflow module that holds it."""
    calls = []
    orig = getattr(home, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("flagflow") and vars(mod).get(name) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


def process_env() -> dict:
    """The environment of a fresh process that imports this flagflow."""
    src = str(Path(flagflow.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def without_wall_time(out: str) -> str:
    """check's stdout without its one run-dependent line."""
    out, count = re.subn(r'^ *"wall_time_s": .*\n', "", out, flags=re.M)
    assert count == 1
    return out


def golden_cases() -> list[dict]:
    return json.loads(GOLDEN.read_text()) + json.loads(CHECK_GOLDEN.read_text())


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_describe_projective_plane(capsys):
    doc = run_json(capsys, ["describe", *P2])
    assert set(doc) == {"input", "result", "version"}
    res = doc["result"]
    assert res["n"] == 2
    assert res["complement"] == [1]
    assert res["delta_p"] == [3, 0]
    assert res["fano"] == [3]
    assert res["canonical_divisor"] == [-3]
    assert res["v0_coeff"] == "9/2"
    assert res["comp_pos_roots"] == [[1, 0], [1, 1]]


def test_stdout_bytes_match_golden(capsys, tmp_path):
    """Exact stdout of fixed requests: key order, indentation, the input echo."""
    for case in golden_cases():
        argv = case["argv"]
        if "job" in case:
            job = tmp_path / "job.json"
            job.write_text(json.dumps(case["job"]))
            argv = [str(job) if a == "JOB" else a for a in argv]
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] == "check":
            out = without_wall_time(out)
        assert out == case["stdout"], argv


@pytest.mark.parametrize("prefix", [
    "describe --type E --rank 8", "flow --type D --rank 16", "invariants --type A --rank 20",
    "check --seed 0",
])
def test_process_stdout_bytes_match_golden(prefix):
    """The largest golden requests and check, through the process entry that users run."""
    [case] = [c for c in golden_cases() if " ".join(c["argv"]).startswith(prefix)]
    proc = subprocess.run([sys.executable, "-m", "flagflow.cli", *case["argv"]],
                          capture_output=True, text=True, env=process_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    out = without_wall_time(proc.stdout) if case["argv"][0] == "check" else proc.stdout
    assert out == case["stdout"]


def test_describe_writes_output_file(capsys, tmp_path):
    target = tmp_path / "desc.json"
    assert main(["describe", *P1, "--output", str(target)]) == 0
    doc = json.loads(target.read_text())
    assert doc["result"]["fano"] == [2]
    assert capsys.readouterr().out == ""


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "desc.json"
    assert main(["describe", *P1, "--output", str(target)]) == 2
    assert f"cannot write {target}" in capsys.readouterr().err


def test_flow_prints_exact_values_of_any_length(capsys):
    e8 = ["--type", "E", "--rank", "8", "--samples", "1"]
    doc = run_json(capsys, ["flow", *e8, "--class", sixteen_bit_class(8, False)])
    (sample,) = doc["result"]["samples"]
    num, den = sample["ricci_norm_sq"].split("/")
    assert num.isdigit() and den.isdigit() and len(num) > 4300


def test_flow_volume_past_float_range(capsys, tmp_path):
    e8 = ["flow", "--type", "E", "--rank", "8", "--samples", "1",
          "--class", sixteen_bit_class(8, True)]
    doc = run_json(capsys, e8)
    with pytest.raises(OverflowError):
        float(Fraction(doc["result"]["samples"][0]["vol_coeff"]))
    target = tmp_path / "traj.csv"
    assert main([*e8, "--format", "csv", "--output", str(target)]) == 3
    assert "vol_coeff" in capsys.readouterr().err
    assert not target.exists()
    # below the range: vol_coeff 10^-360 is nonzero, and its float 0.0 would print as 0
    tiny = "1/1" + "0" * 120
    assert main(["flow", *A2_FULL, "--class", f"{tiny},{tiny}", "--samples", "2",
                 "--format", "csv", "--output", str(target)]) == 3
    assert "CSV column vol_coeff is out of float range" in capsys.readouterr().err
    assert not target.exists()
    # and below the normal range, where a float keeps fewer digits: vol_coeff at t = 0 is
    # 1e-306 (normal), 1e-309 and 10^-315 (which printed as 9.99999998482e-316)
    a2 = ["flow", *A2_FULL, "--format", "csv", "--output", str(target), "--class"]
    assert main([*a2, f"1/1{'0' * 102},1/1{'0' * 102}", "--samples", "1"]) == 0
    (row,) = csv.DictReader(io.StringIO(target.read_text(encoding="utf-8")))
    assert row["vol_coeff"] == "1e-306"
    target.unlink()
    for zeros, samples in ((103, "1"), (105, "2")):
        assert main([*a2, f"1/1{'0' * zeros},1/1{'0' * zeros}", "--samples", samples]) == 3
        assert "CSV column vol_coeff is out of float range" in capsys.readouterr().err
        assert not target.exists()


def test_flow_diameter_past_float_range(capsys):
    p1_flow = ["flow", *P1, "--samples", "1", "--class"]
    doc = run_json(capsys, [*p1_flow, str(10 ** 400)])
    diameter = doc["result"]["diameter_upper"]
    assert diameter["radicand"] == str(10 ** 400)
    assert diameter["value"] == pytest.approx(math.pi * 1e200)
    assert main([*p1_flow, str(10 ** 700)]) == 3
    assert "diameter_upper" in capsys.readouterr().err
    # below the range: pi * 10^-200 is a normal float, pi * 10^-350 rounds to 0.0
    doc = run_json(capsys, ["flow", *P1, "--t", "0", "--class", "1/1" + "0" * 400])
    assert doc["result"]["diameter_upper"]["value"] == math.pi * 1e-200
    assert main([*p1_flow, "1/1" + "0" * 700]) == 3
    assert "diameter_upper is out of float range" in capsys.readouterr().err
    # the normal range ends at sys.float_info.min: pi * 10^-308 prints in full, while
    # pi * 10^-309 and pi * 10^-315 (which printed as 3.141592653e-315) keep fewer digits
    doc = run_json(capsys, ["flow", *P1, "--t", "0", "--class", "1/1" + "0" * 616])
    value = doc["result"]["diameter_upper"]["value"]
    assert value > sys.float_info.min and repr(value).startswith("3.14159265358979")
    for zeros in (618, 630):
        assert main(["flow", *P1, "--t", "0", "--class", "1/1" + "0" * zeros]) == 3
        assert "diameter_upper is out of float range" in capsys.readouterr().err


def test_flow_computes_dim_v_delta_once(capsys, monkeypatch):
    # build_flag computes dim V(delta_P) from the complementary roots, so flow calls
    # no weyl_dim; the twenty samples read it off the one flag
    flags = count_calls(monkeypatch, flagflow.parabolic, "build_flag")
    weyl = count_calls(monkeypatch, flagflow.dimcount, "weyl_dim")
    doc = run_json(capsys, ["flow", *A2_FULL, "--class", "1,2", "--samples", "20"])
    assert len(doc["result"]["samples"]) == 20
    assert (len(flags), len(weyl)) == (1, 0)


def test_invariants_builds_one_flow(capsys, monkeypatch):
    calls = count_calls(monkeypatch, flagflow.flow, "make_flow")
    doc = run_json(capsys, ["invariants", *A2_FULL, "--divisor", "1,2"])
    assert "borel_only_bounds" in doc["result"]
    assert len(calls) == 1


def test_each_rational_is_parsed_once(capsys, monkeypatch):
    calls = count_calls(monkeypatch, flagflow.cli, "parse_rational")
    run_json(capsys, ["flow", "--type", "A", "--rank", "3", "--class", "1,2/3,5", "--t", "1/9"])
    assert len(calls) == 3 + 1
    calls.clear()
    run_json(capsys, ["invariants", "--type", "A", "--rank", "3", "--divisor", "1,2,3"])
    assert len(calls) == 3


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["describe", *A2_FULL], ["--version"], ["--help"], ["describe", "--help"],
], ids=["describe", "version", "help", "describe-help"])
def test_closed_stdout_exits_two_without_traceback(argv, unbuffered):
    env = process_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "flagflow.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["describe", *A2_FULL], ["--help"], ["--version"]],
                         ids=["describe", "help", "version"])
def test_full_stdout_exits_two_with_one_line(argv):
    """A failed write to stdout is not a failed check (exit 1) and prints no traceback."""
    env = process_env()
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "flagflow.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == (
        b"error: cannot write stdout: " + os.strerror(errno.ENOSPC).encode() + b"\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, code", [
    (["describe", "--type", "Q"], 2), (["describe", *A2_FULL, "--theta", "1,2"], 3),
], ids=["usage", "domain"])
def test_full_stderr_keeps_the_exit_code(argv, code):
    """An error message that cannot be written leaves the exit code saying what failed."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "flagflow.cli", *argv],
                              stdout=subprocess.PIPE, stderr=full, env=process_env(),
                              timeout=120)
    assert (proc.returncode, proc.stdout) == (code, b"")


def test_a_closed_fd_one_is_a_failed_write(tmp_path):
    """With fd 1 closed at start, sys.stdout is None: nothing can reach stdout."""
    def run(argv, closed=(1,)):
        return subprocess.run([sys.executable, "-m", "flagflow.cli", *argv],
                              stdout=None, stderr=None if 2 in closed else subprocess.PIPE,
                              env=process_env(), timeout=120,
                              preexec_fn=lambda: [os.close(fd) for fd in closed])

    line = b"error: cannot write stdout: " + os.strerror(errno.EBADF).encode() + b"\n"
    for argv in (["describe", *A2_FULL], ["flow", *A2_FULL, "--class", "1,2", "--t", "0"],
                 ["invariants", *A2_FULL, "--divisor", "1,2"], ["check", "--seed", "0"],
                 ["--help"], ["--version"]):
        proc = run(argv)
        assert (proc.returncode, proc.stderr) == (2, line), argv
    # with fd 2 closed too, sys.stderr is None and the message is dropped
    assert run(["describe", *A2_FULL], closed=(1, 2)).returncode == 2
    out = tmp_path / "out.json"
    proc = run(["describe", *A2_FULL, "--output", str(out)])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(out.read_text())["result"]["n"] == 3


def test_a_reader_that_leaves_mid_document_gets_exit_two():
    # a document larger than a pipe holds, so the writer is blocked when the reader goes
    proc = subprocess.Popen([sys.executable, "-m", "flagflow.cli", "describe", "--type", "A",
                             "--rank", "40"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=process_env())
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(120), head, err) == (2, b'{\n  "input', b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_main_leaves_the_callers_streams_alone(monkeypatch):
    """A failed write in process neither rewires nor closes the caller's descriptors."""
    full = os.stat("/dev/full")
    out, err = open("/dev/full", "w"), open("/dev/full", "w")
    try:
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", out)
            patch.setattr(sys, "stderr", err)
            assert main(["describe", *A2_FULL]) == 2
            assert main(["describe", "--type", "Q"]) == 2
        for stream in (out, err):
            st = os.fstat(stream.fileno())
            assert (st.st_dev, st.st_ino, st.st_rdev) == (full.st_dev, full.st_ino, full.st_rdev)
    finally:
        for stream in (out, err):  # their buffers still hold the bytes that failed
            with contextlib.suppress(OSError):
                stream.close()


def test_the_process_writes_its_whole_output_before_it_exits(capsys, monkeypatch):
    """The process entry ends with os._exit, which flushes nothing: argparse's own
    output reaches the pipes whole, as main prints it in process."""
    # argparse wraps help to the terminal's width; one width here and in the child
    monkeypatch.setenv("COLUMNS", "80")

    def run(argv):
        return subprocess.run([sys.executable, "-m", "flagflow.cli", *argv],
                              capture_output=True, text=True, env=process_env(), timeout=120)

    for argv in (["--help"], ["--version"], ["describe", "--help"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        proc = run(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, ""), argv
    assert main(["describe", "--format", "Q"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: flagflow describe [-h]") and err.endswith("'json')\n")
    proc = run(["describe", "--format", "Q"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)


def test_the_process_entry_exits_with_mains_code_and_freezes_nothing(monkeypatch):
    # against the child's own count before the import: some interpreters start frozen
    code = ("import gc; before = gc.get_freeze_count(); import flagflow.cli; "
            "print(gc.get_freeze_count() - before, gc.isenabled())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=process_env(), timeout=60, check=True)
    assert proc.stdout == "0 True\n"

    enabled = gc.isenabled()
    try:
        for state in (gc.enable, gc.disable):
            state()
            before = gc.get_freeze_count(), gc.isenabled()
            assert main(["describe", *P1]) == 0
            assert (gc.get_freeze_count(), gc.isenabled()) == before
    finally:
        (gc.enable if enabled else gc.disable)()

    exits = []
    monkeypatch.setattr(cli.os, "_exit", exits.append)
    before = gc.get_freeze_count()
    for code in range(5):
        monkeypatch.setattr(cli, "main", lambda: code)
        cli.console_entry()
    assert exits == [0, 1, 2, 3, 4]
    assert gc.get_freeze_count() == before


def test_flow_single_time_frozen_values(capsys):
    doc = run_json(capsys, ["flow", *A2_FULL, "--class", "1,2", "--t", "0"])
    res = doc["result"]
    assert res["T"] == "1/2"
    assert res["einstein"] is False
    assert res["ricci_lower_constant"] == "2"
    assert res["diameter_upper"]["radicand"] == "10"
    (sample,) = res["samples"]
    assert sample["t"] == "0"
    assert sample["class"] == ["1", "2"]
    assert sample["R"] == "13/3"
    assert sample["ricci_norm_sq"] == "61/9"
    assert sample["vol_coeff"] == "3"
    assert sample["lambda1_lower"] == "1"
    assert sample["lambda1_upper"] == "9"
    assert sample["bounds"]["within"] is True
    assert sample["bounds"]["rm_bound"] == "C(n)/(T-t)"


def test_flow_einstein_closure_key(capsys):
    doc = run_json(capsys, ["flow", *A2_FULL, "--class", "2,2", "--t", "1/4"])
    res = doc["result"]
    assert res["einstein"] is True
    assert res["R_times_T_minus_t"] == "3"
    (sample,) = res["samples"]
    assert Fraction(sample["R"]) * (Fraction(res["T"]) - Fraction(1, 4)) == 3


def test_flow_divisor_start_matches_nef_time(capsys):
    doc = run_json(capsys, ["flow", *P2, "--divisor", "1", "--samples", "3"])
    assert doc["result"]["T"] == "1/3"
    assert len(doc["result"]["samples"]) == 3


def test_flow_rational_strings_are_canonical(capsys):
    doc = run_json(capsys, ["flow", *A2_FULL, "--class", "1,2", "--samples", "4"])

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                yield from walk(v)
        elif isinstance(node, list):
            for v in node:
                yield from walk(v)
        elif isinstance(node, str) and set(node) <= set("-0123456789/"):
            yield node

    seen = 0
    for text in walk(doc["result"]["samples"]):
        assert str(Fraction(text)) == text
        seen += 1
    assert seen > 40


def test_flow_csv_matches_exact_sidecar(capsys, tmp_path):
    target = tmp_path / "traj.csv"
    code = main(["flow", *P1, "--class", "2", "--samples", "5",
                 "--format", "csv", "--output", str(target)])
    assert code == 0
    with open(target, newline="") as fh:
        text = fh.read()
    rows = list(csv.reader(io.StringIO(text, newline="")))
    written = io.StringIO()
    csv.writer(written).writerows(rows)
    assert text == written.getvalue() and text.endswith("\r\n")
    assert rows[0] == ["t", "R", "ricci_norm_sq", "vol_coeff", "R_lower", "R_upper"]
    sidecar = json.loads((tmp_path / "traj.csv.json").read_text())
    samples = sidecar["result"]["samples"]
    assert len(rows) == len(samples) + 1
    for row, sample in zip(rows[1:], samples):
        exact = [sample["t"], sample["R"], sample["ricci_norm_sq"],
                 sample["vol_coeff"], sample["bounds"]["R_lower"],
                 sample["bounds"]["R_upper"]]
        for cell, frac in zip(row, exact):
            assert cell == format(float(Fraction(frac)), ".12g")
            assert abs(float(cell) - float(Fraction(frac))) <= 1e-11 * max(
                1.0, abs(float(Fraction(frac))))


def test_invariants_frozen_values(capsys):
    doc = run_json(capsys, ["invariants", *P2, "--divisor", "1"])
    res = doc["result"]
    assert res["tau"] == "3"
    assert res["T"] == "1/3"
    assert res["C"] == "2/3"
    assert res["degree"] == "1"
    assert res["dimV"] == 3
    assert res["lambda1_lower"] == "3"
    assert res["lambda1_upper"] == "6"
    assert "borel_only_bounds" not in res


def test_invariants_borel_case_with_lct(capsys):
    doc = run_json(capsys, ["invariants", *P1, "--divisor", "1", "--lct-m", "1"])
    res = doc["result"]
    borel = res["borel_only_bounds"]
    assert borel["seshadri_upper"] == "1"
    assert borel["gromov_width_upper"] == "1"
    assert borel["sympl_radius_upper"] == "1"
    assert borel["kahler_radius_upper"] == "pi*1"
    assert res["lct"] == {"m": 1, "bound": "1", "klt": False, "lc": True}


@pytest.mark.parametrize("rank,divisor", [(1, "N"), (1, "1/N"), (2, "N,N")],
                         ids=["P1-N", "P1-1/N", "A2-N,N"])
def test_invariants_prints_a_kahler_radius_of_any_length(capsys, rank, divisor):
    # Fano coefficients 2, so 2T(D) is the least entry: 5000 digits, past str()'s limit
    d = divisor.replace("N", "9" * 5000)
    with all_digits():
        doc = run_json(capsys, ["invariants", "--type", "A", "--rank", str(rank), "--divisor", d])
        two_t = str(Fraction(d.split(",")[0]))
    assert doc["result"]["borel_only_bounds"]["kahler_radius_upper"] == "pi*" + two_t


def test_invariants_non_integral_has_null_dim(capsys):
    doc = run_json(capsys, ["invariants", *P2, "--divisor", "1/2"])
    assert doc["result"]["dimV"] is None
    assert doc["result"]["lambda1_upper"] is None


def test_job_file_is_equivalent_to_flags(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "lie_family": "A", "rank": 2, "theta": [2], "divisor": ["1"],
    }))
    from_flags = run_json(capsys, ["invariants", *P2, "--divisor", "1"])
    from_job = run_json(capsys, ["invariants", "--job", str(job)])
    assert from_flags["result"] == from_job["result"]
    # flow fields in an invariants job are refused, as their flags are
    job.write_text(json.dumps({
        "lie_family": "A", "rank": 2, "theta": [2], "divisor": ["1"],
        "class": ["1", "2"], "t_max_fraction": "2",
    }))
    assert main(["invariants", "--job", str(job)]) == 2
    assert capsys.readouterr().err.endswith(
        "error: unknown job fields: ['class', 't_max_fraction']\n")
    # list fields take a comma-separated string in a job file too
    job.write_text(json.dumps({"lie_family": "A", "rank": 2, "class": "1,2", "t": "0"}))
    from_flags = run_json(capsys, ["flow", *A2_FULL, "--class", "1,2", "--t", "0"])
    assert run_json(capsys, ["flow", "--job", str(job)]) == from_flags
    job.write_text(json.dumps({"lie_family": "A", "rank": 3, "theta": "12"}))
    assert main(["describe", "--job", str(job)]) == 3
    assert "out of range" in capsys.readouterr().err


def test_check_subcommand_reports_green_suite(capsys):
    doc = run_json(capsys, ["check", "--seed", "0"])
    res = doc["result"]
    assert res["exact_ok"] is True
    assert res["first_counterexample"] is None
    assert res["instances"] >= 200


def test_check_subcommand_reports_a_failing_suite(capsys, monkeypatch):
    # the suite on A1 alone, as in test_cli_contract.py, with the kernel's R off by one
    config = oracle.SuiteConfig
    monkeypatch.setattr(oracle, "SuiteConfig", lambda seed: config(
        types=(("A", 1),), classes_per_flag=1, seed=seed))
    kernel = oracle.scalar_curvature
    monkeypatch.setattr(oracle, "scalar_curvature", lambda fs, t: kernel(fs, t) + 1)
    assert main(["check", "--seed", "0"]) == 1
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["exact_ok"] is False
    assert res["checks"]["scalar_volume_identity"] == {"pass": 0, "fail": 2}
    first = res["first_counterexample"]
    exact = oracle.run_suite(oracle.SuiteConfig(0)).first_counterexample
    assert first == json.loads(json.dumps(exact, default=plain))
    assert (first["family"], first["rank"], first["theta"]) == ("A", 1, [])
    assert (first["check"], first["b"], first["t"]) == ("scalar_volume_identity", ["2"], "0")


def _shifted_report(fs, t, report=oracle.bounds_report):
    rep = report(fs, t)
    return rep._replace(R=rep.R + 1)


# one fault per kind of counterexample: an identity's residual, a bound chain's
# BoundsReport fields (bools and the rm_bound text included), a divisor's tuple
FAILING_CHECKS = {
    "scalar_curvature": lambda fs, t, kernel=oracle.scalar_curvature: kernel(fs, t) + 1,
    "bounds_report": _shifted_report,
    "script_T": lambda flag, d, closed=oracle.script_T: 2 * closed(flag, d),
}


@pytest.mark.parametrize("fault", sorted(FAILING_CHECKS))
def test_a_failing_check_prints_its_counterexample_as_recorded(capsys, monkeypatch, fault):
    config = oracle.SuiteConfig
    monkeypatch.setattr(oracle, "SuiteConfig", lambda seed: config(
        types=(("A", 1),), classes_per_flag=1, seed=seed))
    monkeypatch.setattr(oracle, fault, FAILING_CHECKS[fault])
    assert main(["check", "--seed", "0"]) == 1
    out = without_wall_time(capsys.readouterr().out)
    assert out == json.loads(FAILING_CHECK_GOLDEN.read_text())[fault]


def test_a_flow_whose_p_beta_vanishes_before_T_fails_check_without_a_traceback(
        capsys, monkeypatch):
    # the last a_beta one too large: on A1, P_beta(t) = b - 3t vanishes at 2T/3, a time at
    # which the identity checks sample the flow
    config = oracle.SuiteConfig
    monkeypatch.setattr(oracle, "SuiteConfig", lambda seed: config(
        types=(("A", 1),), classes_per_flag=1, seed=seed))
    build = oracle.build_flag

    def corrupt_flag(rs, theta):
        flag = build(rs, theta)
        return flag._replace(a=flag.a[:-1] + (flag.a[-1] + 1,))

    monkeypatch.setattr(oracle, "build_flag", corrupt_flag)
    assert main(["check", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    res = json.loads(captured.out)["result"]
    assert res["exact_ok"] is False
    for name in ("scalar_bounds", "ricci_bounds", "volume_sandwich", "monotone_scalar",
                 "einstein_closure"):
        assert res["checks"][name]["fail"] > 0, name
    # every flow check is counted once per instance; on A1 every class is Einstein, so
    # einstein_closure is too
    for name in ("scalar_volume_identity", "ricci_identity_exact", "ricci_identity_fd",
                 "scalar_bounds", "ricci_bounds", "volume_sandwich", "monotone_scalar",
                 "volume_zero_at_T", "einstein_closure"):
        assert sum(res["checks"][name].values()) == res["instances"], name
    first = res["first_counterexample"]
    assert (first["family"], first["theta"], first["b"]) == ("A", [], ["2"])
    assert (first["check"], first["t"], first["root"]) == ("scalar_volume_identity", "2/3", 0)


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["describe"]) == 2
    assert main(["flow", *A2_FULL, "--class", "1,2", "--t", "0",
                 "--samples", "3"]) == 2
    assert main(["flow", *A2_FULL, "--class", "1,2", "--divisor", "1,1"]) == 2
    assert main(["flow", *A2_FULL]) == 2
    assert main(["flow", *A2_FULL, "--class", "1,2", "--format", "csv"]) == 2
    assert main(["invariants", *P2]) == 2
    assert main(["flow", *A2_FULL, "--class", "1,2", "--samples", "0"]) == 2
    assert main(["describe", "--type", "A", "--rank", "3", "--theta", "2,2"]) == 2
    assert main(["describe", *P1, "--theta", ",".join(["1"] * 70)]) == 2  # 70 entries are read
    assert main(["describe", *P1, "--theta", ",".join(["1"] * 71)]) == 2  # and so are 71
    assert main(["describe", "--type", "A", "--rank", "2.7"]) == 2
    for fraction in ("abc", "7", "1/2"):
        assert main(["flow", *A2_FULL, "--class", "1,2", "--t", "1/4",
                     "--t-max-fraction", fraction]) == 2
    capsys.readouterr()
    # a long offending value is shown by its size, not echoed
    nines = "9" * 5000
    for argv in (["describe", "--type", "A", "--rank", "3", "--theta", "1,x" + nines],
                 ["check", "--seed", "x" + nines],
                 ["check", "--format", nines],
                 [nines],
                 ["describe", *A2_FULL, nines],
                 ["describe", "--" + nines],
                 ["describe", "--=" + nines],
                 ["describe", *A2_FULL, "--t=" + nines],
                 ["describe", "--job", nines],
                 ["describe", "--type", "A", "--rank", "2", "--output", nines]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err) < 300, err[:300]
    # an integer field is read at any length, past Python's 4300-digit limit, and its
    # range is refused: these exited 2 as "must be an integer"
    for argv, reason in [
        (["describe", "--type", "A", "--rank", nines],
         "family A requires rank in {1,...,70} (got <16611-bit number>)"),
        (["describe", "--type", "A", "--rank", "3", "--theta", nines],
         "simple-root index <16611-bit number> out of range 1..3"),
        (["flow", *A2_FULL, "--class", "1,2", "--samples", nines],
         "--samples <16611-bit number> is over the budget of 10000"),
        # --lct-m is read by the same reader, and off the Borel case refused by lct_lower
        (["invariants", *P2, "--divisor", "1", "--lct-m", nines],
         "log canonical threshold bound is stated for the Borel case only"),
    ]:
        assert main(argv) == 3, argv[:4]
        err = capsys.readouterr().err
        assert reason in err and "Traceback" not in err and len(err) < 300, err[:300]
    # invariants' usage text alone is about 225 characters, so bound the message
    assert main(["invariants", *P2, "--divisor", "1", "--lct-m", "x" + nines]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()[-1]) < 120, err[:300]
    # so is describe's with --type's message, which lists every family
    assert main(["describe", "--type", nines, "--rank", "2"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()[-1]) < 160, err[:300]
    # every integer is read by cli._integer, as --rank is; argparse converts none
    assert main(["check", "--seed", "abc"]) == 2
    assert capsys.readouterr().err.endswith(
        "flagflow: error: --seed must be an integer, got 'abc'\n")
    assert main(["invariants", *P2, "--divisor", "1", "--lct-m", "x"]) == 2
    assert capsys.readouterr().err.endswith(
        "flagflow: error: --lct-m must be an integer, got 'x'\n")
    # a family is refused by read_descriptor, from a flag as from a job; argparse
    # refused a flag with its own invalid choice message
    assert main(["describe", "--type", "X", "--rank", "2"]) == 2
    assert capsys.readouterr().err.endswith("flagflow: error: --type must be one of A, B, C, "
                                            "D, E, F, G (in a job file: lie_family), got 'X'\n")
    assert main(["describe", *A2_FULL, "x", "y"]) == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: x y\n")
    assert main(["describe", *A2_FULL, "--t=5"]) == 2
    assert capsys.readouterr().err.endswith(
        "error: ambiguous option: --t=5 could match --type, --theta\n")
    # so does a path of up to 255 characters, the longest file name most systems allow
    assert main(["describe", "--job", "/nonexistent/x.json"]) == 2
    assert capsys.readouterr().err.endswith("error: cannot read job file: [Errno 2] "
                                            "No such file or directory: '/nonexistent/x.json'\n")
    long_name = "/nonexistent/" + "x" * 242
    assert main(["describe", *A2_FULL, "--output", long_name]) == 2
    assert capsys.readouterr().err.endswith(
        f"error: cannot write {long_name}: No such file or directory\n")


def test_seed_and_lct_m_are_read_at_any_length(capsys):
    # argparse's int() read both and refused them past 4300 digits with exit 2
    nines = "9" * 5000
    assert main(["check", "--seed", nines]) == 0
    with all_digits():
        doc = json.loads(capsys.readouterr().out)
    assert doc["input"] == {"seed": 10 ** 5000 - 1} and doc["result"]["exact_ok"] is True
    # the bound m / C(mD) is the same for every m that makes mD integral
    lct = run_json(capsys, ["invariants", *A2_FULL, "--divisor", "1,1", "--lct-m", "1"])
    assert main(["invariants", *A2_FULL, "--divisor", "1,1", "--lct-m", nines]) == 0
    with all_digits():
        doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["lct"] == {**lct["result"]["lct"], "m": 10 ** 5000 - 1}


def _parsers() -> list:
    """build_parser()'s parser and each subcommand's."""
    parsers = [cli.build_parser()]
    for parser in parsers:  # each subcommand's parser is appended as it is found
        parsers += [p for action in parser._actions if isinstance(action.choices, dict)
                    for p in action.choices.values()]
    assert len(parsers) == 5
    return parsers


def test_argparse_converts_no_value():
    # every integer of a request is read by cli._integer, so no action has a type
    for parser in _parsers():
        for action in parser._actions:
            assert action.type is None, action.option_strings


def test_argparse_refuses_no_descriptor_value(capsys):
    # a family is read by read_descriptor, so only the subcommand and --format have
    # choices; --type had them, and a bad family as a flag never reached read_descriptor
    for parser in _parsers():
        for action in parser._actions:
            assert action.choices is None or isinstance(action.choices, dict) or (
                action.option_strings == ["--format"]), action.option_strings
    # each subcommand's usage still lists the families
    for command in ("describe", "flow", "invariants"):
        assert main([command, "--format", "x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: flagflow {command} ") and (
            "[--type {A,B,C,D,E,F,G}]" in err), err


def test_argparse_reads_a_minus_and_a_digit_or_dot_as_a_value():
    # argparse takes such an argument for a value only while no option of its parser
    # looks like one; a minus and a letter stays an option, so "-X" needs "--type=-X"
    for parser in _parsers():
        assert parser._has_negative_number_optionals == []
        for argument in ("-1,2", "-.5", "-1_0", "-3/2", "-1e3"):
            assert parser._parse_optional(argument) is None, argument
        assert parser._parse_optional("-X") is not None


def test_unknown_job_fields_are_named_briefly(capsys, tmp_path):
    # a 100000-character unknown key was echoed in full: 100112 bytes of stderr
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"lie_family": "A", "rank": 2, "k" * 100_000: 1, "x": 2}))
    assert main(["describe", "--job", str(job)]) == 2
    assert capsys.readouterr().err.endswith(
        "error: unknown job fields: ['kkkkkkkkkkkkkkkkkkk... (100002 characters), 'x']\n")


def test_many_unknown_job_fields_are_counted_not_listed(capsys, tmp_path):
    # 100000 unknown keys were all listed: 988998 bytes of stderr. Here the most keys
    # of this form that fit under the byte cap, 11 bytes each
    def text(count):
        return json.dumps({"lie_family": "A", "rank": 2,
                           **{f"k{i:05}": 0 for i in range(count)}}, separators=(",", ":"))

    count = (cli.MAX_JOB_BYTES - len(text(0))) // 11
    assert len(text(count)) <= cli.MAX_JOB_BYTES < len(text(count + 1))
    job = tmp_path / "job.json"
    job.write_text(text(count))
    assert main(["describe", "--job", str(job)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err) < MAX_STDERR
    assert err.endswith("error: unknown job fields: "
                        f"['k00000', 'k00001', 'k00002'] and {count - 3} more\n")


def test_non_printable_values_are_shown_as_they_print(capsys, tmp_path):
    # a character that repr() escapes to ten was cut by characters and escaped (or not)
    # afterwards: up to 2562 characters of stderr, and raw invisible text from --output.
    # Then brief's output was escaped again by !r, a list's repr or an OSError's str(),
    # and its cut could split an escape: '/nonexistent/\\U000e0... (2413 characters)'
    tag = "\U000e0001"
    job = tmp_path / "job.json"
    job.write_text(json.dumps({**{tag * 41 + k: 1 for k in "abc"}, tag * 40: 1}))
    family_job = tmp_path / "family.json"
    family_job.write_text(json.dumps({"lie_family": tag * 40, "rank": 2}))
    newline_job = tmp_path / "newline.json"
    newline_job.write_text(json.dumps({"lie_family": "A", "rank": 2, "a\nb": 1}))
    lost = "/nonexistent/" + tag * 240
    cut = "'\\U000e0001... (402 characters)"
    for argv, code, shown in [
        (["describe", "--job", str(job)], 2, f"error: unknown job fields: [{cut}, "
         "'\\U000e0001... (413 characters), '\\U000e0001... (413 characters)] and 1 more"),
        (["describe", "--job", tag * 60], 2, "error: cannot read job file: [Errno 2] No such "
         "file or directory: '\\U000e0001... (602 characters)"),
        (["describe", "--job", lost], 2, "error: cannot read job file: [Errno 2] No such "
         "file or directory: '/nonexistent/... (2415 characters)"),
        (["describe", *A2_FULL, "--output", lost], 2,
         "error: cannot write /nonexistent/... (2413 characters): No such file or directory"),
        (["flow", *P1, "--class", "1", "--t", tag * 40], 3,
         f"error: not a rational number: {cut}"),
        (["describe", "--job", str(newline_job)], 2, "error: unknown job fields: ['a\\nb']"),
        (["flow", *P1, "--class", "1/\n2"], 3, "error: not a rational number: '1/\\n2'"),
        (["describe", *P1[:2], "--rank", "x" + tag * 30], 2,
         "error: rank must be an integer, got 'x\\U000e0001... (303 characters)"),
        (["describe", "--type", tag * 40, "--rank", "2"], 2, "error: --type must be one of "
         f"A, B, C, D, E, F, G (in a job file: lie_family), got {cut}"),
        (["check", "--seed", tag * 40], 2, f"error: --seed must be an integer, got {cut}"),
        (["describe", "--job", str(family_job)], 2, "error: --type must be one of "
         f"A, B, C, D, E, F, G (in a job file: lie_family), got {cut}"),
    ]:
        assert main(argv) == code, argv[:4]
        out, err = capsys.readouterr()
        assert out == "" and tag not in err and err.endswith(shown + "\n"), (argv[:4], err)
        assert len(err) < MAX_STDERR and len(err.encode()) < MAX_STDERR, (argv[:4], len(err))


def test_brief_keeps_whole_escapes_of_a_repr():
    # the kept text is a prefix of repr() that ends between escapes, so it reads back,
    # closed by its quote, as a prefix of the value; no escape is escaped again
    for value in ["\U000e0001" * 40, "x" + "\U000e0001" * 30, "a" * 18 + "\\" + "b" * 30,
                  "\x00" * 50, "é" * 50, "a\nb" * 20, "1/\n2" * 11, "q" * 41]:
        text = repr(value)
        shown = brief(text)
        kept, length = re.fullmatch(r"(.*)\.\.\. \((\d+) characters\)", shown).groups()
        assert int(length) == len(text) and text.startswith(kept), value[:5]
        assert value.startswith(ast.literal_eval(kept + "'")) and 11 <= len(kept) <= 20, kept
    assert brief(repr("\U000e0001" * 3)) == repr("\U000e0001" * 3)  # 32 characters
    assert brief("a\nb") == "a\\nb" and brief(10 ** 38) == str(10 ** 38)


def test_an_empty_path_is_a_path(capsys):
    # an empty --output printed the document to stdout and exited 0, and an empty
    # --job was read as no job
    assert main(["describe", *P1, "--output", ""]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("error: cannot write : No such file or directory\n")
    assert main(["describe", "--job", ""]) == 2
    assert capsys.readouterr().err.endswith(
        "error: cannot read job file: [Errno 2] No such file or directory: ''\n")


def test_job_conflicts_exit_two(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"lie_family": "A", "rank": 1}))
    assert main(["describe", "--job", str(job), "--rank", "1"]) == 2
    job.write_text(json.dumps({"lie_family": "A", "rank": 1, "colour": 3}))
    assert main(["describe", "--job", str(job)]) == 2
    capsys.readouterr()
    a2 = {"lie_family": "A", "rank": 2, "class": ["1", "2"]}
    for bad, field in [
        (5, "JSON object"),
        ({"lie_family": "A", "rank": 2.7}, "rank"),
        ({"lie_family": "A", "rank": 3, "theta": [2, 2]}, "theta"),
        ({**a2, "samples": "abc"}, "samples"),
        ({**a2, "samples": 0}, "samples"),
        ({**a2, "class": 5}, "class"),
        ({"lie_family": ["A"], "rank": 2}, "lie_family"),
        ({**a2, "t": [1]}, "t must be a rational"),
        ({**a2, "t": True}, "t must be a rational"),
        ({**a2, "class": [[1], 2]}, "class"),
        ({**a2, "class": [1.5, 2]}, "class"),
        ({**a2, "t_max_fraction": 0.5}, "t_max_fraction"),
        ({"lie_family": "A", "rank": 2, "divisor": [True, 1]}, "divisor"),
        ({**a2, "t": "1/4", "t_max_fraction": "1/2"}, "--t excludes"),
    ]:
        job.write_text(json.dumps(bad))
        assert main(["flow", "--job", str(job)]) == 2, bad
        assert field in capsys.readouterr().err, bad
    # a family outside A-G exits 2, as --type does; it exited 3 with "unknown family"
    for family, shown in [("X", "'X'"), ("", "''"), ("a", "'a'"), (["A"], "['A']"),
                          ({"A": 1}, "{'A': 1}"), (True, "True"),
                          ("Q" * 5000, "'QQQQQQQQQQQQQQQQQQQ... (5002 characters)")]:
        job.write_text(json.dumps({"lie_family": family, "rank": 2}))
        for command in ("describe", "flow", "invariants"):
            assert main([command, "--job", str(job)]) == 2, (command, family)
            assert capsys.readouterr().err.endswith("error: --type must be one of A, B, C, "
                                                    "D, E, F, G (in a job file: lie_family), "
                                                    f"got {shown}\n")
    # a job takes the fields of its command's flags and refuses the others, as the
    # flags do; a flow job takes all eight
    values = {"theta": [1], "class": ["1", "2"], "divisor": ["1", "1"], "t": "0",
              "samples": 2, "t_max_fraction": "1/2"}
    for command, own in [("describe", {"theta"}), ("invariants", {"theta", "divisor"}),
                         ("flow", set(values))]:
        for field in values.keys() - own:
            job.write_text(json.dumps({"lie_family": "A", "rank": 2, field: values[field]}))
            assert main([command, "--job", str(job)]) == 2, (command, field)
            assert capsys.readouterr().err.endswith(
                f"error: unknown job fields: ['{field}']\n"), (command, field)
            assert main([command, *A2_FULL, f"--{field.replace('_', '-')}=2"]) == 2
            capsys.readouterr()
        job.write_text(json.dumps({"lie_family": "A", "rank": 2,
                                   **{field: values[field] for field in own}}))
        main([command, "--job", str(job)])
        assert "unknown job fields" not in capsys.readouterr().err, command


def test_deeply_nested_job_file_exits_two(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text("[" * 100_000)
    assert main(["describe", "--job", str(job)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err) < 300, err[:300]
    assert "cannot read job file: maximum recursion depth exceeded" in err


@pytest.mark.parametrize("raw,reason", [
    (b'{"lie_family": "A", "rank": ', "Expecting value: line 1 column 29 (char 28)"),
    (b"", "Expecting value: line 1 column 1 (char 0)"),
    (b'\xef\xbb\xbf{"lie_family": "A", "rank": 2}',
     "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    # read with universal newlines, each CRLF is one character: a decode of the raw
    # bytes would report char 48
    (b'{\r\n"lie_family": "A",\r\n"rank": 12, "theta": [11,',
     "Expecting value: line 3 column 26 (char 46)"),
], ids=["truncated", "empty", "bom", "byte-ff", "crlf"])
def test_a_malformed_job_file_exits_two_with_one_line(capsys, tmp_path, raw, reason):
    job = tmp_path / "job.json"
    job.write_bytes(raw)
    assert main(["describe", "--job", str(job)]) == 2
    usage, *rest = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: ")
    assert rest == [f"flagflow: error: cannot read job file: {reason}"]

# runs `python ARGV` from a small process of its own and prints its exit code, CPU
# seconds and ru_maxrss (KiB): a child's ru_maxrss counts the memory of the process
# that started it, so the caller's own size would hide the child's
USAGE_RUNNER = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,"
    " file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime,"
    " usage.ru_maxrss)\n")


def usage(*argv, **env):
    """Exit code, CPU seconds, ru_maxrss (KiB) and stderr of `flagflow ARGV`, run with
    the environment variables env set too."""
    proc = subprocess.run([sys.executable, "-S", "-c", USAGE_RUNNER, "-m", "flagflow.cli",
                           *argv], capture_output=True, text=True,
                          env={**process_env(), **env}, timeout=60)
    code, cpu, maxrss = proc.stdout.split()
    return int(code), float(cpu), int(maxrss), proc.stderr


def test_a_job_file_over_the_byte_budget_is_refused_unread(tmp_path):
    # a job file is read whole, so one byte over MAX_JOB_BYTES is refused before it is
    # parsed: in the memory of the bytes read, not of the JSON they hold
    job = tmp_path / "job.json"
    cap = cli.MAX_JOB_BYTES
    job.write_bytes(b'{"x": "' + b"a" * (cap - 8) + b'"}')
    assert job.stat().st_size == cap + 1

    code, cpu, maxrss, err = usage("describe", "--job", str(job))
    assert (code, err) == (3, f"error: --job: the file is over the budget of {cap} bytes\n")
    assert cpu < 1.0
    *_, base_maxrss, _ = usage("describe", *P1)
    assert maxrss - base_maxrss < (cap >> 10) + 8 * 1024, (maxrss, base_maxrss)


def list_job(count: int) -> bytes:
    """An A1 job whose class lists count ones, written compactly: 2 * count + 37 bytes."""
    return b'{"lie_family":"A","rank":1,"class":[' + b"1," * (count - 1) + b"1]}"


def test_a_long_list_in_a_job_is_refused_by_its_length(tmp_path):
    # an 11 MB job whose class lists 5592372 entries: flow read and typed every entry
    # before its length was refused (2.2 s CPU, 112 MiB), and describe took, typed and
    # echoed it (exit 0, 3.7-5.3 s CPU, 503 MiB, 50 MB of stdout). Now the file's size
    # refuses it unread
    job = tmp_path / "job.json"
    job.write_bytes(list_job(5_592_372))
    shown = f"error: --job: the file is over the budget of {cli.MAX_JOB_BYTES} bytes\n"
    for command in ("flow", "describe"):
        got, cpu, _, err = usage(command, "--job", str(job))
        assert (got, err) == (3, shown), (command, err[-300:])
        assert cpu < 1.0, (command, cpu)


def test_the_longest_list_under_the_byte_cap_is_refused_by_its_length(tmp_path):
    # the most entries a job can list: flow refuses the class's length, describe the field
    job = tmp_path / "job.json"
    count = (cli.MAX_JOB_BYTES - 37) // 2
    job.write_bytes(list_job(count))
    assert cli.MAX_JOB_BYTES - 1 <= job.stat().st_size <= cli.MAX_JOB_BYTES
    for command, code, shown in [
        ("flow", 3, f"error: {count} coefficients given; expected 1 "
                    "(one per complement index)\n"),
        ("describe", 2, "error: unknown job fields: ['class']\n"),
    ]:
        got, cpu, _, err = usage(command, "--job", str(job))
        assert (got, err[-len(shown):]) == (code, shown), (command, err[-300:])
        assert cpu < 1.0, (command, cpu)


def test_a_job_of_seventy_longest_rationals_is_refused_at_the_byte_cap(tmp_path):
    # A70's class of 70 rationals of MAX_RATIONAL_CHARS nines each, 9175362 bytes, met
    # every other budget: all 70 were parsed before the bit budget refused them (6.7 s CPU)
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"lie_family": "A", "rank": 70,
                               "class": ["9" * cli.MAX_RATIONAL_CHARS] * 70}))
    assert job.stat().st_size == 9_175_362
    code, cpu, _, err = usage("flow", "--job", str(job))
    assert (code, err) == (
        3, f"error: --job: the file is over the budget of {cli.MAX_JOB_BYTES} bytes\n")
    assert cpu < 1.0, cpu


def test_one_longest_rational_fits_in_a_job_under_the_byte_cap(tmp_path):
    # the cap leaves room for a value of the longest admitted length, written with
    # indentation, so that the bit budget, not the file's size, refuses it
    assert cli.MAX_JOB_BYTES == 2 * cli.MAX_RATIONAL_CHARS
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"lie_family": "A", "rank": 70, "theta": list(range(2, 71)),
                               "class": ["9" * cli.MAX_RATIONAL_CHARS]}, indent=2))
    assert job.stat().st_size <= cli.MAX_JOB_BYTES
    code, cpu, _, err = usage("flow", "--job", str(job))
    assert code == 3 and err.startswith("error: --class and --t-max-fraction: n = 70 times "), err
    assert cpu < 1.0, cpu


def test_domain_errors_exit_three(capsys, tmp_path):
    assert main(["describe", "--type", "A", "--rank", "2", "--theta", "1,2"]) == 3
    assert main(["flow", *A2_FULL, "--class=-1,2"]) == 3
    assert main(["flow", *A2_FULL, "--class", "1,2", "--t", "1"]) == 3
    assert main(["flow", *A2_FULL, "--class", "1,2", "--t-max-fraction", "3/2"]) == 3
    assert main(["invariants", *P2, "--divisor", "1", "--lct-m", "1"]) == 3
    err = capsys.readouterr().err
    assert "error:" in err
    assert "singular time" in err
    # input bit budget: B16 Borel has n = 256; over the common denominator 2^k
    # the class takes k + 1 bits and t = 0 one bit, so k = 510 gives exactly
    # 256 * 512 = MAX_INPUT_BITS. E8 has n = 120 and 120 * 1092 = 131040.
    assert flagflow.cli.MAX_INPUT_BITS == 256 * 512
    b16 = ["--type", "B", "--rank", "16"]
    e8 = ["invariants", "--type", "E", "--rank", "8", "--divisor"]
    at_budget, past_budget = f"{2 ** 510 + 1}/{2 ** 510}", f"{2 ** 511 + 1}/{2 ** 511}"
    too_long = "1" * (flagflow.cli.MAX_RATIONAL_CHARS + 1)
    # str() of an int past 4300 digits raises, so refusals size such values
    nines = "9" * 5000
    # samples x n x bits: B8 Borel has n = 64, and 121-bit entries plus 7 bits
    # for 99/100 give 128 bits, so 160 samples are exactly 10 * MAX_INPUT_BITS
    assert flagflow.cli.DEFAULT_SAMPLES * flagflow.cli.MAX_INPUT_BITS == 160 * 64 * 128
    b8_flow = ["flow", "--type", "B", "--rank", "8", "--class", ",".join([str(2 ** 120)] * 8)]
    empty_job = tmp_path / "empty.json"
    empty_job.write_text(json.dumps({"lie_family": "A", "rank": 2, "class": []}))
    ones = ",".join(["1"] * 71)
    long_divisor_job = tmp_path / "long_divisor.json"
    long_divisor_job.write_text(json.dumps({"lie_family": "A", "rank": 2, "divisor": ones}))
    for argv, reason in [
        # a class or divisor of the wrong length is refused by it, before any entry is read
        (["flow", *P1, "--class", ones], "71 coefficients given; expected 1"),
        (["invariants", "--job", str(long_divisor_job)], "71 coefficients given; expected 2"),
        (["flow", *P1, "--class", ones[2:]], "70 coefficients given; expected 1"),
        # an empty class or divisor is refused by its length, before it is priced
        (["flow", *A2_FULL, "--class="], "0 coefficients given; expected 2"),
        (["flow", *A2_FULL, "--class", ","], "0 coefficients given; expected 2"),
        (["invariants", *A2_FULL, "--divisor", ","], "0 coefficients given; expected 2"),
        (["flow", "--job", str(empty_job)], "0 coefficients given; expected 2"),
        (["describe", "--type", "A", "--rank", "1000000"],
         "family A requires rank in {1,...,70} (got 1000000)"),
        (["describe", "--type", "D", "--rank", "51"],
         "family D requires rank in {4,...,50} (got 51)"),
        (["flow", *P1, "--class", "1", "--samples", "10001"], "--samples 10001 is over"),
        (["flow", *A2_FULL, "--class", "1,2", "--t", "abc"], "not a rational number"),
        (["flow", *b16, "--t", "0", "--class", ",".join([past_budget] * 16)],
         "--class and --t: n = 256 times 513 bits is 131328 bits, over the budget of 131072"),
        # 511 bits plus 7 for the default t-max-fraction 99/100
        (["flow", *b16, "--divisor", ",".join([at_budget] * 16)],
         "--divisor and --t-max-fraction: n = 256 times 518 bits"),
        ([*e8, ",".join([str(2 ** 1092)] * 8)], "--divisor: n = 120 times 1093 bits"),
        (["flow", *P1, "--class", too_long],
         f"--class: a value of {len(too_long)} characters is over the budget"),
        (["flow", *P1, "--class", "1", "--t", too_long],
         f"--t: a value of {len(too_long)} characters is over the budget"),
        (["flow", *P1, "--class", "1", "--t", "7" * 50 + "x"],
         "not a rational number: '7777777777777777777... (53 characters)\n"),
        (["describe", "--type", "A", "--rank", nines[:3000]],
         "family A requires rank in {1,...,70} (got <9967-bit number>)"),
        (["describe", "--type", "D", "--rank", nines[:3000]],
         "family D requires rank in {4,...,50} (got <9967-bit number>)"),
        (["flow", *P1, "--class", "1", "--t", "-" + nines], "negative time t = <16611-bit number>"),
        (["flow", *P1, "--class", "1", "--t", nines],
         "past singular time: t = <16611-bit number>, T = 1/2"),
        (["flow", *P1, "--class", "1", "--samples", "3", "--t-max-fraction", nines],
         "t-max-fraction must lie in (0,1), got <16611-bit number>"),
        (["describe", "--type", "E", "--rank", nines[:3000]], "(got <9967-bit number>)"),
        (["describe", *P1, "--theta", nines[:3000]],
         "simple-root index <9967-bit number> out of range 1..1"),
        (["flow", *P1, "--class", "1", "--samples", nines[:3000]],
         "--samples <9967-bit number> is over the budget of 10000"),
        (["invariants", *A2_FULL, "--divisor", "1,1", "--lct-m=-" + nines[:4000]],
         "multiple m must be a positive integer (got <13289-bit number>)"),
        (["invariants", *P1, "--divisor", "1/3", "--lct-m", "1" + "0" * 3999],
         "m*D is not integral for m = <13286-bit number>"),
        ([*b8_flow, "--samples", "161"],
         "--samples and --class and --t-max-fraction: 161 samples times n = 64 times 128 "
         "bits is 1318912 bits, over the budget of 1310720"),
    ]:
        assert main(argv) == 3, argv[:6]
        err = capsys.readouterr().err
        assert reason in err and "Traceback" not in err, argv[:6]
        assert len(err) < 200  # a refusal never echoes a long value
    assert main(["flow", *b16, "--t", "0", "--class", ",".join([at_budget] * 16)]) == 0
    assert main([*e8, ",".join([str(2 ** 1091)] * 8)]) == 0
    assert main([*b8_flow, "--samples", "160"]) == 0
    capsys.readouterr()


def test_decimal_exponents_are_priced_before_they_are_read(tmp_path):
    # Fraction builds 10^exp for "1e<exp>": at 10^8 that would run for minutes
    env = process_env()
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"lie_family": "A", "rank": 2, "class": ["1e1_000_000_00", 1]}))
    for argv, field, value in [
        (["flow", *P1, "--class", "1e100000000"], "--class", "1e100000000"),
        (["flow", *P1, "--class", "1", "--t", "1e-100000000"], "--t", "1e-100000000"),
        (["flow", "--job", str(job)], "--class", "1e1_000_000_00"),
    ]:
        proc = subprocess.run([sys.executable, "-m", "flagflow.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=5)
        assert proc.returncode == 3, argv
        assert proc.stderr == (
            f"error: {field}: a value of {len(value)} characters is over the budget "
            "of 131072 once its decimal exponent is written out\n")


def test_decimal_exponents_within_the_budget_are_read(capsys):
    doc = run_json(capsys, ["flow", *P1, "--class", "25e-1", "--t", "1_0E-1"])
    assert doc["result"]["samples"][0]["t"] == "1"
    assert doc["result"]["samples"][0]["class"] == ["1/2"]  # 5/2 - 1 * 2
    # an exponent counts as its digits: "1e131064" is 8 + 131064 = MAX_RATIONAL_CHARS,
    # so it is read and meets the bit budget; one more digit is refused unread
    assert flagflow.cli.MAX_RATIONAL_CHARS == 131072
    assert main(["invariants", *P2, "--divisor", "1e131064"]) == 3
    bits = (10 ** 131064).bit_length()
    assert f"--divisor: n = 2 times {bits} bits" in capsys.readouterr().err
    assert main(["invariants", *P2, "--divisor", "1e131065"]) == 3
    assert "a value of 8 characters is over the budget of 131072 once" in capsys.readouterr().err


def test_rationals_past_4300_digits_are_read(capsys):
    # over 4300 digits, int() refuses a decimal string unless its limit is lifted
    sevens, power = "7" * 4400, "1" + "0" * 4400
    doc = run_json(capsys, ["flow", *P1, "--samples", "1", "--class", f"{sevens}/{power}"])
    assert doc["input"]["class"] == [f"{sevens}/{power}"]
    assert doc["result"]["T"] == f"{sevens}/2{'0' * 4400}"  # b / l with l = 2


def test_job_integers_past_4300_digits_are_read(capsys, tmp_path):
    # json.load's int() refuses them; they are read as their string form is
    nines = "9" * 5000
    job = tmp_path / "job.json"

    def write(fields, value):  # the job with its one 0 written as value
        job.write_text(json.dumps({"lie_family": "A", **fields}).replace("0", value))

    outputs = []
    for value in (nines, f'"{nines}"'):
        write({"rank": 2, "divisor": [0, 1]}, value)
        assert main(["invariants", "--job", str(job)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and nines in outputs[0]
    # integer fields read them, as their flag forms do, and refuse their range
    for command, fields, reason in [
        ("describe", {"rank": 0}, "family A requires rank in {1,...,70} (got <16611-bit number>)"),
        ("describe", {"rank": 3, "theta": [0]},
         "simple-root index <16611-bit number> out of range 1..3"),
        ("flow", {"rank": 1, "class": [1], "samples": 0},
         "--samples <16611-bit number> is over the budget of 10000"),
    ]:
        write(fields, nines)
        assert main([command, "--job", str(job)]) == 3, fields
        err = capsys.readouterr().err
        assert reason in err and len(err) < 300, err[:300]
    # an over-long one meets the size budget, unread
    write({"rank": 1, "class": [0], "t": "1"}, "9" * 140000)
    assert main(["flow", "--job", str(job)]) == 3
    assert "a value of 140000 characters is over the budget" in capsys.readouterr().err


def test_a_job_prints_alike_whatever_the_process_digit_limit(capsys, tmp_path):
    # a JSON integer stays text past CPython's default 4300 digits, whatever the process's
    # limit: under PYTHONINTMAXSTRDIGITS=640 the 700-digit entry was echoed as a string
    job = tmp_path / "job.json"

    def write(sevens):
        job.write_text('{"lie_family": "A", "rank": 2, "divisor": [1, ' + sevens + "]}")

    for sevens, echoed in (("7" * 4300, int), ("7" * 4301, str)):
        write(sevens)
        with all_digits():  # dim V has about three times as many digits
            doc = run_json(capsys, ["invariants", "--job", str(job)])
        assert doc["input"]["divisor"] == [1, echoed(sevens)]
    sevens = "7" * 700
    write(sevens)
    unset = {key: value for key, value in process_env().items()
             if key != "PYTHONINTMAXSTRDIGITS"}
    runs = set()
    for env in (unset, {**unset, "PYTHONINTMAXSTRDIGITS": "640"},
                {**unset, "PYTHONINTMAXSTRDIGITS": "0"}):
        proc = subprocess.run([sys.executable, "-m", "flagflow.cli", "invariants", "--job",
                               str(job)], capture_output=True, text=True, env=env, timeout=60)
        runs.add((proc.returncode, proc.stdout, proc.stderr))
    [(code, out, err)] = runs
    assert (code, err) == (0, "")
    assert json.loads(out)["input"]["divisor"] == [1, int(sevens)]


def test_a_long_job_integer_is_priced_unread_under_any_digit_limit(tmp_path):
    # with the limit off, json.loads read the 262000-digit integer before the size budget
    # refused it: 1.385 s CPU, where 0.052 s refuses it under the default limit
    job = tmp_path / "job.json"
    job.write_text('{"lie_family":"A","rank":1,"class":[' + "9" * 262_000 + "]}")
    assert job.stat().st_size == 262_038 <= cli.MAX_JOB_BYTES
    code, cpu, _, err = usage("flow", "--job", str(job), PYTHONINTMAXSTRDIGITS="0")
    assert (code, err) == (
        3, "error: --class: a value of 262000 characters is over the budget of 131072\n")
    assert cpu < 0.3, cpu


def test_main_leaves_the_digit_limit_as_it_found_it(monkeypatch):
    # main lifts the limit around one request and sets it back on every exit
    def run(argv):
        return main(argv), sys.get_int_max_str_digits()

    def boom(*args, **kwargs):
        raise AssertionError("planted")

    config = oracle.SuiteConfig
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = [run(["describe", *P1]), run(["describe", "--rank", "1"]),
               run(["describe", "--type", "A", "--rank", "0"])]
        monkeypatch.setattr(oracle, "SuiteConfig", lambda seed: config(
            types=(("A", 1),), classes_per_flag=1, seed=seed))
        monkeypatch.setattr(oracle, "scalar_curvature", FAILING_CHECKS["scalar_curvature"])
        got.append(run(["check", "--seed", "0"]))
        monkeypatch.setattr("flagflow.cli.build_root_system", boom)
        got.append(run(["describe", *P1]))
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == [(0, 640), (2, 640), (3, 640), (1, 640), (4, 640)]


def test_internal_assertion_exits_four(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("sum of positive roots diverged from 2*rho")

    monkeypatch.setattr("flagflow.cli.build_root_system", boom)
    assert main(["describe", *P1]) == 4
    assert "internal assertion failed" in capsys.readouterr().err


def test_internal_checks_survive_optimization():
    # -O strips assert statements; the internal checks raise AssertionError themselves,
    # so a broken invariant exits 4 there too, instead of printing a wrong value
    for path in Path(flagflow.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name
    script =("import sys; from flagflow import cli, parabolic; "
              "parabolic.rho_pairing = lambda rs, idx: 7; "
              "sys.exit(cli.main(['describe', '--type', 'A', '--rank', '2']))")
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=process_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == ("internal assertion failed: Weyl product over the complementary "
                           "roots is not an integer > 1\n")


def test_plain_writes_exact_values_and_refuses_other_objects():
    assert plain(Fraction(-3, 4)) == "-3/4"
    # json walks containers and writes scalars itself, and calls plain on each Fraction
    assert json.dumps((Fraction(2), [Fraction(1, 2), None, True, 1.5, "x"]),
                      default=plain) == '["2", ["1/2", null, true, 1.5, "x"]]'
    for value in (1j, (Fraction(1),), [Fraction(1)], None, True, 1, 1.5, "x"):
        with pytest.raises(TypeError, match=f"^{type(value).__name__} is not JSON serializable$"):
            plain(value)
    with pytest.raises(TypeError, match="^set is not JSON serializable$"):
        json.dumps({"x": {1}}, default=plain)


def test_plain_writes_any_length_and_leaves_the_digit_limit_as_it_found_it():
    limit = sys.get_int_max_str_digits()
    for value in (Fraction(-(10 ** 5000) - 1, 3), Fraction(1, 10 ** 4300)):
        text = plain(value)
        assert sys.get_int_max_str_digits() == limit
        with all_digits():
            assert Fraction(text) == value and text == str(value)


def test_plain_writes_long_values_by_halves_as_str_does(monkeypatch):
    # below Python 3.12 str() is quadratic in the digits, so past SPLIT_BITS bits plain()
    # writes by halves through decimal, in the very text of str(), sign and p/q included
    edge = 60_000
    assert errors.SPLIT_BITS == (edge if sys.version_info < (3, 12) else math.inf)
    split, direct = [], errors.split_digits
    monkeypatch.setattr(errors, "split_digits",
                        lambda n: split.append(n.bit_length()) or direct(n))
    rng = random.Random(4)
    with all_digits():
        for bits in (edge - 1, edge, edge + 1, 3 * edge):
            big = rng.getrandbits(bits) | 1 << (bits - 1)
            for value in (Fraction(big), Fraction(-big), Fraction(big, 7), Fraction(-big, 7),
                          Fraction(7, big), Fraction(-7, big), Fraction(big, big + 2)):
                assert plain(value) == str(value), (bits, value < 0)
            # the helper itself, on every interpreter
            for n in (big, -big, 0, 1, -1, 2 ** 128, 2 ** 129 - 1, 10 ** 40):
                assert direct(n) == str(n)
    # 3.12 and later keep str() at every length
    assert {bits for bits in split if bits > 3} == (
        {edge + 1, 3 * edge} if sys.version_info < (3, 12) else set())


def test_normal_float_refuses_values_past_the_normal_range():
    assert normal_float(Fraction(0)) == 0.0
    assert normal_float(Fraction(-1, 10 ** 307)) == -1e-307
    assert normal_float(Fraction(3), 1.5) == 1.5  # a float computed from the value
    for exact, value in ((Fraction(10 ** 309), None), (Fraction(1, 10 ** 309), None),
                         (Fraction(1, 10 ** 400), None), (Fraction(-(10 ** 5000)), None),
                         (Fraction(1, 10 ** 400), 0.0), (Fraction(2), math.inf)):
        with pytest.raises(OverflowError):
            normal_float(exact, value)


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_help_goes_to_stdout_and_usage_errors_to_stderr(capsys):
    assert main(["describe", "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: flagflow describe") and err == ""
    assert main(["describe"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: --type and --rank are required" in err
