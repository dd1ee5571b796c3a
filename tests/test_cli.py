"""Command-line interface: document shapes, frozen values, exit codes."""

import csv
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import flagflow
from flagflow.cli import main

P2 = ["--type", "A", "--rank", "2", "--theta", "2"]
A2_FULL = ["--type", "A", "--rank", "2"]
P1 = ["--type", "A", "--rank", "1"]
GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


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
    for case in json.loads(GOLDEN.read_text()):
        argv = case["argv"]
        if "job" in case:
            job = tmp_path / "job.json"
            job.write_text(json.dumps(case["job"]))
            argv = [str(job) if a == "JOB" else a for a in argv]
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == case["stdout"], argv


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


def test_flow_diameter_past_float_range(capsys):
    p1_flow = ["flow", *P1, "--samples", "1", "--class"]
    doc = run_json(capsys, [*p1_flow, str(10 ** 400)])
    diameter = doc["result"]["diameter_upper"]
    assert diameter["radicand"] == str(10 ** 400)
    assert diameter["value"] == pytest.approx(math.pi * 1e200)
    assert main([*p1_flow, str(10 ** 700)]) == 3
    assert "diameter_upper" in capsys.readouterr().err


def test_flow_computes_dim_v_delta_once(capsys, monkeypatch):
    calls = count_calls(monkeypatch, flagflow.dimcount, "weyl_dim")
    doc = run_json(capsys, ["flow", *A2_FULL, "--class", "1,2", "--samples", "20"])
    assert len(doc["result"]["samples"]) == 20
    assert len(calls) == 1


def test_invariants_builds_one_flow(capsys, monkeypatch):
    calls = count_calls(monkeypatch, flagflow.flow, "make_flow")
    doc = run_json(capsys, ["invariants", *A2_FULL, "--divisor", "1,2"])
    assert "borel_only_bounds" in doc["result"]
    assert len(calls) == 1


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["describe", *A2_FULL], ["--version"], ["--help"], ["describe", "--help"],
], ids=["describe", "version", "help", "describe-help"])
def test_closed_stdout_exits_two_without_traceback(argv, unbuffered):
    src = str(Path(flagflow.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
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
        rows = list(csv.reader(fh))
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
    assert main(["describe", "--type", "A", "--rank", "2.7"]) == 2
    capsys.readouterr()


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
    ]:
        job.write_text(json.dumps(bad))
        assert main(["flow", "--job", str(job)]) == 2, bad
        assert field in capsys.readouterr().err, bad


def test_domain_errors_exit_three(capsys):
    assert main(["describe", "--type", "A", "--rank", "2", "--theta", "1,2"]) == 3
    assert main(["flow", *A2_FULL, "--class=-1,2"]) == 3
    assert main(["flow", *A2_FULL, "--class", "1,2", "--t", "1"]) == 3
    assert main(["flow", *A2_FULL, "--class", "1,2", "--t-max-fraction", "3/2"]) == 3
    assert main(["invariants", *P2, "--divisor", "1", "--lct-m", "1"]) == 3
    err = capsys.readouterr().err
    assert "error:" in err
    assert "singular time" in err


def test_internal_assertion_exits_four(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("sum of positive roots diverged from 2*rho")

    monkeypatch.setattr("flagflow.cli.build_root_system", boom)
    assert main(["describe", *P1]) == 4
    assert "internal assertion failed" in capsys.readouterr().err


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
