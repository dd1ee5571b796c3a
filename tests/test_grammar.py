"""The one rational grammar: every value of tests/data/rational_grammar.json is read, or
refused, alike on each interpreter that pyproject.toml admits. The expected values are
written out there, never computed with Fraction(str), whose grammar is the one that
differs between interpreters."""

import json
from pathlib import Path

import pytest

from flagflow.cli import main, parse_rational
from flagflow.errors import DomainError

TABLE = json.loads((Path(__file__).parent / "data" / "rational_grammar.json")
                   .read_text(encoding="utf-8"))
# each value is read as --t of A1 with class 1, whose singular time is T = 1/2
REQUEST = ["flow", "--type", "A", "--rank", "1", "--class", "1"]


@pytest.mark.parametrize("case", TABLE, ids=[repr(case["text"]) for case in TABLE])
def test_each_value_is_read_or_refused_as_written_out(case, capsys, tmp_path):
    text = case["text"]
    code = main([*REQUEST, f"--t={text}"])
    out, err = capsys.readouterr()
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"lie_family": "A", "rank": 1, "class": ["1"], "t": text}))
    assert main(["flow", "--job", str(job)]) == code
    job_out, job_err = capsys.readouterr()  # a job field is read as its flag is
    assert job_err == err
    if code == 0:
        assert json.loads(job_out)["result"] == json.loads(out)["result"]
    if "refused" in case:
        assert (code, out) == (3, "") and case["refused"] in err, err
        if case["refused"] == "not a rational number":
            with pytest.raises(DomainError, match="not a rational number"):
                parse_rational(text)
        return
    value = case["value"]
    assert str(parse_rational(text)) == value
    if code == 0:
        assert json.loads(out)["result"]["samples"][0]["t"] == value
    else:  # the time is shown where it is refused
        assert code == 3 and err in (f"error: negative time t = {value}\n",
                                     f"error: past singular time: t = {value}, T = 1/2\n")
