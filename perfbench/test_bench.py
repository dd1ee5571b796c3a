"""Self-tests of the benchmark: its output checks, span arithmetic and metric list.

    python3 -m pytest -q perfbench

Every output check must reject a response corrupted in the field it guards;
the responses themselves come from running flagflow in process.
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from checks import CheckFailed, Checker, fano, positive_root_count  # noqa: E402
from spans import Tracer, summarize  # noqa: E402
from workloads import (LARGE_TYPES, SMALL_TYPES, WORKLOADS, Request,  # noqa: E402
                       cycle_length, shapes, stream)

from flagflow import build_flag, build_root_system, cli  # noqa: E402
from flagflow import flow as flow_module  # noqa: E402


def respond(req: Request) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(req.argv()) == 0
    return out.getvalue()


REQUESTS = {
    "describe_borel": Request("describe", "B", 3),
    "describe_theta": Request("describe", "E", 6, (1, 3, 5)),
    "flow": Request("flow", "C", 3, (2,), kclass=(Fraction(3, 7), Fraction(5, 2)), samples=4),
    "flow_einstein": Request("flow", "A", 3, (), kclass=(Fraction(2, 3),) * 3),
    "invariants_borel": Request("invariants", "G", 2, divisor=(Fraction(3), Fraction(5)), lct_m=2),
    "invariants_theta": Request("invariants", "F", 4, (1, 3), divisor=(Fraction(3, 2), Fraction(5))),
}


def _set(path, value):
    def corrupt(res):
        node = res
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return corrupt


def _pop(path):
    def corrupt(res):
        node = res
        for key in path:
            node = node[key]
        node.pop()
    return corrupt


def _borel_n(res):
    res["n"] += 1
    res["comp_pos_roots"].append(res["comp_pos_roots"][0])


def _frac(scale):
    return lambda x: str(Fraction(x) * scale)


# (request, corruption of the result, name of the check that must reject it)
CORRUPTIONS = [
    ("describe_borel", _pop(["positive_roots"]), "describe.positive_roots"),
    ("describe_theta", _pop(["comp_pos_roots"]), "describe.comp_pos_roots_n"),
    ("describe_borel", _borel_n, "describe.borel_n"),
    ("describe_theta", _set(["fano", 0], lambda v: v + 1), "describe.fano"),
    ("flow", _set(["T"], _frac(2)), "flow.T"),
    ("flow", _pop(["samples"]), "flow.sample_count"),
    ("flow", _set(["einstein"], True), "flow.einstein_flag"),
    ("flow", _set(["samples", 1, "bounds", "within"], False), "flow.within"),
    ("flow", _set(["samples", 1, "R"], _frac(1000)), "flow.within"),
    ("flow", _set(["samples", 1, "bounds", "R_lower"], _frac(Fraction(1, 2))), "flow.R_bound_values"),
    ("flow_einstein", _set(["samples", 2, "R"], _frac(Fraction(999, 1000))), "flow.einstein_R"),
    ("flow_einstein", _set(["R_times_T_minus_t"], "7"), "flow.einstein_closure"),
    ("invariants_borel", _set(["tau"], _frac(2)), "invariants.tau"),
    ("invariants_borel", _set(["T"], _frac(2)), "invariants.T_tau"),
    ("invariants_theta", _set(["C"], _frac(2)), "invariants.C"),
    ("invariants_borel", _set(["dimV"], 1), "invariants.dimV"),
    ("invariants_borel", _set(["dimV"], "7"), "invariants.dimV"),
    ("invariants_theta", _set(["dimV"], 12), "invariants.dimV_null"),
    ("invariants_borel", _set(["lct", "bound"], _frac(2)), "invariants.lct"),
    ("invariants_borel", _set(["lct", "klt"], lambda v: not v), "invariants.lct"),
]

CHECK_RESULT = {"instances": 244, "exact_ok": True, "fd_ok": True, "wall_time_s": 3.1}


@pytest.fixture(scope="module")
def responses():
    return {key: respond(req) for key, req in REQUESTS.items()}


def test_untouched_responses_pass(responses):
    checker = Checker()
    for key, req in REQUESTS.items():
        checker.verify(req, 0, responses[key])


@pytest.mark.parametrize("key, corrupt, name", CORRUPTIONS)
def test_corrupted_response_is_rejected(responses, key, corrupt, name):
    doc = json.loads(responses[key])
    bad = copy.deepcopy(doc)
    corrupt(bad["result"])
    assert bad != doc
    with pytest.raises(CheckFailed, match=f"^{name}:"):
        Checker().verify(REQUESTS[key], 0, json.dumps(bad))


def test_every_check_has_a_corruption_test(responses):
    checker = Checker()
    for key, req in REQUESTS.items():
        checker.verify(req, 0, responses[key])
    checker.verify(Request("check", seed=0), 0, json.dumps({"result": CHECK_RESULT}))
    covered = {name for _, _, name in CORRUPTIONS}
    covered |= {"exit_code", "check.exact_ok", "check.instances_stable"}
    assert set(checker.exercised) == covered


def test_exit_code_and_unparsable_output_rejected(responses):
    req = REQUESTS["describe_borel"]
    with pytest.raises(CheckFailed, match="^exit_code:"):
        Checker().verify(req, 4, responses["describe_borel"])
    with pytest.raises(CheckFailed, match="unparsable JSON"):
        Checker().verify(req, 0, responses["describe_borel"][:-20])
    with pytest.raises(CheckFailed, match="malformed"):
        Checker().verify(req, 0, json.dumps({"result": {}}))


def test_check_responses_rejected():
    req = Request("check", seed=1)
    with pytest.raises(CheckFailed, match="^check.exact_ok:"):
        Checker().verify(req, 0, json.dumps({"result": {**CHECK_RESULT, "exact_ok": False}}))
    checker = Checker()
    checker.verify(req, 0, json.dumps({"result": CHECK_RESULT}))
    with pytest.raises(CheckFailed, match="^check.instances_stable:"):
        checker.verify(req, 0, json.dumps({"result": {**CHECK_RESULT, "instances": 243}}))


@pytest.mark.parametrize("family, rank, theta",
                         shapes(SMALL_TYPES + LARGE_TYPES) + [("E", 7, (2, 4)), ("B", 5, (1, 2))])
def test_independent_tables_agree_with_flagflow(family, rank, theta):
    rs = build_root_system(family, rank)
    assert positive_root_count(family, rank) == len(rs.positive_roots)
    assert fano(family, rank, theta) == build_flag(rs, theta).fano


class ManualClock:
    """A clock that moves only when a test moves it."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_trace():
    # cli.main [0,10] > bounds_report [1,4] > volume [2,3]; weyl_dim [5,6]; make_flow [7,9]
    clock = ManualClock()
    tracer = Tracer(clock=clock)

    def open_at(t, name):
        clock.now = t
        return tracer.open(name, name.split(".")[0])

    def close_at(t, span):
        clock.now = t
        tracer.close(span)

    root = open_at(0, "cli.main")
    outer = open_at(1, "flow.bounds_report")
    close_at(3, open_at(2, "flow.volume"))
    close_at(4, outer)
    close_at(6, open_at(5, "dimcount.weyl_dim"))
    close_at(9, open_at(7, "flow.make_flow"))
    close_at(10, root)

    assert [s.self_s for s in tracer.spans] == [4, 2, 1, 1, 2]
    sums = summarize(tracer.spans)
    assert sums["cli.self_s"] == 10 - (3 + 1 + 2)
    assert sums["cli.main.busy_s"] == 10
    assert sums["flow.busy_s"] == 3 + 2       # volume is inside bounds_report
    assert sums["flow.self_s"] == 2 + 1 + 2
    assert sums["flow.volume.calls"] == 1
    assert sum(s.self_s for s in tracer.spans) == 10


def test_tracer_bookkeeping_is_left_out_of_self_times():
    clock = ManualClock()
    tracer = Tracer(clock=clock)

    def work(seconds):
        clock.now += seconds

    def slow_observe(*observed):  # as when counting the bits of a wide flow
        work(100)

    tracer._observe = slow_observe
    timed = tracer.wrap("flow", "volume", work)
    root = tracer.open("cli.main", "cli")
    timed(2)
    work(1)
    timed(3)
    tracer.close(root)

    assert [s.duration for s in tracer.spans] == [6, 2, 3]
    assert [s.self_s for s in tracer.spans] == [1, 2, 3]
    assert tracer.hidden_s == 200


def test_wrappers_record_real_calls_and_are_removed():
    original = flow_module.bounds_report
    tracer = Tracer()
    with tracer.installed():
        assert flow_module.bounds_report is not original
        root = tracer.open("cli.main", "cli")
        respond(REQUESTS["flow"])
        tracer.close(root)
    assert flow_module.bounds_report is original
    assert cli.bounds_report is original
    sums = summarize(tracer.spans)
    assert sums["flow.bounds_report.calls"] == 4
    assert sums["rootsys.build_root_system.calls"] == 1
    assert all(s.self_s >= 0 for s in tracer.spans)
    assert sum(s.self_s for s in tracer.spans) == pytest.approx(root.duration)


def test_streams_are_seeded_and_cycles_cover_every_shape():
    for workload in WORKLOADS:
        first = [r.argv() for r in itertools.islice(stream(workload, 5), 2 * cycle_length(workload))]
        again = [r.argv() for r in itertools.islice(stream(workload, 5), 2 * cycle_length(workload))]
        other = [r.argv() for r in itertools.islice(stream(workload, 6), 2 * cycle_length(workload))]
        assert first == again and first != other
    small = list(itertools.islice(stream("cli-small", 5), cycle_length("cli-small")))
    assert {(r.family, r.rank, r.theta) for r in small} == set(shapes(SMALL_TYPES))
    assert all(r.command != "check" for r in small)
    large = list(itertools.islice(stream("cli-large", 5), 2 * cycle_length("cli-large")))
    assert {(r.family, r.rank, r.theta) for r in large if r.command != "check"} == set(
        shapes(LARGE_TYPES))
    checks = [i for i, r in enumerate(large) if r.command == "check"]
    assert checks == [cycle_length("cli-large") - 1, 2 * cycle_length("cli-large") - 1]
    assert large[checks[0]].seed != large[checks[1]].seed


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
