"""Tests of the benchmark's own arithmetic: span self times, report checks
and the machine-speed scale.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import types

import pytest

import jobs
import reference
import run
from reports import body_digest, max_residual, problems, work_units
from spans import Tracer, layer_times, rebind, time_under


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [["a", 0.0, 10.0, -1],
             ["b", 1.0, 4.0, 0],
             ["c", 2.0, 3.0, 1],
             ["d", 5.0, 7.0, 0]]
    times = layer_times(spans)
    assert times["a"] == [1, 10.0, 5.0]   # 10 - (3 + 2)
    assert times["b"] == [1, 3.0, 2.0]    # 3 - 1; c is not a's child
    assert times["c"] == [1, 1.0, 1.0]
    assert times["d"] == [1, 2.0, 2.0]


def test_self_time_of_recursive_and_repeated_spans():
    spans = [["e", 0.0, 4.0, -1],
             ["e", 1.0, 2.0, 0],
             ["e", 6.0, 7.5, -1]]
    calls, total, self_s = layer_times(spans)["e"]
    assert calls == 3
    assert total == pytest.approx(6.5)
    assert self_s == pytest.approx(3.0 + 1.0 + 1.5)


def test_time_under_filters_by_parent_name():
    spans = [["verify", 0.0, 10.0, -1],
             ["evaluate", 1.0, 4.0, 0],
             ["commutator", 4.0, 5.0, 0],
             ["other", 6.0, 9.0, -1],
             ["evaluate", 7.0, 8.0, 3]]
    assert time_under(spans, ("evaluate",), "verify") == 3.0
    assert time_under(spans, ("evaluate", "commutator"), "verify") == 4.0
    assert time_under(spans, ("evaluate",), "missing") == 0


def test_tracer_nests_spans_and_self_times_add_up():
    tracer = Tracer()

    def leaf(x):
        return sum(range(x))

    traced_leaf = tracer.wrap("leaf", leaf,
                              on_call=lambda args, kwargs: tracer.count("n", args[0]))

    def middle():
        return traced_leaf(1000) + traced_leaf(2000)

    top = tracer.wrap("top", tracer.wrap("middle", middle))
    assert top() == sum(range(1000)) + sum(range(2000))
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["top", "middle", "leaf", "leaf"]
    assert parents == [-1, 0, 1, 1]
    times = layer_times(tracer.spans)
    outer = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(row[2] for row in times.values()) == pytest.approx(outer, abs=1e-12)
    assert tracer.counts == {"n": 3000}


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    (name, start, end, parent), = tracer.spans
    assert end >= start and parent == -1
    tracer.wrap("after", lambda: None)()
    assert tracer.spans[1][3] == -1


def test_rebind_replaces_every_binding():
    def fn():
        return 1

    def new():
        return 2

    mods = [types.ModuleType("m1"), types.ModuleType("m2")]
    mods[0].fn = fn
    mods[1].alias = fn
    mods[1].keep = len
    rebind(mods, fn, new)
    assert mods[0].fn is new and mods[1].alias is new and mods[1].keep is len


# -- reports -------------------------------------------------------------------


def _verify_report(residual=1e-16, ok=True):
    return {"meta": {"timestamp": "2026-01-01T00:00:00Z", "version": "0.1.0"},
            "config": {"command": "verify-decomp", "seed": 7},
            "results": {"cases": [{"case": "cancellative", "max_residual": 2e-16,
                                   "pass": True, "trials": 5},
                                  {"case": "cancellative", "max_residual": residual,
                                   "pass": ok, "trials": 5}],
                        "max_residual": residual, "pass": ok}}


def test_clean_report_has_no_problems():
    report = _verify_report()
    assert problems(report) == []
    assert max_residual(report) == 2e-16
    assert work_units(report) == 10


def test_pass_false_is_a_problem():
    found = problems(_verify_report(ok=False))
    assert "results.cases[1].pass is False" in found
    assert "results.pass is False" in found


@pytest.mark.parametrize("residual", [1e-9, 3e-7, math.nan, math.inf])
def test_residual_at_or_above_limit_is_a_problem(residual):
    found = problems(_verify_report(residual=residual))
    assert any(p.startswith("results.cases[1].max_residual") for p in found)


def test_residual_just_below_limit_passes():
    assert problems(_verify_report(residual=9.99e-10)) == []


def test_any_field_ending_in_residual_is_checked():
    report = {"config": {"command": "selftest"},
              "results": {"roundtrip_residual": 2e-9, "pass": True}}
    assert problems(report) == ["results.roundtrip_residual = 2e-09"]


def test_digest_ignores_meta_only():
    a = _verify_report()
    b = json.loads(json.dumps(a))
    b["meta"]["timestamp"] = "2030-01-01T00:00:00Z"
    assert body_digest(a) == body_digest(b)
    b["results"]["cases"][0]["trials"] = 6
    assert body_digest(a) != body_digest(b)


def test_work_units_per_command():
    assert work_units({"config": {"command": "norm-study"},
                       "results": {"reports": [{"trials": 50}, {"trials": 50}]}}) == 100
    assert work_units({"config": {"command": "jn-check", "trials": 50},
                       "results": {}}) == 50
    assert work_units({"config": {"command": "mc-demo"},
                       "results": {"stats": {"samples": 10, "used": 9}}}) == 9


# -- jobs: a report with pass false, or a high residual, fails its job ----------


class _FakeCli:
    """Stands in for dyadlab.cli: writes a given report and returns a code."""

    def __init__(self, report, code=0):
        self.report, self.code = report, code

    def main(self, argv):
        out = argv[argv.index("--out") + 1]
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "verify-decomp.json"), "w") as fh:
            json.dump(self.report, fh)
        return self.code


def _one_pass(cli, tmp_path):
    job = jobs.run_job(cli, ["verify-decomp"], str(tmp_path / "job"))
    return {"jobs": [job]}


@pytest.mark.parametrize("report", [_verify_report(ok=False),
                                    _verify_report(residual=1e-9)])
def test_failing_report_counts_as_failed_job(report, tmp_path):
    failed = run.failures([_one_pass(_FakeCli(report), tmp_path)])
    assert len(failed) == 1 and failed[0]["problems"]


def test_clean_report_passes_and_counts_units(tmp_path):
    p = _one_pass(_FakeCli(_verify_report()), tmp_path)
    assert run.failures([p]) == []
    assert p["jobs"][0]["units"] == 10


def test_nonzero_exit_and_exception_fail_the_job(tmp_path):
    p = _one_pass(_FakeCli(_verify_report(), code=1), tmp_path)
    assert p["jobs"][0]["problems"] == ["exit code 1"]

    class Crashing:
        def main(self, argv):
            raise ValueError("k=8 exceeds available levels")

    p = _one_pass(Crashing(), tmp_path)
    assert p["jobs"][0]["problems"] == ["ValueError: k=8 exceeds available levels"]


def test_differing_report_bodies_fail_the_later_pass(tmp_path):
    first = _one_pass(_FakeCli(_verify_report()), tmp_path / "a")
    changed = _verify_report()
    changed["results"]["cases"][0]["max_residual"] = 3e-16
    second = _one_pass(_FakeCli(changed), tmp_path / "b")
    failed = run.failures([first, second])
    assert [f["pass"] for f in failed] == [1]
    assert failed[0]["problems"] == ["report bodies differ from pass 0"]


# -- machine-speed reference --------------------------------------------------


def test_at_nominal_divides_by_the_mean_surrounding_reference_time():
    # a machine running the reference in twice the nominal time is half as
    # fast at that moment, so the time at nominal speed is halved
    nominal = reference.REF_NOMINAL_S
    assert reference.at_nominal(4.0, [2 * nominal]) == pytest.approx(2.0)
    assert reference.at_nominal(4.0, [nominal, 3 * nominal]) == pytest.approx(2.0)


def test_each_job_is_set_against_the_references_around_and_during_it():
    nominal = reference.REF_NOMINAL_S
    p = {"job_s": [1.0, 3.0],
         "job_refs": [[nominal, nominal], [nominal, 3 * nominal, 2 * nominal]]}
    assert run.nominal_jobs(p) == pytest.approx([1.0, 1.5])


def test_reference_work_checks_its_result():
    assert reference.reference_s() > 0


def test_sampler_times_the_reference_during_a_block_and_restores_the_handler():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with reference.Sampler(0.01) as during:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
    assert during.refs and during.paused >= sum(during.refs)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with reference.Sampler(0) as idle:
        pass
    assert idle.refs == [] and idle.paused == 0.0
