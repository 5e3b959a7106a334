"""Observability wired through a real campaign.

The contract: the figures read the always-on request trace and every count
is a plain attribute of the component that decides it, so both are the
same with observability on or off; the request-track spans are an export
view whose bounds *are* the trace stamps; failure paths never leak open
spans; and span stores survive detach/pickle so parallel sweeps can
aggregate them.
"""

import dataclasses
import pickle

import pytest

from repro.__main__ import main
from repro.experiments.ablation_scheduler import (
    AblationResult,
    RoutingAblationResult,
)
from repro.experiments.data_locality import DataLocalityResult
from repro.experiments.degraded_campaign import DegradedResult, DegradedRun
from repro.experiments import load_federation
from repro.experiments.figure4 import Figure4Result
from repro.experiments.load_federation import LoadPoint, LoadResult
from repro.experiments.runner import collect_span_stores
from repro.experiments.survey_campaign import SurveyArm, SurveyResult
from repro.obs import NULL_OBS
from repro.services import CampaignConfig, FailurePlan, run_campaign


@pytest.fixture(scope="module")
def observed():
    return run_campaign(CampaignConfig(n_sub_simulations=8, observe=True))


@pytest.fixture(scope="module")
def blind():
    return run_campaign(CampaignConfig(n_sub_simulations=8, observe=False))


def test_figures_identical_with_and_without_spans(observed, blind):
    assert observed.finding_times() == blind.finding_times()
    assert observed.latencies() == blind.latencies()
    assert observed.requests_per_sed() == blind.requests_per_sed()
    assert observed.busy_time_per_sed() == blind.busy_time_per_sed()
    assert observed.gantt() == blind.gantt()
    assert list(observed.overhead_per_request) == list(blind.overhead_per_request)


def test_request_spans_are_a_view_of_the_trace_stamps(observed):
    """Every request's finding/queue/init/solve span starts and ends on the
    very floats its RequestTrace record carries."""
    store = observed.span_store()
    bounds = {
        (s.attrs["request_id"], s.name): (s.start, s.end)
        for s in store.spans
        if s.name in ("finding", "queue", "init", "solve")
    }
    traces = [observed.part1_trace] + observed.part2_traces
    assert len(traces) == 9 and len(bounds) == 4 * len(traces)
    for t in traces:
        rid = t.request_id
        assert bounds[rid, "finding"] == (t.submitted_at, t.found_at)
        assert bounds[rid, "queue"] == (t.data_arrived_at, t.init_started_at)
        assert bounds[rid, "init"] == (t.init_started_at, t.solve_started_at)
        assert bounds[rid, "solve"] == (t.solve_started_at, t.solve_ended_at)


def test_span_store_present_only_when_observing(observed, blind):
    assert observed.span_store() is not None
    assert blind.span_store() is None
    assert len(NULL_OBS.spans.spans) == 0


def test_healthy_campaign_leaves_no_open_or_abnormal_spans(observed):
    store = observed.span_store()
    assert store.open_count == 0
    assert all(s.status == "ok" for s in store.spans)


def test_request_spans_form_the_expected_hierarchy(observed):
    store = observed.span_store()
    requests = list(store.find(name="request"))
    assert len(requests) == 9  # part 1 + 8 zooms
    for name in ("finding", "transfer", "queue", "init", "solve"):
        spans = list(store.find(name=name, status="ok"))
        assert len(spans) == 9, name
    solves = list(store.find(name="solve", status="ok"))
    assert all("sed" in s.attrs and "cluster" in s.attrs for s in solves)


def test_always_on_counts_populated(blind):
    assert len(blind.finding_times()) == 9
    assert blind.net_bytes_total > 0


def _degraded(observe):
    return run_campaign(CampaignConfig(
        n_sub_simulations=30,
        observe=observe,
        failures=FailurePlan(n_crashes=2),
    ))


@pytest.fixture(scope="module")
def degraded():
    return _degraded(observe=True)


def test_crashes_abort_spans_without_leaking(degraded):
    result = degraded
    store = result.span_store()
    assert store.open_count == 0
    assert any(s.status != "ok" for s in store.spans)
    names = [m.name for m in store.marks]
    assert "crash" in names
    sed_names = {sed.name for sed in result.deployment.seds}
    crashes = [o for o in result.failure_report.outages if o.name in sed_names]
    assert len(crashes) >= 1


def test_counts_do_not_depend_on_observe(degraded):
    """One degraded campaign and one E13 push + memo + churn point, each
    with ``observe`` on and off: every count reads the same."""
    blind = _degraded(observe=False)
    assert blind.span_store() is None
    assert degraded.failure_report == blind.failure_report
    assert degraded.failure_report.resubmissions > 0
    assert degraded.data_report == blind.data_report
    assert degraded.net_bytes_total == blind.net_bytes_total > 0
    assert degraded.net_bytes_wan == blind.net_bytes_wan > 0
    assert degraded.requests_per_sed() == blind.requests_per_sed()

    def point(observe):
        (load_point,) = load_federation.run(
            loads=(8.0,), routings=("push",), duration=15.0, n_clients=500,
            churn=1, seed=17, memo="on", observe=observe).runs
        return load_point

    seen, unseen = point(True), point(False)
    assert seen.span_store and unseen.span_store is None
    assert seen == unseen  # span_store is compare=False
    assert seen.memo_hits > 0 and seen.rejected + seen.completed > 0


def test_detached_result_carries_spans_across_pickle(observed):
    detached = observed.detach()
    clone = pickle.loads(pickle.dumps(detached))
    stores = collect_span_stores([clone])
    assert len(stores) == 1
    assert len(stores[0].spans) == len(observed.span_store().spans)


def _blank(cls, **fields):
    """``cls`` with every required field zeroed: the walker reads shapes,
    not values."""
    missing = dataclasses.MISSING
    required = {
        f.name: 0
        for f in dataclasses.fields(cls)
        if f.default is missing and f.default_factory is missing
    }
    return cls(**{**required, **fields})


def _result_shapes(seen, other, blind):
    """Every experiment-result shape -> (result, span stores it carries)."""
    point = _blank(LoadPoint, span_store=seen.span_store())
    arms = [
        _blank(SurveyArm, span_store=seen.span_store()),
        _blank(SurveyArm, span_store=other.span_store()),
    ]
    locality = DataLocalityResult({"volatile": seen, "persistent": other})
    degraded_runs = [DegradedRun(1, other), DegradedRun(2, blind)]
    return {
        "none": (None, 0),
        "blind": (blind, 0),
        "bare": (seen, 1),
        "list": ([seen, blind, None], 1),
        "figure4": (Figure4Result(campaign=seen), 1),
        "ablation": (AblationResult({"default": seen, "mct": other, "x": blind}), 2),
        "routing": (RoutingAblationResult([6], {"pull@6": seen, "push@6": other}), 2),
        # ``baseline`` is the volatile arm again: counted once, not twice.
        "data-locality": (locality, 2),
        "degraded": (DegradedResult(seen, degraded_runs), 2),
        "load": (_blank(LoadResult, runs=[point, _blank(LoadPoint)]), 1),
        "survey": (_blank(SurveyResult, runs=arms), 2),
    }


SHAPES = (
    "none",
    "blind",
    "bare",
    "list",
    "figure4",
    "ablation",
    "routing",
    "data-locality",
    "degraded",
    "load",
    "survey",
)


@pytest.mark.parametrize("shape", SHAPES)
def test_collect_span_stores_walks_every_result_shape(shape, observed, blind):
    other = pickle.loads(pickle.dumps(observed.detach()))
    shapes = _result_shapes(observed, other, blind)
    assert set(shapes) == set(SHAPES)
    result, expected = shapes[shape]
    stores = collect_span_stores(result)
    assert len(stores) == expected
    assert all(store.spans for store in stores)
    if expected:
        assert stores[0] is observed.span_store()


def test_cli_trace_gantt_profile_outputs(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    gantt = tmp_path / "gantt.svg"
    argv = ["campaign", "--n-sub", "4", "--trace", str(trace), "--profile"]
    argv += ["--gantt-svg", str(gantt)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "profile: campaign" in out
    assert "trace:" in out
    assert trace.exists()
    assert gantt.read_text().startswith("<svg")
