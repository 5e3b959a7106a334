"""The optimized kernel must replay the recorded event streams exactly.

PR 3 rebuilt the kernel hot path (Timeout fast-path, inlined dispatch,
route precompute, buffered trace stamps).
None of that is allowed to change *what happens*: these tests re-run the
seeded 100-zoom campaign and the E11 degraded campaign with
:attr:`Engine.event_log` enabled and diff the full dispatch stream —
``(time, priority, seq, kind, name)`` per event — against references
recorded before the optimizations (see ``kernel_reference.py``).

A mismatch prints the first diverging record, which is usually enough to
identify the fast path that changed scheduling order.
"""

import json

import pytest

from . import kernel_reference as ref
from . import trace_reference


def _check(slug: str, **overrides) -> None:
    with open(ref.reference_path(slug)) as fh:
        expected = json.load(fh)
    workload = dict(ref.WORKLOADS[slug], **overrides)
    stream, final_time = ref.capture_stream(**workload)
    got = ref.digest(stream, final_time)
    # Simulated time first: these three were recorded from the kernel of
    # commit 55c4e31 and survive any legitimate change of the event count.
    assert got["final_time"] == expected["final_time"], (
        f"final simulated time changed: {got['final_time']} != "
        f"{expected['final_time']}")
    assert (got["n_instants"], got["instants_sha256"]) == (
        expected["n_instants"], expected["instants_sha256"]), (
        f"the set of dispatch instants changed: {got['n_instants']} instants "
        f"(reference {expected['n_instants']})")
    assert got["n_events"] == expected["n_events"], (
        f"event count changed: {got['n_events']} != {expected['n_events']}")
    if got["sha256"] != expected["sha256"]:
        # Locate the divergence for a useful failure message.
        for i, line in enumerate(expected["head"]):
            have = ref.record_line(stream[i]) if i < len(stream) else "<none>"
            assert have == line, f"stream diverges at event {i}: {have} != {line}"
        for i, line in enumerate(expected["tail"]):
            j = expected["n_events"] - len(expected["tail"]) + i
            have = ref.record_line(stream[j]) if j < len(stream) else "<none>"
            assert have == line, f"stream diverges at event {j}: {have} != {line}"
        pytest.fail("event stream digest changed (head/tail match: the "
                    "divergence is in the middle of the stream)")


def test_campaign_event_stream_is_bit_identical():
    """Seeded 100-zoom campaign: same total order as the recorded kernel."""
    _check("campaign")


def test_degraded_campaign_event_stream_is_bit_identical():
    """E11 (2 crashes): failure/recovery machinery replays exactly too."""
    _check("degraded")


def test_fast_dispatch_loop_schedules_the_logged_stream():
    """The logging loop pops and dispatches in Python (``Engine._dispatch``
    calling each waiter); the fast loop is ``_simcore.drain`` with
    ``c_resume`` / ``c_finish`` when the extension is loaded, ``_py_drain``
    otherwise.  Both must schedule the same events — fan-out joins counted
    down in place included — and reach the same campaign."""
    from repro.services import CampaignConfig, run_campaign
    from repro.sim.engine import Engine

    def campaign(log):
        Engine.default_event_log = log
        try:
            result = run_campaign(CampaignConfig(n_sub_simulations=100,
                                                 seed=2007))
        finally:
            Engine.default_event_log = None
        engine = result.deployment.engine
        return (engine.events_scheduled, engine.now, result.total_elapsed,
                result.part2_durations, result.statuses)

    log = []
    logged = campaign(log)
    assert campaign(None) == logged
    assert len(log) <= logged[0]


def test_disabled_tracing_replays_identical_stream():
    """observe=False must replay the observe=True reference bit-for-bit:
    span recording is pure bookkeeping that schedules no events, so
    turning it off cannot change the total order either."""
    _check("campaign", observe=False)


# -- what the runs say about their requests -----------------------------------
#
# The event stream above pins *when* anything happens; these pin the
# request-lifecycle records read off the same runs (see trace_reference.py):
# a stamp may move to another component, never to another instant.


@pytest.fixture(scope="module", params=sorted(trace_reference.RUNS))
def trace_run(request):
    """``(slug, tracer, span_store)`` of one reference run (run once)."""
    return (request.param, *trace_reference.RUNS[request.param]())


def test_request_records_and_span_export_match_reference(trace_run):
    """``Tracer.to_records()`` and the Chrome-trace export are byte-equal to
    the ones recorded from 884740d, where an endpoint interceptor took the
    client- and arrival-side stamps off the messages."""
    slug, tracer, store = trace_run
    with open(trace_reference.REFERENCE_PATH) as fh:
        expected = json.load(fh)[slug]
    assert trace_reference.digest(tracer, store) == expected


_LIFECYCLE = ("submitted_at", "found_at", "data_sent_at", "data_arrived_at",
              "init_started_at", "solve_started_at", "solve_ended_at",
              "completed_at")


def test_stamps_follow_the_lifecycle_and_no_span_leaks(trace_run):
    """Whatever path a request ended on: the stamps it did get are in
    lifecycle order, it has a status exactly when it completed, and the run
    closed every span itself (nothing left for the end-of-run sweep)."""
    _, tracer, store = trace_run
    traces = tracer.all_traces()
    assert traces
    for trace in traces:
        taken = [t for t in (getattr(trace, name) for name in _LIFECYCLE)
                 if t is not None]
        assert taken == sorted(taken), trace
        assert trace.submitted_at is not None, trace
        assert (trace.status is not None) == (trace.completed_at is not None)
    assert store.open_count == 0
    assert not list(store.find(status="lost"))


def test_solve_to_a_crashed_sed_takes_no_stamp():
    """A stamp is taken only for a message that was sent: the churn point
    holds requests whose submit was answered from a table that still named
    a SeD that had just crashed — found, then failed, and never "sent"."""
    tracer, store = trace_reference.load_push_memo_churn()
    tracks = {}
    for span in store.spans:
        if span.track.startswith("req:"):
            tracks.setdefault(span.track, {})[span.name] = span.status
    stranded = [track for track, spans in tracks.items()
                if spans["request"] == "error" and spans.get("finding") == "ok"
                and "transfer" not in spans]
    assert stranded
    for track in stranded:
        trace = tracer.trace(int(track[4:]))
        assert trace.found_at is not None and trace.sed_name
        assert trace.data_sent_at is None and trace.completed_at is None
