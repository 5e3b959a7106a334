"""Unit tests for the LogService-like tracer."""

import pytest

from repro.core import RequestTrace, Tracer


def trace(rid, sed, submit, found, data, start, end, done, service="svc"):
    t = RequestTrace(request_id=rid, service=service, submitted_at=submit,
                     found_at=found, sed_name=sed, data_sent_at=data,
                     solve_started_at=start, solve_ended_at=end,
                     completed_at=done, status=0)
    return t


class TestRequestTrace:
    def test_derived_metrics(self):
        t = trace(1, "sed", 0.0, 0.05, 0.05, 1.0, 11.0, 11.2)
        assert t.finding_time == pytest.approx(0.05)
        assert t.latency == pytest.approx(0.95)
        assert t.solve_duration == pytest.approx(10.0)
        assert t.total_time == pytest.approx(11.2)

    def test_partial_trace_yields_none(self):
        t = RequestTrace(request_id=1, service="svc", submitted_at=0.0)
        assert t.finding_time is None
        assert t.latency is None
        assert t.solve_duration is None


class TestTracer:
    def test_trace_is_idempotent_per_id(self):
        tracer = Tracer()
        a = tracer.trace(1, "svc")
        b = tracer.trace(1)
        assert a is b and b.service == "svc"

    def test_series_ordered_by_submission(self):
        tracer = Tracer()
        for rid, sub in [(1, 5.0), (2, 1.0), (3, 3.0)]:
            rec = tracer.trace(rid, "svc")
            rec.submitted_at = sub
            rec.found_at = sub + 0.1
        assert [t.request_id for t in tracer.all_traces()] == [2, 3, 1]

    def test_service_filter(self):
        tracer = Tracer()
        tracer.trace(1, "a").submitted_at = 0.0
        tracer.trace(2, "b").submitted_at = 0.0
        assert len(tracer.all_traces("a")) == 1

    def test_gantt_and_busy_time(self):
        tracer = Tracer()
        for rid, sed, (s, e) in [(1, "x", (0, 10)), (2, "x", (10, 15)),
                                 (3, "y", (0, 7))]:
            rec = tracer.trace(rid, "svc")
            rec.sed_name = sed
            rec.submitted_at = 0.0
            rec.solve_started_at = float(s)
            rec.solve_ended_at = float(e)
        gantt = tracer.gantt()
        assert [span[:2] for span in gantt["x"]] == [(0.0, 10.0), (10.0, 15.0)]
        busy = tracer.busy_time_per_sed()
        assert busy == {"x": 15.0, "y": 7.0}

    def test_requests_per_sed(self):
        tracer = Tracer()
        for rid, sed in [(1, "x"), (2, "x"), (3, "y")]:
            rec = tracer.trace(rid, "svc")
            rec.submitted_at = 0.0
            rec.sed_name = sed
        assert tracer.requests_per_sed() == {"x": 2, "y": 1}

    def test_makespan(self):
        tracer = Tracer()
        for rid, (sub, done) in [(1, (0.0, 10.0)), (2, (1.0, 25.0))]:
            rec = tracer.trace(rid, "svc")
            rec.submitted_at = sub
            rec.completed_at = done
        assert tracer.makespan() == 25.0

    def test_makespan_empty(self):
        assert Tracer().makespan() is None
