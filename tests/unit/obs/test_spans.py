"""Span store lifecycle: LIFO closes, unwinds, queries."""

import pickle

from repro.obs import SpanStore


def test_begin_end_basic():
    store = SpanStore()
    span = store.begin("req:1", "request", 1.0, category="request", request_id=1)
    assert span.open
    assert span.duration is None
    store.end(span, 3.5, sed="n1")
    assert span.ok
    assert span.duration == 2.5
    assert span.attrs["sed"] == "n1"
    assert store.open_count == 0


def test_self_time_subtracts_direct_children():
    store = SpanStore()
    outer = store.begin("t", "outer", 0.0)
    inner = store.begin("t", "inner", 1.0)
    assert inner.parent_id == outer.span_id
    store.end(inner, 3.0)
    store.end(outer, 10.0)
    assert inner.self_time == 2.0
    assert outer.child_time == 2.0
    assert outer.self_time == 8.0


def test_lifo_violation_force_closes_children_as_interrupted():
    store = SpanStore()
    outer = store.begin("t", "outer", 0.0)
    inner = store.begin("t", "inner", 1.0)
    store.end(outer, 5.0)
    assert inner.status == "interrupted"
    assert inner.end == 5.0
    assert outer.ok
    assert store.open_count == 0


def test_end_is_idempotent():
    store = SpanStore()
    span = store.begin("t", "phase", 0.0)
    store.end(span, 1.0)
    store.end(span, 9.0, status="error")
    assert span.ok
    assert span.end == 1.0


def test_unwind_closes_whole_track_only():
    store = SpanStore()
    a = store.begin("req:7", "request", 0.0)
    b = store.begin("req:7", "solve", 1.0)
    other = store.begin("sed:n1", "busy", 0.0)
    n = store.unwind("req:7", 2.0, "error")
    assert n == 2
    assert a.status == "error"
    assert b.status == "error"
    assert other.open


def test_close_all_marks_leftovers_lost():
    store = SpanStore()
    store.begin("a", "x", 0.0)
    store.begin("b", "y", 1.0)
    assert store.close_all(9.0) == 2
    assert all(s.status == "lost" for s in store.spans)
    assert store.open_count == 0


def test_open_span_finds_innermost_by_name():
    store = SpanStore()
    store.begin("req:1", "queue", 0.0)
    inner = store.begin("req:1", "queue", 1.0)
    assert store.open_span("req:1", "queue") is inner
    assert store.open_span("req:1", "nope") is None
    assert store.open_span("req:2", "queue") is None


def test_find_filters_by_name_status_and_attrs():
    store = SpanStore()
    a = store.begin("t", "solve", 0.0, category="solve", sed="n1")
    store.end(a, 1.0)
    b = store.begin("t", "solve", 2.0, category="solve", sed="n2")
    store.end(b, 3.0, "aborted")
    assert list(store.find(name="solve", status="ok")) == [a]
    assert list(store.find(sed="n2")) == [b]
    assert store.first(status="aborted") is b


def test_gantt_groups_by_attribute_and_masks_abnormal_ends():
    store = SpanStore()
    a = store.begin("r", "solve", 0.0, category="solve", sed="n1", request_id=2)
    store.end(a, 4.0)
    b = store.begin("r", "solve", 1.0, category="solve", sed="n1", request_id=3)
    store.end(b, 2.0, "aborted")
    chart = store.gantt(category="solve")
    assert chart == {"n1": [(0.0, 4.0, 2), (1.0, None, 3)]}


def test_marks_and_tracks():
    store = SpanStore()
    span = store.begin("sed:n1", "solve", 1.0)
    store.end(span, 2.0)
    store.mark("sed:n1", "crash", 5.0, reason="test")
    assert store.tracks() == ["sed:n1"]
    assert store.marks[0].attrs == {"reason": "test"}


def test_spans_pickle_across_process_boundaries():
    store = SpanStore()
    span = store.begin("t", "solve", 0.0, sed="n1")
    store.end(span, 1.0)
    clone = pickle.loads(pickle.dumps(store))
    assert clone.spans[0].attrs == {"sed": "n1"}
    assert clone.spans[0].duration == 1.0
    assert clone.open_count == 0
