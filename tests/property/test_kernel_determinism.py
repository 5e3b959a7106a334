"""The optimized kernel must replay the recorded event streams exactly.

PR 3 rebuilt the kernel hot path (Timeout fast-path, inlined dispatch,
pre-bound interceptor chains, route precompute, buffered trace stamps).
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


def test_disabled_tracing_replays_identical_stream():
    """observe=False must replay the observe=True reference bit-for-bit:
    span/metrics recording is pure bookkeeping that schedules no events, so
    turning it off cannot change the total order either."""
    _check("campaign", observe=False)
