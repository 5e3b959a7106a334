"""Reference event streams for the kernel determinism suite.

The PR-3 kernel optimizations promise *bit-identical event orderings*:
every fast path (Timeout dispatch, route precompute, buffered trace
stamps) must replay exactly the total order of events the unoptimized
kernel executed.  The proof is a recorded trace:
``python -m tests.property.kernel_reference`` runs the seeded 100-zoom
campaign and the E11 degraded campaign with :attr:`Engine.event_log`
enabled and writes a digest of each stream (event count, final simulated
time, SHA-256 over every ``(time, priority, seq, kind, name)`` record,
plus head/tail samples for debugging) to ``tests/data/``.

The digest pins two things separately.  ``n_events`` / ``sha256`` /
``head`` / ``tail`` pin the stream itself and are re-recorded by a change
that removes events on purpose.  ``final_time`` / ``n_instants`` /
``instants_sha256`` pin *simulated time* — every distinct instant at which
anything was dispatched, in order — and no change to the kernel or the
message path may move them: an event cut is legitimate exactly when it
keeps these three.

``test_kernel_determinism.py`` re-runs the same workloads against the
current kernel and diffs the digests.  Regenerate the references ONLY
from a commit whose kernel behaviour is known-good — they are the
contract an optimization has to honour, not a snapshot of whatever the
tree currently does.

``ref_events_degraded.json`` was derived at commit 61ac162 with
``FailurePlan(checkpoint_interval_work=None)``: the degraded run that is
left once zoom2 writes no restart dumps.

The event-count fields of both files were re-recorded on top of 8c2ef63
when ``Host.execute`` and the NFS accesses stopped taking a semaphore (one
zero-delay request event fewer per compute charge and per NFS access):
``n_events`` 13 535 -> 13 030 (campaign) and 145 422 -> 144 911
(degraded), with ``final_time`` / ``n_instants`` / ``instants_sha256``
unchanged.  Recipe for such an event cut: run this module on the change,
then ``git diff tests/data/ref_events_*.json`` must touch only
``n_events``, ``sha256``, ``head`` and ``tail``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import List, Tuple

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data")

#: The two recorded workloads: (slug, campaign-config kwargs).
WORKLOADS = {
    "campaign": {"n_sub_simulations": 100, "seed": 2007},
    "degraded": {"n_sub_simulations": 100, "seed": 2007, "n_crashes": 2},
}


def capture_stream(n_sub_simulations: int, seed: int, n_crashes: int = 0,
                   observe: bool = True) -> Tuple[List[tuple], float]:
    """Run one campaign with event logging on; return (stream, final_time).

    Uses :attr:`Engine.default_event_log` because the workflow builds its
    own engine; the class attribute is restored on exit.  ``observe``
    toggles the span recording — the references are recorded with
    it on, and the suite asserts the stream is identical with it off
    (span recording is pure bookkeeping, never events).
    """
    from repro.services import CampaignConfig, FailurePlan, run_campaign
    from repro.sim.engine import Engine

    failures = FailurePlan(n_crashes=n_crashes) if n_crashes else None
    log: List[tuple] = []
    Engine.default_event_log = log
    try:
        run_campaign(CampaignConfig(n_sub_simulations=n_sub_simulations,
                                    seed=seed, failures=failures,
                                    observe=observe))
    finally:
        Engine.default_event_log = None
    final_time = log[-1][0] if log else 0.0
    return log, final_time


def record_line(rec: tuple) -> str:
    when, prio, seq, kind, name = rec
    return f"{when!r}|{prio}|{seq}|{kind}|{name or ''}"


def digest(stream: List[tuple], final_time: float) -> dict:
    sha = hashlib.sha256()
    instants = hashlib.sha256()
    n_instants = 0
    last = None
    for rec in stream:
        sha.update(record_line(rec).encode())
        sha.update(b"\n")
        if rec[0] != last:
            last = rec[0]
            n_instants += 1
            instants.update(repr(last).encode())
            instants.update(b"\n")
    return {
        "n_events": len(stream),
        "final_time": repr(final_time),
        "n_instants": n_instants,
        "instants_sha256": instants.hexdigest(),
        "sha256": sha.hexdigest(),
        "head": [record_line(r) for r in stream[:5]],
        "tail": [record_line(r) for r in stream[-5:]],
    }


def reference_path(slug: str) -> str:
    return os.path.join(DATA_DIR, f"ref_events_{slug}.json")


def main() -> None:
    os.makedirs(DATA_DIR, exist_ok=True)
    for slug, kwargs in WORKLOADS.items():
        stream, final_time = capture_stream(**kwargs)
        ref = digest(stream, final_time)
        with open(reference_path(slug), "w") as fh:
            json.dump(ref, fh, indent=1)
        print(f"{slug}: {ref['n_events']} events, "
              f"t_end={ref['final_time']}, sha256={ref['sha256'][:16]}...")


if __name__ == "__main__":
    main()
