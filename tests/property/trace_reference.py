"""Reference request-lifecycle records for the determinism suite.

``kernel_reference.py`` pins *when anything happens*; this module pins
*what the run says about its requests*: the :class:`RequestTrace` table
(``Tracer.to_records()``) and the span export (``chrome_trace``) of five
small seeded runs that between them take every path a request can end on —
completed, rejected and redirected, resubmitted after a SeD crash, answered
from the memo, stale memo hit, solve addressed to a SeD that just died.

``python -m tests.property.trace_reference`` writes the sha256 of both
documents per run to ``tests/data/ref_traces.json``.  The committed values
were recorded from commit 884740d, where an interceptor on every endpoint
took the client- and arrival-side stamps from message shapes; they are the
contract for moving a stamp, not a snapshot of the current tree: re-record
ONLY for a change that means to alter a stamp, and say which in DESIGN.md.
The ``degraded`` entry was derived at commit 61ac162 with
``FailurePlan(checkpoint_interval_work=None)``: the degraded run that is
left once zoom2 writes no restart dumps.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from typing import Callable, Dict, Tuple

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data")
REFERENCE_PATH = os.path.join(DATA_DIR, "ref_traces.json")

#: E13 point with push routing, memo and churn: long enough for a submit to
#: be answered from a table that still names a SeD that has just crashed.
CHURN_POINT = dict(routing="push", offered=8.0, duration=20.0, n_clients=500,
                   n_grids=2, clusters_per_grid=2, churn=2, seed=2007,
                   observe=True, memo="on")


@contextmanager
def _captured_federation(module):
    """The experiment point functions return their span store but not their
    tracer: catch the federation they build."""
    built = []
    real = module.build_federation

    def build(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    module.build_federation = build
    try:
        yield built
    finally:
        module.build_federation = real


def _campaign(**kwargs) -> Tuple[object, object]:
    from repro.services import CampaignConfig, run_campaign

    result = run_campaign(CampaignConfig(seed=2007, **kwargs))
    return result.tracer, result.span_store()


def campaign():
    return _campaign(n_sub_simulations=20)


def degraded():
    from repro.services import FailurePlan

    return _campaign(failures=FailurePlan(n_crashes=2))


def _load_point(**kwargs):
    from repro.experiments import load_federation

    with _captured_federation(load_federation) as built:
        point = load_federation._run_point(**kwargs)
    return built[0].tracer, point.span_store


def load_pull():
    return _load_point(**dict(CHURN_POINT, routing="pull", duration=10.0,
                              churn=0, memo="off"))


def load_push_memo_churn():
    return _load_point(**CHURN_POINT)


def survey_arm():
    from repro.experiments import survey_campaign

    with _captured_federation(survey_campaign) as built:
        arm = survey_campaign._run_arm(
            "push", "default", "persistent", shape=(2, 2), resolution=32,
            n_planes=4, z_source=1.0, zooms=1, n_grids=2,
            clusters_per_grid=2, seed=2007, observe=True)
    return built[0].tracer, arm.span_store


#: slug -> zero-argument run returning ``(tracer, span_store)``.
RUNS: Dict[str, Callable[[], Tuple[object, object]]] = {
    "campaign": campaign,
    "degraded": degraded,
    "load_pull": load_pull,
    "load_push_memo_churn": load_push_memo_churn,
    "survey_arm": survey_arm,
}


def _sha(document) -> str:
    return hashlib.sha256(json.dumps(document).encode()).hexdigest()


def digest(tracer, span_store) -> dict:
    from repro.obs import chrome_trace

    records = tracer.to_records()
    return {"n_requests": len(records),
            "n_spans": len(span_store.spans),
            "records_sha256": _sha(records),
            "chrome_trace_sha256": _sha(chrome_trace(span_store))}


def main() -> None:
    os.makedirs(DATA_DIR, exist_ok=True)
    reference = {slug: digest(*run()) for slug, run in RUNS.items()}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    for slug, ref in reference.items():
        print(f"{slug}: {ref['n_requests']} requests, {ref['n_spans']} spans, "
              f"records={ref['records_sha256'][:16]}... "
              f"trace={ref['chrome_trace_sha256'][:16]}...")


if __name__ == "__main__":
    main()
