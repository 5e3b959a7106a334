"""Scheduling: estimation vectors, aggregation, and plug-in schedulers.

DIET's scheduling pipeline (§2.1 and the plug-in scheduler design of
Chis et al. [2], which the paper cites as the fix for its non-optimal
makespan):

1. every SeD answers an *estimation request* with an **estimation vector**
   (standard tags filled by CoRI plus service-specific custom tags);
2. agents **aggregate** the responses coming from their subtree — i.e. sort
   them according to an aggregation policy;
3. the Master Agent picks the head of the sorted list.

The default DIET policy knows nothing about execution times of a service
never run before ("the best it can do is to share the total amount of
requests on the available SEDs"), which the experiment in §5 demonstrates:
100 simultaneous requests are split 9/9/.../10 over the 11 SeDs.  The MCT
plug-in implements what the paper proposes as future improvement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "EstimationVector",
    "SchedulingContext",
    "SchedulerPolicy",
    "DataLocalityPolicy",
    "DefaultPolicy",
    "RandomPolicy",
    "MinQueuePolicy",
    "MCTPolicy",
    "FastestNodePolicy",
    "POLICIES",
    "make_policy",
    # standard estimation tags
    "EST_TCOMP",
    "EST_NBJOBS",
    "EST_FREECPU",
    "EST_FREEMEM",
    "EST_SPEED",
    "EST_TIMESINCELASTSOLVE",
    "EST_COMMTIME",
]

# Standard estimation tags (mirroring DIET's EST_* constants).
EST_TCOMP = "EST_TCOMP"                       # predicted solve time (s); inf if unknown
EST_NBJOBS = "EST_NBJOBS"                     # jobs running + waiting at the SeD
EST_FREECPU = "EST_FREECPU"                   # fraction of CPU free [0, 1]
EST_FREEMEM = "EST_FREEMEM"                   # free memory (GiB)
EST_SPEED = "EST_SPEED"                       # normalized host speed
EST_TIMESINCELASTSOLVE = "EST_TIMESINCELASTSOLVE"
EST_COMMTIME = "EST_COMMTIME"                 # predicted client->SeD transfer (s)


@dataclass(slots=True)
class EstimationVector:
    """One SeD's answer to an estimation request.

    Slotted because it matters at scale: push-mode tables materialize one
    vector per (service, SeD) and the gather/aggregate hot path churns
    through them — at 10^4 SeDs the per-instance ``__dict__`` is measurable.
    """

    sed_name: str
    values: Dict[str, float] = field(default_factory=dict)

    def get(self, tag: str, default: float = float("inf")) -> float:
        return self.values.get(tag, default)

    def set(self, tag: str, value: float) -> None:
        self.values[tag] = float(value)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:.4g}" for k, v in sorted(self.values.items()))
        return f"EstimationVector({self.sed_name}: {inner})"


@dataclass
class SchedulingContext:
    """Master-Agent-side state available to a policy when sorting.

    ``dispatched`` counts requests already routed to each SeD during this
    session (including ones whose solve has not started yet — exactly the
    information the MA *does* have even for a service it knows nothing
    about).
    """

    now: float = 0.0
    #: Service whose request is currently being scheduled (set by the MA
    #: before each policy.choose call).
    service: str = ""
    dispatched: Dict[str, int] = field(default_factory=dict)
    completed: Dict[str, int] = field(default_factory=dict)
    #: Mean observed solve time per (service, SeD) — FAST-like history.
    #: Keyed per service: a short ramsesZoom1 run must not make a SeD look
    #: fast for ramsesZoom2 (that mistake measurably overloads it).
    history_mean: Dict[tuple, float] = field(default_factory=dict)
    _history_n: Dict[tuple, int] = field(default_factory=dict)
    #: Monotone counter used by round-robin tie-breaking.
    rr_counter: int = 0
    #: Bytes of the current request's persistent inputs resident per SeD
    #: (set by the MA from the submit request; the DTM location view).
    resident_bytes: Dict[str, int] = field(default_factory=dict)
    #: Estimated seconds each candidate SeD would spend pulling the
    #: request's non-resident persistent inputs (set by the MA from the
    #: replica catalog; empty for requests without persistent inputs).
    data_transfer_cost: Dict[str, float] = field(default_factory=dict)
    #: Predicted client->SeD transfer seconds per candidate for the request
    #: being scheduled.  Pull mode leaves this empty (CoRI stamps
    #: ``EST_COMMTIME`` into each fresh vector); push mode fills it at the
    #: MA, because pushed table rows predate the client and cannot carry a
    #: per-client comm time.  Only computed when ``policy.uses_commtime``.
    comm_time: Dict[str, float] = field(default_factory=dict)

    def note_dispatch(self, sed_name: str) -> None:
        self.dispatched[sed_name] = self.dispatched.get(sed_name, 0) + 1
        self.rr_counter += 1

    def note_completion(self, sed_name: str, duration: float,
                        service: str = "") -> None:
        self.completed[sed_name] = self.completed.get(sed_name, 0) + 1
        key = (service, sed_name)
        n = self._history_n.get(key, 0) + 1
        self._history_n[key] = n
        prev = self.history_mean.get(key, 0.0)
        self.history_mean[key] = prev + (duration - prev) / n

    def service_history(self, sed_name: str) -> Optional[float]:
        """Observed mean solve time of the current service on this SeD."""
        return self.history_mean.get((self.service, sed_name))

    def in_flight(self, sed_name: str) -> int:
        return (self.dispatched.get(sed_name, 0)
                - self.completed.get(sed_name, 0))

    def data_cost(self, sed_name: str) -> float:
        """Transfer seconds this SeD would pay for non-resident inputs."""
        return self.data_transfer_cost.get(sed_name, 0.0)

    def comm_cost(self, est: EstimationVector) -> float:
        """Predicted client->SeD transfer time for the current request.

        Prefers the per-request value the MA computed (push mode), falling
        back to the vector's own ``EST_COMMTIME`` (pull mode); unknown
        means free, matching the historical MCT behaviour.
        """
        comm = self.comm_time.get(est.sed_name)
        if comm is None:
            comm = est.get(EST_COMMTIME, 0.0)
        if comm == float("inf"):
            comm = 0.0
        return comm


class SchedulerPolicy:
    """Base class: orders candidate estimation vectors, best first.

    Policies are *stateless over the candidates they are given*: whether
    the vectors arrive fresh from a pull-mode gather or as materialized
    push-mode table rows, ranking combines the vectors with the MA-side
    :class:`SchedulingContext` (in-flight dispatch counts, history, data
    residency) — the context carries everything that must be per-request.
    """

    name = "base"
    #: True when the policy reads client->SeD comm time; lets push mode
    #: skip computing it per candidate for policies that ignore it.
    uses_commtime = False

    def sort(self, candidates: Sequence[EstimationVector],
             ctx: SchedulingContext) -> List[EstimationVector]:
        raise NotImplementedError

    def choose(self, candidates: Sequence[EstimationVector],
               ctx: SchedulingContext) -> Optional[EstimationVector]:
        ranked = self.sort(candidates, ctx)
        return ranked[0] if ranked else None


class DefaultPolicy(SchedulerPolicy):
    """DIET's observed default behaviour for an unknown service.

    With no execution-time knowledge the only fair criterion is the number
    of requests already handed to each SeD; ties break round-robin (stable
    rotation by the MA's dispatch counter).  For 100 simultaneous requests
    over 11 SeDs this produces the paper's 9/9/.../10 split (Figure 4).
    """

    name = "default"

    def sort(self, candidates, ctx):
        n = len(candidates)
        if n == 0:
            return []

        def key(item):
            idx, est = item
            load = ctx.dispatched.get(est.sed_name, 0)
            rotation = (idx - ctx.rr_counter) % n
            return (load, rotation, est.sed_name)

        return [est for _, est in
                sorted(enumerate(candidates), key=key)]


class RandomPolicy(SchedulerPolicy):
    """Uniform random choice (a DIET built-in aggregator)."""

    name = "random"

    def __init__(self, rng):
        self._rng = rng

    def sort(self, candidates, ctx):
        order = list(candidates)
        self._rng.shuffle(order)
        return order


class MinQueuePolicy(SchedulerPolicy):
    """Pick the SeD reporting the fewest queued+running jobs.

    Unlike :class:`DefaultPolicy` this trusts the *SeD-reported* queue
    length, which lags behind dispatch decisions for simultaneous requests
    (data takes time to reach the SeD) — tests show it degenerates towards
    the first SeDs when many requests arrive in one burst.
    """

    name = "min-queue"

    def sort(self, candidates, ctx):
        return sorted(candidates,
                      key=lambda e: (e.get(EST_NBJOBS) + ctx.in_flight(e.sed_name),
                                     e.sed_name))


class FastestNodePolicy(SchedulerPolicy):
    """Pick by raw node speed (ignores load) — a deliberately bad baseline."""

    name = "fastest"

    def sort(self, candidates, ctx):
        return sorted(candidates, key=lambda e: (-e.get(EST_SPEED, 0.0), e.sed_name))


class MCTPolicy(SchedulerPolicy):
    """Minimum-Completion-Time plug-in scheduler.

    Estimated completion on SeD *s* for the next request:

        (jobs in flight on s) * t(s) + t(s) + commtime(s)

    where ``t(s)`` is the observed mean solve time on *s* when history
    exists (FAST-like), else the SeD's own prediction ``EST_TCOMP`` (from a
    service-provided cost model), else ``1 / EST_SPEED`` as a last resort.
    This is the plug-in scheduler the paper says "a better makespan could
    be attained by writing" (§5.2, citing MGC'06).

    When a data grid is deployed the MA also prices each candidate's pull
    of non-resident persistent inputs (``ctx.data_cost``) — the DAGDA
    locality hook: completion estimates include the data movement the
    placement would cause.
    """

    name = "mct"
    uses_commtime = True

    def per_job_time(self, est: EstimationVector, ctx: SchedulingContext) -> float:
        hist = ctx.service_history(est.sed_name)
        if hist is not None:
            return hist
        tcomp = est.get(EST_TCOMP)
        if tcomp != float("inf"):
            return tcomp
        speed = est.get(EST_SPEED, 0.0)
        return 1.0 / speed if speed > 0 else float("inf")

    def sort(self, candidates, ctx):
        def completion(est: EstimationVector) -> float:
            t = self.per_job_time(est, ctx)
            backlog = max(ctx.in_flight(est.sed_name), est.get(EST_NBJOBS, 0.0))
            return ((backlog + 1.0) * t + ctx.comm_cost(est)
                    + ctx.data_cost(est.sed_name))

        return sorted(candidates, key=lambda e: (completion(e), e.sed_name))


class DataLocalityPolicy(SchedulerPolicy):
    """Prefer SeDs already holding the request's persistent input data.

    The DTM-aware aggregator: rank by resident bytes (more is better), then
    by load (in-flight jobs), then round-robin.  A job consuming a
    DIET_PERSISTENT result lands on the SeD that produced it whenever that
    SeD is not overloaded — the data never crosses the network at all
    (tests measure exactly that through the fabric byte counters).

    ``max_backlog`` caps how many queued jobs locality is allowed to buy:
    beyond it the policy degrades to load-based placement so one popular
    dataset cannot serialize the whole platform.
    """

    name = "data-locality"

    def __init__(self, max_backlog: int = 2):
        if max_backlog < 0:
            raise ValueError("max_backlog must be >= 0")
        self.max_backlog = max_backlog

    def sort(self, candidates, ctx):
        n = len(candidates)

        def key(item):
            idx, est = item
            resident = ctx.resident_bytes.get(est.sed_name, 0)
            backlog = ctx.in_flight(est.sed_name)
            # locality counts only while the owner is not overloaded
            effective = resident if backlog <= self.max_backlog else 0
            rotation = (idx - ctx.rr_counter) % max(n, 1)
            return (-effective, backlog, rotation, est.sed_name)

        return [est for _, est in sorted(enumerate(candidates), key=key)]


#: Registry of constructible policies (used by experiment configs).
POLICIES: Dict[str, Callable[..., SchedulerPolicy]] = {
    "default": DefaultPolicy,
    "random": RandomPolicy,
    "min-queue": MinQueuePolicy,
    "mct": MCTPolicy,
    "fastest": FastestNodePolicy,
    "data-locality": DataLocalityPolicy,
}


def make_policy(name: str, **kwargs) -> SchedulerPolicy:
    try:
        factory = POLICIES[name]
    except KeyError:
        raise KeyError(f"unknown policy {name!r}; known: {sorted(POLICIES)}") from None
    return factory(**kwargs)
