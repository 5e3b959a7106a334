"""Survey DAGs of DIET requests and their client-side executor.

A :class:`SurveyDAG` is an insertion-ordered set of nodes, each naming a
DIET service and a *profile builder* — a callable that constructs a fresh
call profile from the results of the node's dependencies.  Building the
profile per attempt (instead of once) is what makes retries correct: when
an upstream result died with its SeD and had to be recomputed, the next
attempt reads the *new* handles.

:class:`DagExecutor` runs the DAG through an initialized
:class:`~repro.core.client.DietClient` (one MA or an ordered list of them)
— ``call(profile, handle)`` returns the status and fills the handle with
the chosen SeD and the instant it was found:

* ready nodes are submitted in insertion order with a bounded in-flight
  width (``max_in_flight``) — the client-side DAG engine the follow-up
  paper's many-campaign workload needs;
* dead-letter retry: ``ServerNotFoundError`` / ``CommunicationError``
  (crashed SeD, deregistered hierarchy) back off and resubmit up to
  ``max_attempts`` times;
* dependency-aware resubmission: a failed solve whose inputs are
  PERSISTENT :class:`~repro.core.data.DataHandle`\\ s re-runs the
  producing upstream nodes first (their server-side data died with the
  SeD), then retries — the DAG analogue of the client falling back from
  a stale memo hit;
* every node execution opens an obs span on the ``dag:<name>`` track
  (category ``dag-node``) when observability is enabled, and per-stage
  durations accumulate for P50/P99 reporting.

Everything is deterministic: node launch order, retry order and the
``any_of`` wake-ups are all pinned by insertion order and simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..core.client import DietClient, FunctionHandle
from ..core.data import DataHandle, Direction
from ..core.exceptions import CommunicationError, DietError, ServerNotFoundError
from ..core.profile import Profile

__all__ = [
    "DagError",
    "DagExecutor",
    "DagNode",
    "DagNodeFailed",
    "DagStats",
    "NodeResult",
    "SurveyDAG",
]


class DagError(DietError):
    """Malformed DAG: duplicate node, unknown dependency, bad width."""


class DagNodeFailed(DietError):
    """A node exhausted its attempts (dead-lettered) or failed for good."""

    def __init__(self, node_id: str, reason: str):
        super().__init__(f"DAG node {node_id!r} failed: {reason}")
        self.node_id = node_id
        self.reason = reason


#: Builds one attempt's profile from the dependency results so far.
ProfileBuilder = Callable[[Mapping[str, "NodeResult"]], Profile]


@dataclass
class DagNode:
    """One DIET request in the DAG."""

    node_id: str
    service: str
    builder: ProfileBuilder
    deps: Tuple[str, ...] = ()
    #: Reporting stage (P50/P99 buckets); defaults to the service name.
    stage: str = ""
    #: Cosmology-point label, for spans and batch bookkeeping.
    point: str = ""


@dataclass
class NodeResult:
    """What one node's accepted execution produced."""

    node_id: str
    status: int
    sed_name: str
    attempts: int
    started: float
    found_at: float
    finished: float
    #: OUT/INOUT argument index -> produced value (FileRef, DataHandle, int).
    outputs: Dict[int, Any] = field(default_factory=dict)

    def output(self, index: int) -> Any:
        return self.outputs[index]

    @property
    def duration(self) -> float:
        return self.finished - self.started


@dataclass
class DagStats:
    """Executor-level accounting (plain ints, picklable)."""

    nodes: int = 0
    #: Node executions launched, including retries and upstream refreshes.
    launched: int = 0
    completed: int = 0
    #: Dead-letter resubmissions after ServerNotFound/Communication errors.
    retries: int = 0
    #: Submits that dead-lettered (each may or may not have been retried).
    dead_letters: int = 0
    #: Upstream re-runs forced by handle-valued inputs lost to a crash.
    dep_refreshes: int = 0


class SurveyDAG:
    """An insertion-ordered DAG of DIET requests.

    Nodes must be added parents-first (a dependency has to exist already)
    — which makes cycles unrepresentable and the insertion order a
    topological order.
    """

    def __init__(self, name: str = "survey"):
        self.name = name
        self.nodes: Dict[str, DagNode] = {}

    def add_node(
        self,
        node_id: str,
        service: str,
        builder: ProfileBuilder,
        deps: Tuple[str, ...] = (),
        stage: Optional[str] = None,
        point: str = "",
    ) -> str:
        if node_id in self.nodes:
            raise DagError(f"duplicate DAG node {node_id!r}")
        deps = tuple(deps)
        for dep in deps:
            if dep not in self.nodes:
                raise DagError(
                    f"node {node_id!r} depends on unknown node {dep!r} "
                    "(add dependencies first)"
                )
        self.nodes[node_id] = DagNode(
            node_id=node_id,
            service=service,
            builder=builder,
            deps=deps,
            stage=stage or service,
            point=point,
        )
        return node_id

    def node(self, node_id: str) -> DagNode:
        return self.nodes[node_id]

    def roots(self) -> List[str]:
        return [nid for nid, node in self.nodes.items() if not node.deps]

    def leaves(self) -> List[str]:
        consumed = {dep for node in self.nodes.values() for dep in node.deps}
        return [nid for nid in self.nodes if nid not in consumed]

    def children(self) -> Dict[str, List[str]]:
        """node id -> dependents, insertion-ordered on both levels."""
        out: Dict[str, List[str]] = {nid: [] for nid in self.nodes}
        for nid, node in self.nodes.items():
            for dep in node.deps:
                out[dep].append(nid)
        return out

    def stages(self) -> List[str]:
        seen: List[str] = []
        for node in self.nodes.values():
            if node.stage not in seen:
                seen.append(node.stage)
        return seen

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[DagNode]:
        return iter(self.nodes.values())

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.nodes


class DagExecutor:
    """Run a :class:`SurveyDAG` through a DIET client, bounded-width."""

    def __init__(
        self,
        client: DietClient,
        dag: SurveyDAG,
        max_in_flight: int = 4,
        max_attempts: int = 3,
        backoff: float = 0.5,
    ):
        if max_in_flight < 1:
            raise DagError("max_in_flight must be >= 1")
        if max_attempts < 1:
            raise DagError("max_attempts must be >= 1")
        self.client = client
        self.dag = dag
        self.engine = client.engine
        self.obs = client.tracer.obs
        self.max_in_flight = max_in_flight
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.results: Dict[str, NodeResult] = {}
        self.stats = DagStats(nodes=len(dag))
        #: stage name -> accepted execution durations (simulated seconds).
        self.stage_durations: Dict[str, List[float]] = {}

    # -- driving -----------------------------------------------------------

    def run(self) -> Generator[Any, Any, Dict[str, NodeResult]]:
        """Execute the whole DAG (``yield from`` inside a process)."""
        children = self.dag.children()
        waiting = {nid: len(node.deps) for nid, node in self.dag.nodes.items()}
        ready = [nid for nid, n in waiting.items() if n == 0]
        running: Dict[Any, str] = {}
        while ready or running:
            while ready and len(running) < self.max_in_flight:
                nid = ready.pop(0)
                proc = self.engine.process(
                    self._node_process(nid),
                    name=f"dag:{self.dag.name}:{nid}",
                )
                running[proc] = nid
            yield self.engine.any_of(list(running))
            for proc in [p for p in running if p.triggered]:
                nid = running.pop(proc)
                if not proc.ok:
                    raise proc.value
                for child in children[nid]:
                    waiting[child] -= 1
                    if waiting[child] == 0:
                        ready.append(child)
        return dict(self.results)

    def _node_process(self, nid: str) -> Generator[Any, Any, None]:
        node = self.dag.nodes[nid]
        result = yield from self._execute(node)
        self.results[nid] = result

    # -- one node ----------------------------------------------------------

    def _execute(self, node: DagNode) -> Generator[Any, Any, NodeResult]:
        attempts = 0
        refreshes = 0
        while True:
            attempts += 1
            self.stats.launched += 1
            profile = node.builder(self.results)
            started = self.engine.now
            span = None
            if self.obs.enabled:
                span = self.obs.spans.begin(
                    f"dag:{self.dag.name}",
                    node.node_id,
                    started,
                    category="dag-node",
                    service=node.service,
                    stage=node.stage,
                    point=node.point,
                    attempt=attempts,
                )
            handle = FunctionHandle(profile.path)
            try:
                status = yield from self.client.call(profile, handle)
            except (ServerNotFoundError, CommunicationError) as exc:
                if span is not None:
                    self.obs.spans.end(
                        span,
                        self.engine.now,
                        status="dead-letter",
                        error=type(exc).__name__,
                    )
                self.stats.dead_letters += 1
                if attempts >= self.max_attempts:
                    raise DagNodeFailed(
                        node.node_id, f"{type(exc).__name__} after {attempts} attempts"
                    ) from exc
                self.stats.retries += 1
                if self.backoff > 0:
                    yield self.engine.timeout(self.backoff * attempts)
                continue
            if status != 0:
                if span is not None:
                    self.obs.spans.end(
                        span, self.engine.now, status="failed", status_code=status
                    )
                stale = [dep for dep in node.deps if self._handle_outputs(dep)]
                if stale and refreshes < self.max_attempts:
                    # A handle-consuming solve failed: the likeliest cause
                    # is that a producer's SeD crashed and took the data
                    # (and any memo entry) with it.  Recompute those
                    # producers, then rebuild this node's profile against
                    # the fresh handles.
                    refreshes += 1
                    self.stats.dep_refreshes += len(stale)
                    for dep in stale:
                        yield from self._refresh(dep)
                    continue
                raise DagNodeFailed(node.node_id, f"solve status {status}")
            finished = self.engine.now
            outputs = {
                i: arg.value
                for i, arg in enumerate(profile.arguments)
                if arg.direction is not Direction.IN and arg.is_set
            }
            if span is not None:
                self.obs.spans.end(span, finished, status="ok", sed=handle.server)
            result = NodeResult(
                node_id=node.node_id,
                status=status,
                sed_name=handle.server,
                attempts=attempts,
                started=started,
                found_at=handle.found_at,
                finished=finished,
                outputs=outputs,
            )
            self.stage_durations.setdefault(node.stage, []).append(result.duration)
            self.stats.completed += 1
            return result

    def _handle_outputs(self, dep_id: str) -> bool:
        """Did ``dep_id`` hand its consumers server-side handles?"""
        result = self.results.get(dep_id)
        if result is None:
            return False
        return any(isinstance(v, DataHandle) for v in result.outputs.values())

    def _refresh(self, dep_id: str) -> Generator[Any, Any, None]:
        """Recompute one upstream node whose persistent data went stale."""
        result = yield from self._execute(self.dag.nodes[dep_id])
        self.results[dep_id] = result
