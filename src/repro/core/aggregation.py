"""Materialized candidate tables for push-based estimate aggregation.

The pull path (§2.1 of the paper) walks the whole MA→LA→SeD tree per
request: O(tree) messages and simulated events for every ``submit``.  This
module is the core of the inverted flow: every agent keeps, per service, a
**materialized table** of candidate rows fed by :class:`EstimateDelta`
messages pushed up from its children, incrementally re-ranked on arrival.
The Master Agent then answers ``submit`` straight from its table — routing
cost does not depend on hierarchy size.

Three invariants:

* **Last-writer-wins per row.**  Every row carries the monotone ``seq``
  stamped by the originating SeD; an update or removal older than the
  stored row is discarded, so late wire arrivals and pre-crash leftovers
  can never resurrect stale state.
* **Only changes travel.**  :meth:`AggregationTable.export_diff` compares
  the rows touched since the last export against the exported view and
  produces the minimal update/removal lists for the parent — a delta
  cascade, not a table dump.
* **Provenance-based invalidation.**  Rows remember the immediate child
  (``via``) they arrived through; when liveness deregisters a child (a dead
  SeD at a leaf LA, a dead LA at the MA) :meth:`drop_via` invalidates that
  child's whole contribution in one sweep and the removals propagate
  upward through the same diff machinery.

Tables are keyed by the service description's match key, the rule
pull mode's :meth:`~repro.core.profile.ServiceTable.can_solve` applies.
Rows are kept in a stateless order (queue length, then speed, then name);
the stateful ranking — in-flight dispatch counts, history, data locality —
stays at the MA, applied by the scheduler policy over the table rows at
admission time.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import attrgetter
from typing import Dict, Hashable, List, Tuple

from .requests import EstimateDelta
from .scheduling import EST_NBJOBS, EST_SPEED, EstimationVector

__all__ = ["CandidateRow", "DeltaOutcome", "CandidateTable", "AggregationTable",
           "rank_key"]


def rank_key(vector: EstimationVector, sed_name: str) -> Tuple:
    """Stateless table order: fewest queued jobs, fastest host, name."""
    values = vector.values
    return (values.get(EST_NBJOBS, 0.0), -values.get(EST_SPEED, 0.0), sed_name)


class CandidateRow:
    """One materialized candidate: a SeD's latest estimate and rank key."""

    __slots__ = ("sed_name", "vector", "host", "via", "seq", "key")

    def __init__(self, sed_name: str, vector: EstimationVector, host: str,
                 via: str, seq: int):
        self.sed_name = sed_name
        self.vector = vector
        self.host = host
        self.via = via
        self.seq = seq
        self.key = rank_key(vector, sed_name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CandidateRow({self.sed_name} via {self.via} "
                f"seq={self.seq}: {self.vector})")


class DeltaOutcome:
    """What one :meth:`AggregationTable.apply_delta` call actually did.

    Truthy when any row changed (the cascade condition interior agents
    react to); ``gained`` names the services that received an applied
    *update* row — the only changes that can turn an empty candidate set
    non-empty, which is what the MA's parked-submit rescue must key on.
    Pure removals leave ``gained`` empty: they can only shrink tables, so
    re-examining candidate-less submits for them is wasted admission work.
    """

    __slots__ = ("changed", "gained")

    def __init__(self, changed: bool, gained: frozenset):
        self.changed = changed
        self.gained = gained

    def __bool__(self) -> bool:
        return self.changed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeltaOutcome(changed={self.changed}, gained={set(self.gained)})"


class CandidateTable:
    """The candidate table of one service, kept sorted incrementally.

    ``_order`` is a list of rank keys maintained with bisect on every
    update/removal — O(log n) to locate, O(n) list shift — so reading the
    rows never re-sorts and two tables fed the same deltas in the same
    order are identical element for element (determinism relies on this).
    ``touched`` names the rows updated or removed since the last
    :meth:`AggregationTable.export_diff` (the MA never exports it).
    """

    __slots__ = ("service", "rows", "_order", "touched")

    def __init__(self, service: Hashable):
        self.service = service
        #: sed_name -> CandidateRow
        self.rows: Dict[str, CandidateRow] = {}
        #: rank keys of every row, sorted ascending (best first).
        self._order: List[Tuple] = []
        self.touched: Dict[str, None] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def update(self, sed_name: str, vector: EstimationVector, host: str,
               via: str, seq: int) -> bool:
        """Insert or refresh a row; False if ``seq`` is stale."""
        row = self.rows.get(sed_name)
        if row is not None and seq <= row.seq:
            return False
        if row is None:
            row = self.rows[sed_name] = CandidateRow(sed_name, vector, host,
                                                     via, seq)
        else:
            # Keys end with the unique sed_name: bisect finds this row's.
            del self._order[bisect_left(self._order, row.key)]
            row.vector, row.host, row.via, row.seq = vector, host, via, seq
            row.key = rank_key(vector, sed_name)
        insort(self._order, row.key)
        self.touched[sed_name] = None
        return True

    def remove(self, sed_name: str) -> bool:
        row = self.rows.pop(sed_name, None)
        if row is None:
            return False
        del self._order[bisect_left(self._order, row.key)]
        self.touched[sed_name] = None
        return True

    def top(self) -> List[CandidateRow]:
        """Every row, best first."""
        return [self.rows[key[-1]] for key in self._order]


class AggregationTable:
    """All of one agent's service tables plus the export-diff state.

    An agent exposes every candidate it knows upward, and the MA's policy
    ranks them all.
    """

    def __init__(self):
        self.services: Dict[Hashable, CandidateTable] = {}
        #: Last exported view: service -> sed_name -> seq.
        self._exported: Dict[Hashable, Dict[str, int]] = {}
        #: Monotone counters for observability / tests.
        self.deltas_applied = 0
        self.rows_invalidated = 0

    # -- ingest -----------------------------------------------------------------

    def apply_delta(self, delta: EstimateDelta) -> DeltaOutcome:
        """Fold one child delta in.

        Returns a :class:`DeltaOutcome`: truthy if any row actually
        changed, with ``gained`` naming the services whose update rows
        applied (stale-seq updates and pure removals gain nothing).
        """
        changed = False
        gained = set()
        for service, vector, host, seq in delta.updates:
            tbl = self.services.get(service)
            if tbl is None:
                tbl = self.services[service] = CandidateTable(service)
            if tbl.update(vector.sed_name, vector, host, delta.source, seq):
                changed = True
                gained.add(service)
        for service, sed_name in delta.removals:
            tbl = self.services.get(service)
            if tbl is not None and tbl.remove(sed_name):
                changed = True
        if changed:
            self.deltas_applied += 1
        return DeltaOutcome(changed, frozenset(gained))

    def drop_via(self, child: str) -> bool:
        """Invalidate every row that arrived through ``child``.

        Called when liveness deregisters a child: a dead SeD's rows at its
        leaf LA, a dead LA's whole subtree contribution at the MA.
        """
        changed = False
        for tbl in self.services.values():
            doomed = [name for name, row in tbl.rows.items()
                      if row.via == child]
            for name in doomed:
                tbl.remove(name)
                self.rows_invalidated += 1
                changed = True
        return changed

    # -- reads ------------------------------------------------------------------

    def candidates(self, service: Hashable) -> List[CandidateRow]:
        """The ranked rows of ``service`` (empty when unknown)."""
        tbl = self.services.get(service)
        return tbl.top() if tbl is not None else []

    # -- upward propagation -------------------------------------------------------

    def export_diff(self) -> Tuple[List[Tuple], List[Tuple]]:
        """Changes of the table since the last export.

        Returns ``(updates, removals)`` in :class:`EstimateDelta` row
        format and records the new view as exported.  Only rows touched
        since the last export are visited, and only those whose seq moved
        travel: service by service, best first (:meth:`candidates` order).
        """
        updates: List[Tuple] = []
        removals: List[Tuple] = []
        for service, tbl in self.services.items():
            if not tbl.touched:
                continue
            exported = self._exported.setdefault(service, {})
            fresh = []
            for sed_name in tbl.touched:
                row = tbl.rows.get(sed_name)
                if row is None:
                    if exported.pop(sed_name, None) is not None:
                        removals.append((service, sed_name))
                elif exported.get(sed_name) != row.seq:
                    exported[sed_name] = row.seq
                    fresh.append(row)
            tbl.touched.clear()
            updates += [(service, row.vector, row.host, row.seq)
                        for row in sorted(fresh, key=attrgetter("key"))]
        return updates, removals
