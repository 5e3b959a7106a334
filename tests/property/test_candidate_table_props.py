"""Push-mode candidate tables against brute-force oracles.

Three properties of :mod:`repro.core.aggregation`:

* **Convergence.**  Per-origin-sequenced update deltas delivered in any
  order, duplicated or lost, followed by a resend of every SeD's final
  rows, leave a leaf agent's table — and the table of the agent above it,
  fed the leaf's exports — equal to the table recomputed from the final
  SeD states.
* **Incremental export == full-view export.**  Over arbitrary sequences of
  updates, stale updates, removals, provenance drops and exports,
  :meth:`AggregationTable.export_diff` (which visits only touched rows)
  returns the same updates in the same order, and the same set of
  removals, as rebuilding the whole view and diffing it against the last
  export (the previous implementation, kept here as the oracle).
* **Minimal export.**  Every exported update names a row the parent does
  not hold at that seq, every removal a row it holds, none twice; applied
  to a mirror of the parent they reproduce the table exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.aggregation import AggregationTable, rank_key
from repro.core.requests import EstimateDelta
from repro.core.scheduling import EstimationVector

_SEDS = ("S0", "S1", "S2", "S3", "S4")
_SERVICES = ("svcA", "svcB")
_CHILDREN = ("LA0", "LA1")


def _vec(sed, n_jobs, speed):
    return EstimationVector(sed, f"{sed}-host", n_jobs, float(speed),
                            float("inf"))


def _view(agg):
    """service -> ranked [(sed, seq, vector)] of every non-empty table."""
    return {service: [(r.sed_name, r.seq, r.vector)
                      for r in agg.candidates(service)]
            for service in agg.services if agg.candidates(service)}


def _full_view_diff(agg, exported):
    """The full-view export: rebuild the whole view, diff it against
    ``exported`` ((service, sed) -> seq) and record it as exported."""
    view = {}
    for service in agg.services:
        for row in agg.candidates(service):
            view[(service, row.sed_name)] = row
    updates = [(service, row.vector, row.seq)
               for (service, _sed), row in view.items()
               if exported.get((service, row.sed_name)) != row.seq]
    removals = [key for key in exported if key not in view]
    exported.clear()
    exported.update({key: row.seq for key, row in view.items()})
    return updates, removals


# -- convergence under adversarial delivery ------------------------------------------

_state = st.tuples(st.integers(0, 3), st.sampled_from((1.0, 2.0)))


@st.composite
def _histories(draw):
    """Per SeD, a run of pushes; each push refreshes some services."""
    pushes = []
    for sed in _SEDS[:draw(st.integers(1, len(_SEDS)))]:
        seq = 0
        for _ in range(draw(st.integers(1, 4))):
            services = draw(st.lists(st.sampled_from(_SERVICES), min_size=1,
                                     max_size=2, unique=True))
            rows = []
            for service in services:
                seq += 1
                n_jobs, speed = draw(_state)
                rows.append((service, _vec(sed, n_jobs, speed), seq))
            pushes.append(EstimateDelta(sed, rows))
    return pushes


def _final_rows(pushes):
    """(service, sed) -> the highest-seq row any push carried."""
    final = {}
    for delta in pushes:
        for row in delta.updates:
            key = (row[0], row[1].sed_name)
            if key not in final or row[2] > final[key][2]:
                final[key] = row
    return final


def _oracle(final):
    tables = {}
    for (service, sed), (_, vector, seq) in final.items():
        tables.setdefault(service, []).append(
            (rank_key(vector, sed), (sed, seq, vector)))
    return {service: [entry for _, entry in sorted(rows)]
            for service, rows in tables.items()}


@settings(max_examples=200, deadline=None)
@given(pushes=_histories(), data=st.data())
def test_any_delivery_then_resend_converges(pushes, data):
    """Permuted, duplicated and lost deltas, then one resend of each SeD's
    final rows: the leaf table and its parent equal the recomputed table."""
    # Any multiset of deliveries: each push 0..2 times, in any order.
    schedule = [delta for delta in pushes
                for _ in range(data.draw(st.integers(0, 2)))]
    schedule = data.draw(st.permutations(schedule))
    final = _final_rows(pushes)
    resend = {}
    for (service, sed), row in final.items():
        resend.setdefault(sed, []).append(row)
    schedule += [EstimateDelta(sed, rows) for sed, rows in resend.items()]

    leaf, parent = AggregationTable(), AggregationTable()
    for delta in schedule:
        leaf.apply_delta(delta)
        if data.draw(st.booleans()):
            parent.apply_delta(EstimateDelta("LA0", *leaf.export_diff()))
    parent.apply_delta(EstimateDelta("LA0", *leaf.export_diff()))

    expected = _oracle(final)
    assert _view(leaf) == expected
    assert _view(parent) == expected
    assert leaf.export_diff() == ([], [])


# -- incremental export against the full-view oracle -----------------------------------

class CandidateTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.agg = AggregationTable()
        #: The oracle's exported view, and a mirror of the parent's table.
        self.exported = {}
        self.parent = AggregationTable()
        self.seq = {sed: 0 for sed in _SEDS}
        #: (service, sed) -> the last row pushed for it, for resends.
        self.last = {}

    @rule(sed=st.sampled_from(_SEDS), service=st.sampled_from(_SERVICES),
          via=st.sampled_from(_CHILDREN), state=_state)
    def push(self, sed, service, via, state):
        self.seq[sed] += 1
        row = (service, _vec(sed, *state), self.seq[sed])
        self.last[(service, sed)] = (via, row)
        self.agg.apply_delta(EstimateDelta(via, [row]))

    @rule(sed=st.sampled_from(_SEDS), service=st.sampled_from(_SERVICES))
    def resend(self, sed, service):
        """Re-deliver the last row pushed (a no-op unless it was removed)."""
        if (service, sed) in self.last:
            via, row = self.last[(service, sed)]
            self.agg.apply_delta(EstimateDelta(via, [row]))

    @rule(sed=st.sampled_from(_SEDS), service=st.sampled_from(_SERVICES),
          state=_state, back=st.integers(0, 2))
    def stale_push(self, sed, service, state, back):
        """A row's own seq or an older one never overwrites it."""
        tbl = self.agg.services.get(service)
        row = tbl.rows.get(sed) if tbl is not None else None
        if row is None:
            return
        before = _view(self.agg)
        outcome = self.agg.apply_delta(EstimateDelta(
            "LA0", [(service, _vec(sed, *state), row.seq - back)]))
        assert not outcome and _view(self.agg) == before

    @rule(sed=st.sampled_from(_SEDS), service=st.sampled_from(_SERVICES))
    def remove(self, sed, service):
        self.agg.apply_delta(EstimateDelta("LA0", [], [(service, sed)]))

    @rule(child=st.sampled_from(_CHILDREN))
    def drop_via(self, child):
        self.agg.drop_via(child)

    @rule()
    def export(self):
        expected_updates, expected_removals = _full_view_diff(self.agg,
                                                              self.exported)
        updates, removals = self.agg.export_diff()
        assert not any(tbl.touched for tbl in self.agg.services.values())
        assert updates == expected_updates
        assert sorted(removals) == sorted(expected_removals)
        # Minimal: nothing the parent already holds, nothing twice.
        held = {(service, row.sed_name): row.seq
                for service in self.parent.services
                for row in self.parent.candidates(service)}
        keys = [(service, vector.sed_name)
                for service, vector, _seq in updates]
        assert len(set(keys)) == len(keys)
        assert len(set(removals)) == len(removals)
        assert all(held.get(key) != seq
                   for key, (_, _, seq) in zip(keys, updates))
        assert all(key in held for key in removals)
        self.parent.apply_delta(EstimateDelta("LA", updates, removals))
        assert _view(self.parent) == _view(self.agg)

    @invariant()
    def rows_sorted_by_rank_key(self):
        for service in self.agg.services:
            rows = self.agg.candidates(service)
            keys = [rank_key(row.vector, row.sed_name) for row in rows]
            assert keys == sorted(keys)
            assert [row.key for row in rows] == keys


CandidateTableMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestCandidateTable = CandidateTableMachine.TestCase
