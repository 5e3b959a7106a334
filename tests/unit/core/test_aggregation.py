"""Unit tests for the push-mode materialized candidate tables."""

from repro.core.aggregation import AggregationTable, CandidateTable, rank_key
from repro.core.requests import EstimateDelta
from repro.core.scheduling import EstimationVector


def vec(sed, n_jobs=0, speed=1.0):
    return EstimationVector(sed, f"{sed}-host", n_jobs, speed, float("inf"))


def upd(sed, n_jobs=0, speed=1.0, seq=1, service="toy"):
    return (service, vec(sed, n_jobs, speed), seq)


class TestCandidateTable:
    def test_update_inserts_ranked(self):
        tbl = CandidateTable("toy")
        tbl.update("B", vec("B", n_jobs=1.0), "LA0", 1)
        tbl.update("A", vec("A", n_jobs=0.0), "LA0", 1)
        tbl.update("C", vec("C", n_jobs=0.0, speed=2.0), "LA0", 1)
        # fewest jobs first, faster first among ties
        assert [r.sed_name for r in tbl.top()] == ["C", "A", "B"]

    def test_refresh_rerank(self):
        tbl = CandidateTable("toy")
        tbl.update("A", vec("A", n_jobs=0.0), "LA0", 1)
        tbl.update("B", vec("B", n_jobs=1.0), "LA0", 1)
        assert tbl.update("A", vec("A", n_jobs=5.0), "LA0", 2)
        assert [r.sed_name for r in tbl.top()] == ["B", "A"]
        assert len(tbl) == 2

    def test_stale_seq_discarded(self):
        tbl = CandidateTable("toy")
        tbl.update("A", vec("A", n_jobs=2.0), "LA0", seq=5)
        assert not tbl.update("A", vec("A", n_jobs=0.0), "LA0", seq=5)
        assert not tbl.update("A", vec("A", n_jobs=0.0), "LA0", seq=4)
        assert tbl.top()[0].vector.n_jobs == 2.0

    def test_remove(self):
        tbl = CandidateTable("toy")
        tbl.update("A", vec("A"), "LA0", 1)
        assert tbl.remove("A")
        assert not tbl.remove("A")
        assert tbl.top() == []

    def test_rank_key_unique_per_sed(self):
        # Identical vectors must still produce distinct keys (the order
        # list relies on uniqueness for exact removal).
        assert rank_key(vec("A"), "A") != rank_key(vec("B"), "B")


class TestAggregationTable:
    def test_apply_delta_and_candidates(self):
        agg = AggregationTable()
        assert agg.apply_delta(EstimateDelta("LA0", [upd("A"), upd("B", 1.0)]))
        assert [r.sed_name for r in agg.candidates("toy")] == ["A", "B"]
        assert all(r.via == "LA0" for r in agg.candidates("toy"))
        assert agg.deltas_applied == 1
        assert agg.candidates("unknown") == []

    def test_noop_delta_reports_unchanged(self):
        agg = AggregationTable()
        agg.apply_delta(EstimateDelta("LA0", [upd("A", seq=3)]))
        assert not agg.apply_delta(EstimateDelta("LA0", [upd("A", seq=3)]))
        assert not agg.apply_delta(
            EstimateDelta("LA0", [], removals=[("toy", "ghost")]))
        assert agg.deltas_applied == 1

    def test_removal_delta(self):
        agg = AggregationTable()
        agg.apply_delta(EstimateDelta("LA0", [upd("A"), upd("B")]))
        assert agg.apply_delta(
            EstimateDelta("LA0", [], removals=[("toy", "A")]))
        assert [r.sed_name for r in agg.candidates("toy")] == ["B"]

    def test_drop_via_invalidates_provenance(self):
        agg = AggregationTable()
        agg.apply_delta(EstimateDelta("LA0", [upd("A"), upd("B")]))
        agg.apply_delta(EstimateDelta("LA1", [upd("C")]))
        assert agg.drop_via("LA0")
        assert [r.sed_name for r in agg.candidates("toy")] == ["C"]
        assert agg.rows_invalidated == 2
        assert not agg.drop_via("LA0")  # already gone

    def test_export_diff_ships_only_changes(self):
        agg = AggregationTable()
        agg.apply_delta(EstimateDelta("LA0", [upd("A", seq=1)]))
        updates, removals = agg.export_diff()
        assert [u[1].sed_name for u in updates] == ["A"] and not removals
        # unchanged view -> empty diff
        assert agg.export_diff() == ([], [])
        # refresh A, add B: both travel, nothing else
        agg.apply_delta(EstimateDelta("LA0", [upd("A", 1.0, seq=2),
                                              upd("B", seq=1)]))
        updates, removals = agg.export_diff()
        assert sorted(u[1].sed_name for u in updates) == ["A", "B"]
        assert not removals

    def test_export_diff_emits_removals(self):
        agg = AggregationTable()
        agg.apply_delta(EstimateDelta("LA0", [upd("A"), upd("B")]))
        agg.export_diff()
        agg.drop_via("LA0")
        updates, removals = agg.export_diff()
        assert not updates
        assert sorted(removals) == [("toy", "A"), ("toy", "B")]

    def test_wire_bytes_scale_with_rows(self):
        small = EstimateDelta("LA0", [upd("A")])
        big = EstimateDelta("LA0", [upd("A"), upd("B")],
                            removals=[("toy", "C")])
        assert big.wire_bytes() > small.wire_bytes() > 0
        assert small.wire_bytes() == 128 + 384
