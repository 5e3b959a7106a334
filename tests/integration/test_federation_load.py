"""E13 end to end: federated load sweep acceptance properties.

The sweep must rerun bit-identically (serial vs ``--jobs``, observability
on vs off, both routing modes, SeD churn active), report saturation, and —
the park-watchdog regression guard — keep the push-mode event heap bounded
at the quick-mode's largest load point.
"""

import dataclasses

import pytest

from repro.experiments import load_federation
from repro.experiments.runner import canonical_pickle

LOADS = (3.0, 8.0)
KW = dict(loads=LOADS, duration=15.0, n_clients=500, churn=1, seed=17)


def stripped(result):
    """The result with span stores dropped (observe on/off comparable)."""
    return dataclasses.replace(
        result,
        runs=[dataclasses.replace(p, span_store=None) for p in result.runs])


class TestFederatedLoadSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return load_federation.run(**KW)

    def test_covers_both_routings_under_churn(self, result):
        assert set(p.routing for p in result.runs) == {"pull", "push"}
        for routing in result.routings:
            points = result.points(routing)
            assert len(points) == len(LOADS)
            assert all(p.n_arrivals > 0 and p.completed > 0 for p in points)
            assert result.saturation(routing) > 0

    def test_open_loop_saturates(self, result):
        """Offered load beyond capacity must not inflate throughput: the
        6-SeD platform (~1.2 s mean solve) caps near 5 requests/s, so the
        8 req/s point achieves well under what was offered."""
        for routing in result.routings:
            top = result.points(routing)[-1]
            assert top.offered == LOADS[-1]
            assert top.throughput < 0.9 * top.offered
            assert top.makespan > result.duration   # backlog drains late

    def test_rerun_is_bit_identical(self, result):
        again = load_federation.run(**KW)
        assert canonical_pickle(again) == canonical_pickle(result)

    def test_parallel_is_byte_identical_to_serial(self, result):
        parallel = load_federation.run(**KW, jobs=2)
        assert canonical_pickle(parallel) == canonical_pickle(result)

    def test_observability_does_not_perturb_results(self, result):
        observed = load_federation.run(**KW, observe=True)
        assert all(p.span_store for p in observed.runs)
        assert canonical_pickle(stripped(observed)) == \
            canonical_pickle(result)

    def test_push_heap_stays_bounded_at_peak_load(self, result):
        """The park-watchdog fix: admitted submits must not each leave a
        dead child_timeout timer in the heap.  At the largest quick-mode
        point (~120 arrivals) the leak would push the high-water mark past
        the arrival count; the single-sweeper design keeps it near the
        platform's standing process count."""
        top = [p for p in result.points("push") if p.offered == LOADS[-1]][0]
        assert top.peak_heap < 128
        assert top.peak_heap < top.n_arrivals

    def test_render_reports_saturation_and_redirects(self, result):
        text = load_federation.render(result)
        assert "saturation throughput" in text
        assert "inter-MA redirects" in text
        for routing in result.routings:
            assert f"routing={routing}" in text

    def test_memo_off_render_mentions_no_memo(self, result):
        """The memo-off report must look exactly like the pre-memo one —
        no columns, no summary lines, no mention of memoization."""
        text = load_federation.render(result)
        assert "memo" not in text
        assert "hit" not in text
        assert "zipf s" not in text


#: Quick memo sweep: a near-uniform and a hard-skewed client population.
ZIPF = (0.3, 2.5)
MEMO_KW = dict(KW, zipf=ZIPF, memo="on")


class TestMemoizedLoadSweep:
    @pytest.fixture(scope="class")
    def memo_result(self):
        return load_federation.run(**MEMO_KW)

    @pytest.fixture(scope="class")
    def plain_result(self):
        return load_federation.run(**dict(KW, zipf=ZIPF))

    def test_hit_rate_rises_with_zipf_skew(self, memo_result):
        for routing in memo_result.routings:
            points = memo_result.points(routing)
            by_skew = {}
            for p in points:
                hits, misses = by_skew.get(p.zipf_s, (0, 0))
                by_skew[p.zipf_s] = (hits + p.memo_hits,
                                     misses + p.memo_misses)
            rates = {z: h / (h + m) for z, (h, m) in by_skew.items()}
            assert rates[ZIPF[-1]] > rates[ZIPF[0]], routing
            # hard skew: most requests repeat, so well over half hit
            assert rates[ZIPF[-1]] > 0.5, routing

    def test_memo_cuts_finding_time_at_high_skew(self, memo_result,
                                                 plain_result):
        """Pull-mode P50 finding time must drop strictly: a hit skips the
        whole estimate fan-out and costs one MA round trip."""
        for offered in LOADS:
            memo_p = [p for p in memo_result.points("pull")
                      if p.zipf_s == ZIPF[-1] and p.offered == offered][0]
            plain_p = [p for p in plain_result.points("pull")
                       if p.zipf_s == ZIPF[-1] and p.offered == offered][0]
            assert memo_p.find_p50 < plain_p.find_p50

    def test_churn_invalidates_some_entries(self, memo_result):
        """SeD churn is active: across the sweep at least one crash must
        have dropped memo entries through the invalidation cascade."""
        total = sum(p.memo_invalidations for p in memo_result.runs)
        assert total > 0

    def test_memo_rerun_is_bit_identical(self, memo_result):
        again = load_federation.run(**MEMO_KW)
        assert canonical_pickle(again) == canonical_pickle(memo_result)

    def test_memo_parallel_is_byte_identical_to_serial(self, memo_result):
        parallel = load_federation.run(**MEMO_KW, jobs=2)
        assert canonical_pickle(parallel) == canonical_pickle(memo_result)

    def test_every_request_span_is_closed(self):
        """Hits, SeDs lost to churn, refusals: whatever ends a request, the
        client closes its track — nothing left for a ``finalize`` sweep."""
        point = load_federation.run(loads=(8,), routings=("push",), duration=5,
                                    memo="on", observe=True).runs[0]
        spans = point.span_store
        requests = list(spans.find(name="request"))
        assert len(requests) >= point.n_arrivals
        assert sum(s.attrs.get("memo") == "hit" for s in requests) \
            == point.memo_hits > 0
        assert spans.open_count == 0
        assert not list(spans.find(status="lost"))

    def test_memo_render_reports_hit_rates(self, memo_result):
        text = load_federation.render(memo_result)
        assert "memoization: on" in text
        assert "hit%" in text
        assert "zipf s" in text
        for routing in memo_result.routings:
            for z in ZIPF:
                assert f"{routing} memo at zipf s={z:g}:" in text
