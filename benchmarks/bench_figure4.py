"""E2/E3 benchmark: regenerate Figure 4 (Gantt + per-SeD execution time)."""

from repro.experiments import paper_campaign
from repro.services import run_campaign


def test_bench_figure4(benchmark, show_report):
    result = benchmark(run_campaign)
    show_report(paper_campaign.render_figure4(result))

    # E2: the 9/9/.../10 request distribution
    assert sorted(result.requests_per_sed().values()) == [9] * 10 + [10]
    # E3: busy-time shape — Toulouse ~15h, Nancy ~10.5h
    busy = result.per_cluster(result.busy_time_per_sed())
    assert abs(min(busy["nancy-grillon"]) / 3600.0 - 10.5) < 1.0
    assert abs(max(busy["toulouse-violette"]) / 3600.0 - 15.0) < 1.5
    assert result.busy_spread > 1.3
