"""E1 benchmark: regenerate the §5.2 headline timings (paper vs measured)."""

from repro.experiments import paper_campaign
from repro.services import (
    PAPER_PART1_SECONDS,
    PAPER_PART2_MEAN_SECONDS,
    PAPER_TOTAL_SECONDS,
    run_campaign,
)


def test_bench_table_timings(benchmark, show_report):
    result = benchmark(run_campaign)
    show_report(paper_campaign.render_timings(result))

    assert abs(result.part1_duration - PAPER_PART1_SECONDS) < 0.02 * PAPER_PART1_SECONDS
    assert abs(result.part2_mean_duration
               - PAPER_PART2_MEAN_SECONDS) < 0.02 * PAPER_PART2_MEAN_SECONDS
    assert abs(result.total_elapsed - PAPER_TOTAL_SECONDS) < 0.05 * PAPER_TOTAL_SECONDS
    assert result.sequential_estimate / 3600.0 > 141.0
