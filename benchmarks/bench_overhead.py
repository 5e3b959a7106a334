"""E6 benchmark: regenerate the §5.2 middleware-overhead numbers."""

from repro.experiments import paper_campaign
from repro.services import run_campaign


def test_bench_overhead(benchmark, show_report):
    result = benchmark(run_campaign)
    show_report(paper_campaign.render_overhead(result))

    # paper: initiation 20.8 ms, per-simulation 70.6 ms, total ~7 s
    total_s = result.overhead_mean * (len(result.part2_traces) + 1)
    assert abs(result.init_time * 1e3 - 20.8) < 1.0
    assert abs(result.overhead_mean * 1e3 - 70.6) < 3.0
    assert abs(total_s - 7.0) < 1.0
    assert total_s / result.sequential_estimate < 1e-4
