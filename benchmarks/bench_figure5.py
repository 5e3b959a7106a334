"""E4/E5 benchmark: regenerate Figure 5 (finding time + latency)."""

import math

from repro.experiments import paper_campaign
from repro.services import run_campaign


def test_bench_figure5(benchmark, show_report):
    result = benchmark(run_campaign)
    show_report(paper_campaign.render_figure5(result))

    # E4: finding time low, nearly constant, ~49.8 ms average
    assert abs(result.finding_mean * 1e3 - 49.8) < 2.0
    assert result.finding_cv < 0.10
    # E5: latency rises by orders of magnitude (queueing), log-scale shape
    latencies = result.latencies()
    assert math.log10(max(latencies) / min(latencies)) > 4.0
    assert result.first_wave_latency * 1e3 < 500.0
