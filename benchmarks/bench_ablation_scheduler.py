"""E7 benchmark: the plug-in scheduler ablation (the paper's future work)."""

from repro.experiments import ablation_scheduler


def test_bench_ablation_scheduler(benchmark, show_report):
    result = benchmark.pedantic(ablation_scheduler.run, rounds=1, iterations=1)
    show_report(ablation_scheduler.render(result))

    # the MCT plug-in beats the default policy's makespan
    assert result.improvement_over_default() > 0.05
    # and balances per-SeD busy time better
    assert (result.campaigns["mct"].busy_spread
            < result.campaigns["default"].busy_spread)
    # the fastest-node-only baseline is catastrophically worse
    spans = result.part2_makespans()
    assert spans["fastest"] > spans["default"]
