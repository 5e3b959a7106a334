"""The full 100-zoom campaign under injected SeD failures.

End-to-end acceptance for the fault-tolerance stack: seeded crashes +
heartbeat deregistration + checkpointing + client resubmission must
complete every zoom, deterministically, at a makespan strictly above the
zero-failure baseline.
"""

import pytest

from repro.experiments.report import ascii_gantt
from repro.services import CampaignConfig, FailurePlan, run_campaign


def degraded_config(n_crashes=2, n_sub=100):
    return CampaignConfig(n_sub_simulations=n_sub, seed=2007,
                          failures=FailurePlan(n_crashes=n_crashes))


def fingerprint(result):
    """Everything observable about a campaign, for bit-determinism checks."""
    report = result.failure_report
    return (
        result.total_elapsed,
        tuple(result.statuses),
        tuple(t.completed_at for t in result.part2_traces),
        tuple(sorted(result.requests_per_sed().items())),
        report.resubmissions,
        report.work_lost,
        report.work_recovered,
        report.checkpoints_written,
        tuple((o.name, o.down_at, o.up_at) for o in report.outages),
        tuple(report.deregistrations),
        tuple(report.recoveries),
    )


class TestDegradedCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(degraded_config())

    def test_all_zooms_complete_despite_crashes(self, result):
        report = result.failure_report
        assert report is not None
        assert len(report.outages) >= 2          # both victims crashed...
        assert len(report.recoveries) >= 2       # ...and rejoined
        assert len(result.statuses) == 100
        assert all(s == 0 for s in result.statuses)
        assert len(result.completed_part2_traces) == 100

    def test_failures_cost_makespan_and_work(self, result):
        baseline = run_campaign(CampaignConfig(n_sub_simulations=100,
                                               seed=2007))
        assert result.total_elapsed > baseline.total_elapsed
        report = result.failure_report
        assert report.resubmissions > 0
        assert report.work_lost > 0.0
        assert report.checkpoints_written > 0

    def test_heartbeat_deregistered_the_victims(self, result):
        report = result.failure_report
        victims = {o.name for o in report.outages}
        assert victims <= set(report.deregistrations)
        assert victims <= set(report.recoveries)

    def test_survivors_absorb_the_victims_jobs(self, result):
        report = result.failure_report
        victims = {o.name for o in report.outages}
        per_sed = {}
        for trace in result.completed_part2_traces:
            per_sed[trace.sed_name] = per_sed.get(trace.sed_name, 0) + 1
        # every zoom landed somewhere, and the survivors carried extra load
        assert sum(per_sed.values()) == 100
        survivors = {s: n for s, n in per_sed.items() if s not in victims}
        assert max(survivors.values()) > 100 // 11

    def test_gantt_renders_without_the_attempts_that_died_mid_solve(self, result):
        # Two attempts lost their SeD mid-solve: a solve start, no end.
        # They are not rows of the Figure 4 chart, which must still render.
        solved = [t for t in result.part2_traces
                  if t.solve_ended_at is not None]
        assert any(t.solve_started_at is not None and t.solve_ended_at is None
                   for t in result.part2_traces)
        chart = result.gantt()
        rows = [row for sed_rows in chart.values() for row in sed_rows]
        assert len(rows) == len(solved)
        assert all(start <= end for start, end, _ in rows)
        assert ascii_gantt(chart)
        assert result.busy_time_per_sed().keys() == chart.keys()

    def test_bit_deterministic(self, result):
        again = run_campaign(degraded_config())
        assert fingerprint(again) == fingerprint(result)

    def test_crash_count_scales_damage(self):
        one = run_campaign(degraded_config(n_crashes=1, n_sub=40))
        four = run_campaign(degraded_config(n_crashes=4, n_sub=40))
        assert all(s == 0 for s in one.statuses + four.statuses)
        assert len(four.failure_report.outages) > \
            len(one.failure_report.outages)
