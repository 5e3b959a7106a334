"""Every ``python -m repro`` row at default arguments: its stdout pinned, and
the paper's claims about it asserted on the same result.

E1-E6 check the MODELED campaign against §5 of the paper, and the
campaign-scaling staircase checks it at 11-100 zooms.  Tolerances are
generous where the paper's number is itself noisy (total makespan depends
on which SeD drew the unlucky jobs) and tight where our calibration pins
the value (part-1 duration, finding time, request distribution).  E7-E10
and Figure 1 are shapes, asserted on each row's default-size result.

Each row's stdout is pinned by the 16-hex sha256 prefix in
``tests/data/ref_reports.json``.  A prefix moves only in a change that
declares a report change and names the row; the failure message prints
the new prefix to pin.
"""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from repro.__main__ import _EXPERIMENTS, main
from repro.services import (
    CampaignConfig,
    PAPER_PART1_SECONDS,
    PAPER_PART2_MEAN_SECONDS,
    PAPER_TOTAL_SECONDS,
    run_campaign,
)


REF_REPORTS = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                           "ref_reports.json")
with open(REF_REPORTS, encoding="utf-8") as _fh:
    PINS = json.load(_fh)

#: The rows that print the seed-2007 campaign.
CAMPAIGN_ROWS = ("timings", "figure4", "figure5", "overhead", "campaign")


@pytest.fixture(scope="module")
def campaign():
    return run_campaign(CampaignConfig())


class TestE1Timings:
    def test_part1_duration(self, campaign):
        """Paper: 1h 15min 11s."""
        assert campaign.part1_duration == pytest.approx(
            PAPER_PART1_SECONDS, rel=0.02)

    def test_part2_mean_duration(self, campaign):
        """Paper: 1h 24min 1s average over the 100 sub-simulations."""
        assert campaign.part2_mean_duration == pytest.approx(
            PAPER_PART2_MEAN_SECONDS, rel=0.02)

    def test_total_elapsed(self, campaign):
        """Paper: 16h 18min 43s (within 5%: depends on noise placement)."""
        assert campaign.total_elapsed == pytest.approx(
            PAPER_TOTAL_SECONDS, rel=0.05)

    def test_sequential_estimate_exceeds_141h(self, campaign):
        """Paper: 'more than 141h to run the 101 simulation sequentially'."""
        assert campaign.sequential_estimate > 141 * 3600
        assert campaign.sequential_estimate < 150 * 3600

    def test_parallel_speedup(self, campaign):
        """11 SeDs, heterogeneous: speedup should be ~8-9x."""
        assert 7.5 < campaign.speedup < 10.0

    def test_all_simulations_succeeded(self, campaign):
        assert len(campaign.part2_traces) == 100
        assert all(t.status == 0 for t in campaign.part2_traces)


class TestE2Distribution:
    def test_nine_nine_ten_split(self, campaign):
        """Paper: 'each SED received 9 requests (one of them received 10)'."""
        counts = sorted(campaign.requests_per_sed().values())
        assert counts == [9] * 10 + [10]

    def test_gantt_no_overlap_per_sed(self, campaign):
        for sed, spans in campaign.gantt().items():
            for (s1, e1, _), (s2, e2, _) in zip(spans[:-1], spans[1:]):
                assert s2 >= e1 - 1e-9, f"overlapping jobs on {sed}"


class TestE3BusyTime:
    def test_toulouse_slowest_nancy_fastest_shape(self, campaign):
        """Paper: 'about 15h for Toulouse and 10h30 for Nancy'."""
        by_cluster = campaign.per_cluster(campaign.busy_time_per_sed())
        nancy = min(by_cluster["nancy-grillon"]) / 3600.0
        toulouse = max(by_cluster["toulouse-violette"]) / 3600.0
        assert nancy == pytest.approx(10.5, rel=0.08)
        assert toulouse == pytest.approx(15.0, rel=0.08)
        # Nancy's SeDs are among the least busy, Toulouse's among the most
        assert min(by_cluster, key=lambda c: min(by_cluster[c])) == "nancy-grillon"

    def test_schedule_not_optimal(self, campaign):
        """The spread demonstrates the paper's point: default scheduling
        ignores machine speed."""
        assert campaign.busy_spread > 1.3


class TestE4FindingTime:
    def test_average_matches_paper(self, campaign):
        """Paper: 49.8 ms average."""
        assert campaign.finding_mean * 1e3 == pytest.approx(49.8, rel=0.03)

    def test_nearly_constant(self, campaign):
        """Paper: 'low and nearly constant'."""
        assert campaign.finding_cv < 0.10


class TestE5Latency:
    def test_first_wave_is_milliseconds(self, campaign):
        lat = sorted(campaign.latencies())
        assert lat[0] < 0.5   # transfer + initiation only
        assert campaign.first_wave_latency < 0.5

    def test_grows_by_orders_of_magnitude(self, campaign):
        """Paper: latency 'grows rapidly' (log-scale plot): queueing."""
        lat = campaign.latencies()
        assert max(lat) / min(lat) > 1e4
        assert max(lat) > 10 * 3600   # last wave waits ~9 solves

    def test_latency_wave_structure(self, campaign):
        """Latencies cluster into ~9-10 waves of ~11 requests."""
        lat = np.sort(campaign.latencies())
        first_wave = np.sum(lat < 60.0)
        assert 10 <= first_wave <= 12


class TestE6Overhead:
    def test_initiation_time(self, campaign):
        """Paper: about 20.8 ms, on the first 12 executions."""
        assert campaign.init_time * 1e3 == pytest.approx(20.8, abs=1.0)

    def test_per_request_overhead(self, campaign):
        """Paper: ~70.6 ms per simulation (finding + initiation)."""
        assert campaign.overhead_mean * 1e3 == pytest.approx(70.6, abs=3.0)

    def test_total_overhead_seconds(self, campaign):
        """Paper: ~7 s for the 101 simulations."""
        total = campaign.overhead_mean * 101
        assert total == pytest.approx(7.0, rel=0.1)

    def test_negligible_fraction(self, campaign):
        total = campaign.overhead_mean * 101
        assert total / campaign.sequential_estimate < 1e-4


class TestCampaignScaling:
    """§5.1: "we won't be able to have more than 11 parallel computations
    at the same time" — the part-2 makespan grows in ceil(n / 11) waves of
    the mean zoom duration."""

    @pytest.fixture(scope="class")
    def by_size(self, campaign):
        runs = {n: run_campaign(CampaignConfig(n_sub_simulations=n))
                for n in (11, 22, 55)}
        runs[100] = campaign
        return runs

    def test_makespan_is_a_staircase_of_waves(self, by_size):
        for n, result in by_size.items():
            waves = math.ceil(n / 11)
            assert result.part2_makespan == pytest.approx(
                waves * result.part2_mean_duration, rel=0.35), n

    def test_one_wave_runs_every_zoom_in_parallel(self, by_size):
        one = by_size[11]
        assert one.part2_makespan < 2.2 * one.part2_mean_duration

    def test_sequential_estimate_is_linear_in_n(self, by_size):
        assert by_size[100].sequential_estimate > \
            8.0 * by_size[11].sequential_estimate


@pytest.fixture(scope="module")
def default_run(campaign):
    """``default_run(row)``: the result bare ``main([row])`` renders, once
    per row.  Bare ``main`` hands ``run`` its signature's defaults (where
    ``run`` takes ``observe``, its default is ``main``'s False); the rows
    that print the seed-2007 campaign share the module's (``campaign``'s
    defaults are its config)."""
    results = dict.fromkeys(CAMPAIGN_ROWS, campaign)

    def get(row):
        if row not in results:
            results[row] = _EXPERIMENTS[row].run()
        return results[row]

    return get


def _row(name):
    """A module fixture named ``name``: that row's default result."""
    @pytest.fixture(scope="module", name=name)
    def result(default_run):
        return default_run(name)
    return result


architecture = _row("architecture")
ablation = _row("ablation")
figure2 = _row("figure2")
figure3 = _row("figure3")
scaling = _row("scaling")


class TestE7PluginScheduler:
    def test_mct_improves_makespan(self, ablation):
        """The paper's prediction: 'a better makespan could be attained by
        writing a plug-in scheduler'."""
        gain = ablation.improvement_over_default()
        assert gain > 0.05

    def test_mct_balances_busy_time(self, ablation):
        assert (ablation.campaigns["mct"].busy_spread
                < ablation.campaigns["default"].busy_spread)

    def test_mct_gives_fast_seds_more_work(self, ablation):
        mct = ablation.campaigns["mct"]
        by_cluster = mct.per_cluster(mct.requests_per_sed())
        assert max(by_cluster["nancy-grillon"]) >= max(
            by_cluster["toulouse-violette"])

    def test_fastest_node_baseline_is_worse(self, ablation):
        spans = ablation.part2_makespans()
        assert spans["fastest"] > spans["default"]


class TestE8Figure2Density:
    """A real PM run: fluctuations grow left-to-right and high-density
    peaks (halos) exist in the final panel."""

    def test_structure_forms(self, figure2):
        assert figure2.monotone_growth
        assert figure2.max_delta[-1] > 50.0      # collapsed structures by a=1
        assert figure2.n_halos_final >= 5


class TestE9Figure3Zoom:
    """A real two-step zoom: the region around the chosen halo gains
    resolution, and the halo re-forms there."""

    def test_mass_resolution_gain_is_8_per_level(self, figure3):
        assert figure3.mass_resolution_gain == figure3.expected_gain

    def test_halo_reforms_where_the_parent_put_it(self, figure3):
        # within ~one coarse cell: a one-level PM zoom, not full AMR
        assert figure3.particle_boost > 1.5
        assert figure3.center_offset < 1.5 / 16


class TestE10ScalingNodes:
    def test_knee(self, scaling):
        # near-linear at small rank counts
        assert scaling.efficiency(2) > 0.85
        # the paper's 16-machines choice sits on the efficient plateau
        assert scaling.efficiency(16) > 0.6
        # communication eventually kills scaling
        assert scaling.efficiency(128) < scaling.efficiency(16)
        assert 16 <= scaling.knee() <= 64


class TestFigure1Architecture:
    """``run`` validates the hierarchy; each SeD's services are on its line
    of the pinned report."""

    def test_paper_hierarchy(self, architecture):
        assert architecture.n_agents == 7        # 1 MA + 6 LAs (§5.1)
        assert architecture.n_seds == 11


@pytest.mark.parametrize("row", [*_EXPERIMENTS, "list"])
def test_report_digest(row, default_run, capsys):
    """The row's full stdout at default arguments against its pin.  A
    row's stdout is ``render(result)`` and a newline (no flag asks for an
    export or observability line); ``list`` runs through ``main``, which
    prints the same for no command at all."""
    if row == "list":
        assert main(["list"]) == 0
        stdout = capsys.readouterr().out
        assert main([]) == 0
        assert capsys.readouterr().out == stdout
        assert set(PINS) == {*_EXPERIMENTS, "list"}, "one pin per row + list"
    else:
        stdout = _EXPERIMENTS[row].render(default_run(row)) + "\n"
    got = hashlib.sha256(stdout.encode()).hexdigest()[:16]
    assert PINS.get(row) == got, (
        f"{row!r}: stdout sha256 prefix is {got!r}, pinned "
        f"{PINS.get(row)!r} in tests/data/ref_reports.json")
