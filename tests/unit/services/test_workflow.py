"""Unit tests for the campaign workflow (small configurations)."""

import pytest

from repro.core import BaseType, ProfileDesc, scalar_desc
from repro.core.deployment import deploy_paper_hierarchy
from repro.platform import ClusterSpec, build_grid5000
from repro.services import (
    CampaignConfig,
    CampaignResult,
    FailurePlan,
    FailureReport,
    RamsesService,
    RamsesServiceConfig,
    build_zoom2_profile,
    default_namelist_text,
    run_campaign,
    synthetic_zoom_centers,
    zoom2_profile_desc,
)
from repro.sim import Engine, FailureInjector, Outage


class TestSyntheticCenters:
    def test_deterministic(self):
        assert synthetic_zoom_centers(5, 7) == synthetic_zoom_centers(5, 7)

    def test_in_unit_box(self):
        for c in synthetic_zoom_centers(20, 1):
            assert all(0 <= v < 1 for v in c)

    def test_seed_sensitivity(self):
        assert synthetic_zoom_centers(5, 1) != synthetic_zoom_centers(5, 2)


class TestSmallCampaigns:
    def test_small_campaign_counts(self):
        result = run_campaign(CampaignConfig(n_sub_simulations=7))
        assert len(result.part2_traces) == 7
        assert len(result.zoom_centers) == 7
        assert all(t.status == 0 for t in result.part2_traces)

    def test_distribution_small_burst(self):
        """7 requests over 11 SeDs: each goes to a distinct SeD."""
        result = run_campaign(CampaignConfig(n_sub_simulations=7))
        counts = result.requests_per_sed()
        assert sorted(counts.values()) == [1] * 7

    def test_custom_cluster_layout(self):
        specs = (
            ClusterSpec("s1", "fast", "opteron-252", 48, n_seds=2),
            ClusterSpec("s2", "slow", "opteron-246", 48, n_seds=2),
        )
        result = run_campaign(CampaignConfig(n_sub_simulations=8,
                                             cluster_specs=specs))
        assert len(result.deployment.seds) == 4
        busy = result.busy_time_per_sed()
        # the slow cluster is busier for the same request count
        slow = [b for s, b in busy.items() if "slow" in s]
        fast = [b for s, b in busy.items() if "fast" in s]
        assert min(slow) > max(fast) * 1.1

    def test_failed_sub_simulation_names_request_sed_and_cause(
            self, monkeypatch):
        """A full NFS volume fails solves with status 1 (the 4000-zoom run's
        failure at toy scale): the campaign must say so — request, SeD and
        the SeD-side error — not die decoding an unset OUT argument."""
        from repro.services import workflow
        from repro.services.perfmodel import RamsesPerfModel

        perf = RamsesPerfModel()
        per_job = perf.snapshot_bytes(128, 1) + perf.snapshot_bytes(128)

        def tight_platform(engine, cluster_specs=None):
            platform = build_grid5000(engine, cluster_specs=cluster_specs)
            for cluster in platform.clusters.values():
                # room for part 1 and one zoom, not for the second zoom
                cluster.nfs.capacity_bytes = 2.5 * per_job
            return platform

        monkeypatch.setattr(workflow, "build_grid5000", tight_platform)
        specs = (ClusterSpec("s1", "only", "opteron-252", 16, n_seds=1),)
        with pytest.raises(RuntimeError) as excinfo:
            run_campaign(CampaignConfig(n_sub_simulations=2,
                                        cluster_specs=specs))
        message = str(excinfo.value)
        assert "request 3 on SeD-s1-only-sed0" in message
        assert "status 1: NfsError: volume 'nfs-s1-only' full" in message

    def test_policy_switch_changes_distribution(self):
        default = run_campaign(CampaignConfig(n_sub_simulations=40))
        mct = run_campaign(CampaignConfig(n_sub_simulations=40, policy="mct"))
        assert (max(mct.requests_per_sed().values())
                > max(default.requests_per_sed().values()) - 1)
        assert mct.total_elapsed <= default.total_elapsed * 1.05

    def test_deterministic_given_seed(self):
        a = run_campaign(CampaignConfig(n_sub_simulations=5))
        b = run_campaign(CampaignConfig(n_sub_simulations=5))
        assert a.total_elapsed == b.total_elapsed
        assert a.requests_per_sed() == b.requests_per_sed()

    def test_zoom_level_count_affects_duration(self):
        shallow = run_campaign(CampaignConfig(n_sub_simulations=5,
                                              n_zoom_levels=1))
        deep = run_campaign(CampaignConfig(n_sub_simulations=5,
                                           n_zoom_levels=4))
        assert deep.part2_mean_duration > shallow.part2_mean_duration


class TestResultAccessors:
    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(CampaignConfig(n_sub_simulations=12))

    def test_gantt_covers_all_requests(self, result):
        spans = sum(len(v) for v in result.gantt().values())
        assert spans == 12

    def test_overhead_list_length(self, result):
        assert len(result.overhead_per_request) == 12

    def test_sequential_exceeds_parallel(self, result):
        assert result.sequential_estimate > result.total_elapsed
        assert result.speedup > 1.0

    def test_finding_times_include_part1(self, result):
        assert len(result.finding_times()) == 13


def _dummy_desc():
    desc = ProfileDesc("dummy", 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    desc.set_arg(1, scalar_desc(BaseType.INT))
    return desc


def _dummy_solve(profile, ctx):
    yield from ctx.execute(1.0)
    profile.parameter(1).set(1)
    return 0


class TestSolveTimeLost:
    """An attempt whose SeD dies mid-solve loses the crash instant minus
    its solve start; the resubmission starts the zoom over."""

    CRASH_AT = 2000.0

    def _run_with_crash(self, n_capable, downtime):
        """One zoom on the paper platform, zoom2 registered on
        ``n_capable`` SeDs of distinct clusters (the rest get a dummy
        service: a SeD refuses to launch with an empty table).  The SeD
        serving the first attempt crashes at ``CRASH_AT``, mid-solve;
        ``call_retry`` resubmits until a capable SeD finishes the job."""
        dep = deploy_paper_hierarchy(build_grid5000(Engine()))
        capable = {}
        for sed in dep.seds:
            capable.setdefault(dep.cluster_of_sed(sed.name), sed)
        capable = list(capable.values())[:n_capable]
        service = RamsesService(RamsesServiceConfig())
        for sed in dep.seds:
            if sed in capable:
                sed.add_service(zoom2_profile_desc(), service.solve_zoom2)
            else:
                sed.add_service(_dummy_desc(), _dummy_solve)
        dep.launch_all()
        engine, client = dep.engine, dep.client
        injector = FailureInjector(engine)
        profile = build_zoom2_profile(default_namelist_text(), 128, 100,
                                      (0.4, 0.5, 0.6), 2)

        def crash_server(handle):
            yield engine.timeout(self.CRASH_AT)
            injector.schedule(dep.sed_by_name(handle.server),
                              [Outage(at=0.0, duration=downtime)])

        def run():
            client.initialize({"MA_name": "MA"})
            handle = client.function_handle("ramsesZoom2")
            engine.process(crash_server(handle))
            return (yield from client.call_retry(
                profile, handle, max_attempts=10, backoff=100.0))

        status = engine.run_until_complete(run())
        traces = dep.tracer.all_traces()
        report = FailureReport(
            outages=list(injector.history),
            crashes={traces[0].sed_name: self.CRASH_AT},
            resubmissions=client.resubmissions, deregistrations=[],
            recoveries=[])
        return CampaignResult(
            config=CampaignConfig(n_sub_simulations=1), deployment=dep,
            part1_trace=traces[0], part2_traces=traces, statuses=[status],
            zoom_centers=[], failure_report=report)

    def _assert_one_killed_solve(self, result):
        killed, *retries = result.part2_traces
        assert killed.solve_started_at < self.CRASH_AT
        assert killed.solve_ended_at is None
        assert result.statuses == [0]
        assert retries[-1].status == 0
        assert all(t.solve_ended_at is not None for t in retries
                   if t.solve_started_at is not None)
        assert result.solve_time_lost == self.CRASH_AT - killed.solve_started_at

    def test_a_crash_mid_solve_loses_its_solve(self):
        # One capable SeD: the resubmission waits for its restart.
        result = self._run_with_crash(n_capable=1, downtime=300.0)
        self._assert_one_killed_solve(result)
        outage, = result.failure_report.outages
        assert outage.down_at == self.CRASH_AT
        assert {t.sed_name for t in result.part2_traces
                if t.sed_name} == {outage.name}

    def test_a_victim_still_down_at_the_end_counts(self):
        # The downtime outlasts the run: the retry lands on the other
        # cluster's SeD and the crash never completes an outage cycle.
        result = self._run_with_crash(n_capable=2, downtime=50_000.0)
        self._assert_one_killed_solve(result)
        assert result.failure_report.outages == []
        victim = result.part2_traces[0].sed_name
        assert result.part2_traces[-1].sed_name != victim

    def test_a_plan_without_crashes_costs_nothing(self):
        """Heartbeats and the resubmission budget alone move no solve."""
        plain = run_campaign(CampaignConfig(n_sub_simulations=20))
        planned = run_campaign(CampaignConfig(
            n_sub_simulations=20, failures=FailurePlan(n_crashes=0)))
        assert planned.total_elapsed == plain.total_elapsed
        assert planned.solve_time_lost == 0.0
        assert planned.failure_report.resubmissions == 0
        assert plain.solve_time_lost == 0.0
