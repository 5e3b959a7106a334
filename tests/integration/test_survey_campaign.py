"""E14 end to end: survey-campaign acceptance properties.

The campaign must run the cosmology-grid DAGs through both routing modes,
show the persistent data policy moving fewer WAN bytes than volatile,
memo-hit the duplicated-cosmology leg, and rerun bit-identically (serial
vs ``--jobs``, observe on vs off).  Two real-federation scenarios ride
along: a mid-DAG SeD crash recovered by dependency-aware resubmission,
and a memo hit short-circuiting a whole repeated subtree.
"""

import dataclasses

import pytest

from repro.core.client import DietClient
from repro.core.federation import FederationConfig, build_federation
from repro.experiments import survey_campaign
from repro.experiments.runner import canonical_pickle
from repro.services.lensing_service import LensingServiceConfig, register_survey_services
from repro.sim.engine import Engine
from repro.survey.dag import DagExecutor
from repro.survey.grid import ParameterGrid
from repro.survey.pipeline import build_survey_dag

KW = dict(routings=("pull", "push"), policies=("default",),
          data_policies=("volatile", "persistent"), shape=(2, 2),
          resolution=32, n_planes=4, zooms=1, seed=17)


def stripped(result):
    """The result with span stores dropped (observe on/off comparable)."""
    return dataclasses.replace(
        result,
        runs=[dataclasses.replace(a, span_store=None) for a in result.runs])


class TestSurveyCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return survey_campaign.run(**KW)

    def test_every_arm_completes_both_dags_and_the_zooms(self, result):
        assert len(result.runs) == 4
        for arm in result.runs:
            assert arm.completed == arm.nodes
            assert arm.zooms_done == result.zooms
            assert arm.makespan > 0

    def test_duplicated_cosmology_leg_memo_hits(self, result):
        """Both clients submit the identical grid: under the persisting
        policy the second client's whole DAG answers from the memo."""
        for routing in result.routings:
            persistent = result.arm(routing, "default", "persistent")
            assert persistent.memo_hits * 2 == persistent.nodes
            assert persistent.hit_rate == 0.5
            volatile = result.arm(routing, "default", "volatile")
            assert volatile.memo_hits == 0

    def test_persistent_policy_moves_fewer_wan_bytes(self, result):
        for routing in result.routings:
            volatile = result.arm(routing, "default", "volatile")
            persistent = result.arm(routing, "default", "persistent")
            assert persistent.bytes_wan < volatile.bytes_wan
            assert persistent.bytes_total < volatile.bytes_total

    def test_stage_durations_cover_the_pipeline(self, result):
        for arm in result.runs:
            stages = {name for name, _n, _p50, _p99 in arm.stage_stats}
            assert stages == {"ic", "run", "lensing", "reduce"}

    def test_rerun_is_bit_identical(self, result):
        again = survey_campaign.run(**KW)
        assert canonical_pickle(again) == canonical_pickle(result)

    def test_parallel_is_byte_identical_to_serial(self, result):
        parallel = survey_campaign.run(**KW, jobs=2)
        assert canonical_pickle(parallel) == canonical_pickle(result)

    def test_observability_does_not_perturb_results(self, result):
        observed = survey_campaign.run(**KW, observe=True)
        assert all(a.span_store for a in observed.runs)
        assert canonical_pickle(stripped(observed)) == \
            canonical_pickle(result)

    def test_render_reports_memo_and_wan_lines(self, result):
        text = survey_campaign.render(result)
        for routing in result.routings:
            assert f"memo {routing}/default/persistent:" in text
            assert f"wan {routing}/default:" in text
        # The CI smoke grep: nonzero memo hits on the duplicated leg.
        assert "memo pull/default/persistent: 15 hits" in text

    def test_products_materialize_as_a_batch_tree(self, result, tmp_path):
        manifests = survey_campaign.write_batches(result, str(tmp_path))
        assert len(manifests) == len(result.runs)
        import json

        with open(manifests[0]) as fh:
            manifest = json.load(fh)
        assert len(manifest) == result.runs[0].nodes // 2


def _one_point_executor(data_policy, memo, n_points=1, prefix="",
                        engine=None, federation=None, home=0):
    """A small real federation plus one client's survey DAG executor."""
    if engine is None:
        engine = Engine()
        federation = build_federation(
            engine,
            FederationConfig(n_grids=1, clusters_per_grid=1,
                             data_policy=data_policy))
        register_survey_services(federation.seds, LensingServiceConfig())
        federation.launch_all()
    grid = ParameterGrid.cartesian({"omega_m": tuple(
        0.24 + 0.02 * i for i in range(n_points))})
    client = DietClient(federation.fabric, federation.client_host_for(0),
                        name=f"cli{prefix or home}",
                        tracer=federation.tracer, memo_enabled=memo)
    client.initialize({"MA_name": federation.ma_order(home)})
    dag = build_survey_dag(grid, resolution=16, n_planes=2,
                           data_policy=data_policy, realization_seed=3,
                           name=f"dag{prefix}")
    return engine, federation, DagExecutor(client, dag)


class TestDagOnRealFederation:
    def test_mid_dag_sed_crash_recovered_by_dependency_refresh(self):
        """Crash the SeD owning the IC handle after the IC completes: the
        consuming run node fails its first solve (the persistent input
        died with its owner), the executor re-runs the producer and the
        chain still completes."""
        engine, federation, executor = _one_point_executor(
            "persistent", memo=False)
        state = {}

        def saboteur():
            while "p000:ic" not in executor.results:
                yield engine.timeout(0.05)
            owner = executor.results["p000:ic"].sed_name
            sed = next(s for s in federation.seds if s.name == owner)
            sed.crash()
            state["crashed"] = owner

        def drive():
            engine.process(saboteur(), name="saboteur")
            state["results"] = yield from executor.run()

        engine.run_until_complete(drive())
        results = state["results"]
        assert all(r.status == 0 for r in results.values())
        assert set(results) == set(executor.dag.nodes)
        # completed counts accepted executions, refreshes included.
        assert executor.stats.completed > len(executor.dag)
        # The recovery went through the dependency-aware path (and/or the
        # dead-letter path when the dead SeD was still advertised).
        assert executor.stats.dep_refreshes >= 1
        # The refreshed IC lives on a survivor, not the crashed SeD.
        assert results["p000:ic"].sed_name != state["crashed"]

    def test_memo_hit_short_circuits_the_repeated_subtree(self):
        """A second client replaying the same grid must answer every node
        from the federation-wide memo: no new solves, original owners."""
        engine, federation, first = _one_point_executor(
            "persistent", memo=True, n_points=2, prefix="a")
        state = {}

        def drive_first():
            state["first"] = yield from first.run()

        engine.run_until_complete(drive_first())
        n_nodes = len(first.dag)
        assert federation.memo.stats.misses == n_nodes
        assert federation.memo.stats.hits == 0

        _, _, second = _one_point_executor(
            "persistent", memo=True, n_points=2, prefix="b",
            engine=engine, federation=federation)

        def drive_second():
            state["second"] = yield from second.run()

        engine.run_until_complete(drive_second())
        assert federation.memo.stats.hits == n_nodes
        assert federation.memo.stats.misses == n_nodes  # no new solves
        # Hits hand back the original handles: same owners, same data ids.
        for node_id, original in state["first"].items():
            replayed = state["second"][node_id]
            assert replayed.sed_name == original.sed_name
            assert replayed.outputs.keys() == original.outputs.keys()
