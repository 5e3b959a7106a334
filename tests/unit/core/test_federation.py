"""Unit tests for the multi-MA federation (repro.core.federation)."""

import pytest

from repro.core.agent import ROUTING_MODES, AgentParams
from repro.core.client import DietClient
from repro.core.data import BaseType, scalar_desc
from repro.core.exceptions import ServerNotFoundError
from repro.core.federation import (
    ChurnPlan,
    FederatedClient,
    FederationConfig,
    build_federation,
    federation_cluster_specs,
    schedule_churn,
)
from repro.core.profile import ProfileDesc
from repro.platform.grid5000 import PAPER_CLUSTERS
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams
from tests.property import kernel_reference


def _desc(name="echo"):
    desc = ProfileDesc(name, 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    desc.set_arg(1, scalar_desc(BaseType.INT))
    return desc


def _solve(profile, ctx):
    yield from ctx.execute(0.5)
    profile.parameter(1).set(0)
    return 0


def _instantiate(desc):
    profile = desc.instantiate()
    profile.parameter(0).set(1)
    profile.parameter(1).set(None)
    return profile


class TestClusterSpecs:
    def test_catalogue_replicated_per_grid(self):
        specs = federation_cluster_specs(3, 2)
        assert len(specs) == 6
        assert [s.site for s in specs] == [
            f"g{g}-{PAPER_CLUSTERS[c].site}"
            for g in range(3) for c in range(2)]
        # Cyclic draw from the paper catalogue keeps cluster shapes.
        assert specs[0].n_seds == PAPER_CLUSTERS[0].n_seds
        assert specs[1].n_seds == PAPER_CLUSTERS[1].n_seds

    def test_wraps_catalogue_when_wider(self):
        wide = federation_cluster_specs(1, len(PAPER_CLUSTERS) + 1)
        assert wide[-1].name == PAPER_CLUSTERS[0].name

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FederationConfig(n_grids=0)
        with pytest.raises(ValueError):
            FederationConfig(clusters_per_grid=0)


class TestBuildFederation:
    def test_topology_shape(self):
        engine = Engine()
        federation = build_federation(
            engine, FederationConfig(n_grids=2, clusters_per_grid=2))
        assert federation.ma_names == ["MA0", "MA1"]
        per_grid = sum(PAPER_CLUSTERS[c].n_seds for c in range(2))
        assert len(federation.seds) == 2 * per_grid
        assert len(federation.grids[0].local_agents) == 2
        # Names embed the grid so the shared fabric stays collision-free.
        assert all(sed.name.startswith("SeD-g0-")
                   for sed in federation.grids[0].seds)
        assert all(sed.name.startswith("SeD-g1-")
                   for sed in federation.grids[1].seds)
        assert federation.client_host is federation.platform.client_host

    def test_add_service_everywhere(self):
        engine = Engine()
        federation = build_federation(
            engine, FederationConfig(n_grids=2, clusters_per_grid=1))
        federation.add_service_everywhere(_desc, _solve)
        assert all(_desc().path in sed.table.paths()
                   for sed in federation.seds)


class TestFederatedClientRedirection:
    @pytest.mark.parametrize("routing", ROUTING_MODES)
    def test_home_rejection_redirects_to_sibling(self, routing):
        """Service deployed only on grid 1: a grid-0-homed client must be
        rejected by MA0 and succeed on MA1 with exactly one redirect."""
        engine = Engine()
        federation = build_federation(
            engine,
            FederationConfig(n_grids=2, clusters_per_grid=1, routing=routing,
                             agent_params=AgentParams(child_timeout=0.5)))
        desc = _desc()
        # SeDs refuse to launch empty: grid 0 serves only a decoy service.
        for sed in federation.grids[0].seds:
            sed.add_service(_desc("decoy"), _solve)
        for sed in federation.grids[1].seds:
            sed.add_service(_desc(), _solve)
        federation.launch_all()

        client = FederatedClient(federation.fabric, federation.client_host,
                                 name="cli", ma_names=federation.ma_names,
                                 home=0)
        state = {}

        def driver():
            status, sed_name, found_at = yield from client.call(
                _instantiate(desc))
            state["status"] = status
            state["sed"] = sed_name
            state["found_at"] = found_at

        engine.run_until_complete(driver())
        assert state["status"] == 0
        assert state["sed"].startswith("SeD-g1-")
        assert client.redirects == 1
        assert client.rejections == 1
        assert state["found_at"] <= engine.now

    def test_every_ma_declining_raises(self):
        engine = Engine()
        federation = build_federation(
            engine,
            FederationConfig(n_grids=2, clusters_per_grid=1,
                             agent_params=AgentParams(child_timeout=0.5)))
        # Every grid serves only the decoy — "echo" exists nowhere.
        federation.add_service_everywhere(lambda: _desc("decoy"), _solve)
        federation.launch_all()
        client = FederatedClient(federation.fabric, federation.client_host,
                                 name="cli", ma_names=federation.ma_names)
        state = {}

        def driver():
            try:
                yield from client.call(_instantiate(_desc()))
            except ServerNotFoundError:
                state["raised"] = True

        engine.run_until_complete(driver())
        assert state.get("raised")
        assert client.rejections == 2
        assert client.redirects == 1   # one sibling retried, then gave up

    def test_max_redirects_zero_pins_client_to_home(self):
        engine = Engine()
        federation = build_federation(
            engine,
            FederationConfig(n_grids=2, clusters_per_grid=1,
                             agent_params=AgentParams(child_timeout=0.5)))
        for sed in federation.grids[0].seds:
            sed.add_service(_desc("decoy"), _solve)
        for sed in federation.grids[1].seds:
            sed.add_service(_desc(), _solve)
        federation.launch_all()
        client = FederatedClient(federation.fabric, federation.client_host,
                                 name="cli", ma_names=federation.ma_names,
                                 home=0, max_redirects=0)
        state = {}

        def driver():
            try:
                yield from client.call(_instantiate(_desc()))
            except ServerNotFoundError:
                state["raised"] = True

        engine.run_until_complete(driver())
        assert state.get("raised")
        assert client.redirects == 0
        assert client.rejections == 1


class TestChurn:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ChurnPlan(n_outages=-1, start=0.0, end=1.0)
        with pytest.raises(ValueError):
            ChurnPlan(n_outages=1, start=2.0, end=1.0)

    def _history(self, seed):
        engine = Engine()
        federation = build_federation(
            engine, FederationConfig(n_grids=2, clusters_per_grid=1))
        federation.add_service_everywhere(_desc, _solve)
        federation.launch_all()
        injector = schedule_churn(
            federation, ChurnPlan(n_outages=3, start=5.0, end=20.0),
            RandomStreams(seed))
        assert injector.pending == 3
        engine.run()
        return [(r.name, r.down_at, r.up_at) for r in injector.history]

    def test_churn_is_deterministic_per_seed(self):
        first = self._history(99)
        assert first == self._history(99)
        assert first != self._history(100)
        # Victims drawn without replacement: one outage per SeD at most.
        assert len({v for v, _, _ in first}) == 3

    def test_outages_capped_by_population(self):
        engine = Engine()
        federation = build_federation(
            engine, FederationConfig(n_grids=1, clusters_per_grid=1))
        federation.add_service_everywhere(_desc, _solve)
        federation.launch_all()
        injector = schedule_churn(
            federation, ChurnPlan(n_outages=50, start=1.0, end=2.0),
            RandomStreams(1))
        assert injector.pending == len(federation.seds)

    def test_zero_outages_is_a_no_op(self):
        engine = Engine()
        federation = build_federation(
            engine, FederationConfig(n_grids=1, clusters_per_grid=1))
        injector = schedule_churn(
            federation, ChurnPlan(n_outages=0, start=0.0, end=1.0),
            RandomStreams(1))
        assert injector.pending == 0


class TestClientPlacement:
    def test_per_grid_placement_is_the_default(self):
        engine = Engine()
        federation = build_federation(
            engine, FederationConfig(n_grids=2, clusters_per_grid=1))
        assert federation.client_host_for(0).name == "g0-client"
        assert federation.client_host_for(1).name == "g1-client"
        # The shared core-attached host still exists for legacy callers.
        assert federation.client_host is federation.platform.client_host

    def test_core_placement_restores_the_shared_host(self):
        """The pre-placement wiring: every client on the core service
        node (what E13's pinned numbers were measured under)."""
        engine = Engine()
        federation = build_federation(
            engine, FederationConfig(n_grids=2, clusters_per_grid=1,
                                     client_placement="core"))
        assert not any(host.name.endswith("-client")
                       for host in federation.platform.network.hosts)
        assert federation.client_host_for(0) is federation.platform.client_host
        assert federation.client_host_for(1) is federation.platform.client_host

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            FederationConfig(client_placement="nearest")


class TestLeastRecentRejectionOrder:
    def _client(self, n_grids=3):
        engine = Engine()
        federation = build_federation(
            engine, FederationConfig(n_grids=n_grids, clusters_per_grid=1))
        return FederatedClient(federation.fabric, federation.client_host,
                               name="cli", ma_names=federation.ma_names,
                               home=1)

    def test_order_matches_home_rotation_before_any_rejection(self):
        client = self._client()
        assert client._ma_order() == ["MA1", "MA2", "MA0"]

    def test_rejected_ma_sinks_to_the_back(self):
        client = self._client()
        client._last_rejected["MA1"] = 4.0
        assert client._ma_order() == ["MA2", "MA0", "MA1"]

    def test_least_recent_rejection_ranks_first_among_rejected(self):
        client = self._client()
        client._last_rejected.update({"MA1": 4.0, "MA2": 9.0, "MA0": 1.0})
        assert client._ma_order() == ["MA0", "MA1", "MA2"]

    def test_simultaneous_rejections_fall_back_to_rotation(self):
        client = self._client()
        client._last_rejected.update({"MA0": 2.0, "MA2": 2.0})
        assert client._ma_order() == ["MA1", "MA2", "MA0"]

    def test_note_rejection_feeds_counts_and_stamps(self):
        client = self._client()
        client._note_rejection("MA2", True)
        client._note_rejection("MA2", False)
        assert client.rejections == 2
        assert client.redirects == 1
        assert client.rejections_by_ma == {"MA2": 2}
        assert "MA2" in client._last_rejected

    def test_max_redirects_truncates_the_order(self):
        client = self._client()
        client.max_redirects = 1
        assert client._ma_order() == ["MA1", "MA2"]


class TestOneCallRoutine:
    """``DietClient.call`` is the one-MA case of the routine
    ``FederatedClient.call`` runs: same request ids, same event stream."""

    def _record(self, kind):
        log = []
        Engine.default_event_log = log      # picked up by the new Engine
        try:
            engine = Engine()
        finally:
            Engine.default_event_log = None
        federation = build_federation(
            engine, FederationConfig(n_grids=1, clusters_per_grid=2))
        federation.add_service_everywhere(_desc, _solve)
        federation.launch_all()
        if kind == "federated":
            client = FederatedClient(federation.fabric,
                                     federation.client_host, name="cli",
                                     ma_names=federation.ma_names)
            call = client.call
        else:
            client = DietClient(federation.fabric, federation.client_host,
                                name="cli")
            client.initialize({"MA_name": federation.ma_names[0]})

            def call(profile):
                handle = client.function_handle(profile.path)
                status = yield from client.call(profile, handle)
                return status, handle.server, None

        served = []

        def drive():
            for _ in range(3):
                status, sed, _found = yield from call(_instantiate(_desc()))
                served.append((status, sed))
            with pytest.raises(ServerNotFoundError):
                yield from call(_instantiate(_desc("nobody-serves-this")))

        engine.run_process(drive())
        return (served, federation.fabric.new_request_id(),
                kernel_reference.digest(log, engine.now))

    def test_same_request_ids_and_event_stream(self):
        diet, federated = self._record("diet"), self._record("federated")
        assert diet == federated
        assert diet[1] == 5 and diet[2]["n_events"] > 100
