"""Unit tests for the multi-MA federation (repro.core.federation)."""

import pytest

from repro.core.agent import ROUTING_MODES, AgentParams
from repro.core.client import DietClient
from repro.core.data import BaseType, scalar_desc
from repro.core.exceptions import ServerNotFoundError
from repro.core.federation import (
    ChurnPlan,
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
from tests.property.scripted_mas import REFUSE, ScriptedMAs


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


def _client(federation, ma_names, name="cli"):
    client = DietClient(federation.fabric, federation.client_host, name=name,
                        tracer=federation.tracer)
    client.initialize({"MA_name": ma_names})
    return client


class TestFederatedClientRedirection:
    """A client of a federation: one :class:`DietClient` initialized with
    the MA names, home first."""

    def _only_grid1_serves_echo(self, routing="pull"):
        engine = Engine()
        federation = build_federation(
            engine,
            FederationConfig(n_grids=2, clusters_per_grid=1, routing=routing,
                             agent_params=AgentParams(child_timeout=0.5)))
        # SeDs refuse to launch empty: grid 0 serves only a decoy service.
        for sed in federation.grids[0].seds:
            sed.add_service(_desc("decoy"), _solve)
        for sed in federation.grids[1].seds:
            sed.add_service(_desc(), _solve)
        federation.launch_all()
        return engine, federation

    @pytest.mark.parametrize("routing", ROUTING_MODES)
    def test_home_rejection_redirects_to_sibling(self, routing):
        """Service deployed only on grid 1: a grid-0-homed client must be
        rejected by MA0 and succeed on MA1 with exactly one redirect."""
        engine, federation = self._only_grid1_serves_echo(routing)
        client = _client(federation, federation.ma_order(0))
        handle = client.function_handle("echo")

        def driver():
            return (yield from client.call(_instantiate(_desc()), handle))

        assert engine.run_until_complete(driver()) == 0
        assert handle.server.startswith("SeD-g1-")
        assert client.redirects == 1
        assert client.rejections == 1
        assert client.rejections_by_ma == {"MA0": 1}
        assert 0 < handle.found_at <= engine.now
        # The refused id and the served one each left a full client record.
        refused = federation.tracer.trace(handle.request_id - 1, "echo")
        served = federation.tracer.trace(handle.request_id, "echo")
        assert refused.submitted_at is not None and refused.found_at is None
        assert served.found_at == handle.found_at
        assert served.completed_at == engine.now and served.status == 0

    def test_every_ma_declining_raises(self):
        engine = Engine()
        federation = build_federation(
            engine,
            FederationConfig(n_grids=2, clusters_per_grid=1,
                             agent_params=AgentParams(child_timeout=0.5)))
        # Every grid serves only the decoy — "echo" exists nowhere.
        federation.add_service_everywhere(lambda: _desc("decoy"), _solve)
        federation.launch_all()
        client = _client(federation, federation.ma_names)

        def driver():
            with pytest.raises(ServerNotFoundError):
                yield from client.call(_instantiate(_desc()))

        engine.run_until_complete(driver())
        assert client.rejections == 2
        assert client.redirects == 1   # one sibling retried, then gave up

    def test_home_only_client_stays_on_home(self):
        """A client that must stay on a subset of the MAs is initialized
        with that subset: MA1 would serve, but it is never asked."""
        engine, federation = self._only_grid1_serves_echo()
        client = _client(federation, ["MA0"])

        def driver():
            with pytest.raises(ServerNotFoundError):
                yield from client.call(_instantiate(_desc()))

        engine.run_until_complete(driver())
        assert client.redirects == 0
        assert client.rejections == 1
        assert client.rejections_by_ma == {"MA0": 1}


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
    """The order a client tries its MAs in, observed on scripted MAs."""

    MAS = ["MA1", "MA2", "MA0"]     # home first: a client homed on MA1

    def _attempts(self, script, ma_names=None):
        """Run ``len(script)`` calls one sim-second apart; ``script[k]``
        names the MAs that refuse call ``k``.  Returns the client and the
        MAs each call tried, in order."""
        stack = ScriptedMAs(self.MAS)
        client = stack.client(ma_names or self.MAS)
        tried = []

        def drive():
            for refusing in script:
                stack.script({ma: REFUSE for ma in refusing})
                before = len(stack.attempts)
                try:
                    yield from client.call(stack.profile())
                except ServerNotFoundError:
                    pass
                tried.append(stack.attempts[before:])
                yield stack.engine.timeout(1.0)

        stack.engine.run_until_complete(drive())
        return client, tried

    def test_order_matches_home_rotation_before_any_rejection(self):
        _, tried = self._attempts([self.MAS])
        assert tried == [["MA1", "MA2", "MA0"]]

    def test_rejected_ma_sinks_to_the_back(self):
        _, tried = self._attempts([{"MA1"}, self.MAS])
        assert tried == [["MA1", "MA2"], ["MA2", "MA0", "MA1"]]

    def test_least_recent_rejection_ranks_first_among_rejected(self):
        # MA1 refuses at t=0 (MA2 answers), MA2 at t=1 (MA0 answers), then
        # everyone: never-refused MA0 first, then oldest refusal first.
        _, tried = self._attempts([{"MA1"}, {"MA2"}, self.MAS])
        assert tried == [["MA1", "MA2"], ["MA2", "MA0"],
                         ["MA0", "MA1", "MA2"]]

    def test_simultaneous_rejections_fall_back_to_rotation(self):
        """Zero-latency scripted MAs refuse at the same instant: the tie
        is broken by the configured (home-first) order."""
        _, tried = self._attempts([self.MAS, self.MAS])
        assert tried == [["MA1", "MA2", "MA0"]] * 2

    def test_note_rejection_feeds_counts_and_stamps(self):
        client, tried = self._attempts([{"MA1", "MA2"}, {"MA2"}])
        assert tried == [["MA1", "MA2", "MA0"], ["MA0"]]
        assert client.rejections == 2
        assert client.redirects == 2
        assert client.rejections_by_ma == {"MA1": 1, "MA2": 1}

    def test_subset_client_tries_only_subset(self):
        client, tried = self._attempts([self.MAS, {"MA1"}, ()],
                                       ma_names=["MA1", "MA2"])
        assert tried == [["MA1", "MA2"], ["MA1", "MA2"], ["MA2"]]
        assert set(client.rejections_by_ma) == {"MA1", "MA2"}


class TestOneCallRoutine:
    """The 1-MA run of the one request routine, pinned to what it produced
    before the two client classes were merged (commit 62c90f9)."""

    def test_same_request_ids_and_event_stream(self):
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
        client = DietClient(federation.fabric, federation.client_host,
                            name="cli")
        client.initialize({"MA_name": federation.ma_names[0]})
        served = []

        def drive():
            for _ in range(3):
                handle = client.function_handle("echo")
                status = yield from client.call(_instantiate(_desc()), handle)
                served.append((status, handle.server))
            with pytest.raises(ServerNotFoundError):
                yield from client.call(
                    _instantiate(_desc("nobody-serves-this")))

        engine.run_process(drive())
        assert served == [(0, "SeD-g0-lyon-capricorne-sed0"),
                          (0, "SeD-g0-lyon-capricorne-sed1"),
                          (0, "SeD-g0-lyon-sagittaire-sed0")]
        assert federation.fabric.new_request_id() == 5
        assert client.redirects == 0 and client.rejections == 1
        digest = kernel_reference.digest(log, engine.now)
        # Simulated time: every instant at which anything happened, derived
        # from the kernel of commit 8d8922f (10.941626753333335, 116
        # instants, 60b043cd...) by dropping exactly its request-marshal-end
        # and dead-deadline instants; the last of those, 10 s after the
        # final fan-out, was the old final time.  Any other event cut keeps it.
        assert (digest["final_time"], digest["n_instants"]) \
            == ("0.9528796333333338", 90)
        assert digest["instants_sha256"] == ("f4982da210c7e12e334cf9197f6dca22"
                                             "c580d0cafb832725e7a9dc1422fb3083")
        # The stream itself (449 events until the zero-time events of the
        # message path went, 307 until an RPC became six events, 237 until
        # a fan-out leg became its reply token and a handler booted at its
        # dispatch end).
        assert digest["n_events"] == 187
        assert digest["sha256"] == ("5631a246d021f479d929158c59acc08a"
                                    "4d84ed2886bd511a62ee9e8b5e304867")
