"""Unit tests for GoDIET-style XML deployment descriptions."""

import pytest

from repro.core import (
    AgentParams,
    BaseType,
    DietError,
    ProfileDesc,
    ServerNotFoundError,
    Tracer,
    TransportFabric,
    deploy_paper_hierarchy,
    scalar_desc,
)
from repro.core.deployment import build_hierarchy
from repro.core.federation import FederationConfig, build_federation
from repro.core.godiet import (
    AgentSpec,
    HierarchySpec,
    SedSpec,
    deploy_from_spec,
    paper_hierarchy_spec,
    parse_godiet_xml,
    render_godiet_xml,
)
from repro.data import DataGrid
from repro.platform import build_grid5000
from repro.sim import Engine, FailureInjector, Outage


SAMPLE = """
<diet_configuration>
  <client host="lyon-ma"/>
  <master_agent name="MA" host="lyon-ma">
    <local_agent name="LA-a" host="lyon-capricorne-frontend">
      <sed name="SeD-1" host="lyon-capricorne-sed0"/>
      <sed name="SeD-2" host="lyon-capricorne-sed1"/>
    </local_agent>
    <local_agent name="LA-b" host="nancy-grillon-frontend">
      <local_agent name="LA-b-deep" host="nancy-grillon-frontend"/>
      <sed name="SeD-3" host="nancy-grillon-sed0"/>
    </local_agent>
  </master_agent>
</diet_configuration>
"""


class TestParse:
    def test_parse_structure(self):
        spec = parse_godiet_xml(SAMPLE)
        assert spec.master.name == "MA"
        assert [c.name for c in spec.master.children] == ["LA-a", "LA-b"]
        assert [s.name for s in spec.master.all_seds()] == ["SeD-1", "SeD-2",
                                                            "SeD-3"]
        assert spec.client_host == "lyon-ma"
        # nested LA supported
        assert spec.master.children[1].children[0].name == "LA-b-deep"

    def test_roundtrip(self):
        spec = parse_godiet_xml(SAMPLE)
        again = parse_godiet_xml(render_godiet_xml(spec))
        assert [a.name for a in again.master.all_agents()] == \
            [a.name for a in spec.master.all_agents()]
        assert [s.name for s in again.master.all_seds()] == \
            [s.name for s in spec.master.all_seds()]

    def test_malformed_rejected(self):
        with pytest.raises(DietError, match="malformed"):
            parse_godiet_xml("<diet_configuration>")
        with pytest.raises(DietError, match="root element"):
            parse_godiet_xml("<wrong/>")
        with pytest.raises(DietError, match="master_agent"):
            parse_godiet_xml("<diet_configuration/>")

    def test_missing_attributes_rejected(self):
        with pytest.raises(DietError, match="name"):
            parse_godiet_xml(
                "<diet_configuration><master_agent host='h'/>"
                "</diet_configuration>")

    def test_duplicate_names_rejected(self):
        spec = HierarchySpec(master=AgentSpec(
            name="MA", host="h",
            seds=[SedSpec("X", "h1"), SedSpec("X", "h2")]))
        with pytest.raises(DietError, match="duplicate"):
            spec.validate()

    def test_empty_hierarchy_rejected(self):
        spec = HierarchySpec(master=AgentSpec(name="MA", host="h"))
        with pytest.raises(DietError, match="no SeD"):
            spec.validate()


def _wiring(dep):
    """Everything the builder decides, as plain comparable data."""
    agents = [(a.name, a.host.name, a.parent, a.routing, list(a.children),
               a.data_catalog.name)
              for a in [dep.ma] + dep.local_agents]
    seds = [(s.name, s.host.name, s.parent, s.ma_name, s.routing,
             s.nfs.name, s.tracer is dep.tracer, s.data_manager.catalog.name)
            for s in dep.seds]
    return {"agents": agents, "seds": seds, "routing": dep.routing,
            "la_tracers_shared": all(a.tracer is dep.tracer
                                     for a in dep.local_agents),
            "client": (dep.client.name, dep.client.host.name),
            "volumes": sorted(dep.data_grid.volumes),
            "endpoints": [c.endpoint.name for c in
                          [dep.ma, *dep.local_agents, *dep.seds, dep.client]]}


class TestDeploy:
    def test_paper_spec_matches_builtin_deployment(self):
        """The built-in §5.1 entry point and a GoDIET-described tree are the
        same deployment: same endpoints, parents, routing and data-catalog
        wiring, in both routing modes."""
        spec = paper_hierarchy_spec(build_grid5000(Engine()))
        assert len(spec.master.children) == 6
        assert len(spec.master.all_seds()) == 11
        for routing in ("pull", "push"):
            builtin = deploy_paper_hierarchy(
                build_grid5000(Engine()), routing=routing)
            platform = build_grid5000(Engine())
            described = build_hierarchy(
                parse_godiet_xml(render_godiet_xml(spec)), platform,
                TransportFabric(platform.engine, platform.network), Tracer(),
                DataGrid(platform.network), routing=routing)
            assert _wiring(described) == _wiring(builtin)
            assert len(_wiring(builtin)["volumes"]) == 6  # one per cluster
        # ... and what deploy_from_spec itself can express (pull)
        assert (_wiring(deploy_from_spec(build_grid5000(Engine()), spec))
                == _wiring(deploy_paper_hierarchy(build_grid5000(Engine()))))

    def test_every_builder_wires_exactly_one_data_grid(self):
        """The three builders hand every component the stack's one grid:
        SeD managers, agent catalog nodes and the memo all belong to it,
        and the grids of a federation share one."""
        def check(stack, grid):
            assert stack.data_grid is grid
            assert stack.ma.data_catalog is grid.root
            for agent in [stack.ma] + stack.local_agents:
                assert agent.data_grid is grid
                assert agent.memo is grid.memo
            for la in stack.local_agents:
                assert la.data_catalog is grid.node(la.name)
                assert la.data_catalog.parent is grid.root
            for sed in stack.seds:
                assert sed.data_manager.grid is grid
                assert grid.managers[sed.name] is sed.data_manager
                assert sed.data_manager.catalog is grid.node(sed.parent)

        paper = deploy_paper_hierarchy(build_grid5000(Engine()))
        check(paper, paper.data_grid)
        spec = paper_hierarchy_spec(build_grid5000(Engine()))
        described = deploy_from_spec(build_grid5000(Engine()), spec)
        check(described, described.data_grid)
        assert described.data_grid is not paper.data_grid
        federation = build_federation(
            Engine(), FederationConfig(n_grids=2, clusters_per_grid=1))
        assert federation.memo is federation.data_grid.memo
        for grid in federation.grids:
            check(grid, federation.data_grid)

    def test_spec_deployed_sed_rejoins_after_crash(self):
        """Crash -> heartbeat deregistration -> restart -> re-registration
        -> rescheduled, on a GoDIET-deployed tree: its SeDs know their
        parent LA, so a restarted one is schedulable again."""
        engine = Engine()
        spec = HierarchySpec(
            master=AgentSpec(name="MA", host="lyon-ma", children=[AgentSpec(
                name="LA", host="nancy-grillon-frontend",
                seds=[SedSpec("SeD-only", "nancy-grillon-sed0")])]),
            client_host="lyon-ma")
        platform = build_grid5000(engine)
        dep = build_hierarchy(
            spec, platform, TransportFabric(engine, platform.network),
            Tracer(), DataGrid(platform.network),
            agent_params=AgentParams(heartbeat_interval=5.0,
                                     heartbeat_timeout=1.0,
                                     heartbeat_miss_threshold=2))
        desc = ProfileDesc("svc", 0, 0, 1)
        desc.set_arg(0, scalar_desc(BaseType.INT))
        desc.set_arg(1, scalar_desc(BaseType.INT))

        def solve(profile, ctx):
            yield from ctx.execute(0.1)
            profile.parameter(1).set(1)
            return 0

        (victim,), (la,) = dep.seds, dep.local_agents
        victim.add_service(desc, solve)
        dep.launch_all()
        FailureInjector(engine).schedule(victim,
                                         [Outage(at=2.0, duration=40.0)])
        client = dep.client

        def fresh():
            profile = desc.instantiate()
            profile.parameter(0).set(0)
            profile.parameter(1).set(None)
            return profile

        def run():
            client.initialize({"MA_name": "MA"})
            yield engine.timeout(30.0)          # down and deregistered
            with pytest.raises(ServerNotFoundError):
                yield from client.call(fresh())
            deregistered = list(la.children)
            yield engine.timeout(60.0)          # back since t=42
            handle = client.function_handle("svc")
            status = yield from client.call(fresh(), handle)
            return deregistered, status, handle.server

        deregistered, status, server = engine.run_until_complete(run())
        assert deregistered == [] and la.deregistrations == ["SeD-only"]
        assert la.children == ["SeD-only"]
        assert (status, server) == (0, "SeD-only")

    def test_deploy_from_xml_end_to_end(self):
        engine = Engine()
        platform = build_grid5000(engine)
        spec = parse_godiet_xml(render_godiet_xml(
            paper_hierarchy_spec(platform)))
        deployment = deploy_from_spec(platform, spec)
        assert len(deployment.seds) == 11
        assert len(deployment.local_agents) == 6

        desc = ProfileDesc("svc", 0, 0, 1)
        desc.set_arg(0, scalar_desc(BaseType.INT))
        desc.set_arg(1, scalar_desc(BaseType.INT))

        def solve(profile, ctx):
            yield from ctx.execute(0.1)
            profile.parameter(1).set(profile.parameter(0).get() * 3)
            return 0

        for sed in deployment.seds:
            sed.add_service(desc, solve)
        deployment.launch_all()

        client = deployment.client
        profile = desc.instantiate()
        profile.parameter(0).set(14)
        profile.parameter(1).set(None)

        def run():
            client.initialize({"MA_name": "MA"})
            return (yield from client.call(profile))

        assert engine.run_process(run()) == 0
        assert profile.parameter(1).get() == 42

    def test_unknown_host_rejected(self):
        platform = build_grid5000(Engine())
        spec = HierarchySpec(master=AgentSpec(
            name="MA", host="no-such-host",
            seds=[SedSpec("S", "also-missing")]))
        with pytest.raises(Exception):
            deploy_from_spec(platform, spec)

    def test_deep_hierarchy_routes_requests(self):
        """A 3-level hierarchy (MA -> LA -> LA -> SeD) still schedules."""
        engine = Engine()
        platform = build_grid5000(engine)
        inner = AgentSpec(name="LA-inner",
                          host="nancy-grillon-frontend",
                          seds=[SedSpec("SeD-deep", "nancy-grillon-sed0")])
        spec = HierarchySpec(
            master=AgentSpec(name="MA", host="lyon-ma",
                             children=[AgentSpec(
                                 name="LA-outer",
                                 host="nancy-grillon-frontend",
                                 children=[inner])]),
            client_host="lyon-ma")
        deployment = deploy_from_spec(platform, spec)

        desc = ProfileDesc("svc", 0, 0, 1)
        desc.set_arg(0, scalar_desc(BaseType.INT))
        desc.set_arg(1, scalar_desc(BaseType.INT))

        def solve(profile, ctx):
            yield from ctx.execute(0.1)
            profile.parameter(1).set(1)
            return 0

        deployment.seds[0].add_service(desc, solve)
        deployment.launch_all()

        client = deployment.client
        profile = desc.instantiate()
        profile.parameter(0).set(0)
        profile.parameter(1).set(None)
        servers = []

        def run():
            client.initialize({"MA_name": "MA"})
            handle = client.function_handle("svc")
            status = yield from client.call(profile, handle)
            servers.append(handle.server)
            return status

        assert engine.run_process(run()) == 0
        assert servers == ["SeD-deep"]
