"""Unit tests for the GoDIET-like deployment builder."""

import pytest

from repro.core import (
    BaseType,
    DietError,
    MCTPolicy,
    ProfileDesc,
    deploy_paper_hierarchy,
    scalar_desc,
)
from repro.platform import build_grid5000
from repro.sim import Engine


@pytest.fixture
def platform():
    return build_grid5000(Engine())


class TestPaperHierarchy:
    def test_structure(self, platform):
        dep = deploy_paper_hierarchy(platform)
        assert dep.ma.name == "MA"
        assert len(dep.local_agents) == 6       # one LA per cluster
        assert len(dep.seds) == 11              # the paper's SeD count
        assert dep.client is not None

    def test_ma_children_are_the_las(self, platform):
        dep = deploy_paper_hierarchy(platform)
        assert sorted(dep.ma.children) == sorted(la.name for la in dep.local_agents)

    def test_las_own_their_cluster_seds(self, platform):
        dep = deploy_paper_hierarchy(platform)
        for la in dep.local_agents:
            cluster = la.name.removeprefix("LA-")
            for child in la.children:
                assert cluster in child

    def test_seds_have_nfs(self, platform):
        dep = deploy_paper_hierarchy(platform)
        for sed in dep.seds:
            assert sed.nfs is not None
            assert sed.nfs.is_mounted_on(sed.host.name)

    def test_policy_override(self, platform):
        dep = deploy_paper_hierarchy(platform, policy=MCTPolicy())
        assert isinstance(dep.ma.policy, MCTPolicy)

    def test_sed_lookup(self, platform):
        dep = deploy_paper_hierarchy(platform)
        name = dep.seds[0].name
        assert dep.sed_by_name(name).name == name
        with pytest.raises(DietError):
            dep.sed_by_name("SeD-ghost")

    def test_cluster_of_sed(self, platform):
        dep = deploy_paper_hierarchy(platform)
        assert dep.cluster_of_sed("SeD-nancy-grillon-sed0") == "nancy-grillon"

    def test_launch_all_serves(self, platform):
        dep = deploy_paper_hierarchy(platform)
        desc = ProfileDesc("t", 0, 0, 1)
        desc.set_arg(0, scalar_desc(BaseType.INT))
        desc.set_arg(1, scalar_desc(BaseType.INT))

        def solve(profile, ctx):
            yield from ctx.execute(0.1)
            profile.parameter(1).set(1)
            return 0

        for sed in dep.seds:
            sed.add_service(desc, solve)
        dep.launch_all()

        client = dep.client
        profile = desc.instantiate()
        profile.parameter(0).set(1)
        profile.parameter(1).set(None)

        def run():
            client.initialize({"MA_name": "MA"})
            return (yield from client.call(profile))

        assert dep.engine.run_process(run()) == 0

    def test_no_faults_and_only_declared_deadlines(self):
        # A message pays the transport's three charges and nothing else: no
        # production endpoint has a fault injector, and the only deadlines
        # are the ones the agents declare — ``estimate``, plus ``ping`` when
        # heartbeats are on — before or after a SeD restart, in a paper
        # hierarchy and in a federation.
        from repro.core import AgentParams, DietClient
        from repro.core.federation import FederationConfig, build_federation

        def check(fabric, agents, agent_ops):
            agents = {agent.name for agent in agents}
            for endpoint in fabric._endpoints.values():
                assert endpoint.faults is None, endpoint.name
                ops = agent_ops if endpoint.name in agents else set()
                assert set(endpoint.deadlines) == ops, endpoint.name

        dep = deploy_paper_hierarchy(build_grid5000(Engine()))
        dep.seds[0].crash()
        dep.seds[0].restart()
        assert {"MA", "client", dep.seds[0].name} <= set(
            dep.fabric._endpoints)
        check(dep.fabric, [dep.ma, *dep.local_agents], {"estimate"})

        fed = build_federation(Engine(), FederationConfig(
            n_grids=2, clusters_per_grid=1,
            agent_params=AgentParams(heartbeat_interval=5.0)))
        DietClient(fed.fabric, fed.client_host_for(0))
        agents = [a for grid in fed.grids
                  for a in (grid.ma, *grid.local_agents)]
        assert len(fed.fabric._endpoints) > len(agents) + 1
        check(fed.fabric, agents, {"estimate", "ping"})
