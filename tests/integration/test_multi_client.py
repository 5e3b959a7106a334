"""Integration: several clients sharing one DIET deployment.

§2.1: "Different kinds of clients should be able to connect to DIET" — the
MA serves them all; scheduling state is shared, so concurrent sessions
compete for the same SeDs without interference or double-booking.
"""

import pytest

from repro.core import (
    BaseType,
    DietClient,
    ProfileDesc,
    deploy_paper_hierarchy,
    scalar_desc,
)
from repro.platform import build_grid5000
from repro.sim import Engine


def toy_desc():
    desc = ProfileDesc("toy", 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    desc.set_arg(1, scalar_desc(BaseType.INT))
    return desc


def solve_toy(profile, ctx):
    yield from ctx.execute(2.0 * ctx.host.speed)   # 2 s everywhere
    profile.parameter(1).set(profile.parameter(0).get() + 100)
    return 0


@pytest.fixture
def stack():
    engine = Engine()
    platform = build_grid5000(engine)
    deployment = deploy_paper_hierarchy(platform)
    desc = toy_desc()
    for sed in deployment.seds:
        sed.add_service(desc, solve_toy)
    deployment.launch_all()
    clients = [DietClient(deployment.fabric, platform.client_host,
                          name=f"client-{i}", tracer=deployment.tracer)
               for i in range(3)]
    return engine, deployment, clients, desc


class TestMultiClient:
    def test_concurrent_sessions_all_served(self, stack):
        engine, deployment, clients, desc = stack
        results = {}

        def session(client, tag, n_requests):
            client.initialize({"MA_name": "MA"})
            profiles = []
            for i in range(n_requests):
                p = desc.instantiate()
                p.parameter(0).set(i)
                p.parameter(1).set(None)
                profiles.append(p)
                client.call_async(p)
            yield from client.wait_all()
            results[tag] = [p.parameter(1).get() for p in profiles]

        for i, client in enumerate(clients):
            engine.process(session(client, i, 8))
        engine.run()
        assert results == {i: [100 + j for j in range(8)] for i in range(3)}

    def test_load_spread_across_clients(self, stack):
        """24 simultaneous requests from 3 clients spread like one burst."""
        engine, deployment, clients, desc = stack

        def session(client, n_requests):
            client.initialize({"MA_name": "MA"})
            for i in range(n_requests):
                p = desc.instantiate()
                p.parameter(0).set(i)
                p.parameter(1).set(None)
                client.call_async(p)
            yield from client.wait_all()

        for client in clients:
            engine.process(session(client, 8))
        engine.run()
        counts = deployment.tracer.requests_per_sed("toy")
        assert sum(counts.values()) == 24
        # 24 requests over 11 SeDs: max 3 per SeD under the default policy
        assert max(counts.values()) <= 3

    def test_no_double_booking(self, stack):
        """Per-SeD solve spans never overlap even with competing clients."""
        engine, deployment, clients, desc = stack

        def session(client, n_requests):
            client.initialize({"MA_name": "MA"})
            for i in range(n_requests):
                p = desc.instantiate()
                p.parameter(0).set(i)
                p.parameter(1).set(None)
                client.call_async(p)
            yield from client.wait_all()

        for client in clients:
            engine.process(session(client, 15))
        engine.run()
        for sed, spans in deployment.tracer.gantt("toy").items():
            for (s1, e1, _), (s2, e2, _) in zip(spans[:-1], spans[1:]):
                assert s2 >= e1 - 1e-9, f"double booking on {sed}"
