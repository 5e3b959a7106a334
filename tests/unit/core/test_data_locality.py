"""Unit tests for data-locality-aware scheduling (DTM + scheduler)."""

import numpy as np
import pytest

from repro.core import (
    BaseType,
    DataHandle,
    DataLocalityPolicy,
    EstimationVector,
    PersistenceMode,
    ProfileDesc,
    SchedulingContext,
    deploy_paper_hierarchy,
    scalar_desc,
)
from repro.core.data import ArgDesc, CompositeType
from repro.platform import build_grid5000
from repro.sim import Engine


class TestPolicyUnit:
    def cands(self, names):
        return [EstimationVector(n, "h", 0, 1.0, float("inf")) for n in names]

    def test_prefers_data_owner(self):
        policy = DataLocalityPolicy()
        ctx = SchedulingContext()
        ctx.resident_bytes = {"sed-b": 10 ** 8}
        chosen = policy.choose(self.cands(["sed-a", "sed-b", "sed-c"]), ctx)
        assert chosen.sed_name == "sed-b"

    def test_overloaded_owner_skipped(self):
        policy = DataLocalityPolicy(max_backlog=2)
        ctx = SchedulingContext()
        ctx.resident_bytes = {"sed-b": 10 ** 8}
        for _ in range(4):
            ctx.note_dispatch("sed-b")    # 4 in flight > max_backlog
        chosen = policy.choose(self.cands(["sed-a", "sed-b", "sed-c"]), ctx)
        assert chosen.sed_name != "sed-b"

    def test_no_data_falls_back_to_load(self):
        policy = DataLocalityPolicy()
        ctx = SchedulingContext()
        ctx.note_dispatch("sed-a")
        chosen = policy.choose(self.cands(["sed-a", "sed-b"]), ctx)
        assert chosen.sed_name == "sed-b"

    def test_validation(self):
        with pytest.raises(ValueError):
            DataLocalityPolicy(max_backlog=-1)


def produce_desc():
    desc = ProfileDesc("produce", 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    desc.set_arg(1, ArgDesc(CompositeType.VECTOR, BaseType.DOUBLE,
                            PersistenceMode.PERSISTENT))
    return desc


def consume_desc():
    desc = ProfileDesc("consume", 0, 0, 1)
    desc.set_arg(0, ArgDesc(CompositeType.VECTOR, BaseType.DOUBLE,
                            PersistenceMode.PERSISTENT))
    desc.set_arg(1, scalar_desc(BaseType.DOUBLE))
    return desc


def solve_produce(profile, ctx):
    yield from ctx.execute(0.5)
    profile.parameter(1).set(np.arange(profile.parameter(0).get(),
                                       dtype=float))
    return 0


def solve_consume(profile, ctx):
    v = profile.parameter(0).get()
    yield from ctx.execute(0.5)
    profile.parameter(1).set(float(np.sum(v)))
    return 0


class TestEndToEndLocality:
    def build(self, policy):
        dep = deploy_paper_hierarchy(build_grid5000(Engine()), policy=policy)
        for sed in dep.seds:
            sed.add_service(produce_desc(), solve_produce)
            sed.add_service(consume_desc(), solve_consume)
        dep.launch_all()
        dep.client.initialize({"MA_name": "MA"})
        return dep

    def run_chain(self, dep, n_consumers=5):
        """Produce once, consume n times; returns (owner, consumers)."""
        client = dep.client
        servers = []

        def session():
            p1 = produce_desc().instantiate()
            p1.parameter(0).set(200_000)
            p1.parameter(1).set(None)
            handle_obj = client.function_handle("produce")
            yield from client.call(p1, handle_obj)
            servers.append(handle_obj.server)
            data = p1.parameter(1).get()
            assert isinstance(data, DataHandle)
            for _ in range(n_consumers):
                p2 = consume_desc().instantiate()
                p2.parameter(0).set(data)
                p2.parameter(1).set(None)
                h2 = client.function_handle("consume")
                yield from client.call(p2, h2)
                servers.append(h2.server)
                assert p2.parameter(1).get() == sum(range(200_000))

        dep.engine.run_process(session())
        return servers[0], servers[1:]

    def test_locality_policy_pins_consumers_to_owner(self):
        dep = self.build(DataLocalityPolicy())
        owner, consumers = self.run_chain(dep)
        assert all(c == owner for c in consumers)

    def test_default_policy_spreads_consumers(self):
        dep = self.build(None)   # default policy
        owner, consumers = self.run_chain(dep)
        assert len(set(consumers)) > 1

    def test_locality_saves_network_bytes(self):
        """The 1.6 MB payload never crosses the network under locality."""
        dep_local = self.build(DataLocalityPolicy())
        self.run_chain(dep_local)
        dep_spread = self.build(None)
        self.run_chain(dep_spread)
        assert (dep_local.fabric.bytes_sent
                < dep_spread.fabric.bytes_sent / 2)
