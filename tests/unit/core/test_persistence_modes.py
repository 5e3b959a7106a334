"""End-to-end persistence-mode semantics on a grid-wired deployment.

Client → MA → SeD calls (no direct manager poking): DIET_PERSISTENT moves
the bytes once per consuming SeD, DIET_STICKY is consumed where it is
pinned, DIET_VOLATILE leaves no server copy after the reply.
"""

import numpy as np

from repro.core import (
    BaseType,
    DataHandle,
    PersistenceMode,
    ProfileDesc,
    deploy_paper_hierarchy,
    scalar_desc,
)
from repro.core.data import ArgDesc, CompositeType, HANDLE_WIRE_BYTES
from repro.platform import build_grid5000
from repro.sim import Engine


def vector_desc(mode):
    return ArgDesc(CompositeType.VECTOR, BaseType.DOUBLE, mode)


def produce_desc(name, mode):
    desc = ProfileDesc(name, 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    desc.set_arg(1, vector_desc(mode))
    return desc


def consume_desc():
    desc = ProfileDesc("consume", 0, 0, 1)
    desc.set_arg(0, vector_desc(PersistenceMode.PERSISTENT))
    desc.set_arg(1, scalar_desc(BaseType.DOUBLE))
    return desc


def solve_produce(profile, ctx):
    n = profile.parameter(0).get()
    yield from ctx.execute(0.1)
    profile.parameter(1).set(np.arange(n, dtype=float))
    return 0


def solve_consume(profile, ctx):
    v = profile.parameter(0).get()
    yield from ctx.execute(0.1)
    profile.parameter(1).set(float(np.sum(v)))
    return 0


def _noop_desc():
    desc = ProfileDesc("noop", 0, 0, 0)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    return desc


def _solve_noop(profile, ctx):
    yield from ctx.execute(0.1)
    return 0


def build():
    dep = deploy_paper_hierarchy(build_grid5000(Engine()))
    for sed in dep.seds:
        sed.add_service(_noop_desc(), _solve_noop)
    return dep


def finish(dep):
    dep.launch_all()
    dep.client.initialize({"MA_name": "MA"})
    return dep


def call(dep, profile):
    def run():
        status = yield from dep.client.call(profile)
        return status

    status = dep.engine.run_process(run())
    assert status == 0


def produce(dep, name, n, mode):
    profile = produce_desc(name, mode).instantiate()
    profile.parameter(0).set(n)
    profile.parameter(1).set(None)
    call(dep, profile)
    return profile.parameter(1).get()


class TestPersistentTransferredOnce:
    def test_two_calls_to_same_sed_move_the_bytes_once(self):
        dep = build()
        producer = dep.seds[0]
        consumer = next(s for s in dep.seds
                        if s.cluster != producer.cluster)
        # One candidate per service: MA's choice of SeD is forced, so both
        # consume calls land on the same SeD end to end.
        producer.add_service(produce_desc("produce",
                                          PersistenceMode.PERSISTENT),
                             solve_produce)
        consumer.add_service(consume_desc(), solve_consume)
        finish(dep)

        handle = produce(dep, "produce", 500, PersistenceMode.PERSISTENT)
        assert isinstance(handle, DataHandle)
        assert handle.sed_name == producer.name

        totals = []
        for _ in range(2):
            p = consume_desc().instantiate()
            p.parameter(0).set(handle)
            p.parameter(1).set(None)
            assert p.request_nbytes() == HANDLE_WIRE_BYTES
            call(dep, p)
            totals.append(p.parameter(1).get())

        assert totals == [float(sum(range(500)))] * 2
        stats = dep.data_grid.stats
        # First consume pulls the 4000 payload bytes across the WAN and
        # keeps the copy; the second is a local hit.
        assert stats.misses == 1
        assert stats.hits == 1
        assert stats.bytes_moved == 500 * 8
        assert handle.data_id in consumer.data_manager.store


class TestStickyConsumedWherePinned:
    def test_sticky_is_consumed_on_its_sed_without_moving(self):
        dep = build()
        sed = dep.seds[0]
        sed.add_service(produce_desc("produce_sticky",
                                     PersistenceMode.STICKY),
                        solve_produce)
        sed.add_service(consume_desc(), solve_consume)
        finish(dep)

        sticky = produce(dep, "produce_sticky", 100,
                         PersistenceMode.STICKY)          # 800 bytes, pinned
        assert isinstance(sticky, DataHandle)
        assert sed.data_manager.store.entry(sticky.data_id).pinned

        p = consume_desc().instantiate()
        p.parameter(0).set(sticky)
        p.parameter(1).set(None)
        call(dep, p)
        assert p.parameter(1).get() == float(sum(range(100)))
        assert dep.data_grid.stats.hits == 1
        assert dep.data_grid.stats.bytes_moved == 0


class TestVolatileFreedAfterReply:
    def test_no_server_copy_remains(self):
        dep = build()
        sed = dep.seds[0]
        sed.add_service(produce_desc("produce",
                                     PersistenceMode.VOLATILE),
                        solve_produce)
        finish(dep)

        value = produce(dep, "produce", 200, PersistenceMode.VOLATILE)
        # The value came back to the client by copy...
        assert isinstance(value, np.ndarray)
        assert value.shape == (200,)
        # ...and nothing stayed behind: store and catalog are both empty.
        assert len(sed.data_manager.store) == 0
        assert len(dep.data_grid.root) == 0
