"""Unit tests for persistent data management (DTM) and call cancellation."""

import numpy as np
import pytest

from repro.core import (
    BaseType,
    DataHandle,
    PersistenceMode,
    ProfileDesc,
    deploy_paper_hierarchy,
    scalar_desc,
)
from repro.core.data import ArgDesc, CompositeType, HANDLE_WIRE_BYTES, sizeof_value
from repro.core.gridrpc import grpc_cancel
from repro.platform import build_grid5000
from repro.sim import Engine


def persistent_vector_desc(mode=PersistenceMode.PERSISTENT):
    return ArgDesc(CompositeType.VECTOR, BaseType.DOUBLE, mode)


def produce_desc(mode=PersistenceMode.PERSISTENT):
    desc = ProfileDesc("produce", 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    desc.set_arg(1, persistent_vector_desc(mode))
    return desc


def consume_desc():
    desc = ProfileDesc("consume", 0, 0, 1)
    desc.set_arg(0, persistent_vector_desc())
    desc.set_arg(1, scalar_desc(BaseType.DOUBLE))
    return desc


def solve_produce(profile, ctx):
    n = profile.parameter(0).get()
    yield from ctx.execute(0.5)
    profile.parameter(1).set(np.arange(n, dtype=float))
    return 0


def solve_consume(profile, ctx):
    v = profile.parameter(0).get()
    yield from ctx.execute(0.5)
    profile.parameter(1).set(float(np.sum(v)))
    return 0


@pytest.fixture
def deployment():
    dep = deploy_paper_hierarchy(build_grid5000(Engine()))
    for sed in dep.seds:
        sed.add_service(produce_desc(), solve_produce)
        sed.add_service(consume_desc(), solve_consume)
    dep.launch_all()
    dep.client.initialize({"MA_name": "MA"})
    return dep


class TestHandleWireFormat:
    def test_handle_travels_as_reference(self):
        handle = DataHandle("id", "sed", nbytes=10 ** 9)
        assert sizeof_value(CompositeType.VECTOR, BaseType.DOUBLE,
                            handle) == HANDLE_WIRE_BYTES

    def test_negative_size_rejected(self):
        from repro.core import DataError
        with pytest.raises(DataError):
            DataHandle("id", "sed", nbytes=-1)


class TestPersistence:
    def _produce(self, dep, n=1000, mode=PersistenceMode.PERSISTENT):
        desc = produce_desc(mode)
        profile = desc.instantiate()
        profile.parameter(0).set(n)
        profile.parameter(1).set(None)
        handle = dep.client.function_handle("produce")

        def run():
            status = yield from dep.client.call(profile, handle)
            return status

        status = dep.engine.run_process(run())
        assert status == 0
        return profile, handle.server

    def test_persistent_out_returns_handle(self, deployment):
        profile, server = self._produce(deployment)
        handle = profile.parameter(1).get()
        assert isinstance(handle, DataHandle)
        assert handle.sed_name == server
        assert handle.nbytes == 1000 * 8

    def test_persistent_return_ships_value_and_keeps_copy(self, deployment):
        profile, server = self._produce(
            deployment, mode=PersistenceMode.PERSISTENT_RETURN)
        value = profile.parameter(1).get()
        assert isinstance(value, np.ndarray)
        sed = deployment.sed_by_name(server)
        assert len(sed.data_manager.store) == 1

    def test_volatile_leaves_no_server_copy(self, deployment):
        profile, server = self._produce(deployment,
                                        mode=PersistenceMode.VOLATILE)
        assert isinstance(profile.parameter(1).get(), np.ndarray)
        sed = deployment.sed_by_name(server)
        assert len(sed.data_manager.store) == 0

    def test_handle_resolves_on_owner_or_peer(self, deployment):
        """Passing the handle to a later call yields the original data even
        when the scheduler routes the job to a different SeD."""
        profile, _ = self._produce(deployment, n=500)
        handle = profile.parameter(1).get()

        totals = []

        def run():
            for _ in range(3):
                p = consume_desc().instantiate()
                p.parameter(0).set(handle)
                p.parameter(1).set(None)
                assert p.request_nbytes() == HANDLE_WIRE_BYTES
                status = yield from deployment.client.call(p)
                assert status == 0
                totals.append(p.parameter(1).get())

        deployment.engine.run_process(run())
        assert totals == [sum(range(500))] * 3

    def test_stale_handle_fails_cleanly(self, deployment):
        bogus = DataHandle("nonexistent", deployment.seds[0].name, 100)
        p = consume_desc().instantiate()
        p.parameter(0).set(bogus)
        p.parameter(1).set(None)

        def run():
            status = yield from deployment.client.call(p)
            return status

        # the data error surfaces as a failed service call (status 1)
        assert deployment.engine.run_process(run()) == 1


class TestCancel:
    def test_cancel_inflight_request(self, deployment):
        client, engine = deployment.client, deployment.engine
        profile = produce_desc().instantiate()
        profile.parameter(0).set(10)
        profile.parameter(1).set(None)

        def run():
            req = client.call_async(profile)
            yield engine.timeout(0.001)   # while still finding/queueing
            cancelled = grpc_cancel(req)
            status = yield from req.wait()
            return cancelled, status

        cancelled, status = engine.run_process(run())
        assert cancelled is True
        assert status == client.STATUS_CANCELLED

    def test_cancel_completed_request_returns_false(self, deployment):
        client, engine = deployment.client, deployment.engine
        profile = produce_desc().instantiate()
        profile.parameter(0).set(10)
        profile.parameter(1).set(None)

        def run():
            req = client.call_async(profile)
            yield from req.wait()
            return grpc_cancel(req)

        assert engine.run_process(run()) is False
