"""Failure-injection integration tests: the middleware under adversity."""

import pytest

from repro.core import (
    BaseType,
    ProfileDesc,
    ServerNotFoundError,
    deploy_paper_hierarchy,
    scalar_desc,
)
from repro.platform import build_grid5000
from repro.sim import Engine


def toy_desc(name="toy"):
    desc = ProfileDesc(name, 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    desc.set_arg(1, scalar_desc(BaseType.INT))
    return desc


def solve_ok(profile, ctx):
    yield from ctx.execute(1.0)
    profile.parameter(1).set(1)
    return 0


def fresh_profile(desc, value=1):
    profile = desc.instantiate()
    profile.parameter(0).set(value)
    profile.parameter(1).set(None)
    return profile


@pytest.fixture
def deployment():
    dep = deploy_paper_hierarchy(build_grid5000(Engine()))
    return dep


class TestDeadSeDs:
    def test_requests_rerouted_around_dead_seds(self, deployment):
        desc = toy_desc()
        for sed in deployment.seds:
            sed.add_service(desc, solve_ok)
        deployment.launch_all()
        # kill 3 of the 11 SeDs after launch
        dead = {s.name for s in deployment.seds[:3]}
        for name in dead:
            deployment.fabric.unbind(name)

        client = deployment.client
        served_by = []

        def run():
            client.initialize({"MA_name": "MA"})
            for i in range(16):
                profile = fresh_profile(desc, i)
                handle = client.function_handle("toy")
                status = yield from client.call(profile, handle)
                assert status == 0
                served_by.append(handle.server)

        deployment.engine.run_process(run())
        assert not (set(served_by) & dead)
        assert len(set(served_by)) == 8     # all survivors used

    def test_all_seds_dead_raises(self, deployment):
        desc = toy_desc()
        for sed in deployment.seds:
            sed.add_service(desc, solve_ok)
        deployment.launch_all()
        for sed in deployment.seds:
            deployment.fabric.unbind(sed.name)

        client = deployment.client

        def run():
            client.initialize({"MA_name": "MA"})
            yield from client.call(fresh_profile(desc))

        with pytest.raises(ServerNotFoundError):
            deployment.engine.run_process(run())


class TestPartialServiceAvailability:
    def test_only_capable_seds_chosen(self, deployment):
        """Register the service on a subset; MA must only pick those."""
        desc = toy_desc()
        capable = deployment.seds[4:8]
        for sed in capable:
            sed.add_service(desc, solve_ok)
        # the rest serve something else so they can launch
        other = toy_desc("other")
        for sed in deployment.seds[:4] + deployment.seds[8:]:
            sed.add_service(other, solve_ok)
        deployment.launch_all()

        client = deployment.client
        served_by = set()

        def run():
            client.initialize({"MA_name": "MA"})
            for i in range(8):
                handle = client.function_handle("toy")
                status = yield from client.call(fresh_profile(desc, i), handle)
                assert status == 0
                served_by.add(handle.server)

        deployment.engine.run_process(run())
        assert served_by == {s.name for s in capable}


class TestApplicationFailures:
    def test_failing_solve_reports_nonzero_status(self, deployment):
        desc = toy_desc()

        def solve_crash(profile, ctx):
            yield from ctx.execute(0.5)
            raise RuntimeError("RAMSES segfault")

        for sed in deployment.seds:
            sed.add_service(desc, solve_crash)
        deployment.launch_all()

        client = deployment.client

        def run():
            client.initialize({"MA_name": "MA"})
            status = yield from client.call(fresh_profile(desc))
            return status

        assert deployment.engine.run_process(run()) == 1

    def test_failed_job_frees_the_slot(self, deployment):
        """A crash must not wedge the SeD's job slot."""
        desc = toy_desc()
        calls = {"n": 0}

        def solve_flaky(profile, ctx):
            yield from ctx.execute(0.5)
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first call dies")
            profile.parameter(1).set(99)
            return 0

        sed = deployment.seds[0]
        sed.add_service(desc, solve_flaky)
        other = toy_desc("other")
        for s in deployment.seds[1:]:
            s.add_service(other, solve_ok)
        deployment.launch_all()

        client = deployment.client

        def run():
            client.initialize({"MA_name": "MA"})
            first = yield from client.call(fresh_profile(desc))
            second_profile = fresh_profile(desc)
            second = yield from client.call(second_profile)
            return first, second, second_profile.parameter(1).get()

        first, second, value = deployment.engine.run_process(run())
        assert first == 1 and second == 0 and value == 99
        assert sed.job_slots.count == 0


class TestSlowSeDs:
    def test_agent_timeout_skips_unresponsive_child(self):
        """An estimate that never returns must not hang scheduling forever:
        the agent's child timeout prunes it."""
        from repro.core import AgentParams, FaultInjector

        engine = Engine()
        platform = build_grid5000(engine)
        dep = deploy_paper_hierarchy(
            platform, agent_params=AgentParams(child_timeout=2.0))
        desc = toy_desc()
        for sed in dep.seds:
            sed.add_service(desc, solve_ok)
        dep.launch_all()
        # stall one SeD's estimate path via fault injection (the handler
        # itself is untouched — the message just never reaches it in time)
        stalled = dep.seds[0]
        stalled.endpoint.faults = FaultInjector(
            delay=1e9, ops=("estimate",), points=("deliver",))

        client = dep.client

        def run():
            client.initialize({"MA_name": "MA"})
            handle = client.function_handle("toy")
            status = yield from client.call(fresh_profile(desc), handle)
            return status, handle.server

        status, server = engine.run_process(run(), until=1e8)
        assert status == 0
        assert server != stalled.name


class TestLostEstimates:
    """A dropped estimate request: agents do not retry estimates."""

    def _deploy(self):
        from repro.core import AgentParams, FaultInjector

        engine = Engine()
        dep = deploy_paper_hierarchy(
            build_grid5000(engine),
            agent_params=AgentParams(child_timeout=2.0))
        desc = toy_desc()
        # only one SeD knows the service; losing its estimate loses the call
        target = dep.seds[0]
        target.add_service(desc, solve_ok)
        other = toy_desc("other")
        for sed in dep.seds[1:]:
            sed.add_service(other, solve_ok)
        dep.launch_all()
        fault = target.endpoint.faults = FaultInjector(
            ops=("estimate",), points=("deliver",))
        fault.drop_next(1)
        return engine, dep, desc, target, fault

    def test_without_retry_the_request_fails(self):
        engine, dep, desc, target, fault = self._deploy()
        client = dep.client

        def run():
            client.initialize({"MA_name": "MA"})
            yield from client.call(fresh_profile(desc))

        with pytest.raises(ServerNotFoundError):
            engine.run_process(run(), until=1e8)
        assert fault.dropped == 1


class TestLostSubmit:
    """A dropped submit against the client's deadline/retry policy."""

    def test_rpc_retry_keeps_one_record_stamped_at_the_first_send(self):
        from repro.core import FaultInjector
        from repro.core.gridrpc import grpc_set_deadline
        from repro.obs import Observability

        engine, obs = Engine(), Observability()
        dep = deploy_paper_hierarchy(build_grid5000(engine), obs=obs)
        desc = toy_desc()
        for sed in dep.seds:
            sed.add_service(desc, solve_ok)
        dep.launch_all()
        fault = dep.ma.endpoint.faults = FaultInjector(
            ops=("submit",), points=("deliver",))
        fault.drop_next(1)
        client = dep.client
        grpc_set_deadline(client, 5.0, retries=1)

        def run():
            client.initialize({"MA_name": "MA"})
            yield engine.timeout(3.0)
            handle = client.function_handle("toy")
            status = yield from client.call(fresh_profile(desc), handle)
            return status, handle

        status, handle = engine.run_process(run(), until=1e8)
        assert status == 0 and fault.dropped == 1
        # The RPC layer re-sent the same request id: its one record covers
        # both attempts, from the first send to the second one's reply.
        (trace,) = dep.tracer.all_traces("toy")
        assert trace.request_id == handle.request_id
        assert trace.submitted_at == 3.0
        assert trace.found_at == handle.found_at > 3.0 + 5.0
        assert trace.status == 0
        (request,) = obs.spans.find(name="request")
        (finding,) = obs.spans.find(name="finding")
        assert request.ok and finding.ok and finding.start == 3.0
        assert obs.spans.open_count == 0
        assert not list(obs.spans.find(status="interrupted"))
