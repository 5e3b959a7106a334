"""SeD crash/restart, heartbeat deregistration and client resubmission.

The unit-level contract of the failure subsystem:

- ``SeD.crash()`` interrupts the in-flight solve, dead-letters the request
  (the caller sees :class:`CommunicationError`) and leaks no job slot;
- ``SeD.restart()`` brings a fresh endpoint up under the same name and
  re-registers with the parent LA;
- the LA heartbeat deregisters a persistently silent SeD and re-adds it
  when it announces itself again;
- ``DietClient.call_retry`` resubmits through the MA and a survivor
  absorbs the job; application failures are never retried.
"""

import pytest

from repro.core import (
    AgentParams,
    BaseType,
    CommunicationError,
    DietError,
    ProfileDesc,
    deploy_paper_hierarchy,
    scalar_desc,
)
from repro.platform import build_grid5000
from repro.sim import Engine, FailureInjector, Outage


def toy_desc(name="toy"):
    desc = ProfileDesc(name, 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    desc.set_arg(1, scalar_desc(BaseType.INT))
    return desc


def slow_solve(profile, ctx):
    yield from ctx.execute(500.0)
    profile.parameter(1).set(1)
    return 0


def fresh_profile(desc, value=1):
    profile = desc.instantiate()
    profile.parameter(0).set(value)
    profile.parameter(1).set(None)
    return profile


def deploy(heartbeat_interval=None):
    params = None
    if heartbeat_interval is not None:
        params = AgentParams(heartbeat_interval=heartbeat_interval,
                             heartbeat_timeout=1.0,
                             heartbeat_miss_threshold=2)
    return deploy_paper_hierarchy(build_grid5000(Engine()),
                                  agent_params=params)


class TestCrash:
    def test_crash_fails_inflight_solve_with_comm_error(self):
        dep = deploy()
        desc = toy_desc()
        for sed in dep.seds:
            sed.add_service(desc, slow_solve)
        dep.launch_all()
        client = dep.client
        victim = {}
        caught = []

        def run():
            client.initialize({"MA_name": "MA"})
            handle = client.function_handle("toy")
            profile = fresh_profile(desc)

            def crash_chosen():
                # Give the MA time to choose and the solve to start.
                yield dep.engine.timeout(5.0)
                sed = dep.sed_by_name(handle.server)
                victim["sed"] = sed
                assert sed.job_slots.count == 1  # solve in flight
                sed.crash()

            dep.engine.process(crash_chosen())
            try:
                yield from client.call(profile, handle)
            except CommunicationError as exc:
                caught.append(exc)

        dep.engine.run_process(run())
        assert caught, "crash must surface as CommunicationError at the caller"
        sed = victim["sed"]
        assert sed.is_down and sed.crash_count == 1
        assert sed.job_slots.count == 0, "crashed solve leaked its job slot"

    def test_crash_twice_raises(self):
        dep = deploy()
        desc = toy_desc()
        for sed in dep.seds:
            sed.add_service(desc, slow_solve)
        dep.launch_all()
        sed = dep.seds[0]
        sed.crash()
        with pytest.raises(DietError):
            sed.crash()

    def test_restart_serves_again_under_same_name(self):
        dep = deploy()
        desc = toy_desc()

        def fast_solve(profile, ctx):
            yield from ctx.execute(1.0)
            profile.parameter(1).set(1)
            return 0

        only = dep.seds[0]
        only.add_service(desc, fast_solve)  # the only SeD able to solve "toy"
        other = toy_desc("other")
        for sed in dep.seds[1:]:
            sed.add_service(other, fast_solve)  # SeDs refuse to launch empty
        dep.launch_all()
        client = dep.client
        injector = FailureInjector(dep.engine)
        injector.schedule(only, [Outage(at=1.0, duration=10.0)])
        statuses = []

        def run():
            client.initialize({"MA_name": "MA"})
            yield dep.engine.timeout(30.0)  # past the restart
            status = yield from client.call(fresh_profile(desc))
            statuses.append(status)

        dep.engine.run_until_complete(run())
        assert statuses == [0]
        assert injector.history[0].name == only.name
        assert only.crash_count == 1 and not only.is_down


class TestAnnounce:
    """A restarted SeD rejoins with one ``register`` RPC, never retried."""

    def _crash_victim(self):
        dep = deploy()
        desc = toy_desc()
        for sed in dep.seds:
            sed.add_service(desc, slow_solve)
        dep.launch_all()
        victim = dep.seds[0]
        la = next(a for a in dep.local_agents if victim.name in a.children)
        victim.crash()
        return dep, victim, la

    def test_restart_sends_one_register_rpc(self):
        dep, victim, la = self._crash_victim()
        handle_register = la._handle_register
        registers = []

        def counting(msg):
            registers.append(msg.payload)
            return (yield from handle_register(msg))

        la.endpoint.on("register", counting)
        victim.restart()
        dep.engine.run(until=60.0)
        assert registers == [victim.name]
        assert victim.name in la.children

    def test_a_failed_register_is_not_retried(self):
        dep, victim, la = self._crash_victim()
        la.endpoint.stop()
        victim.restart()
        with pytest.raises(CommunicationError, match="is stopped"):
            dep.engine.run(until=60.0)
        assert dep.engine.now == 0.0   # no backoff sleep before the raise


class TestHeartbeat:
    def test_dead_sed_deregistered_then_readded_on_restart(self):
        dep = deploy(heartbeat_interval=5.0)
        desc = toy_desc()
        for sed in dep.seds:
            sed.add_service(desc, slow_solve)
        dep.launch_all()
        victim = dep.seds[0]
        la = next(a for a in dep.local_agents
                  if victim.name in a.children)
        injector = FailureInjector(dep.engine)
        injector.schedule(victim, [Outage(at=2.0, duration=40.0)])
        dep.engine.run(until=120.0)
        assert victim.name in la.deregistrations
        # restarted SeD re-announced itself and is a child again
        assert victim.name in la.children
        assert la.heartbeat is not None
        assert any(n == victim.name for n, _ in la.heartbeat.recoveries)

    def test_surviving_seds_never_deregistered(self):
        dep = deploy(heartbeat_interval=5.0)
        desc = toy_desc()
        for sed in dep.seds:
            sed.add_service(desc, slow_solve)
        dep.launch_all()
        dep.engine.run(until=60.0)
        for la in dep.local_agents:
            assert la.deregistrations == []
        assert dep.ma.deregistrations == []


class TestCallRetry:
    def _launch_with_service(self, dep, work=200.0):
        desc = toy_desc()

        def solve(profile, ctx):
            yield from ctx.execute(work)
            profile.parameter(1).set(1)
            return 0

        for sed in dep.seds:
            sed.add_service(desc, solve)
        dep.launch_all()
        return desc

    def test_resubmits_to_survivor_after_crash(self):
        dep = deploy()
        desc = self._launch_with_service(dep)
        client = dep.client
        served_by = []

        def run():
            client.initialize({"MA_name": "MA"})
            handle = client.function_handle("toy")

            def crash_chosen():
                yield dep.engine.timeout(5.0)
                dep.sed_by_name(handle.server).crash()

            dep.engine.process(crash_chosen())
            status = yield from client.call_retry(
                fresh_profile(desc), handle, max_attempts=3)
            served_by.append(handle.server)
            return status

        assert dep.engine.run_process(run()) == 0
        assert client.resubmissions == 1
        assert not dep.sed_by_name(served_by[0]).is_down

    def test_application_failure_not_retried(self):
        dep = deploy()
        desc = toy_desc()

        def solve_fails(profile, ctx):
            yield from ctx.execute(1.0)
            return 7  # application-level failure status

        for sed in dep.seds:
            sed.add_service(desc, solve_fails)
        dep.launch_all()
        client = dep.client

        def run():
            client.initialize({"MA_name": "MA"})
            return (yield from client.call_retry(fresh_profile(desc),
                                                 max_attempts=5))

        assert dep.engine.run_process(run()) == 7
        assert client.resubmissions == 0

    def test_max_attempts_validated(self):
        dep = deploy()
        client = dep.client

        def run():
            client.initialize({"MA_name": "MA"})
            yield from client.call_retry(fresh_profile(toy_desc()),
                                         max_attempts=0)

        with pytest.raises(ValueError):
            dep.engine.run_process(run())
