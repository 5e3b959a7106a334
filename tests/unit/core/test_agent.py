"""Unit tests for Local Agents and the Master Agent."""

import pytest

from repro.core import (
    BaseType,
    LocalAgent,
    MasterAgent,
    ProfileDesc,
    SeD,
    ServerNotFoundError,
    SubmitRequest,
    Tracer,
    TransportFabric,
    scalar_desc,
)
from repro.sim import Engine, Host, Link, Network


def toy_desc():
    desc = ProfileDesc("toy", 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    desc.set_arg(1, scalar_desc(BaseType.INT))
    return desc


def solve_toy(profile, ctx):
    yield from ctx.execute(1.0)
    profile.parameter(1).set(0)
    return 0


@pytest.fixture
def hierarchy():
    """MA -> 2 LAs -> 2 SeDs each."""
    engine = Engine()
    net = Network(engine)
    hub = net.add_host(Host(engine, "hub"))
    fabric = TransportFabric(engine, net)
    tracer = Tracer()

    ma = MasterAgent(fabric, hub, name="MA", tracer=tracer)
    seds = []
    for la_i in range(2):
        la_host = net.add_host(Host(engine, f"la{la_i}-host"))
        net.connect("hub", la_host.name, Link(f"wl{la_i}", 0.005, 1e8))
        la = LocalAgent(fabric, la_host, name=f"LA{la_i}", parent="MA")
        ma.add_child(la.name)
        la.launch()
        for sed_i in range(2):
            sed_host = net.add_host(Host(engine, f"sed{la_i}{sed_i}-host",
                                         speed=1.0 + la_i))
            net.connect(la_host.name, sed_host.name,
                        Link(f"sl{la_i}{sed_i}", 0.0001, 1e9))
            sed = SeD(fabric, sed_host, f"SeD{la_i}{sed_i}", ma_name="MA",
                      tracer=tracer)
            sed.add_service(toy_desc(), solve_toy)
            sed.launch()
            la.add_child(sed.name)
            seds.append(sed)
    ma.launch()

    cli = fabric.endpoint("cli", "hub")
    return engine, fabric, ma, seds, cli


class TestSubmit:
    def test_submit_returns_a_sed(self, hierarchy):
        engine, _, ma, seds, cli = hierarchy

        def call():
            sub = SubmitRequest(cli.fabric.new_request_id(), toy_desc(), "hub")
            sed_name, est = yield from cli.rpc("MA", "submit", sub)
            return sed_name, est

        sed_name, est = engine.run_process(call())
        assert sed_name in {s.name for s in seds}
        assert est.sed_name == sed_name

    def test_all_four_seds_are_candidates(self, hierarchy):
        engine, _, ma, seds, cli = hierarchy
        chosen = []

        def call():
            for _ in range(4):
                sub = SubmitRequest(cli.fabric.new_request_id(), toy_desc(), "hub")
                sed_name, _ = yield from cli.rpc("MA", "submit", sub)
                chosen.append(sed_name)

        engine.run_process(call())
        assert sorted(chosen) == sorted(s.name for s in seds)

    def test_unknown_service_raises_server_not_found(self, hierarchy):
        engine, _, _, _, cli = hierarchy

        def call():
            sub = SubmitRequest(cli.fabric.new_request_id(),
                                ProfileDesc("nonexistent", 0, 0, 0),
                                "hub")
            try:
                yield from cli.rpc("MA", "submit", sub)
            except ServerNotFoundError:
                return "not-found"

        assert engine.run_process(call()) == "not-found"

    def test_dispatch_counted_in_context(self, hierarchy):
        engine, _, ma, _, cli = hierarchy

        def call():
            for _ in range(3):
                sub = SubmitRequest(cli.fabric.new_request_id(), toy_desc(), "hub")
                yield from cli.rpc("MA", "submit", sub)

        engine.run_process(call())
        assert sum(ma.ctx.dispatched.values()) == 3

    def test_request_count_increments(self, hierarchy):
        engine, _, ma, _, cli = hierarchy

        def call():
            sub = SubmitRequest(cli.fabric.new_request_id(), toy_desc(), "hub")
            yield from cli.rpc("MA", "submit", sub)

        engine.run_process(call())
        assert ma.request_count == 1


class TestFaultTolerance:
    def test_dead_sed_pruned_from_candidates(self, hierarchy):
        """A SeD that stopped serving must not break scheduling."""
        engine, fabric, ma, seds, cli = hierarchy
        # silence one SeD's endpoint entirely
        fabric.unbind(seds[0].name)

        def call():
            sub = SubmitRequest(cli.fabric.new_request_id(), toy_desc(), "hub")
            sed_name, _ = yield from cli.rpc("MA", "submit", sub)
            return sed_name

        chosen = engine.run_process(call())
        assert chosen != seds[0].name

    def test_whole_la_subtree_pruned(self, hierarchy):
        engine, fabric, ma, seds, cli = hierarchy
        fabric.unbind("LA0")

        def call():
            sub = SubmitRequest(cli.fabric.new_request_id(), toy_desc(), "hub")
            sed_name, _ = yield from cli.rpc("MA", "submit", sub)
            return sed_name

        chosen = engine.run_process(call())
        assert chosen.startswith("SeD1")

    def test_job_done_feedback_updates_history(self, hierarchy):
        engine, _, ma, seds, cli = hierarchy

        def call():
            yield from cli.send("MA", "job_done",
                                payload={"sed": "SeD00", "duration": 42.0,
                                         "service": "toy"})

        engine.run_process(call())
        engine.run()
        assert ma.ctx.history_mean[("toy", "SeD00")] == 42.0


class TestChildManagement:
    def test_duplicate_child_rejected(self, hierarchy):
        _, _, ma, _, _ = hierarchy
        with pytest.raises(ValueError):
            ma.add_child("LA0")


class TestFanOutCost:
    """A fan-out leg is the reply token of its request: no process, no
    generator, and five events — request, handler boot (at the dispatch
    end), reply marshal, reply wire, reply token."""

    @pytest.mark.parametrize("k", (1, 3, 8))
    def test_a_gather_schedules_three_plus_five_per_child(self, k,
                                                          monkeypatch):
        from repro.core.requests import EstimateRequest
        from repro.sim import Event, Process

        engine = Engine()
        net = Network(engine)
        net.add_host(Host(engine, "agent"))
        fabric = TransportFabric(engine, net)
        agent = LocalAgent(fabric, net.host("agent"), "LA")

        def trivial(msg):
            return ([], 128)
            yield  # pragma: no cover - make this a generator function

        for i in range(k):
            name = f"sed{i}"
            net.add_host(Host(engine, name))
            net.connect("agent", name, Link(f"l{i}", 0.001, 1e8))
            child = fabric.endpoint(name, name)
            child.on("estimate", trivial)
            agent.add_child(name)
        agent.launch()
        joined = []
        all_of = Engine.all_of

        def spy(self, events):
            joined.append(list(events))
            return all_of(self, joined[-1])

        monkeypatch.setattr(Engine, "all_of", spy)

        def drive():
            before = engine.events_scheduled
            ests = yield from agent._gather(
                EstimateRequest(0, toy_desc()))
            return ests, engine.events_scheduled - before

        # The gather's own three: its processing charge, the one timer of
        # its legs' deadlines, its join.
        assert engine.run_process(drive()) == ([], 3 + 5 * k)
        (legs,) = joined
        assert len(legs) == k
        assert all(type(leg) is Event and not isinstance(leg, Process)
                   for leg in legs)
