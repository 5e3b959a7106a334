"""Push-mode routing: delta propagation, batched admission, invalidation."""

import pytest

from repro.core import (
    BaseType,
    EstimateDelta,
    LocalAgent,
    MasterAgent,
    ProfileDesc,
    SeD,
    ServerNotFoundError,
    SubmitRequest,
    Tracer,
    TransportFabric,
    scalar_desc,
    vector_desc,
)
from repro.core.agent import ADMISSION_BATCH_MAX, AgentParams
from repro.obs import Observability
from repro.sim import Engine, Host, Link, Network


def toy_desc():
    desc = ProfileDesc("toy", 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    desc.set_arg(1, scalar_desc(BaseType.INT))
    return desc


#: Push tables are keyed by the service description's match key.
TOY = toy_desc().key


def solve_toy(profile, ctx):
    yield from ctx.execute(1.0)
    profile.parameter(1).set(0)
    return 0


def build(routing="push", agent_params=None, obs=None):
    """MA -> 2 LAs -> 2 SeDs each, mirroring the pull-mode agent fixture."""
    engine = Engine()
    net = Network(engine)
    hub = net.add_host(Host(engine, "hub"))
    fabric = TransportFabric(engine, net)
    tracer = Tracer(obs)

    ma = MasterAgent(fabric, hub, name="MA", tracer=tracer, routing=routing,
                     params=agent_params)
    las, seds = [], []
    for la_i in range(2):
        la_host = net.add_host(Host(engine, f"la{la_i}-host"))
        net.connect("hub", la_host.name, Link(f"wl{la_i}", 0.005, 1e8))
        la = LocalAgent(fabric, la_host, name=f"LA{la_i}", parent="MA",
                        routing=routing, params=agent_params)
        ma.add_child(la.name)
        la.launch()
        las.append(la)
        for sed_i in range(2):
            sed_host = net.add_host(Host(engine, f"sed{la_i}{sed_i}-host",
                                         speed=1.0 + la_i))
            net.connect(la_host.name, sed_host.name,
                        Link(f"sl{la_i}{sed_i}", 0.0001, 1e9))
            sed = SeD(fabric, sed_host, f"SeD{la_i}{sed_i}", ma_name="MA",
                      tracer=tracer, parent=la.name, routing=routing)
            sed.add_service(toy_desc(), solve_toy)
            sed.launch()
            la.add_child(sed.name)
            seds.append(sed)
    ma.launch()
    cli = fabric.endpoint("cli", "hub")
    cli.start()
    return engine, fabric, ma, las, seds, cli


def submit(cli, service=None):
    sub = SubmitRequest(cli.fabric.new_request_id(), service or toy_desc(), "hub", "cli")
    sed_name, est = yield from cli.rpc("MA", "submit", sub)
    return sed_name


class TestRoutingSwitch:
    def test_invalid_mode_rejected(self):
        engine = Engine()
        net = Network(engine)
        hub = net.add_host(Host(engine, "hub"))
        fabric = TransportFabric(engine, net)
        with pytest.raises(ValueError):
            MasterAgent(fabric, hub, name="MA", routing="gossip")
        with pytest.raises(ValueError):
            SeD(fabric, hub, "S", ma_name="MA", routing="gossip")

    def test_pull_mode_has_no_table(self):
        engine = Engine()
        net = Network(engine)
        hub = net.add_host(Host(engine, "hub"))
        fabric = TransportFabric(engine, net)
        ma = MasterAgent(fabric, hub, name="MA")
        assert ma.routing == "pull"
        assert ma.table is None


class TestTableMaterialization:
    def test_launch_pushes_populate_ma_table(self):
        engine, _, ma, las, seds, _ = build()
        engine.run()
        rows = ma.table.candidates(TOY)
        assert sorted(r.sed_name for r in rows) == sorted(
            s.name for s in seds)
        # provenance at the MA is the LA that forwarded, not the SeD
        assert {r.via for r in rows} == {"LA0", "LA1"}
        for la in las:
            assert len(la.table.candidates(TOY)) == 2

    def test_la_forwarding_coalesces_burst(self):
        engine, _, ma, _, _, _ = build()
        engine.run()
        # 2 SeDs per LA pushed within one processing window -> one delta
        # per LA reaches the MA (2 total), not one per SeD (4).
        assert ma.table.deltas_applied == 2

    def test_queue_change_triggers_repush(self):
        engine, _, ma, _, seds, cli = build()
        engine.run()
        before = {r.sed_name: r.seq for r in ma.table.candidates(TOY)}

        def call():
            sub = SubmitRequest(cli.fabric.new_request_id(), toy_desc(), "hub", "cli")
            sed_name, est = yield from cli.rpc("MA", "submit", sub)
            # drive the solve so the SeD's queue changes
            from repro.core.requests import SolveRequest
            profile = toy_desc().instantiate()
            profile.parameter(0).set(1)
            profile.parameter(1).set(None)
            yield from cli.rpc(sed_name, "solve",
                               SolveRequest(sub.request_id, profile, "cli"))
            return sed_name

        sed_name = engine.run_process(call())
        engine.run()  # let the post-solve push propagate
        after = {r.sed_name: r.seq for r in ma.table.candidates(TOY)}
        assert after[sed_name] > before[sed_name]


class TestPushAdmission:
    def test_submits_answered_from_table(self):
        engine, _, ma, _, seds, cli = build()
        chosen = []

        def call():
            for _ in range(4):
                chosen.append((yield from submit(cli)))

        engine.run_process(call())
        # default policy spreads across every SeD in the table
        assert sorted(chosen) == sorted(s.name for s in seds)
        assert sum(ma.ctx.dispatched.values()) == 4

    def test_cold_start_submit_waits_for_first_push(self):
        # Submit immediately at t=0: the table is empty until the launch
        # pushes land, so admission must park-then-admit, not reject.
        engine, _, ma, _, seds, cli = build()
        sed_name = engine.run_process(submit(cli))
        assert sed_name in {s.name for s in seds}
        assert ma.rejections == 0

    def test_unknown_service_rejects_after_grace(self):
        engine, _, ma, _, _, cli = build(
            agent_params=AgentParams(child_timeout=0.5))
        engine.run()
        t0 = engine.now

        def call():
            try:
                yield from submit(cli, ProfileDesc("nonexistent", 0, 0, 0))
            except ServerNotFoundError:
                return "not-found"

        assert engine.run_process(call()) == "not-found"
        assert ma.rejections == 1
        assert engine.now - t0 >= 0.5

    def test_burst_coalesces_into_one_batch(self):
        engine, _, ma, _, _, cli = build()
        engine.run()
        results = []

        def one():
            results.append((yield from submit(cli)))

        def burst():
            procs = [engine.process(one()) for _ in range(6)]
            yield engine.all_of(procs)

        engine.run_process(burst())
        assert len(results) == 6
        # a simultaneous burst pays one processing charge, so every reply
        # lands at the same instant
        assert ma.request_count == 6

    def test_batch_max_bounds_one_wakeup(self):
        engine, _, ma, _, _, cli = build()
        engine.run()
        answered_at = []

        def one():
            yield from submit(cli)
            answered_at.append(engine.now)

        def burst():
            procs = [engine.process(one())
                     for _ in range(ADMISSION_BATCH_MAX + 1)]
            yield engine.all_of(procs)

        engine.run_process(burst())
        # one wake-up admits ADMISSION_BATCH_MAX submits; the one left over
        # waits for the next wake-up and its own processing charge
        first, last = min(answered_at), max(answered_at)
        assert answered_at.count(first) == ADMISSION_BATCH_MAX
        assert last - first == pytest.approx(AgentParams().processing_time)


class TestInvalidation:
    def test_remove_child_drops_subtree_rows(self):
        engine, _, ma, _, seds, cli = build()
        engine.run()
        assert ma.remove_child("LA0")
        survivors = {r.sed_name for r in ma.table.candidates(TOY)}
        assert survivors == {"SeD10", "SeD11"}

        def call():
            out = []
            for _ in range(2):
                out.append((yield from submit(cli)))
            return out

        assert set(engine.run_process(call())) <= survivors

    def test_la_remove_child_cascades_removal_to_ma(self):
        engine, _, ma, las, _, _ = build()
        engine.run()
        las[0].remove_child("SeD00")
        engine.run()  # forward pump ships the removal upward
        assert "SeD00" not in {r.sed_name
                               for r in ma.table.candidates(TOY)}

    def test_late_delta_from_deregistered_child_ignored(self):
        engine, _, ma, _, _, _ = build()
        engine.run()
        ma.remove_child("LA0")
        n_before = len(ma.table.candidates(TOY))
        # a straggler delta arrives after deregistration
        from repro.core.scheduling import EstimationVector
        ghost = EstimateDelta("LA0", [(TOY, EstimationVector("SeD00"),
                                       "sed00-host", 99)])
        # handlers are generators; drive it to completion directly
        list(ma._handle_est_delta(type("M", (), {"payload": ghost})))
        assert len(ma.table.candidates(TOY)) == n_before

    def test_sed_crash_restart_repush(self):
        engine, _, ma, las, seds, cli = build()
        engine.run()
        victim = seds[0]
        seq_before = {r.sed_name: r.seq for r in ma.table.candidates(TOY)}
        victim.crash()
        las[0].remove_child(victim.name)  # what liveness would do
        engine.run()
        assert victim.name not in {r.sed_name
                                   for r in ma.table.candidates(TOY)}
        victim.restart()
        engine.run()  # register + re-announce push propagates
        rows = {r.sed_name: r.seq for r in ma.table.candidates(TOY)}
        assert victim.name in rows
        # the restart push outranks every pre-crash seq (monotone counter)
        assert rows[victim.name] > seq_before[victim.name]


class TestDeregRacingInFlightRequest:
    """Heartbeat-style deregistration racing an in-flight request must
    neither lose survivors nor double-count the dead subtree — in pull
    mode the estimate fan-out prunes it, in push mode the table does."""

    @pytest.mark.parametrize("routing,delay", [
        ("pull", 0.001),   # removal lands before the MA's fan-out snapshot
        ("pull", 0.010),   # removal lands mid-gather, estimates in flight
        ("push", 0.001),   # removal invalidates the table pre-admission
    ])
    def test_remove_child_mid_request(self, routing, delay):
        obs = Observability()
        engine, _, ma, las, seds, cli = build(routing=routing, obs=obs)
        engine.run()
        result = {}

        def call():
            result["sed"] = yield from submit(cli)

        def saboteur():
            yield engine.timeout(delay)
            # LA0's whole subtree dies and liveness deregisters it at
            # every level, exactly as the heartbeat monitor would.
            seds[0].crash()
            seds[1].crash()
            las[0].remove_child(seds[0].name)
            las[0].remove_child(seds[1].name)
            ma.remove_child("LA0")

        engine.process(call(), name="call")
        engine.process(saboteur(), name="saboteur")
        engine.run()
        assert result["sed"] in {seds[2].name, seds[3].name}
        sched = list(obs.spans.find(name="schedule"))[-1]
        # exactly the two survivors — the dead subtree neither lingers
        # nor gets counted twice through the removal cascade
        assert sched.attrs["n_candidates"] == 2


class TestParkWatchdogHeapFootprint:
    def test_no_residual_timer_per_admitted_submit(self):
        # 64 cold-start submits all park before the launch pushes land and
        # are then rescued and admitted.  The park machinery must not leave
        # one dead child_timeout timer per admitted request on the event
        # heap — the old per-item watchdogs slept the full grace period
        # regardless, an O(in-flight) heap leak at load.
        engine, _, ma, _, _, cli = build(
            agent_params=AgentParams(child_timeout=10.0))
        results = []

        def one():
            results.append((yield from submit(cli)))

        def burst():
            procs = [engine.process(one()) for _ in range(64)]
            yield engine.all_of(procs)

        # stop at burst completion — running the queue dry would let even
        # leaked watchdog timers fire and hide the footprint
        engine.run_until_complete(burst())
        assert len(results) == 64
        assert ma.rejections == 0
        # one sweeper timer plus a handful of transport residues — the old
        # code left >= 64 dead watchdog timers here
        assert len(engine._queue) <= 8


class TestParkedRescueFilter:
    def test_pure_removal_does_not_requeue_parked(self):
        engine, _, ma, _, _, cli = build(
            agent_params=AgentParams(child_timeout=60.0))
        engine.run()
        state = {}

        def call():
            try:
                yield from submit(cli, ProfileDesc("ghost", 0, 0, 0))
            except ServerNotFoundError:
                state["outcome"] = "rejected"

        def driver():
            yield engine.timeout(1.0)
            state["parked_before"] = len(ma._parked)
            # churn cascade: rows only disappear, nothing gained
            ma.remove_child("LA0")
            state["parked_now"] = len(ma._parked)

        engine.process(call(), name="call")
        engine.run_until_complete(driver())
        assert state["parked_before"] == 1
        # the old code drained _parked into the admission store on *any*
        # table change, burning an admission batch to re-park it
        assert state["parked_now"] == 1
        assert "outcome" not in state  # still parked, not rejected

    def test_gaining_update_rescues_matching_service_only(self):
        engine, _, ma, _, _, cli = build(
            agent_params=AgentParams(child_timeout=60.0))
        engine.run()
        res = {}

        def call(tag, name):
            try:
                res[tag] = yield from submit(cli, ProfileDesc(name, 0, 0, 0))
            except ServerNotFoundError:
                res[tag] = "rejected"

        state = {}

        def driver():
            yield engine.timeout(1.0)
            state["parked_before"] = len(ma._parked)
            # a SeD of the "ghost" service appears behind LA1
            from repro.core.scheduling import EstimationVector
            delta = EstimateDelta(
                "LA1", [(ProfileDesc("ghost", 0, 0, 0).key,
                         EstimationVector("SeD10"),
                         "sed10-host", 999)])
            list(ma._handle_est_delta(type("M", (), {"payload": delta})))
            state["parked_now"] = len(ma._parked)
            yield engine.timeout(1.0)  # admission batch runs

        engine.process(call("ghost", "ghost"), name="g")
        engine.process(call("phantom", "phantom"), name="p")
        engine.run_until_complete(driver())
        assert state["parked_before"] == 2
        assert state["parked_now"] == 1          # phantom stays parked
        assert res.get("ghost") == "SeD10"       # ghost was admitted
        assert "phantom" not in res              # neither admitted nor rejected


class TestCrashDuringPushPump:
    @pytest.mark.parametrize("routing", ["pull", "push"])
    def test_crash_mid_pump_restart_reannounces(self, routing):
        engine, _, ma, las, seds, cli = build(routing=routing)
        engine.run()
        victim = seds[0]
        collect = victim.params.estimate_collect_time

        def scenario():
            victim._schedule_push()      # arm a pump; guard no-op in pull
            yield engine.timeout(collect / 2)
            victim.crash()               # mid-probe: the pump is sleeping
            las[0].remove_child(victim.name)
            yield engine.timeout(collect / 4)
            victim.restart()             # before the stale pump wakes

        engine.run_process(scenario())
        engine.run()  # stale pump exits silently; re-announce propagates
        if routing == "push":
            # restart cleared the stale dirty flag, so the re-announce push
            # was not suppressed: the SeD is visible again at the MA
            rows = {r.sed_name for r in ma.table.candidates(TOY)}
            assert victim.name in rows
            assert not victim._push_dirty
        chosen = set()

        def calls():
            for _ in range(8):
                chosen.add((yield from submit(cli)))

        engine.run_process(calls())
        assert victim.name in chosen


class TestRejectionObservability:
    @pytest.mark.parametrize("routing", ["pull", "push"])
    def test_rejection_counter_and_event(self, routing):
        obs = Observability()
        params = AgentParams(child_timeout=0.5)
        engine, _, ma, _, _, cli = build(routing=routing, agent_params=params,
                                         obs=obs)
        engine.run()

        def call():
            try:
                yield from submit(cli, ProfileDesc("nonexistent", 0, 0, 0))
            except ServerNotFoundError:
                return "not-found"

        assert engine.run_process(call()) == "not-found"
        assert ma.rejections == 1
        (reject,) = obs.spans.find(name="schedule", status="rejected")
        assert reject.attrs["service"] == "nonexistent"


class TestAdmissionMatchesDescription:
    @pytest.mark.parametrize("routing", ["pull", "push"])
    def test_same_path_other_types_rejected(self, routing):
        """Both routings apply ``can_solve``'s rule: a submit naming a
        registered path with other argument types finds no SeD."""
        params = AgentParams(child_timeout=0.5)
        engine, _, ma, _, _, cli = build(routing=routing, agent_params=params)
        engine.run()
        wrong = toy_desc()
        wrong.set_arg(0, vector_desc(BaseType.DOUBLE))

        def call():
            try:
                return (yield from submit(cli, wrong))
            except ServerNotFoundError:
                return "not-found"

        assert engine.run_process(call()) == "not-found"
        assert ma.rejections == 1
        # the registered description is still served
        assert engine.run_process(submit(cli)).startswith("SeD")
