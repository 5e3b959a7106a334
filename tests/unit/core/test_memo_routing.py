"""Grid-wide memoization on the scheduling path, in both routing modes.

The MA consults the shared MemoIndex before scheduling (pull submit path
and push admission loop alike); SeDs populate it on successful solves
whose outputs kept a server copy.  A SeD crash invalidates every entry
it owned through the data manager's crash cleanup, and the heartbeat
deregistration cascade (``remove_child``) does the same for entries that
survived to that point — a client that raced the crash falls back to a
plain re-solve.
"""

import pytest

from repro.core import (
    BaseType,
    DietClient,
    PersistenceMode,
    ProfileDesc,
    deploy_paper_hierarchy,
    scalar_desc,
)
from repro.core.agent import ROUTING_MODES, AgentParams
from repro.core.federation import FederationConfig, build_federation
from repro.data.memo import descriptor_digest
from repro.obs import Observability
from repro.platform import build_grid5000
from repro.sim import Engine


def _desc(out_mode=PersistenceMode.PERSISTENT_RETURN):
    desc = ProfileDesc("memo-svc", 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    desc.set_arg(1, scalar_desc(BaseType.INT, out_mode))
    return desc


def _profile(value, out_mode=PersistenceMode.PERSISTENT_RETURN):
    profile = _desc(out_mode).instantiate()
    profile.parameter(0).set(value)
    profile.parameter(1).set(None)
    return profile


def _solve(profile, ctx):
    yield from ctx.execute(0.5)
    profile.parameter(1).set(profile.parameter(0).get() * 2)
    return 0


def _build(routing, out_mode=PersistenceMode.PERSISTENT_RETURN, memo=True,
           obs=None):
    """2 grids x 1 cluster behind one client initialized with both MAs;
    fast heartbeats so a crashed SeD is deregistered (and stops being
    scheduled) within ~5 sim-seconds."""
    engine = Engine()
    federation = build_federation(
        engine,
        FederationConfig(n_grids=2, clusters_per_grid=1, routing=routing,
                         agent_params=AgentParams(
                             heartbeat_interval=1.0, heartbeat_timeout=1.0,
                             heartbeat_miss_threshold=2)),
        obs=obs)
    federation.add_service_everywhere(lambda: _desc(out_mode), _solve)
    federation.launch_all()
    client = DietClient(federation.fabric, federation.client_host,
                        name="cli", tracer=federation.tracer,
                        memo_enabled=memo)
    client.initialize({"MA_name": federation.ma_names})
    return engine, federation, client


def _call(client, profile):
    """One call; returns ``(status, OUT value, chosen SeD)``."""
    handle = client.function_handle(profile.path)
    status = yield from client.call(profile, handle)
    return status, profile.parameter(1).get(), handle.server


def _sed_by_name(federation, name):
    return next(s for s in federation.seds if s.name == name)


class TestMemoOnSchedulingPath:
    @pytest.mark.parametrize("routing", ROUTING_MODES)
    def test_repeat_request_hits_and_returns_same_result(self, routing):
        engine, federation, client = _build(routing)
        results = []

        def call(value):
            results.append((yield from _call(client, _profile(value))))

        def drive():
            yield from call(7)   # miss: scheduled + solved
            yield from call(7)   # hit: served from the memo owner
            yield from call(9)   # different input: its own miss

        engine.run_until_complete(drive())
        assert [r[0] for r in results] == [0, 0, 0]
        assert results[0][1] == results[1][1] == 14
        assert results[2][1] == 18
        # The hit names the SeD that solved the first call.
        assert results[1][2] == results[0][2]
        assert federation.memo.stats.hits == 1
        assert federation.memo.stats.misses == 2
        assert federation.memo.stats.populated == 2

    @pytest.mark.parametrize("routing", ROUTING_MODES)
    def test_crash_invalidates_then_resolve_repopulates(self, routing):
        engine, federation, client = _build(routing)
        key = descriptor_digest(_profile(7))
        results = []

        def call():
            results.append((yield from _call(client, _profile(7))))

        def drive():
            yield from call()                      # miss + populate
            yield from call()                      # hit
            owner = federation.memo.peek(key).owner
            _sed_by_name(federation, owner).crash()
            # data-manager crash cleanup dropped the entry synchronously
            assert key not in federation.memo
            assert federation.memo.stats.invalidations >= 1
            # wait out heartbeat deregistration so the dead SeD is no
            # longer schedulable, then re-solve on a survivor
            yield engine.timeout(10.0)
            yield from call()                      # miss again: re-solve
            assert federation.memo.peek(key) is not None
            assert federation.memo.peek(key).owner != owner
            yield from call()                      # hit from the new owner

        engine.run_until_complete(drive())
        assert [r[0] for r in results] == [0, 0, 0, 0]
        assert [r[1] for r in results] == [14, 14, 14, 14]
        assert federation.memo.stats.hits == 2
        assert federation.memo.stats.misses == 2
        assert federation.memo.stats.populated == 2

    @pytest.mark.parametrize("routing", ROUTING_MODES)
    def test_stale_hit_falls_back_to_resolve(self, routing):
        """A hit pointing at a dead SeD (the client raced the crash) must
        degrade to a plain re-solve, not an error."""
        engine, federation, client = _build(routing)
        key = descriptor_digest(_profile(7))
        results = []

        def call():
            results.append((yield from _call(client, _profile(7))))

        def drive():
            yield from call()                      # populate
            stale = federation.memo.peek(key)
            _sed_by_name(federation, stale.owner).crash()
            yield engine.timeout(10.0)             # heartbeat deregisters
            # Re-insert the stale entry: the window where a crash has not
            # yet propagated to the index the MA consulted.
            assert federation.memo.put(stale)
            yield from call()                      # hit -> dead fetch -> fallback

        engine.run_until_complete(drive())
        assert [r[0] for r in results] == [0, 0]
        assert [r[1] for r in results] == [14, 14]
        assert results[1][2] != results[0][2]      # a survivor solved it
        assert client.memo_fallbacks == 1
        assert federation.memo.stats.hits == 1

    @pytest.mark.parametrize("routing", ROUTING_MODES)
    def test_volatile_output_never_memoized(self, routing):
        engine, federation, client = _build(
            routing, out_mode=PersistenceMode.VOLATILE)
        results = []

        def drive():
            for _ in range(2):
                profile = _profile(7, out_mode=PersistenceMode.VOLATILE)
                results.append((yield from _call(client, profile))[:2])

        engine.run_until_complete(drive())
        assert results == [(0, 14), (0, 14)]
        # VOLATILE leaves no server copy to point at: every lookup
        # misses and nothing is ever populated.
        assert len(federation.memo) == 0
        assert federation.memo.stats.populated == 0
        assert federation.memo.stats.hits == 0
        assert federation.memo.stats.misses == 2

    @pytest.mark.parametrize("routing", ROUTING_MODES)
    def test_keyed_client_hits_on_the_paper_deployment(self, routing):
        """The §5.1 stack carries the same memo as a federation: a
        ``DietClient(memo_enabled=True)`` repeat is answered without a
        second solve."""
        dep = deploy_paper_hierarchy(build_grid5000(Engine()),
                                     routing=routing)
        for sed in dep.seds:
            sed.add_service(_desc(), _solve)
        dep.launch_all()
        client = DietClient(dep.fabric, dep.platform.client_host,
                            name="memo-client", memo_enabled=True)
        client.initialize({"MA_name": dep.ma.name})
        results = []

        def drive():
            for _ in range(2):
                results.append((yield from _call(client, _profile(7))))

        dep.engine.run_until_complete(drive())
        assert results[0][:2] == results[1][:2] == (0, 14)
        assert results[1][2] == results[0][2]  # served by the first owner
        assert sum(sed.solve_count for sed in dep.seds) == 1
        memo = dep.data_grid.memo
        assert (memo.stats.hits, memo.stats.misses, memo.stats.populated) \
            == (1, 1, 1)

    @pytest.mark.parametrize("routing", ROUTING_MODES)
    def test_memo_disabled_schedules_every_request(self, routing):
        """A client that sends no memo key is scheduled and solved every
        time, and the always-present index counts nothing."""
        engine, federation, client = _build(routing, memo=False)
        results = []

        def drive():
            for _ in range(2):
                results.append((yield from _call(client, _profile(7)))[:2])

        engine.run_until_complete(drive())
        assert results == [(0, 14), (0, 14)]
        assert sum(sed.solve_count for sed in federation.seds) == 2
        assert len(federation.memo) == 0
        assert not any(federation.memo.stats.as_dict().values())


class TestMemoHitClosesItsRequestRecord:
    """The request routine closes every track it opens: a hit, which ends
    without a solve reply, still completes its trace and ``request`` span."""

    def test_hit_completes_its_trace_and_span(self):
        obs = Observability()
        dep = deploy_paper_hierarchy(build_grid5000(Engine()), obs=obs)
        for sed in dep.seds:
            sed.add_service(_desc(), _solve)
        dep.launch_all()
        client = DietClient(dep.fabric, dep.platform.client_host,
                            name="memo-client", tracer=dep.tracer,
                            memo_enabled=True)
        client.initialize({"MA_name": dep.ma.name})
        handles = []

        def drive():
            for _ in range(2):
                handle = client.function_handle("memo-svc")
                assert (yield from client.call(_profile(7), handle)) == 0
                handles.append(handle)

        dep.engine.run_until_complete(drive())
        assert obs.spans.open_count == 0
        assert obs.finalize(dep.engine.now) == 0
        hit = dep.tracer.trace(handles[1].request_id, "memo-svc")
        # PERSISTENT_RETURN: the value came back with a memo_fetch, so the
        # request completed when that reply arrived, after the MA's answer.
        assert hit.completed_at == dep.engine.now > hit.found_at
        assert hit.found_at == handles[1].found_at
        assert hit.status == 0
        requests = list(obs.spans.find(name="request"))
        assert [span.attrs.get("memo") for span in requests] == [None, "hit"]
        assert all(span.status == "ok" for span in requests)

    @pytest.mark.parametrize("routing", ROUTING_MODES)
    def test_stale_hit_unwinds_the_abandoned_request_id(self, routing):
        engine, federation, client = _build(routing, obs=Observability())
        key = descriptor_digest(_profile(7))
        obs = federation.tracer.obs
        results = []

        def drive():
            results.append((yield from _call(client, _profile(7))))
            stale = federation.memo.peek(key)
            _sed_by_name(federation, stale.owner).crash()
            yield engine.timeout(10.0)
            assert federation.memo.put(stale)
            results.append((yield from _call(client, _profile(7))))

        engine.run_until_complete(drive())
        assert client.memo_fallbacks == 1
        assert [r[:2] for r in results] == [(0, 14), (0, 14)]
        requests = list(obs.spans.find(name="request"))
        assert [span.status for span in requests] == ["ok", "stale", "ok"]
        assert not obs.spans.open_spans(f"req:{requests[1].attrs['request_id']}")
        abandoned = federation.tracer.trace(requests[1].attrs["request_id"],
                                            "memo-svc")
        assert abandoned.found_at is not None and abandoned.completed_at is None
