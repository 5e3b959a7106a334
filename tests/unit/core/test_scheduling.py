"""Unit tests for estimation vectors and scheduler policies."""

import pytest

from repro.core import (
    DefaultPolicy,
    EstimationVector,
    FastestNodePolicy,
    MCTPolicy,
    MinQueuePolicy,
    SchedulingContext,
    make_policy,
)


def vec(name, n_jobs=0, speed=1.0, tcomp=float("inf")):
    return EstimationVector(name, f"{name}-host", n_jobs, speed, tcomp)


def vectors(**speeds):
    return [vec(name, speed=s) for name, s in speeds.items()]


class TestEstimationVector:
    def test_fields(self):
        est = EstimationVector("s", "h", 2, 2.4, 7.0)
        assert (est.sed_name, est.host, est.n_jobs, est.speed, est.tcomp) \
            == ("s", "h", 2, 2.4, 7.0)


class TestContext:
    def test_dispatch_counting(self):
        ctx = SchedulingContext()
        ctx.note_dispatch("a")
        ctx.note_dispatch("a")
        ctx.note_dispatch("b")
        assert ctx.dispatched == {"a": 2, "b": 1}
        assert ctx.rr_counter == 3

    def test_completion_running_mean(self):
        ctx = SchedulingContext()
        ctx.note_completion("a", 10.0, service="svc")
        ctx.note_completion("a", 20.0, service="svc")
        assert ctx.history_mean[("svc", "a")] == pytest.approx(15.0)

    def test_history_is_per_service(self):
        """A fast run of service X must not bias predictions for Y."""
        ctx = SchedulingContext()
        ctx.note_completion("a", 5.0, service="ramsesZoom1")
        ctx.service = "ramsesZoom2"
        assert ctx.service_history("a") is None
        ctx.note_completion("a", 50.0, service="ramsesZoom2")
        assert ctx.service_history("a") == 50.0

    def test_in_flight(self):
        ctx = SchedulingContext()
        ctx.note_dispatch("a")
        ctx.note_dispatch("a")
        ctx.note_completion("a", 1.0)
        assert ctx.in_flight("a") == 1


class TestDefaultPolicy:
    def test_equal_share_over_burst(self):
        """100 sequential choices over 11 SeDs -> the paper's 9/.../10."""
        policy = DefaultPolicy()
        ctx = SchedulingContext()
        cands = vectors(**{f"sed{i}": 2.0 for i in range(11)})
        for _ in range(100):
            chosen = policy.choose(cands, ctx)
            ctx.note_dispatch(chosen.sed_name)
        counts = sorted(ctx.dispatched.values())
        assert counts == [9] * 10 + [10]

    def test_least_dispatched_first(self):
        policy = DefaultPolicy()
        ctx = SchedulingContext()
        cands = vectors(a=1.0, b=1.0)
        ctx.note_dispatch("a")
        assert policy.choose(cands, ctx).sed_name == "b"

    def test_empty_candidates(self):
        assert DefaultPolicy().choose([], SchedulingContext()) is None

    def test_rotation_varies_tie_break(self):
        policy = DefaultPolicy()
        ctx = SchedulingContext()
        cands = vectors(a=1.0, b=1.0, c=1.0)
        picks = []
        for _ in range(3):
            chosen = policy.choose(cands, ctx)
            picks.append(chosen.sed_name)
            ctx.note_dispatch(chosen.sed_name)
        assert sorted(picks) == ["a", "b", "c"]


class TestMCT:
    def test_prefers_faster_sed_with_prediction(self):
        policy = MCTPolicy()
        ctx = SchedulingContext()
        cands = [
            vec("slow", tcomp=100.0),
            vec("fast", tcomp=50.0),
        ]
        assert policy.choose(cands, ctx).sed_name == "fast"

    def test_accounts_for_backlog(self):
        policy = MCTPolicy()
        ctx = SchedulingContext()
        cands = [
            vec("fast", tcomp=50.0),
            vec("slow", tcomp=80.0),
        ]
        ctx.note_dispatch("fast")  # fast now has one in flight
        # fast: (1+1)*50 = 100 > slow: 80
        assert policy.choose(cands, ctx).sed_name == "slow"

    def test_history_overrides_prediction(self):
        policy = MCTPolicy()
        ctx = SchedulingContext()
        ctx.note_completion("a", 10.0)   # measured much faster than predicted
        est = vec("a", tcomp=1000.0)
        assert policy.per_job_time(est, ctx) == 10.0

    def test_falls_back_to_speed(self):
        policy = MCTPolicy()
        est = vec("a", speed=4.0)
        assert policy.per_job_time(est, SchedulingContext()) == pytest.approx(0.25)

    def test_comm_time_is_read_from_the_context(self):
        policy = MCTPolicy()
        ctx = SchedulingContext()
        cands = [vec("near", tcomp=50.0), vec("far", tcomp=40.0)]
        ctx.comm_time = {"near": 1.0, "far": 20.0}
        assert policy.choose(cands, ctx).sed_name == "near"
        # unknown or unreachable means free
        ctx.comm_time = {"far": float("inf")}
        assert ctx.comm_cost("far") == 0.0 and ctx.comm_cost("near") == 0.0
        assert policy.choose(cands, ctx).sed_name == "far"

    def test_balances_by_speed_over_campaign(self):
        """MCT gives faster SeDs proportionally more jobs."""
        policy = MCTPolicy()
        ctx = SchedulingContext()
        cands = [
            vec("fast", tcomp=50.0),
            vec("slow", tcomp=100.0),
        ]
        for _ in range(30):
            chosen = policy.choose(cands, ctx)
            ctx.note_dispatch(chosen.sed_name)
        assert ctx.dispatched["fast"] == pytest.approx(20, abs=1)


class TestOtherPolicies:
    def test_min_queue(self):
        policy = MinQueuePolicy()
        cands = [
            vec("busy", n_jobs=3),
            vec("idle", n_jobs=0),
        ]
        assert policy.choose(cands, SchedulingContext()).sed_name == "idle"

    def test_fastest_node(self):
        policy = FastestNodePolicy()
        cands = vectors(a=2.0, b=2.6, c=1.8)
        assert policy.choose(cands, SchedulingContext()).sed_name == "b"


class TestRegistry:
    def test_make_policy(self):
        assert isinstance(make_policy("default"), DefaultPolicy)
        assert isinstance(make_policy("mct"), MCTPolicy)

    def test_unknown_policy(self):
        with pytest.raises(KeyError, match="default"):
            make_policy("quantum")
