"""Unit tests for Local-Agent-level estimate aggregation (§2.1 sorting)."""

from repro.core import (
    AgentParams,
    BaseType,
    ProfileDesc,
    deploy_paper_hierarchy,
    scalar_desc,
)
from repro.obs import Observability
from repro.platform import build_grid5000
from repro.sim import Engine


def toy_desc():
    desc = ProfileDesc("toy", 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    desc.set_arg(1, scalar_desc(BaseType.INT))
    return desc


def solve_toy(profile, ctx):
    yield from ctx.execute(1.0)
    profile.parameter(1).set(0)
    return 0


def build(top_k):
    dep = deploy_paper_hierarchy(
        build_grid5000(Engine()),
        agent_params=AgentParams(aggregate_top_k=top_k),
        obs=Observability())
    for sed in dep.seds:
        sed.add_service(toy_desc(), solve_toy)
    dep.launch_all()
    dep.client.initialize({"MA_name": "MA"})
    return dep


def run_requests(dep, n):
    client = dep.client

    def session():
        for i in range(n):
            p = toy_desc().instantiate()
            p.parameter(0).set(i)
            p.parameter(1).set(None)
            client.call_async(p)
        yield from client.wait_all()

    dep.engine.run_process(session())


class TestTopKAggregation:
    def test_top1_ma_sees_one_candidate_per_cluster(self):
        dep = build(top_k=1)
        run_requests(dep, 1)
        (span,) = dep.tracer.obs.spans.find(name="schedule")
        assert span.attrs["n_candidates"] == 6     # one per LA, not 11

    def test_no_truncation_by_default(self):
        dep = build(top_k=None)
        run_requests(dep, 1)
        (span,) = dep.tracer.obs.spans.find(name="schedule")
        assert span.attrs["n_candidates"] == 11

    def test_requests_still_complete_under_top1(self):
        dep = build(top_k=1)
        run_requests(dep, 12)
        traces = dep.tracer.all_traces("toy")
        assert len(traces) == 12
        assert all(t.status == 0 for t in traces)

    def test_top1_prefers_idle_then_fast_sed(self):
        """Within a cluster the LA forwards the less-loaded/faster SeD."""
        dep = build(top_k=1)
        run_requests(dep, 6)
        # 6 requests, 6 clusters: with one candidate per cluster each goes
        # to a different cluster
        counts = dep.tracer.requests_per_sed("toy")
        clusters = {dep.cluster_of_sed(s) for s in counts}
        assert len(clusters) == 6

    def test_truncation_shrinks_response_traffic(self):
        full = build(top_k=None)
        run_requests(full, 4)
        trimmed = build(top_k=1)
        run_requests(trimmed, 4)
        assert trimmed.fabric.bytes_sent < full.fabric.bytes_sent
