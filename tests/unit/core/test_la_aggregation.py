"""Unit tests for Local-Agent-level estimate aggregation (§2.1 sorting)."""

from repro.core import (
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


def build():
    dep = deploy_paper_hierarchy(build_grid5000(Engine()), obs=Observability())
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
    def test_no_truncation_by_default(self):
        """Every LA forwards all of its SeDs' estimates: the MA ranks all
        11 candidates of the §5.1 deployment."""
        dep = build()
        run_requests(dep, 1)
        (span,) = dep.tracer.obs.spans.find(name="schedule")
        assert span.attrs["n_candidates"] == 11
