"""Unit tests for SeD concurrency settings beyond the paper's one-job rule.

``SeDParams.max_concurrent_solves`` is the one concurrency setting: the
host does not bound concurrent compute, so the slots alone decide how many
solves overlap.  Solve windows are read from the SeD's request traces."""

from repro.core import (
    BaseType,
    ProfileDesc,
    SeD,
    SeDParams,
    SolveRequest,
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
    yield from ctx.execute(2.0)   # 2 s at unit host speed
    profile.parameter(1).set(1)
    return 0


def build(max_concurrent):
    engine = Engine()
    net = Network(engine)
    net.add_host(Host(engine, "cli-host"))
    sed_host = net.add_host(Host(engine, "sed-host", speed=1.0))
    net.connect("cli-host", "sed-host", Link("l", 1e-4, 1e9))
    fabric = TransportFabric(engine, net)
    sed = SeD(fabric, sed_host, "sed", tracer=Tracer(),
              params=SeDParams(max_concurrent_solves=max_concurrent))
    sed.add_service(toy_desc(), solve_toy)
    sed.launch()
    cli = fabric.endpoint("cli", "cli-host")
    return engine, sed, cli


def windows(sed):
    """``(solve_started_at, solve_ended_at)`` of every solve, sorted."""
    return sorted((t.solve_started_at, t.solve_ended_at)
                  for t in sed.tracer.all_traces())


def fire(engine, cli, n):
    replies = []

    def call(i):
        profile = toy_desc().instantiate()
        profile.parameter(0).set(i)
        profile.parameter(1).set(None)
        req = SolveRequest(cli.fabric.new_request_id(), profile)
        reply = yield from cli.rpc("sed", "solve", req)
        replies.append(reply)

    for i in range(n):
        engine.process(call(i))
    engine.run()
    return replies


class TestConcurrentSolves:
    def test_capacity_two_overlaps_jobs(self):
        engine, sed, cli = build(max_concurrent=2)
        assert len(fire(engine, cli, 4)) == 4
        spans = windows(sed)
        # first two overlap; third starts only after a slot frees
        assert spans[1][0] < spans[0][1]
        assert spans[2][0] >= min(spans[0][1], spans[1][1]) - 1e-9

    def test_throughput_scales_with_slots(self):
        def makespan(slots):
            engine, sed, cli = build(max_concurrent=slots)
            assert len(fire(engine, cli, 8)) == 8
            return max(end for _, end in windows(sed))

        assert makespan(4) < makespan(1) / 2.5

    def test_n_jobs_counts_running_and_queued(self):
        engine, sed, cli = build(max_concurrent=2)
        samples = []

        def probe():
            yield engine.timeout(1.0)
            samples.append(sed.n_jobs)

        def call(i):
            profile = toy_desc().instantiate()
            profile.parameter(0).set(i)
            profile.parameter(1).set(None)
            req = SolveRequest(cli.fabric.new_request_id(), profile)
            yield from cli.rpc("sed", "solve", req)

        for i in range(5):
            engine.process(call(i))
        engine.process(probe())
        engine.run()
        assert samples == [5]   # 2 running + 3 queued
