"""Routing throughput: pull fan-out vs push materialized tables.

The pull protocol pays O(SeDs) estimate messages per submit, so the
simulator's wall-clock cost of routing a request grows with hierarchy
width; push mode answers from the MA's materialized table, so its cost is
flat.  This benchmark routes a fixed batch of submits (no solves) through
both modes at fixed topology shapes and records requests/sec — the
committed ``BENCH_scheduler.json`` baseline gates regressions and the
speedup test enforces the refactor's headline: push routes at least
``MIN_SPEEDUP``x faster than pull at the widest shape.
"""

import os
import time

import pytest

from repro.core import (
    BaseType,
    LocalAgent,
    MasterAgent,
    ProfileDesc,
    SeD,
    SubmitRequest,
    Tracer,
    TransportFabric,
    scalar_desc,
)
from repro.sim import Engine, Host, Link, Network

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
#: (n_LAs, SeDs per LA) shapes; the last one is the speedup gate's shape.
SHAPES = ((2, 8), (4, 16)) if QUICK else ((4, 16), (10, 100))
N_SUBMITS = 12 if QUICK else 30
#: Push must route at least this many times faster than pull at the widest
#: shape (the full 1000-SeD shape targets the issue's 10x; quick mode's 64
#: SeDs keep a conservative 3x so CI smoke runs stay meaningful).
MIN_SPEEDUP = 3.0 if QUICK else 10.0

#: (shape, mode) -> measured requests/sec, shared across the parametrized
#: tests so the speedup assertion reuses the gated measurements.
_RATES = {}


def _probe_desc():
    desc = ProfileDesc("probe", 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    desc.set_arg(1, scalar_desc(BaseType.INT))
    return desc


def _solve(profile, ctx):
    yield from ctx.execute(0.01)
    profile.parameter(1).set(0)
    return 0


def _build(n_las, n_seds_per_la, routing):
    """A star hierarchy built directly on the engine (no Grid'5000 platform
    in the way — this measures routing, not platform construction)."""
    engine = Engine()
    net = Network(engine)
    hub = net.add_host(Host(engine, "hub"))
    fabric = TransportFabric(engine, net)
    tracer = Tracer()
    ma = MasterAgent(fabric, hub, name="MA", tracer=tracer, routing=routing)
    for la_i in range(n_las):
        la_host = net.add_host(Host(engine, f"la{la_i}"))
        net.connect("hub", la_host.name,
                    Link(f"wl{la_i}", 0.002, 1e9))
        la = LocalAgent(fabric, la_host, name=f"LA{la_i}", parent="MA",
                        routing=routing)
        ma.add_child(la.name)
        la.launch()
        for sed_i in range(n_seds_per_la):
            sed_host = net.add_host(Host(engine, f"s{la_i}-{sed_i}"))
            net.connect(la_host.name, sed_host.name,
                        Link(f"sl{la_i}-{sed_i}", 0.0001, 1e9))
            sed = SeD(fabric, sed_host, f"SeD{la_i}-{sed_i}", ma_name="MA",
                      tracer=tracer, parent=la.name, routing=routing)
            sed.add_service(_probe_desc(), _solve)
            sed.launch()
            la.add_child(sed.name)
    ma.launch()
    cli = fabric.endpoint("cli", "hub")
    # Drain launch-time events (push mode: the initial estimate deltas
    # propagate and the MA table materializes before the clock starts).
    engine.run()
    return engine, cli


def _route(built, n_submits):
    engine, cli = built
    desc = _probe_desc()

    def driver():
        for _ in range(n_submits):
            sub = SubmitRequest(cli.fabric.new_request_id(), desc, "hub")
            yield from cli.rpc("MA", "submit", sub)

    engine.run_process(driver())


def _measure_once(shape, mode):
    built = _build(shape[0], shape[1], mode)
    t0 = time.perf_counter()
    _route(built, N_SUBMITS)
    return N_SUBMITS / (time.perf_counter() - t0)


def _rate_of(shape, mode):
    if (shape, mode) not in _RATES:
        _RATES[(shape, mode)] = _measure_once(shape, mode)
    return _RATES[(shape, mode)]


def _shape_id(shape):
    return f"{shape[0]}x{shape[1]}"


def _bench_route(benchmark, show_report, shape, mode):
    state = {}

    def setup():
        state["built"] = _build(shape[0], shape[1], mode)
        return (), {}

    benchmark.pedantic(lambda: _route(state["built"], N_SUBMITS),
                       setup=setup, rounds=1, iterations=1)
    rate = N_SUBMITS / benchmark.stats.stats.min
    _RATES[(shape, mode)] = rate
    n_seds = shape[0] * shape[1]
    benchmark.extra_info["n_seds"] = n_seds
    benchmark.extra_info["requests_per_sec"] = rate
    show_report(f"{mode} routing @ {n_seds} SeDs: "
                f"{rate:.0f} requests/sec wall "
                f"({N_SUBMITS} submits, no solves)")


@pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
def test_bench_route_pull(benchmark, show_report, shape):
    _bench_route(benchmark, show_report, shape, "pull")


@pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
def test_bench_route_push(benchmark, show_report, shape):
    _bench_route(benchmark, show_report, shape, "push")


def test_bench_routing_speedup(benchmark, show_report):
    """The refactor's headline: push beats pull by MIN_SPEEDUP at the
    widest shape (reuses the routing measurements when they already ran)."""
    widest = SHAPES[-1]
    push = benchmark.pedantic(lambda: _measure_once(widest, "push"),
                              rounds=1, iterations=1)
    _RATES[(widest, "push")] = push
    pull = _rate_of(widest, "pull")
    speedup = push / pull
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["n_seds"] = widest[0] * widest[1]
    show_report(f"push/pull routing speedup @ {widest[0] * widest[1]} SeDs: "
                f"{speedup:.1f}x (gate: >= {MIN_SPEEDUP}x)")
    assert speedup >= MIN_SPEEDUP
