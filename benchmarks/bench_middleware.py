"""Middleware micro-benchmarks + scaling ablations.

* finding-time scaling with the number of SeDs per cluster (hierarchy
  fan-out): the agent tree collects estimates in parallel, so finding time
  should grow sub-linearly;
* Hilbert vs slab decomposition communication volume (the §3 partitioning
  choice), as an ablation bench;
* RPC round trips over a two-endpoint fabric: the whole per-message path
  (two marshalling charges, two wire transfers, one handler process per
  call, which pays the dispatch charge and also carries the reply) with
  nothing else around it — once bare and once raced against a deadline,
  the way the agents call.
  ``benchmarks/export.py --bench engine`` folds both cases into
  ``BENCH_engine.json`` beside the kernel shapes, with the kernel events
  each run scheduled (an exact count: 7 per bare call, 8 per deadline-raced
  one, plus the echo handler's own timeout and the caller's fan-out) and
  what the cyclic collector did during its rounds.
"""

import os
import statistics

import numpy as np
import pytest

from repro.core import (
    ProfileDesc,
    TransportFabric,
    deploy_paper_hierarchy,
    scalar_desc,
)
from repro.core.data import BaseType
from repro.platform import ClusterSpec, build_grid5000
from repro.ramses import decompose, exchange_matrix, slab_ranks
from repro.sim import Engine, Host, Link, Network

#: REPRO_BENCH_QUICK=1 shrinks every workload so the whole module runs in
#: seconds — CI uses it as a smoke test that the benchmarks still execute;
#: the numbers it produces are not meaningful measurements.
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
FANOUTS = (1, 2) if QUICK else (1, 2, 4, 8)
N_PROBE_CALLS = 3 if QUICK else 10
N_PARTICLES = (2000, 800) if QUICK else (9000, 3000)
N_RPC = 2_000 if QUICK else 20_000
RPC_WINDOW = 50
RPC_ROUNDS = 3 if QUICK else 5
#: Never reached (a round trip takes ~25 ms): every deadline ``Timeout`` is
#: outlived by its reply and pops unheeded.
RPC_DEADLINE = 5.0


def _measure_finding_time(n_seds_per_cluster: int) -> float:
    specs = [
        ClusterSpec("site0", "c0", "opteron-250", 16 * (n_seds_per_cluster + 1),
                    n_seds=n_seds_per_cluster),
        ClusterSpec("site1", "c1", "opteron-248", 16 * (n_seds_per_cluster + 1),
                    n_seds=n_seds_per_cluster),
    ]
    engine = Engine()
    dep = deploy_paper_hierarchy(build_grid5000(engine, cluster_specs=specs))
    desc = ProfileDesc("probe", 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    desc.set_arg(1, scalar_desc(BaseType.INT))

    def solve(profile, ctx):
        yield from ctx.execute(0.01)
        profile.parameter(1).set(0)
        return 0

    for sed in dep.seds:
        sed.add_service(desc, solve)
    dep.launch_all()
    client = dep.client

    def run():
        client.initialize({"MA_name": "MA"})
        for i in range(N_PROBE_CALLS):
            profile = desc.instantiate()
            profile.parameter(0).set(i)
            profile.parameter(1).set(None)
            yield from client.call(profile)

    engine.run_process(run())
    return statistics.mean(dep.tracer.finding_times("probe"))


def test_bench_finding_time_scaling(benchmark, show_report):
    """Estimate collection is parallel: 8x the SeDs costs < 2x the time."""
    times = benchmark.pedantic(
        lambda: {n: _measure_finding_time(n) for n in FANOUTS},
        rounds=1, iterations=1)
    lines = ["finding time vs SeDs per cluster (parallel estimate fan-out):"]
    for n, t in times.items():
        lines.append(f"  {2 * n:2d} SeDs: {t * 1e3:6.2f} ms")
    show_report("\n".join(lines))
    assert times[FANOUTS[-1]] < 2.0 * times[FANOUTS[0]]


def test_bench_decomposition_ablation(benchmark, show_report):
    """Peano-Hilbert vs slab: boundary-exchange volume (lower is better)."""
    rng = np.random.default_rng(5)
    # mildly clustered distribution, like an evolved snapshot
    uniform = rng.random((N_PARTICLES[0], 3))
    clump = np.mod(0.5 + 0.1 * rng.standard_normal((N_PARTICLES[1], 3)), 1.0)
    x = np.vstack([uniform, clump])
    ncpu = 16

    def measure():
        hilbert = decompose(x, ncpu).rank_of_positions(x)
        slab = slab_ranks(x, ncpu)
        return (int(exchange_matrix(hilbert, x, ncpu).sum()),
                int(exchange_matrix(slab, x, ncpu).sum()))

    comm_hilbert, comm_slab = benchmark(measure)
    show_report(
        "domain-decomposition ablation (boundary exchange proxy, lower wins):\n"
        f"  Peano-Hilbert: {comm_hilbert}\n"
        f"  slab:          {comm_slab}\n"
        f"  ratio:         {comm_slab / comm_hilbert:.2f}x in favour of Hilbert")
    assert comm_hilbert < comm_slab


def _run_rpc_roundtrips(deadline: bool = False) -> int:
    engine = Engine()
    net = Network(engine)
    for name in ("alpha", "beta"):
        net.add_host(Host(engine, name))
    net.connect("alpha", "beta", Link(engine, "wire", 0.010, 1e6))
    fabric = TransportFabric(engine, net)
    server = fabric.endpoint("server", "beta")

    def echo(msg):
        yield engine.timeout(0.001)
        return (msg.payload, 64)

    server.on("echo", echo)
    server.start()
    client = fabric.endpoint("client", "alpha")
    if deadline:
        client.set_deadline(("echo",), RPC_DEADLINE)

    def one(i):
        return (yield from client.rpc("server", "echo", i))

    def caller():
        # Waves of concurrent calls, like one estimate fan-out after another.
        for start in range(0, N_RPC, RPC_WINDOW):
            yield engine.all_of([engine.process(one(i))
                                 for i in range(start, start + RPC_WINDOW)])

    engine.run_process(caller())
    assert fabric.messages_sent == 2 * N_RPC
    return engine.events_scheduled


def test_bench_rpc_roundtrip(measure_events):
    """The per-message path on its own: request leg, handler, reply leg."""
    measure_events(f"rpc round trip x{N_RPC} (window {RPC_WINDOW})",
                   _run_rpc_roundtrips, RPC_ROUNDS)


def test_bench_rpc_roundtrip_deadline(measure_events):
    """The same path as the agents use it: every call raced against a
    deadline it beats."""
    measure_events(f"deadline-raced rpc round trip x{N_RPC} "
                   f"(window {RPC_WINDOW}, deadline {RPC_DEADLINE:g} s)",
                   lambda: _run_rpc_roundtrips(deadline=True), RPC_ROUNDS)
