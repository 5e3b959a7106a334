"""Parallel experiment runner: efficiency + determinism benchmarks.

Two claims are measured over the E10 scaling sweep (the runner's flagship
consumer — per-rank-count breakdowns of a staged ~50 MB snapshot):

* **byte-identical results** — a 4-worker sweep returns exactly the bytes
  of the serial sweep (canonical-pickle comparison), always asserted;
* **>= 0.7 parallel efficiency at 4 workers** over the mapped portion of
  the sweep (the part the runner owns; the snapshot build preceding it is
  inherently serial).  Asserted only when the machine actually has >= 4
  usable cores — on smaller boxes the pool is oversubscribed and the
  measurement records overhead, not speedup.

``REPRO_BENCH_QUICK=1`` shrinks the particle count so CI can smoke-test
the module in seconds.
"""

import os
import time

from repro.experiments import scaling_nodes
from repro.experiments.runner import Task, canonical_pickle, run_tasks

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
REPLICATE = 4 if QUICK else 64
RANKS = (1, 2, 4, 8) if QUICK else (2, 4, 8, 16, 24, 32, 48, 64, 96, 128)
JOBS = 4
ROUNDS = 1 if QUICK else 2


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stage(replicate):
    """Build the scaling model once and stage it for pool workers, exactly
    as ``scaling_nodes.run`` does; returns the task list."""
    import numpy as np

    from repro.grafic.ic import make_single_level_ic
    from repro.ramses.cosmology import LCDM_WMAP
    from repro.ramses.parallel import ParallelStepModel
    from repro.ramses.simulation import RamsesRun, RunConfig

    seed = 42
    ic = make_single_level_ic(32, 100.0, LCDM_WMAP, a_start=0.05, seed=seed)
    snap = RamsesRun(ic, RunConfig(a_end=0.8, n_steps=16,
                                   output_aexp=(0.8,))).run().final
    rng = np.random.default_rng(seed)
    x = np.mod(np.repeat(snap.particles.x, replicate, axis=0)
               + 0.004 * rng.standard_normal(
                   (len(snap.particles) * replicate, 3)), 1.0)
    model = ParallelStepModel(x, int(round(len(x) ** (1 / 3))),
                              node_speed_ghz=2.0)
    scaling_nodes._POOL_MODEL = model
    return [Task(key=f"ranks={p}", func=scaling_nodes._breakdown_task,
                 args=(p,)) for p in RANKS]


def test_bench_runner_efficiency(benchmark, show_report):
    """Map the sweep at 4 workers; compare against the serial map."""
    tasks = _stage(REPLICATE)
    try:
        t0 = time.perf_counter()
        serial = run_tasks(tasks, jobs=1)
        serial_time = time.perf_counter() - t0

        parallel_holder = []

        def _parallel():
            parallel_holder[:] = run_tasks(tasks, jobs=JOBS)

        benchmark.pedantic(_parallel, rounds=ROUNDS, iterations=1)
    finally:
        scaling_nodes._POOL_MODEL = None

    assert canonical_pickle(serial) == canonical_pickle(parallel_holder)

    parallel_time = benchmark.stats.stats.min
    speedup = serial_time / parallel_time
    efficiency = speedup / JOBS
    benchmark.extra_info["serial_seconds"] = serial_time
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["efficiency"] = efficiency
    benchmark.extra_info["usable_cores"] = _usable_cores()
    show_report(
        f"runner sweep x{len(RANKS)}: serial {serial_time:.2f}s, "
        f"{JOBS} workers {parallel_time:.2f}s -> speedup {speedup:.2f}x, "
        f"efficiency {efficiency:.2f} ({_usable_cores()} usable cores)")
    if _usable_cores() >= JOBS:
        assert efficiency >= 0.7, (
            f"runner efficiency {efficiency:.2f} below 0.7 at {JOBS} workers")


def test_bench_runner_experiment_end_to_end(benchmark, show_report):
    """The whole E10 experiment through ``run(jobs=4)`` — includes the
    serial snapshot build, so this reports wall-clock, not efficiency."""
    holder = []

    def _run():
        holder[:] = [scaling_nodes.run(rank_counts=RANKS,
                                       replicate=REPLICATE, jobs=JOBS)]

    benchmark.pedantic(_run, rounds=ROUNDS, iterations=1)
    result = holder[0]
    benchmark.extra_info["n_particles"] = result.n_particles
    show_report(f"scaling_nodes.run(jobs={JOBS}): {result.n_particles} "
                f"particles, {len(RANKS)} rank counts, "
                f"{benchmark.stats.stats.min:.2f}s")
