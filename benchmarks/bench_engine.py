"""Kernel micro-benchmarks: raw event throughput of the simulation engine.

Every paper experiment is ultimately a loop over ``Engine.step()``, so
events/sec here bounds how large the campaigns can grow.  Four shapes:

* **ping-pong** — one process chaining timeouts, the RPC wait shape that
  dominates the middleware (create + schedule + dispatch + resume per
  event);
* **timeout churn** — a pre-filled heap of watcherless timeouts, isolating
  heap discipline + dispatch from the process machinery;
* **AnyOf fan-in** — the reply-vs-deadline race shape: a process
  repeatedly waits on ``any_of`` over a fan of timeouts (condition
  settling + callback detach);
* **process spawn** — spawn-and-finish short processes, the shape in-situ
  runs actually have (~75 000 handler / reply / fan-out processes per
  benchmark run, three to four events each); the first three shapes spawn
  at most one process and so cannot see what a finished process costs.

Each case records, beside its time, what the cyclic collector did during
its rounds (``gc.get_stats()`` deltas): a kernel object that is part of a
reference cycle shows up there as an exact count — thousands of objects
collected where the baseline has none — long before it shows up as a
timing ratio.

``REPRO_BENCH_QUICK=1`` shrinks the workloads so CI can smoke-test the
module in seconds; the committed ``BENCH_engine.json`` baseline is a
quick-mode recording (see ``benchmarks/export.py``) so the CI regression
gate compares like with like.
"""

import os

from repro.sim import Engine

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
N_PINGPONG = 20_000 if QUICK else 200_000
N_CHURN = 20_000 if QUICK else 200_000
ANYOF_FAN = 32
N_ANYOF = 200 if QUICK else 2_000
N_SPAWN = 5_000 if QUICK else 50_000
SPAWN_WINDOW = 100
ROUNDS = 3 if QUICK else 5


def _events_dispatched(engine: Engine) -> int:
    """Events scheduled so far (the kernel stamps one seq per push)."""
    return engine.events_scheduled


def _run_pingpong() -> int:
    engine = Engine()

    def chain():
        for _ in range(N_PINGPONG):
            yield engine.timeout(0.001)

    engine.run_process(chain())
    return _events_dispatched(engine)


def _run_churn() -> int:
    engine = Engine()
    for i in range(N_CHURN):
        # Deterministic scatter of delays so the heap actually reorders.
        engine.timeout((i * 7919) % 1000 * 1e-3)
    engine.run()
    return _events_dispatched(engine)


def _run_anyof() -> int:
    engine = Engine()

    def racer():
        for i in range(N_ANYOF):
            fan = [engine.timeout((1 + (i + j) % ANYOF_FAN) * 1e-3)
                   for j in range(ANYOF_FAN)]
            yield engine.any_of(fan)

    engine.run_process(racer())
    return _events_dispatched(engine)


def _run_spawn() -> int:
    engine = Engine()

    def leg(i):
        yield engine.timeout(0.001)
        yield engine.timeout(0.001)
        return i

    def spawner():
        # A window of concurrent short processes at a time, like one
        # estimate fan-out wave; every process finishes and is dropped.
        for start in range(0, N_SPAWN, SPAWN_WINDOW):
            yield engine.all_of([engine.process(leg(i))
                                 for i in range(start, start + SPAWN_WINDOW)])

    engine.run_process(spawner())
    return _events_dispatched(engine)


def test_bench_events_per_sec(measure_events):
    """Ping-pong: the per-event cost of the full schedule/dispatch/resume."""
    measure_events("ping-pong", _run_pingpong, ROUNDS)


def test_bench_timeout_churn(measure_events):
    """Heap discipline: dispatch a pre-filled heap of watcherless timeouts."""
    measure_events("timeout churn", _run_churn, ROUNDS)


def test_bench_anyof_fanin(measure_events):
    """Condition settling: any_of over a fan of timeouts, repeatedly."""
    measure_events(f"any_of fan-in x{ANYOF_FAN}", _run_anyof, ROUNDS)


def test_bench_process_spawn(measure_events):
    """Spawn-and-finish: what ~75 000 short processes per run cost."""
    measure_events(f"process spawn x{N_SPAWN} (window {SPAWN_WINDOW})",
                   _run_spawn, ROUNDS)
