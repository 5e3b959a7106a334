"""Parallel experiment runner: a process-pool map over independent runs.

The experiments that sweep a parameter (E7's scheduler policies, E10's rank
counts, E11's crash counts) repeat one expensive, fully seeded computation
per sweep point; the points never communicate.  :func:`run_tasks` maps such
a sweep over worker processes while keeping the three properties the
reproduction depends on:

* **Determinism** — every :class:`Task` carries its inputs (including any
  seed) explicitly; workers never draw from inherited global RNG state.
  Results come back in *task order* regardless of completion order, so a
  parallel sweep is byte-identical to the serial one.
* **Crash surfacing** — an exception inside a worker is re-raised in the
  parent as a :class:`WorkerError` naming the task and carrying the remote
  traceback text; a hard worker death (signal, interpreter abort) raises
  :class:`WorkerCrash` instead of hanging the pool.
* **Cheap sharing** — the pool is created *after* the caller has staged any
  large read-only inputs in module globals, and uses the ``fork`` start
  method where available, so workers inherit those inputs by copy-on-write
  instead of pickling them per task (see ``scaling_nodes`` for the
  pattern).

Campaign-shaped tasks must return **detached** results
(:meth:`repro.services.CampaignResult.detach`): live deployments hold the
simulation engine and agent generators, which cannot cross a process
boundary.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..services.workflow import (
    CampaignConfig,
    CampaignResult,
    run_campaign_detached,
)

__all__ = ["Task", "WorkerCrash", "WorkerError", "canonical_pickle",
           "collect_span_stores", "resolve_jobs", "run_campaigns",
           "run_tasks"]


def _ship(obj: Any) -> Any:
    """What crossing a process boundary does to ``obj``: one pickle round
    trip.  The copy shares no object (interned strings included) with this
    process, which is the form every worker result arrives in."""
    return pickle.loads(pickle.dumps(obj))


def canonical_pickle(obj: Any) -> bytes:
    """Pickle ``obj`` into its round-trip fixed point, for byte comparisons.

    ``pickle.dumps`` is not stable under round-trips: interpreter-interned
    strings (identifier-like dict keys, names) are shared objects on first
    pickling and therefore memo references, but come back *non-interned*
    from ``loads`` — so re-pickling a round-tripped object yields different
    bytes than pickling the original, despite equal values.  One
    dump/load/dump settles the object graph into the form every later
    round trip reproduces, making byte equality a sound way to compare a
    result computed in-process with one shipped back from a worker.
    """
    return pickle.dumps(_ship(obj))


class WorkerError(RuntimeError):
    """A task raised inside a worker process.

    ``key`` names the failing task; ``remote_traceback`` is the formatted
    traceback from the worker (the original frames cannot cross the process
    boundary, their text can).
    """

    def __init__(self, key: str, exc_type: str, exc_msg: str,
                 remote_traceback: str):
        super().__init__(f"task {key!r} failed in worker: "
                         f"{exc_type}: {exc_msg}")
        self.key = key
        self.remote_traceback = remote_traceback


class WorkerCrash(RuntimeError):
    """A worker process died without reporting (signal, hard abort)."""

    def __init__(self, key: str, detail: str):
        super().__init__(f"worker crashed while running task {key!r}: {detail}")
        self.key = key


@dataclass(frozen=True)
class Task:
    """One unit of a sweep: a picklable module-level callable + its inputs.

    ``key`` labels the task in error messages.  Every input — seeds
    included — travels in ``args``; the runner injects nothing.  Sweeps
    that compare arms pass each arm the *same* seed on purpose (common
    random numbers), so there is no per-task seed derivation here.
    """

    key: str
    func: Callable[..., Any]
    args: Tuple = ()


#: Where experiment results keep campaigns or sweep points: ``.campaign``
#: (figure4/5, overhead, timings), ``.baseline`` + ``.runs[].result``
#: (degraded), ``.campaigns`` (the ablations), ``.runs`` (E13/E14).
_WRAPPER_ATTRS = ("campaign", "baseline", "campaigns", "runs", "result")


def collect_span_stores(result: Any) -> List[Any]:
    """Every non-empty span store reachable from an experiment result, in
    visiting order, each once — the one walker behind ``--trace``/
    ``--gantt-svg``/``--profile``.

    A leaf is anything with a ``span_store``: campaign results (live or
    detached — the store travels home inside the pickled tracer) expose it
    as a method, sweep points (``LoadPoint``, ``SurveyArm``) as an
    attribute.  Lists, dicts and ``_WRAPPER_ATTRS`` are walked; results
    that recorded nothing (``observe=False``, ``None``) contribute none.
    """
    if hasattr(result, "span_store"):
        store = result.span_store
        if callable(store):
            store = store()
        return [store] if store is not None and store.spans else []
    if isinstance(result, dict):
        children = list(result.values())
    elif isinstance(result, (list, tuple)):
        children = result
    else:
        children = [getattr(result, attr) for attr in _WRAPPER_ATTRS
                    if hasattr(result, attr)]
    # By identity: E12 exposes one campaign as ``baseline`` *and* in
    # ``campaigns``.
    stores = {id(store): store for child in children
              for store in collect_span_stores(child)}
    return list(stores.values())


def resolve_jobs(jobs: Optional[int], n_tasks: int) -> int:
    """Worker count for a sweep: ``None``/1 → serial, 0/negative → one per
    core, anything else clamped to the task count (idle workers cost fork
    time for nothing)."""
    if jobs is None:
        return 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, min(jobs, n_tasks))


def _mp_context():
    """``fork`` where the platform offers it (workers then inherit staged
    module globals copy-on-write); the platform default elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _invoke(task: Task) -> Tuple[bool, Any]:
    """Worker-side shim: run the task, shipping failures back as data
    (raising out of a pool worker would lose the traceback text)."""
    try:
        return (True, task.func(*task.args))
    except Exception as exc:
        return (False, (type(exc).__name__, str(exc),
                        traceback.format_exc()))


def _unwrap(task: Task, ok: bool, payload: Any) -> Any:
    if ok:
        return payload
    exc_type, exc_msg, tb_text = payload
    raise WorkerError(task.key, exc_type, exc_msg, tb_text)


def run_tasks(tasks: Sequence[Task], jobs: Optional[int] = None) -> List[Any]:
    """Run every task; return their results in task order.

    ``jobs=None`` or ``1`` runs serially in-process (no pool, no fork) and
    does to each task what a pool does — the task ships in, ``_invoke``
    runs it, the outcome ships out — so a serial sweep returns the same
    detached objects as a parallel one, down to the pickle bytes.  The
    first failing task raises; with a pool, tasks already submitted keep
    running to completion in the background, but their results are
    discarded.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    n_jobs = resolve_jobs(jobs, len(tasks))
    if n_jobs == 1:
        return [_unwrap(task, *_ship(_invoke(_ship(task)))) for task in tasks]

    results: List[Any] = []
    with ProcessPoolExecutor(max_workers=n_jobs,
                             mp_context=_mp_context()) as pool:
        futures = [(task, pool.submit(_invoke, task)) for task in tasks]
        for task, future in futures:
            try:
                ok, payload = future.result()
            except BrokenExecutor as exc:
                raise WorkerCrash(task.key, str(exc)) from exc
            results.append(_unwrap(task, ok, payload))
    return results


def run_campaigns(configs: Dict[str, CampaignConfig],
                  jobs: Optional[int] = None) -> Dict[str, CampaignResult]:
    """One detached campaign per keyed config, in the configs' order — how
    every campaign sweep (E7, E7b, E11, E12) runs its arms."""
    results = run_tasks([Task(key=key, func=run_campaign_detached, args=(cfg,))
                         for key, cfg in configs.items()], jobs=jobs)
    return dict(zip(configs, results))
