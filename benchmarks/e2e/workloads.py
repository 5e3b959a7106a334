"""The five benchmark workloads: what runs, at what size, and how it is checked.

Every workload calls the program through one public entry point with
``jobs=None`` and, unless the harness asks otherwise, ``observe=False``; the
seed reaches the program only through the entry point's ``seed=`` argument.
``run`` is the timed region and consumes the result; ``check`` runs after the
clock has stopped and reduces the result to what a user reads (digested),
the operations attempted and failed, the invariants that must hold for any
seed, and the exact counts the public result objects carry.

Sizes are fixed here and recorded in ``results.json``.  ISSUE 11 sized each
timed run to 4-8 s; the benchmark driver makes 114 invocations in 3420 s,
each with five fresh children, so ``full`` is ~2 s per run on the reference
host and ``quick`` about a tenth of that (also the warm-up size).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import tarfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.experiments import load_federation, survey_campaign
from repro.ramses.io import read_snapshot
from repro.services import CampaignConfig, ExecutionMode, run_campaign

__all__ = ["Outcome", "Workload", "WORKLOADS", "capture_federations",
           "federation_counts"]


@dataclass
class Outcome:
    """What ``check`` found in one run's result."""

    #: What a user reads off the result; its digest is the output check.
    outputs: Any
    #: Operations (requests, DAG nodes) attempted / not completed OK.
    attempted: int
    failed: int
    #: Units of work done (see ``Workload.unit``).
    units: float
    #: Invariants that did not hold (empty == all hold).
    problems: List[str] = field(default_factory=list)
    #: Exact counts by per-layer metric name, read from public results.
    counts: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    full: Mapping[str, Any]
    quick: Mapping[str, Any]
    #: run(seed, size, observe, workdir) -> result; the timed region.
    run: Callable[[int, Mapping[str, Any], bool, Optional[str]], Any]
    #: check(result, size, workdir) -> Outcome; untimed.
    check: Callable[[Any, Mapping[str, Any], Optional[str]], Outcome]
    #: REAL-mode workloads write files and need a fresh directory per run.
    needs_workdir: bool = False
    #: Warm up at the full size instead of the quick one.
    warm_full: bool = False
    #: Counts that depend on the host and so do not repeat exactly.
    host_dependent_counts: tuple = ()


def _require(problems: List[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _user_fields(point, internal) -> Dict[str, Any]:
    """A result dataclass's fields minus the internal ones.  Internal counts
    stay out of the digest so that an optimisation may reduce them."""
    return {f.name: getattr(point, f.name) for f in dataclasses.fields(point)
            if f.name not in internal}


# -- campaign_pull ---------------------------------------------------------------

def _run_campaign_pull(seed, size, observe, workdir):
    """The paper's 1 + 100 zoom campaign, ``campaigns`` seeds back to back.

    Each result is read the way the section-5 evaluation reads it and then
    dropped, as a sweep does; a live result pins its whole deployment.
    """
    rows = []
    for i in range(size["campaigns"]):
        result = run_campaign(CampaignConfig(seed=seed + i, observe=observe))
        deployment = result.deployment
        rows.append({
            "outputs": {
                "makespan": result.total_elapsed,
                "part1": result.part1_duration,
                "part2": result.part2_durations,
                "requests_per_sed": result.requests_per_sed(),
                "statuses": result.statuses,
            },
            "sim.engine.events": deployment.engine.events_scheduled,
            "core.transport.messages": deployment.fabric.messages_sent,
            "core.transport.bytes": deployment.fabric.bytes_sent,
            "sim.network.bytes_total": result.net_bytes_total,
            "sim.network.bytes_wan": result.net_bytes_wan,
        })
    return rows


def _check_campaign_pull(rows, size, workdir) -> Outcome:
    problems: List[str] = []
    attempted = failed = 0
    for i, row in enumerate(rows):
        out = row["outputs"]
        n_zooms = len(out["statuses"])
        attempted += 1 + n_zooms  # part 1 raised unless it completed
        failed += sum(1 for status in out["statuses"] if status != 0)
        _require(problems, n_zooms == 100, f"campaign {i}: {n_zooms} zooms")
        _require(problems, len(out["part2"]) == n_zooms,
                 f"campaign {i}: {len(out['part2'])} solve durations")
        _require(problems, sum(out["requests_per_sed"].values()) == n_zooms,
                 f"campaign {i}: requests per SeD do not add up")
    counts = {key: sum(row[key] for row in rows)
              for key in rows[0] if key != "outputs"}
    return Outcome(outputs=[row["outputs"] for row in rows],
                   attempted=attempted, failed=failed, units=len(rows),
                   problems=problems, counts=counts)


# -- load_pull / load_push_memo -----------------------------------------------------

def _load_runner(**fixed):
    def run(seed, size, observe, workdir):
        return load_federation.run(
            n_grids=4, clusters_per_grid=4, churn=0, zipf=(1.1,), seed=seed,
            observe=observe, duration=size["duration"], **fixed)
    return run


def _check_load(result, size, workdir) -> Outcome:
    (point,) = result.runs
    problems: List[str] = []
    _require(problems,
             point.n_arrivals == point.completed + point.rejected + point.failed,
             "arrivals != completed + rejected + failed")
    return Outcome(
        outputs=_user_fields(point, ("events", "peak_heap", "span_store")),
        attempted=point.n_arrivals,
        failed=point.rejected + point.failed, units=point.n_arrivals,
        problems=problems,
        counts={"sim.engine.events": point.events,
                "sim.engine.peak_heap": point.peak_heap,
                "core.federation.redirects": point.redirects,
                "core.agent.rejections": point.rejected,
                "data.memo.hits": point.memo_hits,
                "data.memo.misses": point.memo_misses})


# -- survey_dag ---------------------------------------------------------------------

def _run_survey_dag(seed, size, observe, workdir):
    return survey_campaign.run(
        routings=("pull",), policies=("mct",), data_policies=("replicated",),
        shape=tuple(size["shape"]), zooms=size["zooms"], seed=seed,
        observe=observe)


def _check_survey_dag(result, size, workdir) -> Outcome:
    (arm,) = result.runs
    problems: List[str] = []
    # A node's executor returns once or raises, so completed == nodes says
    # every DAG node completed exactly once.
    _require(problems, arm.completed == arm.nodes, "not every DAG node completed")
    _require(problems, arm.launched >= arm.nodes, "fewer launches than DAG nodes")
    _require(problems, arm.dead_letters == 0, "dead-lettered DAG nodes")
    return Outcome(
        outputs=_user_fields(arm, ("events", "products", "span_store")),
        attempted=arm.nodes + size["zooms"],
        failed=(arm.nodes - arm.completed) + (size["zooms"] - arm.zooms_done),
        units=arm.nodes, problems=problems,
        counts={"sim.engine.events": arm.events,
                "core.federation.redirects": arm.redirects,
                "core.agent.rejections": arm.rejections,
                "data.memo.hits": arm.memo_hits,
                "data.memo.misses": arm.memo_misses,
                "sim.network.bytes_total": arm.bytes_total,
                "sim.network.bytes_wan": arm.bytes_wan,
                "data.manager.bytes_moved": arm.data_moved,
                "data.manager.bytes_saved": arm.data_saved,
                "survey.dag_launched": arm.launched,
                "survey.dag_retries": arm.retries})


# -- zoom_real ----------------------------------------------------------------------

_REAL_STEPS = 12


def _run_zoom_real(seed, size, observe, workdir):
    return run_campaign(CampaignConfig(
        n_sub_simulations=size["n_sub_simulations"],
        resolution=size["resolution"], boxsize_mpc_h=50, n_zoom_levels=1,
        mode=ExecutionMode.REAL, workdir=workdir, real_n_steps=_REAL_STEPS,
        real_a_end=1.0, seed=seed, observe=observe))


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_zoom_real(result, size, workdir) -> Outcome:
    problems: List[str] = []
    n_sub = size["n_sub_simulations"]
    particles = [size["resolution"] ** 3]  # part 1: one particle per cell
    catalogs = {}
    members = {}
    for job in sorted(os.listdir(workdir)):
        job_dir = os.path.join(workdir, job)
        catalogs[job] = _file_sha256(os.path.join(job_dir, "halo_catalog.dat"))
        if not job.startswith("zoom2-"):
            continue
        with tarfile.open(os.path.join(job_dir, "results.tar.gz")) as tar:
            members[job] = tar.getnames()
        header, parts = read_snapshot(os.path.join(job_dir, "output_00001"), 1)
        particles.append(header.npart)
        # Conservation: the snapshot holds every particle of the zoom ICs
        # once (coarse lattice with the region refined), total mass 1.
        _require(problems, len(parts) == header.npart,
                 f"{job}: {len(parts)} particles stored, header says {header.npart}")
        _require(problems, len(set(parts.ids.tolist())) == header.npart,
                 f"{job}: duplicated particle ids")
        _require(problems, header.npart >= particles[0],
                 f"{job}: fewer particles than the coarse lattice")
        _require(problems, abs(float(parts.mass.sum()) - 1.0) < 1e-9,
                 f"{job}: total mass {float(parts.mass.sum())!r} != 1")
    _require(problems, len(members) == n_sub, f"{len(members)} zoom outputs")
    _require(problems, len(result.statuses) == n_sub, "missing request statuses")
    deployment = result.deployment
    return Outcome(
        outputs={"statuses": result.statuses, "halo_catalogs": catalogs,
                 "tarball_members": members},
        attempted=1 + n_sub,
        failed=sum(1 for status in result.statuses if status != 0),
        units=float(sum(particles) * _REAL_STEPS), problems=problems,
        counts={"sim.engine.events": deployment.engine.events_scheduled,
                "core.transport.messages": deployment.fabric.messages_sent,
                "core.transport.bytes": deployment.fabric.bytes_sent,
                "sim.network.bytes_total": result.net_bytes_total,
                "sim.network.bytes_wan": result.net_bytes_wan})


# -- registry (why each workload exists: BENCHMARK.json and README.md) --------------

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="campaign_pull", unit="campaign",
        full={"campaigns": 12}, quick={"campaigns": 1},
        run=_run_campaign_pull, check=_check_campaign_pull),
    Workload(
        name="load_pull", unit="request",
        full={"duration": 30.0}, quick={"duration": 3.0},
        run=_load_runner(loads=(64.0,), routings=("pull",), n_clients=1000,
                         memo="off"),
        check=_check_load),
    Workload(
        name="load_push_memo", unit="request",
        full={"duration": 50.0}, quick={"duration": 5.0},
        run=_load_runner(loads=(128.0,), routings=("push",), n_clients=100000,
                         memo="on"),
        check=_check_load),
    Workload(
        name="survey_dag", unit="DAG node",
        full={"shape": (16, 16), "zooms": 16}, quick={"shape": (5, 5), "zooms": 2},
        run=_run_survey_dag, check=_check_survey_dag),
    Workload(
        name="zoom_real", unit="particle-step",
        full={"n_sub_simulations": 1, "resolution": 32},
        quick={"n_sub_simulations": 1, "resolution": 16},
        run=_run_zoom_real, check=_check_zoom_real, needs_workdir=True,
        # First touch of the ~300 MiB the pipeline needs costs ~1 s of page
        # faults on the reference VM and varies 2x; a full-size warm-up moves
        # it into setup_s, where users of a fresh process pay it too.
        warm_full=True,
        # The result tarball gzips tar headers that carry file mtimes, so
        # its size, and with it the bytes shipped, moves by a few bytes.
        host_dependent_counts=("core.transport.bytes", "sim.network.bytes_total")),
)}


class capture_federations:
    """Traced pass only: keep the federations the load/survey entry points
    build, so transport and network totals their results do not carry can be
    read afterwards.  Wraps the ``build_federation`` name the two experiment
    modules call; restores it on exit."""

    _MODULES = (load_federation, survey_campaign)

    def __enter__(self) -> List[Any]:
        self.built: List[Any] = []
        self._originals = [m.build_federation for m in self._MODULES]

        def wrap(build):
            def build_and_keep(*args, **kwargs):
                federation = build(*args, **kwargs)
                self.built.append(federation)
                return federation
            return build_and_keep

        for module, original in zip(self._MODULES, self._originals):
            module.build_federation = wrap(original)
        return self.built

    def __exit__(self, *exc_info) -> None:
        for module, original in zip(self._MODULES, self._originals):
            module.build_federation = original


def federation_counts(federations) -> Dict[str, int]:
    """Transport and network totals of captured federations."""
    return {
        "core.transport.messages": sum(f.fabric.messages_sent for f in federations),
        "core.transport.bytes": sum(f.fabric.bytes_sent for f in federations),
        "sim.network.bytes_total": sum(f.platform.network.bytes_total
                                       for f in federations),
        "sim.network.bytes_wan": sum(f.platform.network.bytes_wan
                                     for f in federations),
    }
