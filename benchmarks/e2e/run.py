#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the repro package.

    python3 benchmarks/e2e/run.py                      # 5 workloads x 5 repeats
    python3 benchmarks/e2e/run.py --trace 1            # traced pass, layer table
    python3 benchmarks/e2e/run.py --selfcheck          # two sets, must agree
    python3 benchmarks/e2e/run.py --quick              # ~1/10 size smoke run
    python3 benchmarks/e2e/run.py --workload load_pull --seed 7 --seconds 8 --trace 0

Every (workload, repeat) runs in a fresh child process, one at a time.  A
child sets up (interpreter start, imports with the compiled cores loaded from
a warm cache, one warm-up at the quick size), times one run of the workload's
public entry point, checks the outputs and reports ``setup_s``, ``wall_s``,
``peak_rss_mib`` and the digest of the simulated outputs.  The parent reports
medians and quartiles.  With one ``--workload`` the last line of standard
output is the JSON object the benchmark driver reads.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
RESULTS = HERE / "results.json"

sys.path.insert(0, str(HERE))

from checks import digest, spread, summarize  # noqa: E402
from layertrace import LAYERS  # noqa: E402

#: Gated metrics; bounds live in BENCHMARK.json.  ``failed_share`` and
#: ``sim_digest_ok`` are reported beside them and reach the driver as
#: ``failed``/``attempted`` and ``correct``.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

#: Counts and ratios reported beside the per-layer time table.
COUNT_METRICS = (
    "sim.engine.events", "sim.engine.events_per_unit",
    "sim.engine.events_per_host_s", "sim.engine.peak_heap",
    "core.transport.messages", "core.transport.messages_per_unit",
    "core.transport.bytes", "sim.network.bytes_total", "sim.network.bytes_wan",
    "core.federation.redirects", "core.agent.rejections", "data.memo.hits",
    "data.memo.hit_ratio", "data.manager.bytes_moved",
    "data.manager.bytes_saved", "survey.dag_launched", "survey.dag_retries",
    "ramses.particle_steps_per_host_s", "obs.overhead_ratio",
    "trace.overhead_ratio",
)
#: Measured on the host clock, so not expected to repeat exactly.
_TIMED_COUNT_METRICS = frozenset({
    "sim.engine.events_per_host_s", "ramses.particle_steps_per_host_s",
    "obs.overhead_ratio", "trace.overhead_ratio"})

#: Fixed for every child.  The hash seed removes one source of run-to-run
#: difference.  The two glibc settings make malloc keep freed memory instead
#: of unmapping and re-faulting it: on the reference VM a page fault costs
#: ~10 us (huge-page faults ~400 us), which put 0.4-3.2 s of kernel time with
#: a 2x run-to-run spread into a 2 s ``zoom_real`` run (numpy temporaries
#: above the 128 KiB mmap threshold).  That cost is the hypervisor's; with it
#: in, no metric of that workload can resolve a 10 % change.  Arrays above
#: glibc's 32 MiB ceiling (``build_amr``'s 128 MiB level-8 mass grid) are
#: still mmapped afresh each time, and numpy asks for transparent huge pages
#: on them: the ~1500 page faults of a ``zoom_real`` run, most for 2 MiB
#: pages, cost 0.03-1.3 s of kernel time from one run to the next, the same
#: seed in the same process, beside 1.85 s +-3 % of user time.  With
#: numpy's documented switch off the same memory arrives in 4 KiB pages for
#: a steady ~0.1 s.  README.md records both findings.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": str(32 * 1024 * 1024),  # glibc's maximum
    "MALLOC_TRIM_THRESHOLD_": str(4 * 1024 ** 3),
    "NUMPY_MADVISE_HUGEPAGE": "0",
}

DEFAULT_REPEATS = 5
QUICK_REPEATS = 2
CHILD_TIMEOUT_S = 170.0
MIN_NAMED_SHARE = 0.95

_PHYSICS = ("ramses.gravity", "ramses.amr", "ramses.integrator", "grafic", "galics")
#: Interaction-table predictions checked on every traced run.  ``zero``:
#: the layer is never entered.  ``setup_only``: entered while the platform is
#: deployed (one store and manager per SeD) but not per operation, i.e. fewer
#: than one call per two operations.  ``ramses.io`` is left out on purpose:
#: clients render the namelist they ship with each zoom request.
LAYER_RULES = {
    "campaign_pull": {"zero": ("core.aggregation", "survey") + _PHYSICS,
                      "setup_only": ("data.manager", "data.store", "data.memo")},
    "load_pull": {"zero": ("core.aggregation", "survey") + _PHYSICS,
                  "setup_only": ("data.manager", "data.store", "data.memo")},
    "load_push_memo": {"zero": ("survey",) + _PHYSICS, "setup_only": ()},
    "survey_dag": {"zero": _PHYSICS, "setup_only": ()},
    "zoom_real": {"zero": ("core.aggregation", "survey"), "setup_only": ()},
}


def per_layer_names() -> List[str]:
    """Every per-layer metric, in BENCHMARK.json order."""
    return ([f"{layer}.{kind}" for layer in LAYERS
             for kind in ("self_s", "share", "calls")] + list(COUNT_METRICS))


def monotonic() -> float:
    """System-wide monotonic clock: comparable between parent and child."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- the child: one fresh process per (workload, repeat) -----------------------------

def child_main(spec: Dict[str, Any]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import hostspeed
    import numpy
    import workloads

    workload = workloads.WORKLOADS[spec["workload"]]
    size = workload.quick if spec["quick"] else workload.full
    seed, observe = spec["seed"], spec["observe"]
    scratch = OUT / "work" / f"{workload.name}-{os.getpid()}"

    def fresh_dir(name: str) -> Optional[str]:
        if not workload.needs_workdir:
            return None
        path = scratch / name
        path.mkdir(parents=True)
        return str(path)

    try:
        warm_dir = fresh_dir("warm")
        workload.run(seed, size if workload.warm_full else workload.quick,
                     observe, warm_dir)
        if warm_dir is not None:
            shutil.rmtree(warm_dir)
        workdir = fresh_dir("run")
        setup_raw_s = monotonic() - spec["spawned"]

        layers = None
        captured: List[Any] = []
        slices = hostspeed.calibrate()
        if spec["traced"]:
            from layertrace import LayerTracer, classify_repro, repro_c_owners
            tracer = LayerTracer(LAYERS, classify_repro, repro_c_owners())
            with workloads.capture_federations() as captured:
                started = time.perf_counter()
                result, table = tracer.run(
                    lambda: workload.run(seed, size, observe, workdir))
                wall_raw_s = time.perf_counter() - started
            layers = table.as_dict()
        else:
            started = time.perf_counter()
            result = workload.run(seed, size, observe, workdir)
            wall_raw_s = time.perf_counter() - started
        slices += hostspeed.calibrate()

        outcome = workload.check(result, size, workdir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    host_speed = hostspeed.index(slices)
    counts = dict(outcome.counts)
    if captured:
        counts.update(workloads.federation_counts(captured))
    record = {
        "workload": workload.name, "seed": seed, "quick": spec["quick"],
        "observe": observe, "traced": spec["traced"],
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__},
        # As measured, the host-speed index around the timed region, and the
        # two times in seconds of a host running at nominal speed.
        "setup_raw_s": setup_raw_s, "wall_raw_s": wall_raw_s,
        "host_speed": host_speed,
        "setup_s": setup_raw_s / host_speed, "wall_s": wall_raw_s / host_speed,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "units": outcome.units, "problems": outcome.problems,
        "digest": digest(outcome.outputs), "counts": counts,
        "host_dependent_counts": list(workload.host_dependent_counts),
        "layers": layers,
    }
    print(json.dumps(record))
    return 0


def run_child(workload: str, seed: int, quick: bool, observe: bool = False,
              traced: bool = False) -> Dict[str, Any]:
    """Run one child to completion and return its record."""
    env = dict(os.environ, **CHILD_ENV)
    spec = {"workload": workload, "seed": seed, "quick": quick,
            "observe": observe, "traced": traced, "spawned": monotonic()}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT),
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- output checking -----------------------------------------------------------------

def exact_counts(record: Dict[str, Any]) -> Dict[str, int]:
    """The counts of a child record that must repeat exactly."""
    return {name: value for name, value in record["counts"].items()
            if name not in record["host_dependent_counts"]}


def read_json(path: Path) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def write_json(path: Path, data: Dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def version_key(versions: Dict[str, str]) -> List[str]:
    """What a pinned digest depends on: python minor and numpy version."""
    return [".".join(versions["python"].split(".")[:2]), versions["numpy"]]


def check_record(record: Dict[str, Any], reference: Dict[str, Any],
                 notes: List[str]) -> List[str]:
    """Output-check failures of one child record (empty == outputs correct).

    Invariants hold for any seed.  The digest is compared only where a
    reference is pinned: same seed, same size, same python/numpy.
    """
    failures = list(record["problems"])
    pinned = reference.get("quick" if record["quick"] else "full", {}).get(
        record["workload"])
    if record["seed"] != reference.get("seed") or pinned is None:
        return failures
    if version_key(record["versions"]) != version_key(reference["versions"]):
        note = (f"reference.json was pinned under python/numpy "
                f"{version_key(reference['versions'])}, this is "
                f"{version_key(record['versions'])}: invariants only")
        if note not in notes:
            notes.append(note)
        return failures
    if record["digest"] != pinned["digest"]:
        failures.append(f"digest {record['digest'][:16]} != reference "
                        f"{pinned['digest'][:16]}")
    counts = exact_counts(record)
    for name, value in pinned["counts"].items():
        if counts.get(name, value) != value:
            note = (f"{record['workload']}: {name} = "
                    f"{counts[name]} (reference {value}; internal "
                    f"counts may change, outputs may not)")
            if note not in notes:
                notes.append(note)
    return failures


# -- measuring -----------------------------------------------------------------------

class WorkloadRun:
    """The untraced children of one workload and what they add up to."""

    def __init__(self, name: str, records: List[Dict[str, Any]],
                 reference: Dict[str, Any], notes: List[str]):
        self.name = name
        self.records = records
        self.check_failures = [f for r in records
                               for f in check_record(r, reference, notes)]
        self.attempted = sum(r["attempted"] for r in records)
        self.failed = sum(r["failed"] for r in records)
        self.metrics = {metric: summarize([r[metric] for r in records])
                        for metric, _ in END_TO_END}
        #: For the record: the times as measured and the host-speed index
        #: they were divided by.
        self.as_measured = {key: summarize([r[key] for r in records])
                            for key in ("wall_raw_s", "setup_raw_s", "host_speed")}
        self.failed_share = ((self.failed + len(self.check_failures))
                             / self.attempted)
        self.sim_digest_ok = 0 if self.check_failures else 1
        self.digests = sorted({r["digest"] for r in records})
        self.counts = [exact_counts(r) for r in records]
        self.units_per_host_s = summarize(
            [r["units"] / r["wall_s"] for r in records])["median"]

    @property
    def correct(self) -> bool:
        return self.failed_share == 0 and self.sim_digest_ok == 1

    def as_dict(self) -> Dict[str, Any]:
        return {**self.metrics, **self.as_measured,
                "failed_share": self.failed_share,
                "sim_digest_ok": self.sim_digest_ok,
                "units_per_host_s": self.units_per_host_s,
                "attempted": self.attempted, "failed": self.failed,
                "digest": self.digests[0] if len(self.digests) == 1 else self.digests,
                "counts": self.counts[0]}


def measure(name: str, args, reference, notes) -> WorkloadRun:
    """Untraced children, one after another: at least ``--repeats``, and more
    until their timed regions add up to ``--seconds``."""
    records: List[Dict[str, Any]] = []
    while (len(records) < args.repeats
           or sum(r["wall_raw_s"] for r in records) < args.seconds):
        records.append(run_child(name, args.seed, args.quick))
    return WorkloadRun(name, records, reference, notes)


def trace_pass(name: str, args, reference, notes) -> Dict[str, Any]:
    """One untraced child, one with observability on, one under the tracer."""
    base = run_child(name, args.seed, args.quick)
    observed = run_child(name, args.seed, args.quick, observe=True)
    traced = run_child(name, args.seed, args.quick, traced=True)
    failures = [f for r in (base, observed, traced)
                for f in check_record(r, reference, notes)]
    if len({base["digest"], observed["digest"], traced["digest"]}) != 1:
        failures.append("outputs differ between plain, observed and traced runs")

    layers = traced["layers"]
    if layers["named_share"] < MIN_NAMED_SHARE:
        failures.append(f"only {layers['named_share']:.1%} of traced time "
                        f"landed in a named layer")
    rules = LAYER_RULES[name]
    for layer in rules["zero"]:
        if layers["layers"][layer]["calls"] != 0:
            failures.append(f"{layer} entered {layers['layers'][layer]['calls']} "
                            f"times; the interaction table says never")
    for layer in rules["setup_only"]:
        if layers["layers"][layer]["calls"] * 2 >= traced["attempted"]:
            failures.append(f"{layer} entered {layers['layers'][layer]['calls']} "
                            f"times for {traced['attempted']} operations; the "
                            f"interaction table says set-up only")

    counts = traced["counts"]
    units = traced["units"]
    lookups = counts.get("data.memo.hits", 0) + counts.get("data.memo.misses", 0)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        for kind in ("self_s", "share", "calls"):
            metrics[f"{layer}.{kind}"] = layers["layers"][layer][kind]
    for metric in COUNT_METRICS:
        metrics[metric] = counts.get(metric, 0)
    metrics.update({
        "sim.engine.events_per_unit": counts["sim.engine.events"] / units,
        "sim.engine.events_per_host_s": counts["sim.engine.events"] / base["wall_s"],
        "core.transport.messages_per_unit":
            counts.get("core.transport.messages", 0) / units,
        "data.memo.hit_ratio":
            counts.get("data.memo.hits", 0) / lookups if lookups else 0.0,
        "ramses.particle_steps_per_host_s":
            units / base["wall_s"] if name == "zoom_real" else 0.0,
        "obs.overhead_ratio": observed["wall_s"] / base["wall_s"],
        "trace.overhead_ratio": traced["wall_s"] / base["wall_s"],
    })
    return {"name": name, "metrics": metrics, "layers": layers,
            "failures": failures,
            "host_dependent": set(traced["host_dependent_counts"]),
            "attempted": traced["attempted"], "failed": traced["failed"]}


# -- reporting -----------------------------------------------------------------------

def print_run(run: WorkloadRun, unit: str) -> None:
    print(f"\n{run.name}")
    for metric, metric_unit in END_TO_END:
        s = run.metrics[metric]
        print(f"  {metric:<14} {s['median']:10.4f} {metric_unit:<4} "
              f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  min {s['min']:.4f}  "
              f"max {s['max']:.4f}  n={s['n']}  spread {spread(s):.1%}")
    print(f"  {'failed_share':<14} {run.failed_share:10.4f} share "
          f"({run.failed} of {run.attempted} operations, "
          f"{len(run.check_failures)} output-check failures)")
    print(f"  {'sim_digest_ok':<14} {run.sim_digest_ok:10d} bool "
          f"digest {' '.join(d[:16] for d in run.digests)}")
    print(f"  {run.units_per_host_s:.4g} {unit}s per host second (information)")
    speed = run.as_measured["host_speed"]
    print(f"  host-speed index {speed['median']:.3f} (min {speed['min']:.3f}, "
          f"max {speed['max']:.3f}); wall as measured "
          f"{run.as_measured['wall_raw_s']['median']:.4f} s")
    for failure in run.check_failures:
        print(f"  OUTPUT CHECK FAILED: {failure}")


def print_trace(traced: Dict[str, Any], units: Dict[str, str]) -> None:
    layers = traced["layers"]
    print(f"\n{traced['name']} (traced)")
    rows = sorted(layers["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    print(f"  {'layer':<18} | {'self_s':>9} | {'share':>6} | calls")
    for layer, row in rows:
        if row["calls"] or row["self_s"]:
            print(f"  {layer:<18} | {row['self_s']:9.4f} | "
                  f"{row['share'] * 100:5.1f}% | {row['calls']}")
    print(f"  {layers['named_share']:.1%} of {layers['attributed_s']:.3f}s "
          f"attributed ({layers['wall_s']:.3f}s traced wall) in a named layer")
    for metric in COUNT_METRICS:
        print(f"  {metric:<34} {traced['metrics'][metric]:.6g} {units[metric]}")
    for failure in traced["failures"]:
        print(f"  TRACE CHECK FAILED: {failure}")


def machine_record(args, impl: str, names: Sequence[str]) -> Dict[str, Any]:
    import numpy
    import workloads

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "impl": impl, "git_sha": sha, "seed": args.seed,
        "repeats": args.repeats, "seconds": args.seconds,
        "sizes": {name: dict(workloads.WORKLOADS[name].full) for name in names},
    }


def update_results(section: str, payload: Dict[str, Any]) -> None:
    results = read_json(RESULTS) if RESULTS.exists() else {}
    results[section] = payload
    write_json(RESULTS, results)
    print(f"\nwrote {RESULTS.relative_to(ROOT)} [{section}]")


def write_reference(runs: Dict[bool, List[WorkloadRun]], seed: int) -> None:
    import numpy

    reference: Dict[str, Any] = {
        "seed": seed,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__}}
    for quick, size_runs in runs.items():
        section = reference["quick" if quick else "full"] = {}
        for run in size_runs:
            if len(run.digests) != 1 or not run.correct:
                raise SystemExit(f"{run.name}: outputs not stable, not pinning")
            record = run.records[0]
            section[run.name] = {"digest": record["digest"],
                                 "attempted": record["attempted"],
                                 "units": record["units"],
                                 "counts": exact_counts(record)}
    write_json(REFERENCE, reference)
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


# -- selfcheck -----------------------------------------------------------------------

def selfcheck_untraced(first: List[WorkloadRun], second: List[WorkloadRun],
                       bounds: Dict[str, float]) -> bool:
    """Print both sets side by side; True when no pair disagrees."""
    agree = True
    print(f"\n{'workload':<15} {'metric':<14} {'set 1':>10} {'set 2':>10} "
          f"{'ratio':>7} {'spread':>7} {'bound':>6}  verdict")
    for a, b in zip(first, second):
        for metric, _ in END_TO_END:
            sa, sb = a.metrics[metric], b.metrics[metric]
            ratio = sb["median"] / sa["median"]
            widest = max(spread(sa), spread(sb))
            if widest > bounds[metric]:
                verdict = "UNRESOLVED"
            elif abs(ratio - 1.0) > bounds[metric]:
                verdict = "DISAGREE"
            else:
                verdict = "OK"
            agree &= verdict != "DISAGREE"
            print(f"{a.name:<15} {metric:<14} {sa['median']:10.4f} "
                  f"{sb['median']:10.4f} {ratio:7.3f} {widest:7.1%} "
                  f"{bounds[metric]:6.0%}  {verdict}")
        exact = [("failed_share", a.failed_share, b.failed_share, 0),
                 ("sim_digest_ok", a.sim_digest_ok, b.sim_digest_ok, 1)]
        for metric, va, vb, want in exact:
            verdict = "OK" if va == vb == want else "DISAGREE"
            agree &= verdict == "OK"
            print(f"{a.name:<15} {metric:<14} {va:10.4f} {vb:10.4f} "
                  f"{'':>7} {'':>7} {'':>6}  {verdict}")
        same = (a.digests == b.digests and len(a.digests) == 1
                and all(c == a.counts[0] for c in a.counts + b.counts))
        agree &= same
        print(f"{a.name:<15} {'counts+digest':<14} "
              f"{'identical in all runs' if same else 'DIFFER':>44}  "
              f"{'OK' if same else 'DISAGREE'}")
    return agree


def selfcheck_traced(first: List[Dict[str, Any]], second: List[Dict[str, Any]]
                     ) -> bool:
    """Counts (calls entering a layer, events, bytes, hits) must repeat."""
    agree = True
    for a, b in zip(first, second):
        differing = [
            metric for metric in per_layer_names()
            if metric not in _TIMED_COUNT_METRICS | a["host_dependent"]
            and not metric.endswith((".self_s", ".share"))
            and a["metrics"][metric] != b["metrics"][metric]]
        agree &= not differing
        print(f"{a['name']:<15} per-layer counts "
              f"{'identical' if not differing else 'DIFFER: ' + ', '.join(differing)}"
              f"  {'OK' if not differing else 'DISAGREE'}")
    return agree


# -- entry point ---------------------------------------------------------------------

def check_impl() -> str:
    """'c' or 'py'; exits when the compiled cores silently fell back.

    Importing here also builds the C cores into their ``_build`` caches when
    they are missing, so no child ever compiles inside its ``setup_s``.
    """
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.ramses.physcore import PHYS_IMPL
        from repro.sim.simcore import HEAP_IMPL
    except ImportError as exc:
        raise SystemExit(f"cannot import the program from {ROOT / 'src'}: {exc}")
    want = "python" if os.environ.get("REPRO_PURE_PY") else "c"
    if (HEAP_IMPL, PHYS_IMPL) != (want, want):
        raise SystemExit(
            f"HEAP_IMPL={HEAP_IMPL!r} PHYS_IMPL={PHYS_IMPL!r}: the compiled "
            f"cores fell back to pure Python (3-14x slower under the same "
            f"metric names). Fix the C build, or set REPRO_PURE_PY=1 to "
            f"measure the mirrors on purpose.")
    return "py" if want == "python" else "c"


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--repeats", type=int,
                        help=f"children per workload (default {DEFAULT_REPEATS}, "
                             f"never fewer; {QUICK_REPEATS} with --quick)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding repeats until the timed regions of "
                             "a workload add up to this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: traced pass (per-layer metrics) instead of "
                             "the untraced sets")
    parser.add_argument("--quick", action="store_true",
                        help="~1/10 size smoke run; never written to results.json")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets back to back and compare them")
    parser.add_argument("--write-reference", action="store_true",
                        help="pin this seed's digests and counts, both sizes, "
                             "in reference.json")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats is None:
        args.repeats = QUICK_REPEATS if args.quick else DEFAULT_REPEATS
    elif not args.quick and args.repeats < DEFAULT_REPEATS:
        parser.error(f"--repeats is never fewer than {DEFAULT_REPEATS}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(json.loads(args.child))

    spec = read_json(SPEC)
    impl = check_impl()
    import workloads

    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        raise SystemExit("BENCHMARK.json and workloads.py name different workloads")
    if args.workload is not None:
        if args.workload not in workloads.WORKLOADS:
            raise SystemExit(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reference = read_json(REFERENCE)
    notes: List[str] = []
    print(f"impl: {impl}  seed: {args.seed}  "
          f"size: {'quick' if args.quick else 'full'}  workloads: {' '.join(names)}")

    def untraced_set() -> List[WorkloadRun]:
        runs = []
        for name in names:
            runs.append(measure(name, args, reference, notes))
            print_run(runs[-1], workloads.WORKLOADS[name].unit)
        return runs

    def traced_set() -> List[Dict[str, Any]]:
        OUT.mkdir(exist_ok=True)
        passes = []
        for name in names:
            passes.append(trace_pass(name, args, reference, notes))
            print_trace(passes[-1], units)
            with open(OUT / f"layers_{name}.json", "w") as fh:
                json.dump(passes[-1]["layers"], fh, indent=1)
        return passes

    if args.write_reference:
        sized = {}
        for quick in (False, True):
            args.quick = quick
            args.repeats = QUICK_REPEATS
            sized[quick] = untraced_set()
        write_reference(sized, args.seed)
        return 0

    ok = True
    if args.trace:
        passes = traced_set()
        if args.selfcheck:
            print("\nsecond set")
            ok &= selfcheck_traced(passes, traced_set())
        ok &= not any(p["failures"] for p in passes)
        first = passes[0]
        attempted = first["attempted"]
        failed = first["failed"] + len(first["failures"])
        metrics = {name: {"value": first["metrics"][name], "unit": units[name]}
                   for name in per_layer_names()}
        section, payload = "per_layer", {p["name"]: p["metrics"] for p in passes}
    else:
        runs = untraced_set()
        if args.selfcheck:
            print("\nsecond set")
            ok &= selfcheck_untraced(runs, untraced_set(), bounds)
        ok &= all(run.correct for run in runs)
        first = runs[0]
        attempted = first.attempted
        failed = first.failed + len(first.check_failures)
        metrics = {name: {"value": first.metrics[name]["median"], "unit": unit}
                   for name, unit in END_TO_END}
        section, payload = "end_to_end", {run.name: run.as_dict() for run in runs}

    for note in notes:
        print(f"note: {note}")
    if args.selfcheck:
        print("selfcheck:", "the two sets agree" if ok else "DISAGREE")
    elif args.workload is not None:
        # The benchmark driver reads this line.
        print(json.dumps({"correct": bool(ok), "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    elif ok and impl == "c" and not args.quick:
        update_results(section, {
            "machine": machine_record(args, impl, names),
            "workloads": payload})
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
