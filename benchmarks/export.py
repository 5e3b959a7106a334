"""Record benchmark results as ``BENCH_<name>.json`` and gate regressions.

Two roles, one file format:

* ``python benchmarks/export.py --bench engine`` runs
  ``pytest benchmarks/bench_engine.py --benchmark-only`` and folds the
  pytest-benchmark report into ``BENCH_engine.json`` at the repo root —
  per benchmark ``min``/``mean`` seconds, ``rounds``, plus any
  ``extra_info`` the benchmark recorded (events/sec, efficiency, what the
  cyclic collector did, ...), tagged with the heap implementation that
  produced it.  The engine document also carries the RPC round-trip and
  fan-out gather cases of ``bench_middleware.py``: the kernel shapes, the
  message path and the fan-out join they serve are gated together.
* ``--check`` additionally compares the fresh ``min`` times against the
  committed baseline of the same name and exits non-zero when any
  benchmark ran more than ``--threshold`` (default 2.0) times slower,
  scheduled more kernel events than the baseline's run did
  (``extra_info.events``), or left the cyclic collector more than
  ``GC_SLACK`` objects beyond the baseline's count
  (``extra_info.gc_collected``) — the CI regression gate.  Both counts
  repeat exactly from run to run, so an event put back on the message path
  or a reference cycle reintroduced into a per-message object fails the
  gate as a count even on a runner too noisy to resolve its cost in time.
  The event counts are printed baseline → fresh, case by case.  The
  ``startup`` bench is gated the same way on what a fresh interpreter
  loaded: the third-party packages (``extra_info.third_party``) must equal
  the baseline's, and ``len(sys.modules)`` (``extra_info.modules``) must not
  exceed it where baseline and run share a Python/numpy pair (the count is
  exact only there).

CI runs both in quick mode (``REPRO_BENCH_QUICK=1``), comparing against a
committed quick-mode baseline so the gate compares like with like.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Fields copied per benchmark from the pytest-benchmark report.
_STATS_FIELDS = ("min", "mean", "rounds")

#: Cases of other modules recorded in a bench's document (pytest node ids
#: relative to ``benchmarks/``).
_EXTRA_CASES = {"engine": (
    "bench_middleware.py::test_bench_rpc_roundtrip",
    "bench_middleware.py::test_bench_rpc_roundtrip_deadline",
    "bench_middleware.py::test_bench_fanout_gather")}

#: Objects the cyclic collector may free beyond the baseline's count before
#: the gate fails (set-up closures; a per-message cycle costs thousands).
GC_SLACK = 500


def run_bench(name: str) -> dict:
    """Run one benchmark module; return the folded results document."""
    bench_file = REPO_ROOT / "benchmarks" / f"bench_{name}.py"
    if not bench_file.exists():
        raise SystemExit(f"no such benchmark module: {bench_file}")
    with tempfile.TemporaryDirectory() as tmp:
        report_path = Path(tmp) / "report.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(REPO_ROOT / "src")
                             + os.pathsep + env.get("PYTHONPATH", ""))
        extra = [str(REPO_ROOT / "benchmarks" / case)
                 for case in _EXTRA_CASES.get(name, ())]
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", str(bench_file), *extra,
             "--benchmark-only", f"--benchmark-json={report_path}", "-q"],
            cwd=REPO_ROOT, env=env)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark run failed (exit {proc.returncode})")
        report = json.loads(report_path.read_text())

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.ramses.physcore import PHYS_IMPL
    from repro.sim.simcore import HEAP_IMPL

    doc = {
        "meta": {
            "bench": name,
            "heap_impl": HEAP_IMPL,
            "phys_impl": PHYS_IMPL,
            "quick": bool(os.environ.get("REPRO_BENCH_QUICK")),
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "benchmarks": {},
    }
    for bench in report["benchmarks"]:
        entry = {field: bench["stats"][field] for field in _STATS_FIELDS}
        if bench.get("extra_info"):
            entry["extra_info"] = bench["extra_info"]
        doc["benchmarks"][bench["name"]] = entry
    return doc


def _delta_table(rows: list) -> str:
    """Fixed-width per-shape delta table: one row per benchmark name."""
    headers = ("benchmark", "baseline", "current", "ratio", "delta", "status")
    cells = [headers]
    for name, base_min, new_min, ratio, status in rows:
        if base_min is None:
            cells.append((name, "-", f"{new_min * 1e3:.2f}ms", "-", "-", status))
        else:
            cells.append((name, f"{base_min * 1e3:.2f}ms",
                          f"{new_min * 1e3:.2f}ms", f"{ratio:.2f}x",
                          f"{(ratio - 1.0) * 100.0:+.1f}%", status))
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def check_regression(doc: dict, baseline_path: Path, threshold: float) -> int:
    """Compare fresh min times to the baseline; return the exit code."""
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; regression check skipped.")
        print(f"to arm the gate: run `python benchmarks/export.py "
              f"--bench {doc['meta']['bench']}` on a known-good commit "
              f"and commit {baseline_path.name}")
        return 0
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("meta", {}).get("quick") != doc["meta"]["quick"]:
        print("baseline and run disagree on quick mode; refusing to compare")
        return 1
    rows = []
    failures = []
    event_lines = []
    import_lines = []
    for name, entry in doc["benchmarks"].items():
        base = baseline.get("benchmarks", {}).get(name)
        if base is None:
            rows.append((name, None, entry["min"], None, "NEW (not in baseline)"))
            continue
        ratio = entry["min"] / base["min"]
        info, base_info = entry.get("extra_info", {}), base.get("extra_info", {})
        freed, base_freed = info.get("gc_collected"), base_info.get("gc_collected")
        events, base_events = info.get("events"), base_info.get("events")
        counted = events is not None and base_events is not None
        if counted:
            event_lines.append(f"  {name}: {base_events} -> {events} events")
        packages, base_packages = info.get("third_party"), base_info.get("third_party")
        modules, base_modules = info.get("modules"), base_info.get("modules")
        # len(sys.modules) is exact only on the baseline's Python/numpy pair.
        like = info.get("versions") == base_info.get("versions")
        if modules is not None and base_modules is not None:
            import_lines.append(
                f"  {name}: {base_modules} -> {modules} modules"
                f"{'' if like else ' (not gated: other Python/numpy)'}, "
                f"third-party {base_packages} -> {packages}")
        if ratio > threshold:
            status = "REGRESSION"
        elif counted and events > base_events:
            status = f"EVENT REGRESSION ({base_events} -> {events} events)"
        elif packages != base_packages:
            status = f"IMPORT REGRESSION (third-party {base_packages} -> {packages})"
        elif like and base_modules is not None and modules > base_modules:
            status = f"IMPORT REGRESSION ({base_modules} -> {modules} modules)"
        elif (freed is not None and base_freed is not None
                and freed > base_freed + GC_SLACK):
            status = f"GC REGRESSION ({base_freed} -> {freed} objects)"
        else:
            status = "OK"
        rows.append((name, base["min"], entry["min"], ratio, status))
        if status != "OK":
            failures.append(name)
    print(_delta_table(rows))
    if event_lines:
        print("kernel events scheduled, baseline -> current:")
        print("\n".join(event_lines))
    if import_lines:
        print("loaded by a fresh interpreter, baseline -> current:")
        print("\n".join(import_lines))
    if failures:
        print(f"FAILED: {len(failures)} benchmark(s) more than "
              f"{threshold:.1f}x slower than baseline, scheduling more kernel "
              f"events than it, importing more than it, or leaving the cyclic "
              f"collector more than {GC_SLACK} objects beyond it: "
              f"{', '.join(failures)}")
        return 1
    print("regression check passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default="engine",
                        help="benchmark module to run (bench_<name>.py)")
    parser.add_argument("--out", default=None,
                        help="output path (default BENCH_<name>.json at "
                             "the repo root)")
    parser.add_argument("--check", action="store_true",
                        help="fail when slower than the committed baseline")
    parser.add_argument("--baseline", default=None,
                        help="baseline to compare against with --check "
                             "(default: the committed output path)")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="max allowed slowdown ratio (default 2.0)")
    args = parser.parse_args(argv)

    default_path = REPO_ROOT / f"BENCH_{args.bench}.json"
    out_path = Path(args.out) if args.out else default_path
    baseline_path = Path(args.baseline) if args.baseline else default_path

    doc = run_bench(args.bench)
    code = 0
    if args.check:
        code = check_regression(doc, baseline_path, args.threshold)
        if args.out is None:
            # Don't clobber the committed baseline during a gate run.
            out_path = default_path.with_suffix(".ci.json")
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
