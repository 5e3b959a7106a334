"""Cold-start cost: what a fresh interpreter pays before the first event.

Every CLI call, e2e bench child, CI smoke job and ``--jobs`` parent starts
by importing the program; ``benchmarks/e2e`` reports that as ``setup_s``.
Four entry points are measured, each in a *fresh* interpreter
(``PYTHONHASHSEED=0``, ``PYTHONPATH=src`` only, the ``_build`` caches of
both C cores warmed by one untimed spawn):

* ``import repro.experiments.load_federation`` — what an e2e child imports;
* ``import repro.services`` — the library entry point;
* ``python -m repro list`` — the cheapest CLI call;
* import + one 16^3 REAL campaign in a temporary directory (the e2e
  benchmark's quick ``zoom_real``) — what a worker of a sweep of short REAL
  runs pays, first solve included.

The time is the whole spawn (interpreter start + statement), min of N.
Beside it each case records three facts about the process that repeat
exactly from run to run on one Python/numpy pair and say *why* the time is
what it is: ``modules`` (``len(sys.modules)`` after the statement),
``third_party`` (the sorted top-level packages loaded from outside the
stdlib and the source tree) and ``maxrss_mib`` (``ru_maxrss`` after it).
``benchmarks/export.py --check`` gates the first two as counts — a
heavyweight import put back at module level, or on the path of a REAL run,
fails as a package name, on a runner too noisy to resolve its cost in time.

``REPRO_BENCH_QUICK=1`` lowers the number of spawns; the committed
``BENCH_startup.json`` is a quick-mode recording like the other baselines.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
ROUNDS = 5 if QUICK else 15

#: Runs in the child after the measured statement: counts first, then the
#: imports the report itself needs.
_REPORT = """
import sys
n_modules = len(sys.modules)
import json, resource
third_party = sorted(
    name for name, module in sys.modules.items()
    if name.isidentifier() and not name.startswith("_") and name != "repro"
    and name not in sys.stdlib_module_names and getattr(module, "__file__", None))
numpy = sys.modules.get("numpy")
print(json.dumps({
    "modules": n_modules, "third_party": third_party,
    "maxrss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    "versions": {"python": ".".join(map(str, sys.version_info[:3])),
                 "numpy": numpy.__version__ if numpy else None}}))
"""

_CLI_LIST = """
import contextlib, io, runpy, sys
sys.argv = ["repro", "list"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("repro", run_name="__main__")
    except SystemExit as done:
        assert not done.code, done.code
"""

_REAL_QUICK_ZOOM_CAMPAIGN = """
import tempfile
from repro.services import CampaignConfig, ExecutionMode, run_campaign
with tempfile.TemporaryDirectory() as workdir:
    result = run_campaign(CampaignConfig(
        n_sub_simulations=1, resolution=16, boxsize_mpc_h=50, n_zoom_levels=1,
        mode=ExecutionMode.REAL, workdir=workdir, real_n_steps=12,
        real_a_end=1.0, seed=2007))
assert result.statuses == [0], result.statuses
"""

CASES = {
    "import_load_federation": "import repro.experiments.load_federation",
    "import_services": "import repro.services",
    "cli_list": _CLI_LIST,
    "real_quick_zoom_campaign": _REAL_QUICK_ZOOM_CAMPAIGN,
}


def _spawn(statement: str) -> dict:
    """Run ``statement`` in a fresh interpreter; return the child's report."""
    env = {"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0",
           "PATH": os.environ.get("PATH", "")}
    proc = subprocess.run([sys.executable, "-c", statement + _REPORT],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", sorted(CASES))
def test_bench_startup(benchmark, show_report, case):
    report = benchmark.pedantic(_spawn, args=(CASES[case],), rounds=ROUNDS,
                                iterations=1, warmup_rounds=1)
    benchmark.extra_info.update(report)
    line = (f"{case}: {report['modules']} modules, third-party "
            f"{report['third_party']}, {report['maxrss_mib']} MiB")
    if benchmark.stats is not None:  # None under --benchmark-disable
        line += f", min {benchmark.stats.stats.min * 1e3:.0f} ms of {ROUNDS} spawns"
    show_report(line)
