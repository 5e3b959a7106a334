"""The import graph follows the run (DESIGN "Cold start").

The rule: stdlib and numpy at module level; any other third-party package
is imported inside the function that uses it.  Three checks, each against a
fresh interpreter so this suite's own imports cannot mask a regression:

* neither a MODELED run of every kind the e2e benchmark times nor a REAL
  campaign on the compiled cores ever loads scipy, networkx, matplotlib
  or pandas;
* the background-cosmology functions, which integrate with the QUADPACK
  port in ``repro.ramses.quadpack``, load none of them either; the two
  functions that do need one (``build_merger_tree``: networkx; the numpy
  mirror of ``friends_of_friends``: scipy) load it on first call and
  return exactly what they return with the package already imported;
* no module under ``src/repro`` imports a third-party package other than
  numpy at module level (a source scan: the rule is enforced, not
  remembered).

A fourth scan is the unused-import lint (pyflakes' F401) in stdlib form:
no module-level import in ``src``, ``tests``, ``benchmarks``, ``tools`` or
``examples`` binds a name its file never mentions again.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.galics.halomaker as halomaker

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
HEAVY = ("scipy", "networkx", "matplotlib", "pandas")

#: Prepended to every child: ``heavy()`` names the heavyweight top-level
#: packages loaded so far, ``report(value)`` prints both as the last line.
_PRELUDE = f"""
import json, sys
def heavy():
    return sorted({{m.partition('.')[0] for m in sys.modules}} & set({HEAVY!r}))
def report(value=None):
    print(json.dumps({{"value": value, "heavy": heavy()}}))
"""


def fresh(code: str, **env) -> dict:
    """Run ``code`` in a fresh interpreter; return what it ``report``-ed."""
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + code], capture_output=True, text=True,
        timeout=300, env=dict(os.environ, PYTHONPATH=str(SRC), **env))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_modeled_runs_load_no_heavy_package():
    out = fresh("""
import repro.experiments, repro.services, repro.__main__
from repro.experiments import load_federation, survey_campaign
from repro.services import CampaignConfig, run_campaign

result = run_campaign(CampaignConfig(n_sub_simulations=2))
assert set(result.statuses) == {0}, result.statuses
for routing in ("pull", "push"):
    load_federation.run(loads=(8.0,), routings=(routing,), duration=5.0,
                        n_clients=500, churn=0, memo="on")
survey_campaign.run(routings=("pull",), policies=("default",),
                    data_policies=("volatile",), shape=(2, 2), resolution=32,
                    n_planes=4, zooms=1)
report()
""")
    assert out["heavy"] == []


def test_real_campaign_on_the_compiled_cores_loads_no_heavy_package():
    """The e2e benchmark's quick ``zoom_real``: GRAFIC, PM N-body, FoF and
    the tarball, 16^3 particles."""
    if halomaker.phys_c is None:
        pytest.skip("the numpy mirror of friends_of_friends needs scipy")
    out = fresh("""
import tempfile
from repro.services import CampaignConfig, ExecutionMode, run_campaign

with tempfile.TemporaryDirectory() as workdir:
    result = run_campaign(CampaignConfig(
        n_sub_simulations=1, resolution=16, boxsize_mpc_h=50, n_zoom_levels=1,
        mode=ExecutionMode.REAL, workdir=workdir, real_n_steps=12,
        real_a_end=1.0, seed=2007))
assert result.statuses == [0], result.statuses
report()
""")
    assert out["heavy"] == []


#: name -> (package the call must load or None, set-up code, code binding
#: ``value``).  The child runs set-up, checks nothing heavy is loaded yet,
#: runs the call; this process runs the same two strings, with the package
#: (if any) pre-imported.
LAZY_CALLS = {
    "Cosmology.age": (
        None, "from repro.ramses.cosmology import LCDM_WMAP",
        "value = LCDM_WMAP.age(0.5)"),
    "Cosmology.a_of_t": (
        None, "from repro.ramses.cosmology import LCDM_WMAP",
        "value = LCDM_WMAP.a_of_t(0.5)"),
    "Cosmology.growth_factor": (
        None, "from repro.ramses.cosmology import LCDM_WMAP",
        "value = LCDM_WMAP.growth_factor([0.1, 0.5, 1.0]).tolist()"),
    "PowerSpectrum.sigma_r": (
        None, """
from repro.grafic.power_spectrum import PowerSpectrum
from repro.ramses.cosmology import LCDM_WMAP
""", "value = PowerSpectrum(LCDM_WMAP).sigma_r(4.0)"),
    # Halos 0 and 1 merge into halo 0; halo 2 survives as halo 1.
    "build_merger_tree": (
        "networkx", """
import numpy as np
from repro.galics import build_merger_tree
from repro.galics.catalogs import Halo, HaloCatalog

def halo(halo_id, ids):
    return Halo(halo_id=halo_id, center=np.full(3, 0.5), mass=float(len(ids)),
                velocity=np.zeros(3), n_particles=len(ids), radius=0.01,
                member_ids=np.array(ids))

catalogs = [
    HaloCatalog(0.5, [halo(0, range(0, 40)), halo(1, range(40, 60)),
                      halo(2, range(60, 90))]),
    HaloCatalog(1.0, [halo(0, range(0, 58)), halo(1, range(60, 88))])]
""", """
tree = build_merger_tree(catalogs)
value = sorted([src.snapshot, src.halo_id, dst.snapshot, dst.halo_id,
                data["shared_mass"], data["shared_fraction"]]
               for src, dst, data in tree.graph.edges(data=True))
"""),
    "friends_of_friends": (
        "scipy", """
import numpy as np
from repro.galics import friends_of_friends
x = np.random.default_rng(3).random((400, 3))
""", "value = friends_of_friends(x, 0.05).tolist()"),
}


def _in_child(name: str, **env) -> dict:
    _package, setup, call = LAZY_CALLS[name]
    return fresh(f"{setup}\nassert heavy() == [], heavy()\n{call}\nreport(value)",
                 **env)


def _here(name: str):
    package, setup, call = LAZY_CALLS[name]
    if package:
        importlib.import_module(package)  # the reference side: pre-imported
    namespace: dict = {}
    exec(f"{setup}\n{call}", namespace)
    return namespace["value"]


@pytest.mark.parametrize("name", sorted(set(LAZY_CALLS) - {"friends_of_friends"}))
def test_first_call_loads_the_package_and_returns_the_same(name):
    """... and nothing else: the cosmology calls, which need no package,
    must leave the heavy set empty."""
    out = _in_child(name)
    package = LAZY_CALLS[name][0]
    assert out["heavy"] == ([package] if package else [])
    assert out["value"] == _here(name)


def test_friends_of_friends_mirror_loads_scipy_on_first_call(monkeypatch):
    """Only the numpy mirror needs scipy; the compiled kernel never does."""
    compiled = _in_child("friends_of_friends")
    if halomaker.phys_c is not None:
        assert compiled["heavy"] == []
    mirror = _in_child("friends_of_friends", REPRO_PURE_PY="1")
    assert mirror["heavy"] == ["scipy"]
    monkeypatch.setattr(halomaker, "phys_c", None)
    expected = _here("friends_of_friends")
    assert mirror["value"] == expected == compiled["value"]
    assert len(set(expected)) < len(expected)  # some particles did link


def _module_level_imports(tree: ast.Module):
    """Import nodes that run when the module is imported: everything in
    the module body (``if`` / ``try`` blocks and class bodies included)
    that is not inside a function."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_level_third_party_import_but_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "repro"}
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in _module_level_imports(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]
            else:
                names = [alias.name for alias in node.names]
            offenders += [f"{path.relative_to(SRC)}:{node.lineno}: {name}"
                          for name in names
                          if name.partition(".")[0] not in allowed]
    assert not offenders, (
        "third-party imports other than numpy belong inside the function "
        "that uses them (DESIGN 'Cold start'):\n" + "\n".join(offenders))


def _dunder_all(tree: ast.Module) -> set:
    """The string entries of a module-level ``__all__`` list or tuple."""
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names |= {elt.value for elt in node.value.elts
                      if isinstance(elt, ast.Constant)}
    return names


def _unused_imports(path: Path):
    """``path:line: name`` for every module-level import whose bound name
    never recurs in the file outside the import statement.  Exempt:
    ``from __future__``, names listed in ``__all__`` (re-exports) and
    statements marked ``# noqa``."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    exported = _dunder_all(tree)
    for node in _module_level_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = range(node.lineno - 1, node.end_lineno)
        if any("# noqa" in lines[i] for i in span):
            continue
        rest = "\n".join(line for i, line in enumerate(lines) if i not in span)
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name == "*" or name in exported:
                continue
            if not re.search(rf"\b{re.escape(name)}\b", rest):
                yield f"{path.relative_to(ROOT)}:{node.lineno}: {name}"


def test_no_unused_module_level_import():
    hits = []
    for top in ("src", "tests", "benchmarks", "tools", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if "_build" not in path.parts:
                hits += _unused_imports(path)
    assert not hits, "unused imports (remove them):\n" + "\n".join(hits)
