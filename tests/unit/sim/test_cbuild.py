"""A C core that cannot be used leaves a record of why.

``build_and_load`` returns ``(None, reason)`` when the extension cannot be
used, and its two callers (``sim/simcore.py``, ``ramses/physcore.py``) put
that reason in one ``RuntimeWarning`` — but only when a build was
attempted: ``REPRO_PURE_PY=1`` skips it, so there is nothing to warn about.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro.sim.cbuild import build_and_load

SRC = Path(__file__).resolve().parents[3] / "src"


def test_missing_source_is_named(tmp_path):
    mod, why = build_and_load(str(tmp_path / "_absent.c"), "_absent")
    assert mod is None
    assert "_absent.c is missing" in why


def test_compiler_failure_reports_status_and_stderr(tmp_path, monkeypatch):
    src = tmp_path / "_broken.c"
    src.write_text("this is not C;\n")
    # Both cache candidates (beside the source, then the temp dir) under
    # tmp_path: nothing of this test outlives it.
    monkeypatch.setenv("TMPDIR", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr("tempfile.tempdir", None)
    mod, why = build_and_load(str(src), "_broken")
    assert mod is None
    assert "exited with status" in why
    assert why.count("\n") == 0 and why.split(": ", 1)[1]  # last stderr line
    assert not list(tmp_path.rglob("*.so"))


_IMPORT_BOTH = ("import repro.sim, repro.ramses.physcore as p\n"
                "from repro.sim.simcore import HEAP_IMPL\n"
                "print(HEAP_IMPL, p.PHYS_IMPL)")


def _import_both(pythonpath, *flags, **env):
    return subprocess.run(
        [sys.executable, *flags, "-c", _IMPORT_BOTH],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(pythonpath), **env))


def test_pure_py_switch_imports_without_a_warning():
    proc = _import_both(SRC, "-W", "error", REPRO_PURE_PY="1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["python", "python"]


def test_failed_build_warns_once_per_extension_with_the_reason(tmp_path):
    # A cold-cache copy of the package whose compiler always fails.
    shutil.copytree(SRC / "repro", tmp_path / "src" / "repro",
                    ignore=shutil.ignore_patterns("_build", "__pycache__"))
    (tmp_path / "tmp").mkdir()
    proc = _import_both(tmp_path / "src", "-W", "always", CC="false",
                        TMPDIR=str(tmp_path / "tmp"), REPRO_PURE_PY="")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["python", "python"]
    for name in ("_simcore", "_physcore"):
        assert proc.stderr.count(
            f"RuntimeWarning: {name}: C extension not usable "
            "(false exited with status 1: no stderr)") == 1
