"""Shared build-on-first-import machinery for the repo's C hot cores.

Both compiled extensions (`sim/_simcore.c` — the event heap, and
`ramses/_physcore.c` — the physics kernels) follow the same contract: a
single C source file shipped in the package, compiled with whatever ``cc``
the box has the first time it is imported, cached under a ``_build``
directory next to the source (or the system temp dir when the package
tree is read-only), keyed by a sha1 of the source so edits rebuild and
stale caches are never loaded.  Anything going wrong — no compiler, no
Python headers, sandboxed filesystem, a failed smoke test — degrades to
the caller's pure-Python mirror, and :func:`build_and_load` says why so
the caller can put the reason in a ``RuntimeWarning``: a run never lands
on the slow path without a record of it.

``REPRO_PURE_PY=1`` is honoured by the *callers* (they skip the build
entirely, so nothing failed and nothing is warned), so one switch forces
every compiled path in the package onto its Python mirror at once.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sysconfig
from typing import Callable, Optional, Tuple

__all__ = ["build_and_load"]


def build_and_load(src: str, name: str,
                   smoke: Optional[Callable[[object], bool]] = None
                   ) -> Tuple[Optional[object], Optional[str]]:
    """Compile ``src`` into an extension named ``name`` and import it.

    Parameters
    ----------
    src : path to the single-file C source (its ``PyInit_<name>`` must
        match ``name``)
    name : module name of the extension
    smoke : optional validator run on the freshly loaded module; return
        False (or raise) to reject the build and fall back

    Returns ``(module, None)``, or ``(None, reason)`` when anything prevents
    using the compiled implementation — ``reason`` is one line: the missing
    source, the compiler's exit status and last stderr line, or the rejected
    smoke test.  An import error or a raising ``smoke`` propagates; callers
    treat any exception as one more reason to fall back.
    """
    if not os.path.exists(src):
        return None, f"source {src} is missing"
    with open(src, "rb") as fh:
        tag = hashlib.sha1(fh.read()).hexdigest()[:12]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    soname = f"{name}_{tag}{suffix}"

    local = os.path.join(os.path.dirname(src), "_build")
    so_path = os.path.join(local, soname)
    if not os.path.exists(so_path):  # cold cache: the only path that compiles
        so_path, why = _compile(src, name, soname, suffix, local)
        if so_path is None:
            return None, why

    spec = importlib.util.spec_from_file_location(name, so_path)
    if spec is None or spec.loader is None:
        return None, f"no loader for {so_path}"
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    if smoke is not None and not smoke(mod):
        return None, "smoke test rejected the build"
    return mod, None


def _compile(src: str, name: str, soname: str, suffix: str,
             local: str) -> Tuple[Optional[str], Optional[str]]:
    """Build ``soname`` under ``local``, else under the system temp dir
    (where an earlier run may have left it); ``(None, reason)`` with the
    last attempt's failure when neither works."""
    import subprocess
    import tempfile

    why = None
    for cache_dir in (local, os.path.join(tempfile.gettempdir(), f"repro{name}")):
        candidate = os.path.join(cache_dir, soname)
        if os.path.exists(candidate):
            return candidate, None
        try:
            os.makedirs(cache_dir, exist_ok=True)
            include = sysconfig.get_paths()["include"]
            fd, tmp = tempfile.mkstemp(suffix=suffix, dir=cache_dir)
            os.close(fd)
            cmd = [os.environ.get("CC", "cc"), "-O2", "-fPIC", "-shared",
                   f"-I{include}", src, "-o", tmp]
            proc = subprocess.run(cmd, capture_output=True, timeout=120)
            if proc.returncode != 0:
                os.unlink(tmp)
                stderr = proc.stderr.decode(errors="replace").strip()
                last = stderr.splitlines()[-1] if stderr else "no stderr"
                why = f"{cmd[0]} exited with status {proc.returncode}: {last}"
                continue
            os.replace(tmp, candidate)  # atomic: concurrent builders race safely
            return candidate, None
        except (OSError, subprocess.SubprocessError) as exc:
            why = f"{type(exc).__name__}: {exc}"
            continue
    return None, why
