"""The two kernels, side by side in one session.

``kernel`` yields the session's own ``repro.sim.engine`` — the compiled
event types unless the session runs under ``REPRO_PURE_PY=1`` — and a
private copy imported with the pure-Python fallback forced, so a test
written against ``kernel`` pins the C types and their mirror together.
"""

import importlib
import sys

import pytest

_KERNEL_MODULES = ("repro.sim.simcore", "repro.sim.engine")


@pytest.fixture(scope="module", params=["session", "pure-py"])
def kernel(request):
    """The ``repro.sim.engine`` module under test."""
    import repro.sim.engine as session_kernel

    if request.param == "session":
        yield session_kernel
        return
    saved = {name: sys.modules.pop(name) for name in _KERNEL_MODULES}
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_PURE_PY", "1")
        try:
            private = importlib.import_module("repro.sim.engine")
        finally:
            sys.modules.update(saved)
    assert private is not session_kernel
    assert private._drain is private._py_drain
    yield private
