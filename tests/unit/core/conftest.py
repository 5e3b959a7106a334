"""The message path on both legs in one session.

``pure_transport`` is a private ``repro.core.transport``, with its own
``repro.sim`` kernel, imported with the pure-Python fallback forced.  A test
runs one scenario on the session's transport (the compiled message path
unless the session runs under ``REPRO_PURE_PY=1``) and on this mirror.
"""

import importlib
import sys

import pytest

_MODULES = ("repro.sim.simcore", "repro.sim.engine", "repro.core.transport")


@pytest.fixture(scope="module")
def pure_transport():
    """A ``repro.core.transport`` running on the pure-Python kernel."""
    import repro.core as core
    import repro.core.transport as session_transport
    import repro.sim as sim

    saved = {name: sys.modules.pop(name) for name in _MODULES}
    # Importing a submodule rebinds it on its package: put those back too.
    bound = [(sim, "simcore", sim.simcore), (sim, "engine", sim.engine),
             (core, "transport", core.transport)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_PURE_PY", "1")
        try:
            private = importlib.import_module("repro.core.transport")
        finally:
            sys.modules.update(saved)
            for package, name, module in bound:
                setattr(package, name, module)
    assert private is not session_transport and private._C is None
    yield private
