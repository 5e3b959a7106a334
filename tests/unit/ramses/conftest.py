"""Fixtures shared by the ramses unit tests."""

import pytest

import repro.galics.halomaker as halomaker
import repro.ramses.integrator as integrator
import repro.ramses.mesh as mesh
from repro.ramses.physcore import phys_c

IMPLS = ["python"] + (["c"] if phys_c is not None else [])


@pytest.fixture(params=IMPLS)
def impl(request, monkeypatch):
    """Run a test under the numpy mirror and (when built) the C kernels."""
    if request.param == "python":
        monkeypatch.setattr(mesh, "phys_c", None)
        monkeypatch.setattr(integrator, "phys_c", None)
        monkeypatch.setattr(halomaker, "phys_c", None)
    return request.param
