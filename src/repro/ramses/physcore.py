"""Compiled physics kernels: build-on-first-import glue for ``_physcore.c``.

The extension implements the REAL-mode hot paths — CIC scatter/gather,
the leapfrog kick/drift updates and friends-of-friends linking — and is
compiled through the same :mod:`repro.sim.cbuild` machinery as the event
heap: first import compiles with whatever ``cc`` the box has, the result
is sha1-cached, and any failure (no compiler, sandboxed filesystem, a
failed smoke test) degrades to the numpy implementations in
:mod:`repro.ramses.mesh`, :mod:`repro.ramses.integrator` and
:mod:`repro.galics.halomaker`, with one ``RuntimeWarning`` that carries the
reason.

The smoke test below is the bit-compatibility contract in miniature:
every kernel is compared against the numpy reference on seeded inputs
with ``np.array_equal`` — not ``allclose`` — before the extension is
trusted.  ``REPRO_PURE_PY=1`` skips the build entirely, the same switch
that forces the pure-Python event heap; the test suite runs against both
implementations in CI.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from ..sim.cbuild import build_and_load

__all__ = ["PHYS_IMPL", "phys_c"]


def _reference_cic(i0, frac, mass, field, vfield, n):
    """The historical 8-pass numpy CIC: scatter + scalar/vector gather."""
    npart = len(i0)
    grid = np.zeros((n, n, n))
    out_s = np.zeros(npart)
    out_v = np.zeros((npart, vfield.shape[3]))
    for dx in (0, 1):
        wx = (1.0 - frac[:, 0]) if dx == 0 else frac[:, 0]
        ix = (i0[:, 0] + dx) % n
        for dy in (0, 1):
            wy = (1.0 - frac[:, 1]) if dy == 0 else frac[:, 1]
            iy = (i0[:, 1] + dy) % n
            for dz in (0, 1):
                wz = (1.0 - frac[:, 2]) if dz == 0 else frac[:, 2]
                iz = (i0[:, 2] + dz) % n
                np.add.at(grid, (ix, iy, iz), mass * wx * wy * wz)
                w = wx * wy * wz
                out_s += field[ix, iy, iz] * w
                out_v += vfield[ix, iy, iz] * w[:, None]
    return grid, out_s, out_v


def _smoke(mod) -> bool:
    rng = np.random.default_rng(12345)
    n, npart = 5, 48
    x = rng.random((npart, 3))
    mass = rng.random(npart)
    s = x * n - 0.5
    i0 = np.floor(s).astype(np.int64)
    frac = s - i0
    field = rng.random((n, n, n))
    vfield = rng.random((n, n, n, 3))
    ref_grid, ref_s, ref_v = _reference_cic(i0, frac, mass, field, vfield, n)

    grid = np.zeros((n, n, n))
    mod.cic_deposit(i0, frac, mass, grid, npart, n)
    if not np.array_equal(grid, ref_grid):
        return False
    out_s = np.zeros(npart)
    out_v = np.zeros((npart, 3))
    mod.cic_gather(i0, frac, field, out_s, npart, n, 1)
    mod.cic_gather(i0, frac, vfield, out_v, npart, n, 3)
    if not (np.array_equal(out_s, ref_s) and np.array_equal(out_v, ref_v)):
        return False

    # kick / drift vs the numpy expressions, including wrap of negative
    # and > 1 positions and the max-displacement reduction.
    p = rng.standard_normal((npart, 3))
    acc = rng.standard_normal((npart, 3))
    pc = p.copy()
    mod.kick(pc, acc, 0.37, pc.size)
    if not np.array_equal(pc, p + acc * 0.37):
        return False
    mom = 40.0 * rng.standard_normal((npart, 3))
    dx = mom * 0.013
    ref_x = np.mod(x + dx, 1.0)
    xc = x.copy()
    maxd = mod.drift(xc, mom, 0.013, xc.size)
    if not np.array_equal(xc, ref_x) or maxd != float(np.abs(dx).max()):
        return False

    # FoF: a chain linked across the periodic seam plus an isolated
    # particle, with first-occurrence canonical labels.
    pts = np.array([[0.999, 0.5, 0.5], [0.003, 0.5, 0.5],
                    [0.007, 0.5, 0.5], [0.5, 0.5, 0.5]])
    labels = np.empty(4, dtype=np.int64)
    ngroups = mod.fof(pts, 0.006, labels, 4)
    if ngroups != 2 or labels.tolist() != [0, 0, 0, 1]:
        return False
    return True


_mod = None
if not os.environ.get("REPRO_PURE_PY"):
    try:
        _mod, _why = build_and_load(
            os.path.join(os.path.dirname(__file__), "_physcore.c"),
            "_physcore", smoke=_smoke)
    except Exception as exc:  # pragma: no cover - any build breakage means fallback
        _mod, _why = None, f"{type(exc).__name__}: {exc}"
    if _mod is None:
        warnings.warn(f"_physcore: C extension not usable ({_why}); running on "
                      "the numpy kernels", RuntimeWarning)

#: Raw extension module, or None when running on the numpy mirrors.
phys_c = _mod
#: "c" or "python" — surfaced in benchmark exports and asserted by the CI
#: C leg, exactly like ``HEAP_IMPL`` for the event heap.
PHYS_IMPL = "c" if _mod is not None else "python"
