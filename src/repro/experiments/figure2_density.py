"""E8 — Figure 2 analogue: time sequence of the projected density field.

Figure 2 of the paper is a visual ("Time sequence (from left to right) of
the projected density field in a cosmological simulation (large scale
periodic box)").  The quantitative content we reproduce with a real PM run:
the density field's fluctuation amplitude grows monotonically through the
sequence, and by a=1 the box contains collapsed high-density peaks (the
"dark matter halos, seen in Figure 2 as high-density peaks").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..galics.halomaker import find_halos
from ..grafic.ic import make_single_level_ic
from ..ramses.cosmology import LCDM_WMAP, Cosmology
from ..ramses.simulation import RamsesRun, RunConfig, Snapshot
from .report import ascii_table

__all__ = ["Figure2Result", "run", "render"]


@dataclass
class Figure2Result:
    aexps: List[float]
    rms_delta: List[float]
    max_delta: List[float]
    n_halos_final: int
    projections: List[np.ndarray]

    @property
    def monotone_growth(self) -> bool:
        return all(b > a for a, b in zip(self.rms_delta[:-1], self.rms_delta[1:]))


def run(n_per_side: int = 32, boxsize: float = 100.0,
        cosmology: Optional[Cosmology] = None, seed: int = 42,
        n_steps: int = 48) -> Figure2Result:
    cosmo = cosmology or LCDM_WMAP
    ic = make_single_level_ic(n_per_side, boxsize, cosmo, a_start=0.05,
                              seed=seed)
    outputs = (0.1, 0.25, 0.5, 1.0)   # the left-to-right panels
    cfg = RunConfig(a_end=1.0, n_steps=n_steps, output_aexp=outputs)
    result = RamsesRun(ic, cfg).run()
    snaps: List[Snapshot] = result.snapshots
    final_halos = find_halos(snaps[-1].particles, snaps[-1].aexp)
    return Figure2Result(
        aexps=[s.aexp for s in snaps],
        rms_delta=[s.rms_delta for s in snaps],
        max_delta=[s.max_delta for s in snaps],
        n_halos_final=len(final_halos),
        projections=[s.projected_density(n=32) for s in snaps])


def _density_panel(projection: np.ndarray) -> List[str]:
    """Downsampled ASCII rendering (about 24 columns) of one projected-density
    panel."""
    ramp = " .:-=+*#%@"
    n = projection.shape[0]
    step = max(n // 24, 1)
    img = projection[::step, ::step]
    logv = np.log10(np.maximum(img, 1e-3))
    lo, hi = logv.min(), max(logv.max(), logv.min() + 1e-9)
    idx = ((logv - lo) / (hi - lo) * (len(ramp) - 1)).astype(int)
    return ["".join(ramp[i] for i in row) for row in idx]


def render(result: Figure2Result) -> str:
    rows = [(f"a={a:.2f}", f"{rms:.3f}", f"{mx:.1f}")
            for a, rms, mx in zip(result.aexps, result.rms_delta,
                                  result.max_delta)]
    parts = ["E8 - Figure 2 analogue: projected density through cosmic time",
             ascii_table(("epoch", "rms delta", "max delta"), rows),
             f"monotone growth: {result.monotone_growth}   "
             f"halos at a=1: {result.n_halos_final}",
             ""]
    panels = [_density_panel(p) for p in result.projections]
    for row_idx in range(len(panels[0])):
        parts.append("   ".join(panel[row_idx] for panel in panels))
    parts.append("   ".join(f"a={a:<21.2f}" for a in result.aexps))
    return "\n".join(parts)
