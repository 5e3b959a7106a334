"""Client-side helpers for the RAMSES services (the paper's §4.3 code).

Builds the nine-argument ramsesZoom2 profiles exactly as the paper's client
does (``diet_file_set`` for the namelist, ``diet_scalar_set`` for the
integers, a declared-but-NULL OUT file), and decodes results the same way
(check the error-control integer before touching the tarball).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..core.data import FileRef, PersistenceMode, file_desc
from ..core.exceptions import DietError
from ..core.profile import Profile
from ..ramses.namelist import format_namelist
from .ramses_service import (
    COORD_SCALE,
    zoom1_profile_desc,
    zoom2_profile_desc,
)

__all__ = ["default_namelist_text", "build_zoom1_profile",
           "build_zoom2_profile", "Zoom2Result", "decode_zoom1",
           "decode_zoom2", "encode_center", "decode_center"]


def default_namelist_text(resolution: int = 128, boxsize: int = 100,
                          a_end: float = 1.0, n_steps: int = 80) -> str:
    """A RAMSES-style namelist for the campaign runs."""
    return format_namelist({
        "RUN_PARAMS": {"cosmo": True, "pic": True, "poisson": True,
                       "nstepmax": n_steps, "aexp_end": a_end},
        "AMR_PARAMS": {"levelmin": int.bit_length(resolution - 1),
                       "levelmax": int.bit_length(resolution - 1) + 6,
                       "ngridmax": 0},
        "OUTPUT_PARAMS": {"aout": [0.3, 0.5, 0.7, 1.0]},
        "REFINE_PARAMS": {"m_refine": 8.0},
    })


def encode_center(center: Sequence[float]) -> Tuple[int, int, int]:
    """Box-unit coordinates -> the profile's DIET_INT fixed point."""
    if len(center) != 3:
        raise ValueError("center must have three coordinates")
    return tuple(int(round((c % 1.0) * COORD_SCALE)) for c in center)  # type: ignore


def decode_center(cx: int, cy: int, cz: int) -> Tuple[float, float, float]:
    return (cx / COORD_SCALE, cy / COORD_SCALE, cz / COORD_SCALE)


def build_zoom1_profile(namelist_text: str, resolution: int,
                        boxsize_mpc_h: int) -> Profile:
    """Allocate + fill a ramsesZoom1 profile."""
    profile = zoom1_profile_desc().instantiate()
    profile.parameter(0).set(FileRef.from_text("namelist.nml", namelist_text))
    profile.parameter(1).set(int(resolution))
    profile.parameter(2).set(int(boxsize_mpc_h))
    profile.parameter(3).set(None)   # OUT: declared, value NULL (§4.3.1)
    profile.parameter(4).set(None)
    return profile


def build_zoom2_profile(namelist_text: str, resolution: int,
                        boxsize_mpc_h: int, center: Sequence[float],
                        n_levels: int,
                        result_persistence: Optional[PersistenceMode] = None
                        ) -> Profile:
    """Allocate + fill the paper's ramsesZoom2 profile (§4.3.2 listing).

    ``result_persistence`` overrides the OUT tarball's persistence mode
    (e.g. ``DIET_PERSISTENT`` keeps the result on the producing SeD and the
    client receives a :class:`~repro.core.data.DataHandle` instead of the
    bytes).  Service matching ignores persistence, so the same registered
    service solves both variants.
    """
    cx, cy, cz = encode_center(center)
    desc = zoom2_profile_desc()
    if result_persistence is not None:
        desc.set_arg(7, file_desc(result_persistence))
    profile = desc.instantiate()
    profile.parameter(0).set(FileRef.from_text("namelist.nml", namelist_text))
    profile.parameter(1).set(int(resolution))
    profile.parameter(2).set(int(boxsize_mpc_h))
    profile.parameter(3).set(cx)
    profile.parameter(4).set(cy)
    profile.parameter(5).set(cz)
    profile.parameter(6).set(int(n_levels))
    profile.parameter(7).set(None)   # OUT file, "even if their values is
    profile.parameter(8).set(None)   # set to NULL" (§4.3.1)
    return profile


@dataclass
class Zoom2Result:
    """Decoded OUT arguments of one ramsesZoom2 call.

    ``tarball`` is a :class:`FileRef` for volatile results, or a
    :class:`~repro.core.data.DataHandle` when the profile asked for a
    persistent (non-RETURN) result — the bytes then stayed on the SeD.
    """

    error: int
    tarball: Optional[object]

    @property
    def succeeded(self) -> bool:
        return self.error == 0 and self.tarball is not None


def decode_zoom1(profile: Profile) -> Tuple[int, Optional[FileRef]]:
    """(error, halo-catalog file) from a completed ramsesZoom1 profile."""
    error = profile.parameter(4).get()
    catalog = profile.parameter(3).get() if error == 0 else None
    return int(error), catalog


def decode_zoom2(profile: Profile) -> Zoom2Result:
    """Mirror of the paper's result handling: read the 9th parameter (error
    code), and only fetch the 8th (the file) when the code is 0."""
    error = profile.parameter(8).get()
    if error is None:
        raise DietError(f"{profile.path!r} result has no error code: the "
                        "solve never set its OUT arguments")
    error = int(error)
    tarball = None
    if error == 0:
        tarball = profile.parameter(7).get()
    return Zoom2Result(error=error, tarball=tarball)
