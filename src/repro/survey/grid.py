"""Cosmological parameter grids for survey campaigns.

A survey sweeps a handful of background-cosmology parameters (the
LensTools set: H0, Ωm, Ωb, σ8, ns, w0) over a grid and runs the same
IC→run→lensing chain at every point.  Points are value objects: frozen,
hashable, and digested through
:func:`~repro.experiments.runner.canonical_pickle` so the same cosmology
always hashes to the same key on any worker in any process — which is
what lets identical points memo-hit across clients.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from itertools import product
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "PARAMETER_NAMES",
    "CosmologyPoint",
    "ParameterGrid",
]

#: The sweep-able parameters, in canonical order.
PARAMETER_NAMES = ("h0", "omega_m", "omega_b", "sigma8", "ns", "w0")


@dataclass(frozen=True)
class CosmologyPoint:
    """One point of the survey: a flat w0CDM background cosmology.

    Defaults are the LensTools fiducial model (Om0.260, si0.800).
    """

    #: Hubble constant, km/s/Mpc.
    h0: float = 72.0
    #: total matter density parameter today.
    omega_m: float = 0.26
    #: baryon density parameter today.
    omega_b: float = 0.046
    #: amplitude of matter fluctuations in 8 Mpc/h spheres.
    sigma8: float = 0.8
    #: scalar spectral index.
    ns: float = 0.96
    #: dark-energy equation-of-state parameter.
    w0: float = -1.0

    def __post_init__(self) -> None:
        for name in PARAMETER_NAMES:
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.h0 <= 0:
            raise ValueError("h0 must be positive")
        if not 0.0 < self.omega_m <= 1.0:
            raise ValueError("omega_m must be in (0, 1]")
        if not 0.0 <= self.omega_b <= self.omega_m:
            raise ValueError("omega_b must be in [0, omega_m]")
        if self.sigma8 <= 0:
            raise ValueError("sigma8 must be positive")

    @property
    def label(self) -> str:
        """LensTools-style directory label, unique per point."""
        return (
            f"Om{self.omega_m:.3f}_si{self.sigma8:.3f}_h{self.h0:.1f}"
            f"_ns{self.ns:.3f}_Ob{self.omega_b:.3f}_w{self.w0:+.2f}"
        )

    @property
    def digest(self) -> str:
        """Stable short content digest of the point (canonical pickle)."""
        from ..experiments.runner import canonical_pickle

        values = tuple((name, getattr(self, name)) for name in PARAMETER_NAMES)
        payload = ("cosmology-point",) + values
        return hashlib.sha256(canonical_pickle(payload)).hexdigest()[:16]

    def cosmology_text(self) -> str:
        """The parameter file the IC service consumes."""
        lines = ["[cosmology]"]
        lines += [f"{name} = {getattr(self, name)!r}" for name in PARAMETER_NAMES]
        return "\n".join(lines) + "\n"


PointSpec = Union[CosmologyPoint, Mapping[str, float]]


class ParameterGrid:
    """An ordered, immutable collection of survey points.

    Construction order is part of the contract — it is the DAG build
    order, hence part of the determinism pin.
    """

    def __init__(self, points: Iterable[PointSpec]):
        resolved = []
        for spec in points:
            resolved.append(self._coerce(spec))
        if not resolved:
            raise ValueError("a ParameterGrid needs at least one point")
        self._points: Tuple[CosmologyPoint, ...] = tuple(resolved)

    @staticmethod
    def _coerce(
        spec: PointSpec, base: Optional[CosmologyPoint] = None
    ) -> CosmologyPoint:
        if isinstance(spec, CosmologyPoint):
            return spec
        if isinstance(spec, Mapping):
            unknown = [k for k in spec if k not in PARAMETER_NAMES]
            if unknown:
                raise ValueError(f"unknown cosmology parameters: {unknown}")
            if base is not None:
                return replace(base, **{k: float(v) for k, v in spec.items()})
            return CosmologyPoint(**{k: float(v) for k, v in spec.items()})
        raise TypeError(f"not a cosmology point spec: {spec!r}")

    @classmethod
    def cartesian(
        cls,
        axes: Mapping[str, Sequence[float]],
        base: Optional[CosmologyPoint] = None,
    ) -> "ParameterGrid":
        """Cartesian product over ``axes`` (given order defines the sweep
        order: last axis varies fastest), other parameters from ``base``.
        """
        base = base if base is not None else CosmologyPoint()
        names = list(axes)
        unknown = [n for n in names if n not in PARAMETER_NAMES]
        if unknown:
            raise ValueError(f"unknown cosmology parameters: {unknown}")
        for name in names:
            if not len(axes[name]):
                raise ValueError(f"axis {name!r} is empty")
        points = []
        for values in product(*(axes[n] for n in names)):
            overrides = {n: float(v) for n, v in zip(names, values)}
            points.append(replace(base, **overrides))
        return cls(points)

    @classmethod
    def from_points(
        cls,
        specs: Iterable[PointSpec],
        base: Optional[CosmologyPoint] = None,
    ) -> "ParameterGrid":
        """Explicit-point construction: each spec is a ``CosmologyPoint``
        or a mapping of overrides applied to ``base``."""
        base = base if base is not None else CosmologyPoint()
        return cls([cls._coerce(spec, base) for spec in specs])

    @property
    def points(self) -> Tuple[CosmologyPoint, ...]:
        return self._points

    def digests(self) -> Tuple[str, ...]:
        return tuple(p.digest for p in self._points)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[CosmologyPoint]:
        return iter(self._points)

    def __getitem__(self, index: int) -> CosmologyPoint:
        return self._points[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParameterGrid):
            return NotImplemented
        return self._points == other._points

    def __hash__(self) -> int:
        return hash(self._points)

    def __repr__(self) -> str:
        return f"ParameterGrid({len(self._points)} points)"
