"""Catalogue of the machine types used in the paper's experiment.

The paper (§5.1) reports that each SeD controlled 16 machines drawn from
AMD Opteron 246, 248, 250, 252 and 275 nodes.  Speeds are expressed in
normalized GFlop-like units proportional to clock rate (the Opteron 2xx
series scales nearly linearly with clock for the RAMSES workload, which is
memory-bandwidth friendly thanks to its sweep structure); the 275 is a
dual-core part at 2.2 GHz.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["MachineSpec", "OPTERON_CATALOGUE", "machine"]


@dataclass(frozen=True)
class MachineSpec:
    """A compute-node model.

    ``speed`` is in normalized work units per second (1.0 == 1 GHz Opteron
    core); cost models express workloads in the same normalized units.
    """

    model: str
    clock_ghz: float
    cores: int
    memory_gib: float

    @property
    def speed(self) -> float:
        return self.clock_ghz


#: The Opteron parts named in §5.1.
OPTERON_CATALOGUE: Dict[str, MachineSpec] = {
    "opteron-246": MachineSpec("AMD Opteron 246", 2.0, 1, 2.0),
    "opteron-248": MachineSpec("AMD Opteron 248", 2.2, 1, 2.0),
    "opteron-250": MachineSpec("AMD Opteron 250", 2.4, 1, 4.0),
    "opteron-252": MachineSpec("AMD Opteron 252", 2.6, 1, 4.0),
    "opteron-275": MachineSpec("AMD Opteron 275", 2.2, 2, 4.0),
}


def machine(key: str) -> MachineSpec:
    """Look up a machine spec by catalogue key."""
    try:
        return OPTERON_CATALOGUE[key]
    except KeyError:
        raise KeyError(
            f"unknown machine {key!r}; known: {sorted(OPTERON_CATALOGUE)}") from None
