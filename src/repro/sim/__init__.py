"""Discrete-event simulation kernel (the Grid'5000 substitute's substrate).

Public surface:

- :class:`Engine`, :class:`Event`, :class:`Process`, :class:`Timeout`,
  :class:`AnyOf`, :class:`AllOf`, :class:`Interrupt` — the event kernel;
- :class:`Resource`, :class:`Store` — shared resources;
- :class:`Host`, :class:`Link`, :class:`Network` — the platform graph;
- :class:`Outage`, :class:`FailureInjector` — crash/restart outage driver;
- :class:`RandomStreams` — deterministic named random streams.
"""

from .engine import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
)
from .failures import FailureInjector, Outage, OutageRecord
from .network import Host, Link, Network, NetworkError
from .resources import Request, Resource, Store
from .rng import RandomStreams, stable_seed
from .traffic import (
    DEFAULT_MIX,
    Arrival,
    RequestClass,
    TrafficConfig,
    generate_arrivals,
    zipf_weights,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Arrival",
    "DEFAULT_MIX",
    "Engine",
    "Event",
    "FailureInjector",
    "Host",
    "Interrupt",
    "Link",
    "Network",
    "NetworkError",
    "Outage",
    "OutageRecord",
    "Process",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
    "RandomStreams",
    "Request",
    "RequestClass",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
    "TrafficConfig",
    "generate_arrivals",
    "stable_seed",
    "zipf_weights",
]
