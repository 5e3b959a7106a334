"""Open-loop traffic generation: Poisson arrivals over a Zipf population.

Production grids (the CMS testbeds of PAPERS.md) are not driven by one
patient client submitting 100 zooms — they see an *open-loop* stream of
requests from a large, skewed client population: arrivals do not wait for
earlier requests to finish, so offered load is an independent knob and the
system genuinely saturates.  This module generates that stream
deterministically:

* **Poisson arrivals** — exponential inter-arrival gaps at a configured
  aggregate rate, truncated to the experiment duration;
* **Zipf-skewed population** — each arrival is attributed to one of
  ``n_clients`` logical clients with probability ∝ 1/rank^s (a handful of
  heavy hitters, a long tail of occasional users), scaling to 10^5–10^6
  clients because the attribution is a single vectorized searchsorted;
* **heterogeneous mix** — each arrival draws a :class:`RequestClass`
  (service name + normalized work) by weight, so interactive probes and
  long survey jobs share the same queues.

Everything is drawn from named :class:`~repro.sim.rng.RandomStreams`, so a
given (seed, config) pair yields the same arrival list on every run and in
every worker process — the determinism the load experiments pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .rng import RandomStreams

__all__ = ["RequestClass", "DEFAULT_MIX", "TrafficConfig", "Arrival",
           "zipf_weights", "generate_arrivals", "percentile"]


@dataclass(frozen=True)
class RequestClass:
    """One kind of request in the offered mix."""

    #: Service name the request targets (each class is its own service).
    name: str
    #: Relative share of arrivals drawing this class.
    weight: float
    #: Normalized operations one solve charges (seconds on a speed-1 host).
    work: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.work <= 0:
            raise ValueError(f"work must be positive, got {self.work}")


#: A production-flavoured default: mostly short interactive probes, some
#: medium analyses, a trickle of long survey jobs (the heavy tail that
#: dominates queueing once the system approaches saturation).
DEFAULT_MIX: Tuple[RequestClass, ...] = (
    RequestClass("interactive", weight=8.0, work=0.5),
    RequestClass("analysis", weight=3.0, work=3.0),
    RequestClass("survey", weight=1.0, work=15.0),
)


@dataclass(frozen=True)
class TrafficConfig:
    """One open-loop load point."""

    #: Aggregate offered load across the whole population (requests/s).
    rate: float
    #: Seconds of arrivals to generate (the system may drain longer).
    duration: float
    #: Logical client population size (Zipf-ranked).
    n_clients: int = 1000
    #: Zipf skew exponent; larger concentrates load on fewer clients.
    zipf_s: float = 1.1
    #: The request classes arrivals draw from, by weight.
    mix: Tuple[RequestClass, ...] = DEFAULT_MIX

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {self.n_clients}")
        if not self.mix:
            raise ValueError("mix must name at least one request class")


@dataclass(frozen=True)
class Arrival:
    """One generated request arrival."""

    at: float
    client: int
    request_class: RequestClass


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalized Zipf probabilities over ranks 1..n (rank 1 heaviest)."""
    if n < 1:
        raise ValueError(f"population must be >= 1, got {n}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** -float(s)
    return weights / weights.sum()


def generate_arrivals(config: TrafficConfig,
                      streams: RandomStreams) -> List[Arrival]:
    """The full arrival list of one load point, sorted by time.

    Vectorized end to end (gap cumsum, searchsorted client attribution),
    so a 10^6-client, 10^5-arrival point generates in milliseconds.
    """
    rng = streams.get("traffic", "arrivals")
    # Exponential gaps in chunks until the horizon is crossed; chunked
    # over-draw keeps the draw count deterministic per (seed, config).
    chunk_size = max(64, int(config.rate * config.duration / 4) + 1)
    parts: List[np.ndarray] = []
    t = 0.0
    while t < config.duration:
        gaps = rng.exponential(1.0 / config.rate, size=chunk_size)
        chunk = t + np.cumsum(gaps)
        parts.append(chunk)
        t = float(chunk[-1])
    times = np.concatenate(parts)
    times = times[times < config.duration]
    n = len(times)

    cdf = np.cumsum(zipf_weights(config.n_clients, config.zipf_s))
    clients = np.searchsorted(
        cdf, streams.get("traffic", "clients").random(n), side="right")

    mix_w = np.array([cls.weight for cls in config.mix], dtype=np.float64)
    classes = streams.get("traffic", "mix").choice(
        len(config.mix), size=n, p=mix_w / mix_w.sum())

    return [Arrival(float(at), int(client), config.mix[int(k)])
            for at, client, k in zip(times, clients, classes)]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (P50, P99, ...); NaN on an empty sample."""
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
