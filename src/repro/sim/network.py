"""Network model: hosts, links, routes and transfer times.

The model is the standard latency + bandwidth one used by grid simulators
(SimGrid's simple LV08-style model without cross-traffic):

    transfer_time(route, size) = sum(link.latency) + size / min(link.bandwidth)

Links do not serialize flows: the paper's transfers (namelists, tarballs)
are small compared to RENATER capacity, so concurrent transfers on one
link each take the analytic time.

The topology is a graph of :class:`Host` objects; routing is shortest-path
by latency, computed once and cached (the reproduction topologies are small
and static).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Dict, Generator, List, Optional, Tuple

from .engine import Engine, Event
from .resources import Resource

__all__ = ["Host", "Link", "Network", "NetworkError"]


class NetworkError(RuntimeError):
    """Raised for routing errors (unknown host, unreachable destination)."""


class Host:
    """A machine (or an entry point of a cluster) attached to the network.

    ``speed`` is the relative compute speed used by cost models: a workload
    of ``w`` normalized operations takes ``w / speed`` seconds of CPU time.
    ``cores`` bounds concurrent compute tasks via the ``cpu`` resource.
    """

    def __init__(self, engine: Engine, name: str, speed: float = 1.0,
                 cores: int = 1, properties: Optional[Dict[str, Any]] = None):
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        self.engine = engine
        self.name = name
        self.speed = float(speed)
        self.cores = cores
        self.cpu = Resource(engine, capacity=cores)
        self.properties: Dict[str, Any] = dict(properties or {})

    def compute_time(self, work: float) -> float:
        """Seconds needed for ``work`` normalized operations on this host."""
        if work < 0:
            raise ValueError("work must be non-negative")
        return work / self.speed

    def execute(self, work: float) -> Generator[Event, Any, None]:
        """Process helper: occupy one core for the duration of ``work``."""
        req = yield from self.cpu.acquire()
        try:
            yield self.engine.timeout(self.compute_time(work))
        finally:
            self.cpu.release(req)

    def __repr__(self) -> str:
        return f"Host({self.name!r}, speed={self.speed})"


class Link:
    """A network link with latency (s) and bandwidth (bytes/s)."""

    def __init__(self, name: str, latency: float, bandwidth: float,
                 wan: bool = False):
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.name = name
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)
        #: Wide-area link (site uplink): transfers crossing it count toward
        #: :attr:`Network.bytes_wan`, the quantity data placement minimizes.
        self.wan = wan

    def __repr__(self) -> str:
        return (f"Link({self.name!r}, lat={self.latency * 1e3:.3f}ms, "
                f"bw={self.bandwidth / 1e6:.1f}MB/s)")


class Network:
    """A static topology of hosts and links with cached shortest-path routes."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self._hosts: Dict[str, Host] = {}
        self._adj: Dict[str, List[Tuple[str, Link]]] = {}
        self._route_cache: Dict[Tuple[str, str], List[Link]] = {}
        #: Per-pair derived route metrics: (latency_sum, bottleneck_bw,
        #: crosses_wan).  Lets transfer_time() and wire_time() skip the
        #: per-call sum/min on the RPC hot path.
        self._route_info: Dict[Tuple[str, str], Tuple[float, float, bool]] = {}
        #: Plain traffic totals, the one record of them (always on): every byte
        #: timed by :meth:`wire_time`, and the subset that crossed a WAN link.
        self.bytes_total = 0
        self.bytes_wan = 0

    # -- topology construction ------------------------------------------------

    def add_host(self, host: Host) -> Host:
        if host.name in self._hosts:
            raise NetworkError(f"duplicate host {host.name!r}")
        self._hosts[host.name] = host
        self._adj[host.name] = []
        return host

    def host(self, engine_name: str) -> Host:
        try:
            return self._hosts[engine_name]
        except KeyError:
            raise NetworkError(f"unknown host {engine_name!r}") from None

    @property
    def hosts(self) -> List[Host]:
        return list(self._hosts.values())

    def connect(self, a: str, b: str, link: Link) -> Link:
        """Attach a bidirectional link between hosts ``a`` and ``b``."""
        for name in (a, b):
            if name not in self._hosts:
                raise NetworkError(f"unknown host {name!r}")
        self._adj[a].append((b, link))
        self._adj[b].append((a, link))
        self._route_cache.clear()
        self._route_info.clear()
        return link

    # -- routing ----------------------------------------------------------------

    def route(self, src: str, dst: str) -> List[Link]:
        """Latency-shortest path between two hosts (cached).

        A cache miss runs one full Dijkstra from ``src`` and caches the
        route to *every* reachable host (plus the symmetric ``(dst, src)``
        reverses) — all-pairs precompute amortized behind the existing
        cache, so a fabric of N endpoints pays N single-source expansions
        instead of N² pairwise searches.
        """
        if src == dst:
            return []
        cached = self._route_cache.get((src, dst))
        if cached is not None:
            return cached
        if src not in self._hosts or dst not in self._hosts:
            raise NetworkError(f"unknown endpoint in route {src!r} -> {dst!r}")
        self._expand_source(src)
        cached = self._route_cache.get((src, dst))
        if cached is None:
            raise NetworkError(f"no route from {src!r} to {dst!r}")
        return cached

    def _expand_source(self, src: str) -> None:
        """Dijkstra from ``src`` (by cumulative latency) over the whole
        component; fills the route cache for every reachable target."""
        dist: Dict[str, float] = {src: 0.0}
        prev: Dict[str, Tuple[str, Link]] = {}
        heap: List[Tuple[float, str]] = [(0.0, src)]
        visited = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            for neigh, link in self._adj[node]:
                nd = d + link.latency
                if nd < dist.get(neigh, math.inf):
                    dist[neigh] = nd
                    prev[neigh] = (node, link)
                    heapq.heappush(heap, (nd, neigh))
        cache = self._route_cache
        for node in visited:
            if node == src or (src, node) in cache:
                continue
            path: List[Link] = []
            cur = node
            while cur != src:
                pnode, link = prev[cur]
                path.append(link)
                cur = pnode
            path.reverse()
            cache[(src, node)] = path
            # Symmetric topology: cache the reverse too (first write wins,
            # matching the pre-existing pairwise behaviour on latency ties).
            cache.setdefault((node, src), list(reversed(path)))

    def _route_metrics(self, src: str, dst: str) -> Tuple[float, float, bool]:
        """Cached ``(latency_sum, bottleneck_bw, crosses_wan)`` per pair;
        ``bottleneck_bw`` is 0.0 for the empty self-route."""
        info = self._route_info.get((src, dst))
        if info is None:
            links = self.route(src, dst)
            if links:
                info = (sum(l.latency for l in links),
                        min(l.bandwidth for l in links),
                        any(l.wan for l in links))
            else:
                info = (0.0, 0.0, False)
            self._route_info[(src, dst)] = info
        return info

    def transfer_time(self, src: str, dst: str, nbytes: int) -> float:
        """Analytic transfer duration, ``sum(latency) + nbytes /
        min(bandwidth)`` (0.0 on the self-route).  :meth:`wire_time` charges
        exactly this, to the bit, so cost models built on it predict the
        wire (a property test pins the contract)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        latency, bottleneck, _ = self._route_metrics(src, dst)
        if bottleneck == 0.0:  # empty self-route
            return 0.0
        return latency + nbytes / bottleneck

    def wire_time(self, src: str, dst: str, nbytes: int) -> float:
        """Count a transfer's bytes and return its duration, for a caller
        that charges the time itself (the message path's one-event legs).
        The self-route has no wire: 0.0, and nothing counted."""
        info = self._route_info.get((src, dst))  # the per-message hot path
        latency, bottleneck, wan = (
            info if info is not None else self._route_metrics(src, dst))
        if bottleneck == 0.0:  # empty self-route
            return 0.0
        self.bytes_total += nbytes
        if wan:
            self.bytes_wan += nbytes
        return latency + nbytes / bottleneck
