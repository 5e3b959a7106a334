"""Problem profiles and the SeD service table.

Mirrors ``DIET_server.h`` (§4.2.1–§4.2.2 of the paper):

* :class:`ProfileDesc` — the *description* of a service: a path (service
  name) plus ``last_in``, ``last_inout``, ``last_out`` indices and an array
  of argument descriptions (no values).  This is what both client and
  server must agree on ("to match client requests with server services,
  clients and servers must use the same problem description").
* :class:`Profile` — a concrete instance with values, built by the client
  (``diet_profile_alloc``) and shipped with the request.
* :class:`ServiceTable` — the per-SeD registry filled by
  ``diet_service_table_add`` before ``diet_SeD()`` is launched.

The paper's ramsesZoom2 example allocates
``diet_profile_desc_alloc("ramsesZoom2", 6, 6, 8)``: arguments 0..6 are IN,
none are INOUT (last_inout == last_in), and 7..8 are OUT.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from .data import HANDLE_WIRE_BYTES, ArgDesc, DietArg, Direction
from .exceptions import ProfileError, ServiceNotFoundError

__all__ = ["ProfileDesc", "Profile", "ServiceTable", "SolveFunc"]


def _direction_of(index: int, last_in: int, last_inout: int, last_out: int) -> Direction:
    if index <= last_in:
        return Direction.IN
    if index <= last_inout:
        return Direction.INOUT
    return Direction.OUT


@dataclass
class ProfileDesc:
    """Type-level service description (diet_profile_desc_t).

    ``last_in``, ``last_inout`` and ``last_out`` "respectively point at the
    indexes in the array of the last IN, last INOUT and last OUT arguments";
    the array has ``last_out + 1`` slots.  ``last_in == -1`` means no IN
    arguments, etc.
    """

    path: str
    last_in: int
    last_inout: int
    last_out: int
    args: List[ArgDesc] = field(default_factory=list)

    def __post_init__(self):
        if not self.path:
            raise ProfileError("service path must be non-empty")
        if not (-1 <= self.last_in <= self.last_inout <= self.last_out):
            raise ProfileError(
                f"indices must satisfy -1 <= last_in <= last_inout <= last_out, "
                f"got ({self.last_in}, {self.last_inout}, {self.last_out})")
        if not self.args:
            self.args = [ArgDesc() for _ in range(self.n_args)]
        elif len(self.args) != self.n_args:
            raise ProfileError(
                f"args array must have last_out+1 = {self.n_args} entries, "
                f"got {len(self.args)}")

    # -- C-API-style setters --------------------------------------------------

    def set_arg(self, index: int, desc: ArgDesc) -> None:
        """diet_generic_desc_set(diet_parameter(pb, index), ...)."""
        if not 0 <= index <= self.last_out:
            raise ProfileError(f"argument index {index} out of range [0, {self.last_out}]")
        self.args[index] = desc
        for fact in ("slots", "key", "memo_shapes"):
            self.__dict__.pop(fact, None)

    # -- facts derived once per description (set_arg, the mutator, drops them)

    @functools.cached_property
    def slots(self) -> tuple:
        """``(ArgDesc, Direction)`` per argument, in index order."""
        return tuple((a, self.direction(i)) for i, a in enumerate(self.args))

    @functools.cached_property
    def key(self) -> str:
        """Match key: path, indices, each argument's composite and base type
        (a string, hashed once; push-mode candidate tables are keyed by it)."""
        types = (t for a in self.args for t in (a.composite.value, a.base.cname))
        return repr((self.path, self.last_in, self.last_inout, self.last_out, *types))

    @functools.cached_property
    def memo_shapes(self) -> tuple:
        """Per argument, its declaration in the memo descriptor."""
        return tuple((d.value, a.composite.value, a.base.cname, a.persistence.value)
                     for a, d in self.slots)

    def direction(self, index: int) -> Direction:
        if not 0 <= index <= self.last_out:
            raise ProfileError(f"argument index {index} out of range [0, {self.last_out}]")
        return _direction_of(index, self.last_in, self.last_inout, self.last_out)

    @property
    def n_args(self) -> int:
        return self.last_out + 1

    def matches(self, other: "ProfileDesc") -> bool:
        """Structural service matching (name + arity + directions + types)."""
        return self.key == other.key

    def instantiate(self) -> "Profile":
        """Client-side diet_profile_alloc: allocate all argument slots."""
        return Profile(self)

    def signature(self) -> str:
        parts = [f"{d.value}:{a.describe()}" for a, d in self.slots]
        return f"{self.path}({', '.join(parts)})"


class Profile:
    """A concrete call profile: the description plus one value slot per arg."""

    def __init__(self, desc: ProfileDesc):
        self.desc = desc
        self.path = desc.path
        self.arguments: List[DietArg] = [
            DietArg(desc=arg, direction=direction)
            for arg, direction in desc.slots
        ]

    # -- paper-style accessors ---------------------------------------------------

    def parameter(self, index: int) -> DietArg:
        """diet_parameter(pb, index)."""
        if not 0 <= index < len(self.arguments):
            raise ProfileError(f"argument index {index} out of range")
        return self.arguments[index]

    def __iter__(self) -> Iterator[DietArg]:
        return iter(self.arguments)

    def in_args(self) -> List[DietArg]:
        return [a for a in self.arguments if a.direction is Direction.IN]

    def inout_args(self) -> List[DietArg]:
        return [a for a in self.arguments if a.direction is Direction.INOUT]

    def out_args(self) -> List[DietArg]:
        return [a for a in self.arguments if a.direction is Direction.OUT]

    # -- transport accounting ---------------------------------------------------

    def request_nbytes(self) -> int:
        """Bytes shipped client -> SeD (IN + INOUT values)."""
        return sum(a.nbytes for a in self.arguments
                   if a.direction is not Direction.OUT)

    def response_nbytes(self) -> int:
        """Bytes shipped SeD -> client (INOUT + returning OUT values).

        A produced OUT value that stays on the server (persistent,
        non-RETURN mode) still ships its :data:`HANDLE_WIRE_BYTES`-sized
        reference — charged here, exactly once, and nowhere else on the
        reply path.  Values are sized from what the producer actually set
        (``a.nbytes`` reads the declared FileRef/array size), never from a
        client-side placeholder.
        """
        total = 0
        for a in self.arguments:
            if a.direction is Direction.INOUT:
                total += a.nbytes
            elif a.direction is Direction.OUT:
                if a.desc.persistence.returns_to_client:
                    total += a.nbytes
                elif a.is_set and a.value is not None:
                    total += HANDLE_WIRE_BYTES
        return total

    def validate_for_submit(self) -> None:
        for i, arg in enumerate(self.arguments):
            try:
                arg.validate_for_submit()
            except ProfileError as exc:
                raise ProfileError(f"argument {i} of {self.path!r}: {exc}") from None


#: A solve function: takes (profile, solve-context) and is a *generator*
#: yielding simulation events (so it can charge time / do NFS I/O);
#: returns the integer status like the C `int solve_serviceName(profile)`.
SolveFunc = Callable[..., Any]


class ServiceTable:
    """The SeD-side service registry (diet_service_table_*)."""

    def __init__(self, max_size: int = 64):
        if max_size < 1:
            raise ProfileError("service table size must be >= 1")
        self.max_size = max_size
        self._services: Dict[str, tuple] = {}

    def add(self, profile_desc: ProfileDesc, convertor: Optional[Any],
            solve_func: SolveFunc) -> None:
        """diet_service_table_add(profile, convertor, solve_func).

        ``convertor`` is accepted for API fidelity and ignored — "this is
        out of scope of this paper and never used for this application".
        """
        if len(self._services) >= self.max_size:
            raise ProfileError(f"service table full (max_size={self.max_size})")
        if profile_desc.path in self._services:
            raise ProfileError(f"service {profile_desc.path!r} already registered")
        if not callable(solve_func):
            raise ProfileError("solve_func must be callable")
        self._services[profile_desc.path] = (profile_desc, solve_func)

    def lookup(self, path: str) -> tuple:
        try:
            return self._services[path]
        except KeyError:
            raise ServiceNotFoundError(f"no service {path!r} in table") from None

    def can_solve(self, desc: ProfileDesc) -> bool:
        entry = self._services.get(desc.path)
        return entry is not None and entry[0].matches(desc)

    def paths(self) -> List[str]:
        return sorted(self._services)

    def __len__(self) -> int:
        return len(self._services)

    def print_table(self) -> str:
        """diet_print_service_table(): human-readable dump."""
        lines = [f"Service table ({len(self._services)}/{self.max_size}):"]
        for path in self.paths():
            desc, _ = self._services[path]
            lines.append(f"  {desc.signature()}")
        return "\n".join(lines)
