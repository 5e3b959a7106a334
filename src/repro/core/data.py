"""DIET data model: base types, composite types, persistence, arguments.

Mirrors ``DIET_data.h`` (§4.2.1, §4.2.3, §4.3.2 of the paper):

* composite types — ``DIET_SCALAR``, ``DIET_VECTOR``, ``DIET_MATRIX``,
  ``DIET_STRING``, ``DIET_FILE``;
* base types — ``DIET_CHAR``, ``DIET_INT``, ``DIET_FLOAT``, ``DIET_DOUBLE``;
* persistence modes — ``DIET_VOLATILE``, ``DIET_PERSISTENT``,
  ``DIET_STICKY`` (and their ``*_RETURN`` variants);
* argument direction — ``IN``, ``INOUT``, ``OUT`` with the paper's memory
  contract (OUT values are produced by the server; the client must not read
  them before the call completes, and owns them afterwards).

Sizes are tracked on every argument so the transport layer can charge
realistic transfer times.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .exceptions import DataError, ProfileError

__all__ = [
    "BaseType",
    "CompositeType",
    "PersistenceMode",
    "Direction",
    "ArgDesc",
    "DataHandle",
    "DietArg",
    "FileRef",
    "HANDLE_WIRE_BYTES",
    "sizeof_value",
    "scalar_desc",
    "vector_desc",
    "matrix_desc",
    "string_desc",
    "file_desc",
]


class BaseType(enum.Enum):
    """Element types (DIET_CHAR ... DIET_DOUBLE)."""

    CHAR = ("DIET_CHAR", 1)
    SHORT = ("DIET_SHORT", 2)
    INT = ("DIET_INT", 4)
    LONGINT = ("DIET_LONGINT", 8)
    FLOAT = ("DIET_FLOAT", 4)
    DOUBLE = ("DIET_DOUBLE", 8)

    def __init__(self, cname: str, nbytes: int):
        self.cname = cname
        self.nbytes = nbytes


class CompositeType(enum.Enum):
    """Container types (DIET_SCALAR ... DIET_FILE)."""

    SCALAR = "DIET_SCALAR"
    VECTOR = "DIET_VECTOR"
    MATRIX = "DIET_MATRIX"
    STRING = "DIET_STRING"
    FILE = "DIET_FILE"


class PersistenceMode(enum.Enum):
    """Where data lives after the call (DIET data management, §4.2.3)."""

    VOLATILE = "DIET_VOLATILE"            # freed on the server after the call
    PERSISTENT = "DIET_PERSISTENT"        # kept on the server for reuse
    PERSISTENT_RETURN = "DIET_PERSISTENT_RETURN"
    STICKY = "DIET_STICKY"                # kept and never moved between SeDs
    STICKY_RETURN = "DIET_STICKY_RETURN"

    @property
    def keeps_server_copy(self) -> bool:
        return self is not PersistenceMode.VOLATILE

    @property
    def returns_to_client(self) -> bool:
        return self in (PersistenceMode.VOLATILE,
                        PersistenceMode.PERSISTENT_RETURN,
                        PersistenceMode.STICKY_RETURN)


class Direction(enum.Enum):
    IN = "IN"
    INOUT = "INOUT"
    OUT = "OUT"


def sizeof_value(composite: CompositeType, base: BaseType, value: Any) -> int:
    """Wire size in bytes of ``value`` under the declared DIET type."""
    if value is None:
        return 0
    if isinstance(value, DataHandle):
        # a reference travels, not the data
        return HANDLE_WIRE_BYTES
    if composite is CompositeType.SCALAR:
        return base.nbytes
    if composite is CompositeType.STRING:
        return len(str(value)) + 1
    if composite is CompositeType.FILE:
        # FILE values are (path, nbytes) pairs or FileRef objects.
        if isinstance(value, FileRef):
            return value.nbytes
        if isinstance(value, tuple) and len(value) == 2:
            return int(value[1])
        raise DataError(f"DIET_FILE value must be FileRef or (path, nbytes), got {value!r}")
    if composite in (CompositeType.VECTOR, CompositeType.MATRIX):
        arr = np.asarray(value)
        return int(arr.size) * base.nbytes
    raise DataError(f"unsupported composite type {composite}")


@dataclass(frozen=True)
class FileRef:
    """A reference to a (simulated or real) file: logical path + size.

    In REAL execution mode ``local_path`` points at an actual file on the
    local disk of the pytest/example process; in MODELED mode only the size
    matters.
    """

    path: str
    nbytes: int
    local_path: Optional[str] = None
    #: Optional in-band file content (DIET ships DIET_FILE arguments by
    #: value; small text files like namelists travel inline).
    content: Optional[str] = None

    def __post_init__(self):
        if self.nbytes < 0:
            raise DataError("file size must be non-negative")

    @classmethod
    def from_text(cls, path: str, text: str) -> "FileRef":
        return cls(path=path, nbytes=len(text.encode()), content=text)


#: Wire size of a data *reference* (a CORBA object reference, roughly).
HANDLE_WIRE_BYTES = 64


@dataclass(frozen=True)
class DataHandle:
    """A reference to data persisted on a SeD (the DTM side of §4.2.3).

    Arguments with ``DIET_PERSISTENT``/``DIET_STICKY`` persistence stay on
    the server after the call; the client receives a handle instead of the
    bytes, and may pass the handle as an IN argument of a later call — the
    data then moves SeD-to-SeD (or not at all, when the scheduler picks the
    owner) instead of round-tripping through the client.
    """

    data_id: str
    sed_name: str
    nbytes: int

    def __post_init__(self):
        if self.nbytes < 0:
            raise DataError("data size must be non-negative")


@dataclass(frozen=True)
class ArgDesc:
    """Type-level description of one profile argument (no value).

    This is what ``diet_generic_desc_set(diet_parameter(pb, i), ...)``
    builds in the C API.  A value: a description changes an argument by
    replacing its ``ArgDesc`` (:meth:`ProfileDesc.set_arg`), never by
    assigning into it.
    """

    composite: CompositeType = CompositeType.SCALAR
    base: BaseType = BaseType.INT
    persistence: PersistenceMode = PersistenceMode.VOLATILE

    def describe(self) -> str:
        return f"{self.composite.value}/{self.base.cname}/{self.persistence.value}"


@dataclass
class DietArg:
    """One argument slot of a concrete profile: description + value + size."""

    desc: ArgDesc = field(default_factory=ArgDesc)
    direction: Direction = Direction.IN
    value: Any = None
    _set: bool = False

    def set(self, value: Any) -> None:
        """Client/server-side setter (diet_scalar_set / diet_file_set ...).

        Per §4.3.1 OUT arguments must be *declared* even when their value is
        still NULL; setting ``None`` marks the slot declared-but-empty.
        """
        self.value = value
        self._set = True

    def get(self) -> Any:
        """Accessor (diet_scalar_get / diet_file_get ...)."""
        if not self._set:
            raise DataError(f"argument not set (direction {self.direction.value})")
        return self.value

    @property
    def is_set(self) -> bool:
        return self._set

    @property
    def nbytes(self) -> int:
        if not self._set or self.value is None:
            return 0
        return sizeof_value(self.desc.composite, self.desc.base, self.value)

    def validate_for_submit(self) -> None:
        """Check the client filled this argument correctly before diet_call."""
        if self.direction in (Direction.IN, Direction.INOUT):
            if not self._set:
                raise ProfileError(
                    f"{self.direction.value} argument must be set before diet_call")
        else:  # OUT: must be declared, value may be None
            if not self._set:
                raise ProfileError("OUT arguments must be declared (value may be NULL)")


# -- convenience constructors ----------------------------------------------------

def scalar_desc(base: BaseType = BaseType.INT,
                persistence: PersistenceMode = PersistenceMode.VOLATILE) -> ArgDesc:
    return ArgDesc(CompositeType.SCALAR, base, persistence)


def vector_desc(base: BaseType = BaseType.DOUBLE,
                persistence: PersistenceMode = PersistenceMode.VOLATILE) -> ArgDesc:
    return ArgDesc(CompositeType.VECTOR, base, persistence)


def matrix_desc(base: BaseType = BaseType.DOUBLE,
                persistence: PersistenceMode = PersistenceMode.VOLATILE) -> ArgDesc:
    return ArgDesc(CompositeType.MATRIX, base, persistence)


def string_desc(persistence: PersistenceMode = PersistenceMode.VOLATILE) -> ArgDesc:
    return ArgDesc(CompositeType.STRING, BaseType.CHAR, persistence)


def file_desc(persistence: PersistenceMode = PersistenceMode.VOLATILE) -> ArgDesc:
    return ArgDesc(CompositeType.FILE, BaseType.CHAR, persistence)
