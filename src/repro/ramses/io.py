"""Snapshot I/O in Fortran unformatted record format.

RAMSES writes "Fortran binary files" (§3): sequential-access unformatted
records, each framed by 4-byte little-endian length markers.  We write the
particle snapshots the same way — one ``part_XXXXX.outYYYYY`` style file
per (output, cpu) pair plus an ``info`` header — so the GALICS substitute
genuinely parses the on-disk format rather than passing numpy arrays
around.  :class:`FortranRecordFile` is usable standalone for any
Fortran-style binary.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import BinaryIO, Dict, List, Union

import numpy as np

from .particles import ParticleSet

__all__ = ["FortranRecordFile", "SnapshotHeader", "write_snapshot",
           "read_snapshot", "snapshot_paths"]

_MARKER = struct.Struct("<i")


class FortranRecordFile:
    """Sequential Fortran unformatted record reader/writer."""

    def __init__(self, stream: BinaryIO):
        self._f = stream

    # -- writing ------------------------------------------------------------------

    def write_record(self, data: Union[bytes, np.ndarray]) -> None:
        if isinstance(data, np.ndarray):
            data = np.ascontiguousarray(data).tobytes()
        marker = _MARKER.pack(len(data))
        self._f.write(marker)
        self._f.write(data)
        self._f.write(marker)

    def write_ints(self, *values: int) -> None:
        self.write_record(np.asarray(values, dtype="<i4"))

    def write_doubles(self, *values: float) -> None:
        self.write_record(np.asarray(values, dtype="<f8"))

    # -- reading ---------------------------------------------------------------------

    def read_record(self) -> bytes:
        head = self._f.read(4)
        if len(head) == 0:
            raise EOFError("end of file")
        if len(head) != 4:
            raise IOError("truncated record marker")
        (nbytes,) = _MARKER.unpack(head)
        if nbytes < 0:
            raise IOError(f"negative record length {nbytes}")
        data = self._f.read(nbytes)
        if len(data) != nbytes:
            raise IOError("truncated record payload")
        tail = self._f.read(4)
        if tail != head:
            raise IOError("record length markers disagree (corrupt file)")
        return data

    def read_ints(self) -> np.ndarray:
        return np.frombuffer(self.read_record(), dtype="<i4")

    def read_longs(self) -> np.ndarray:
        return np.frombuffer(self.read_record(), dtype="<i8")

    def read_doubles(self) -> np.ndarray:
        return np.frombuffer(self.read_record(), dtype="<f8")


@dataclass
class SnapshotHeader:
    """Metadata of one particle snapshot (the RAMSES info file content)."""

    ncpu: int
    ndim: int
    npart: int
    aexp: float
    omega_m: float
    omega_l: float
    h0: float
    boxlen_mpc_h: float
    levelmin: int
    levelmax: int
    output_number: int = 1

    def validate(self) -> None:
        if self.ncpu < 1 or self.npart < 0 or self.ndim != 3:
            raise ValueError("invalid snapshot header")
        if not 0 < self.aexp <= 100:
            raise ValueError(f"unphysical aexp {self.aexp}")


def snapshot_paths(directory: str, output_number: int, ncpu: int) -> List[str]:
    """The per-cpu particle file names of one output."""
    return [os.path.join(directory,
                         f"part_{output_number:05d}.out{icpu + 1:05d}")
            for icpu in range(ncpu)]


def write_snapshot(directory: str, header: SnapshotHeader,
                   parts: ParticleSet) -> List[str]:
    """Write a snapshot split over ``header.ncpu`` per-cpu files + info file.

    Particles go to cpu files by the Hilbert-order contiguous split of the
    domain decomposition.
    """
    header.validate()
    if header.npart != len(parts):
        raise ValueError("header.npart disagrees with particle count")
    os.makedirs(directory, exist_ok=True)
    from .domain import decompose
    ranks = decompose(parts.x, header.ncpu).rank_of_positions(parts.x)

    # info file: plain text, RAMSES style
    info_path = os.path.join(directory, f"info_{header.output_number:05d}.txt")
    with open(info_path, "w") as f:
        for key, value in [("ncpu", header.ncpu), ("ndim", header.ndim),
                           ("levelmin", header.levelmin),
                           ("levelmax", header.levelmax),
                           ("npart", header.npart),
                           ("aexp", header.aexp), ("omega_m", header.omega_m),
                           ("omega_l", header.omega_l), ("h0", header.h0),
                           ("boxlen", header.boxlen_mpc_h)]:
            f.write(f"{key:12s}= {value}\n")

    paths = snapshot_paths(directory, header.output_number, header.ncpu)
    for icpu, path in enumerate(paths):
        sel = ranks == icpu
        sub = parts.select(sel)
        with open(path, "wb") as raw:
            rec = FortranRecordFile(raw)
            rec.write_ints(header.ncpu)
            rec.write_ints(header.ndim)
            rec.write_ints(len(sub))
            rec.write_doubles(header.aexp)
            for dim in range(3):
                rec.write_record(sub.x[:, dim].astype("<f8"))
            for dim in range(3):
                rec.write_record(sub.p[:, dim].astype("<f8"))
            rec.write_record(sub.mass.astype("<f8"))
            rec.write_record(sub.ids.astype("<i8"))
            rec.write_record(sub.level.astype("<i4"))
    return [info_path] + paths


def read_snapshot(directory: str, output_number: int) -> "tuple[SnapshotHeader, ParticleSet]":
    """Read a snapshot written by :func:`write_snapshot`."""
    info_path = os.path.join(directory, f"info_{output_number:05d}.txt")
    fields: Dict[str, str] = {}
    with open(info_path) as f:
        for line in f:
            if "=" in line:
                key, _, value = line.partition("=")
                fields[key.strip()] = value.strip()
    header = SnapshotHeader(
        ncpu=int(fields["ncpu"]), ndim=int(fields["ndim"]),
        npart=int(fields["npart"]), aexp=float(fields["aexp"]),
        omega_m=float(fields["omega_m"]), omega_l=float(fields["omega_l"]),
        h0=float(fields["h0"]), boxlen_mpc_h=float(fields["boxlen"]),
        levelmin=int(fields["levelmin"]), levelmax=int(fields["levelmax"]),
        output_number=output_number)

    pieces: List[ParticleSet] = []
    for path in snapshot_paths(directory, output_number, header.ncpu):
        with open(path, "rb") as raw:
            rec = FortranRecordFile(raw)
            ncpu = int(rec.read_ints()[0])
            ndim = int(rec.read_ints()[0])
            npart = int(rec.read_ints()[0])
            aexp = float(rec.read_doubles()[0])
            if ncpu != header.ncpu or ndim != header.ndim:
                raise IOError(f"inconsistent snapshot piece {path}")
            if abs(aexp - header.aexp) > 1e-10:
                raise IOError(f"aexp mismatch in {path}")
            x = np.empty((npart, 3))
            for dim in range(3):
                x[:, dim] = rec.read_doubles()
            p = np.empty((npart, 3))
            for dim in range(3):
                p[:, dim] = rec.read_doubles()
            mass = rec.read_doubles().copy()
            ids = rec.read_longs().copy()
            level = np.frombuffer(rec.read_record(), dtype="<i4").astype(np.int16)
            pieces.append(ParticleSet(x, p, mass, ids, level))
    parts = ParticleSet.concatenate(pieces)
    if len(parts) != header.npart:
        raise IOError(f"expected {header.npart} particles, read {len(parts)}")
    return header, parts
