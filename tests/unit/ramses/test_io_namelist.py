"""Unit tests for Fortran-record snapshot I/O and the namelist parser."""

import io

import numpy as np
import pytest

from repro.ramses import (
    FortranRecordFile,
    ParticleSet,
    SnapshotHeader,
    format_namelist,
    parse_namelist,
    read_snapshot,
    snapshot_paths,
    write_snapshot,
)


class TestFortranRecords:
    def test_roundtrip_bytes(self):
        buf = io.BytesIO()
        f = FortranRecordFile(buf)
        f.write_record(b"hello")
        f.write_record(b"")
        buf.seek(0)
        r = FortranRecordFile(buf)
        assert r.read_record() == b"hello"
        assert r.read_record() == b""

    def test_roundtrip_arrays(self):
        buf = io.BytesIO()
        f = FortranRecordFile(buf)
        f.write_ints(1, 2, 3)
        f.write_doubles(1.5, -2.5)
        f.write_record(np.arange(5, dtype="<i8"))
        buf.seek(0)
        r = FortranRecordFile(buf)
        assert list(r.read_ints()) == [1, 2, 3]
        assert list(r.read_doubles()) == [1.5, -2.5]
        assert list(r.read_longs()) == [0, 1, 2, 3, 4]

    def test_marker_framing(self):
        """Each record is framed by 4-byte length markers, Fortran style."""
        buf = io.BytesIO()
        FortranRecordFile(buf).write_record(b"abcd")
        raw = buf.getvalue()
        assert raw[:4] == (4).to_bytes(4, "little")
        assert raw[-4:] == (4).to_bytes(4, "little")
        assert raw[4:8] == b"abcd"

    def test_corrupt_tail_marker_detected(self):
        buf = io.BytesIO()
        FortranRecordFile(buf).write_record(b"abcd")
        raw = bytearray(buf.getvalue())
        raw[-1] ^= 0xFF
        with pytest.raises(IOError, match="disagree"):
            FortranRecordFile(io.BytesIO(bytes(raw))).read_record()

    def test_truncated_payload_detected(self):
        buf = io.BytesIO()
        FortranRecordFile(buf).write_record(b"abcdef")
        truncated = buf.getvalue()[:7]
        with pytest.raises(IOError):
            FortranRecordFile(io.BytesIO(truncated)).read_record()

    def test_eof(self):
        with pytest.raises(EOFError):
            FortranRecordFile(io.BytesIO(b"")).read_record()


class TestSnapshot:
    def make_parts(self, n=5):
        parts = ParticleSet.uniform_lattice(n)
        rng = np.random.default_rng(0)
        parts.p[:] = rng.standard_normal(parts.p.shape)
        return parts

    def header(self, parts, ncpu=3):
        return SnapshotHeader(ncpu=ncpu, ndim=3, npart=len(parts), aexp=0.5,
                              omega_m=0.27, omega_l=0.73, h0=71.0,
                              boxlen_mpc_h=100.0, levelmin=4, levelmax=8,
                              output_number=7)

    def test_roundtrip(self, tmp_path):
        parts = self.make_parts()
        header = self.header(parts)
        files = write_snapshot(str(tmp_path), header, parts)
        assert len(files) == 1 + 3     # info + 3 cpu files
        header2, parts2 = read_snapshot(str(tmp_path), 7)
        assert header2.npart == len(parts)
        assert header2.aexp == pytest.approx(0.5)
        assert header2.levelmax == 8
        order = np.argsort(parts2.ids)
        orig = np.argsort(parts.ids)
        assert np.allclose(parts2.x[order], parts.x[orig])
        assert np.allclose(parts2.p[order], parts.p[orig])
        assert np.allclose(parts2.mass[order], parts.mass[orig])

    def test_pieces_partition_particles(self, tmp_path):
        parts = self.make_parts()
        header = self.header(parts, ncpu=4)
        write_snapshot(str(tmp_path), header, parts)
        total = 0
        for path in snapshot_paths(str(tmp_path), 7, 4):
            with open(path, "rb") as fh:
                rec = FortranRecordFile(fh)
                rec.read_ints()  # ncpu
                rec.read_ints()  # ndim
                total += int(rec.read_ints()[0])
        assert total == len(parts)

    def test_header_validation(self):
        with pytest.raises(ValueError):
            SnapshotHeader(ncpu=0, ndim=3, npart=1, aexp=1.0, omega_m=0.3,
                           omega_l=0.7, h0=70, boxlen_mpc_h=100,
                           levelmin=4, levelmax=6).validate()

    def test_npart_mismatch_rejected(self, tmp_path):
        parts = self.make_parts()
        header = self.header(parts)
        header.npart = 1
        with pytest.raises(ValueError):
            write_snapshot(str(tmp_path), header, parts)


class TestNamelist:
    SAMPLE = """
! RAMSES run parameters
&RUN_PARAMS
cosmo=.true.
pic=.true.
nstepmax=80
aexp_end=1.0
/

&OUTPUT_PARAMS
aout=0.3,0.5,1.0
tend=1d2
title='zoom run ''A'''
/
"""

    def test_parse_groups(self):
        nml = parse_namelist(self.SAMPLE)
        assert set(nml) == {"RUN_PARAMS", "OUTPUT_PARAMS"}

    def test_parse_types(self):
        nml = parse_namelist(self.SAMPLE)
        assert nml.get_param("run_params", "cosmo") is True
        assert nml.get_param("run_params", "nstepmax") == 80
        assert nml.get_param("run_params", "aexp_end") == 1.0
        assert nml.get_param("output_params", "aout") == [0.3, 0.5, 1.0]
        assert nml.get_param("output_params", "tend") == 100.0   # 1d2
        assert nml.get_param("output_params", "title") == "zoom run 'A'"

    def test_default_for_missing(self):
        nml = parse_namelist(self.SAMPLE)
        assert nml.get_param("run_params", "missing", 42) == 42

    def test_roundtrip(self):
        nml = parse_namelist(self.SAMPLE)
        text = format_namelist(nml)
        again = parse_namelist(text)
        assert again == nml

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError):
            parse_namelist("&G\nthis is not an assignment\n/")

    def test_param_outside_group_raises(self):
        with pytest.raises(ValueError):
            parse_namelist("x=1")

    def test_comments_stripped(self):
        nml = parse_namelist("&G\nx=5 ! inline comment\n/")
        assert nml.get_param("g", "x") == 5
