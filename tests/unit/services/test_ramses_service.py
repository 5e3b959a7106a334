"""Unit tests for the ramsesZoom1/ramsesZoom2 services and client helpers."""

import os
import tarfile

import pytest

from repro.core import DietError, Direction
from repro.platform import build_grid5000
from repro.core.deployment import deploy_paper_hierarchy
from repro.services import (
    COORD_SCALE,
    ExecutionMode,
    RamsesServiceConfig,
    build_zoom1_profile,
    build_zoom2_profile,
    decode_zoom1,
    decode_zoom2,
    default_namelist_text,
    encode_center,
    register_ramses_services,
    zoom1_profile_desc,
    zoom2_profile_desc,
)
from repro.ramses import parse_namelist
from repro.sim import Engine


class TestProfileDescs:
    def test_zoom2_matches_paper_alloc(self):
        """diet_profile_desc_alloc("ramsesZoom2", 6, 6, 8): 7 IN, 2 OUT."""
        desc = zoom2_profile_desc()
        assert desc.path == "ramsesZoom2"
        assert (desc.last_in, desc.last_inout, desc.last_out) == (6, 6, 8)
        assert all(desc.direction(i) is Direction.IN for i in range(7))
        assert desc.direction(7) is Direction.OUT
        assert desc.direction(8) is Direction.OUT

    def test_zoom1_layout(self):
        desc = zoom1_profile_desc()
        assert desc.path == "ramsesZoom1"
        assert (desc.last_in, desc.last_inout, desc.last_out) == (2, 2, 4)


class TestClientHelpers:
    def test_center_fixed_point_roundtrip(self):
        center = (0.123456, 0.654321, 0.999999)
        encoded = encode_center(center)
        assert all(isinstance(c, int) for c in encoded)
        decoded = tuple(c / COORD_SCALE for c in encoded)
        assert decoded == pytest.approx(center, abs=1.0 / COORD_SCALE)

    def test_center_wraps(self):
        assert encode_center((1.25, -0.25, 0.5))[0] == 250_000

    def test_build_zoom2_profile_filled(self):
        profile = build_zoom2_profile(default_namelist_text(), 128, 100,
                                      (0.1, 0.2, 0.3), 2)
        profile.validate_for_submit()
        assert profile.parameter(1).get() == 128
        assert profile.parameter(6).get() == 2
        assert profile.parameter(7).get() is None   # OUT declared NULL

    def test_namelist_parses(self):
        nml = parse_namelist(default_namelist_text(resolution=64, n_steps=40))
        assert nml.get_param("run_params", "nstepmax") == 40
        assert nml.get_param("run_params", "cosmo") is True

    def test_decode_zoom2_error_path(self):
        profile = build_zoom2_profile(default_namelist_text(), 64, 100,
                                      (0.5, 0.5, 0.5), 1)
        profile.parameter(8).set(3)   # simulation failed
        result = decode_zoom2(profile)
        assert not result.succeeded
        assert result.tarball is None

    def test_decode_zoom2_unset_error_code_is_a_diet_error(self):
        """A solve that never ran leaves the OUT error code unset: that is a
        middleware-level fact to report, not an int() TypeError."""
        profile = build_zoom2_profile(default_namelist_text(), 64, 100,
                                      (0.5, 0.5, 0.5), 1)
        with pytest.raises(DietError, match="no error code"):
            decode_zoom2(profile)


@pytest.fixture
def deployment():
    dep = deploy_paper_hierarchy(build_grid5000(Engine()))
    return dep


class TestModeledService:
    def test_zoom2_solve_modeled(self, deployment):
        register_ramses_services(deployment)
        deployment.launch_all()
        client = deployment.client
        profile = build_zoom2_profile(default_namelist_text(), 128, 100,
                                      (0.4, 0.5, 0.6), 2)

        def run():
            client.initialize({"MA_name": "MA"})
            return (yield from client.call(profile))

        assert deployment.engine.run_process(run()) == 0
        result = decode_zoom2(profile)
        assert result.succeeded
        assert result.tarball.nbytes > 1e6
        trace = deployment.tracer.all_traces("ramsesZoom2")[0]
        # hours of simulated solve time on a 128^3 zoom
        assert trace.solve_duration > 3600

    def test_zoom1_solve_modeled(self, deployment):
        register_ramses_services(deployment)
        deployment.launch_all()
        client = deployment.client
        profile = build_zoom1_profile(default_namelist_text(), 128, 100)

        def run():
            client.initialize({"MA_name": "MA"})
            return (yield from client.call(profile))

        assert deployment.engine.run_process(run()) == 0
        error, catalog = decode_zoom1(profile)
        assert error == 0 and catalog is not None

    def test_nfs_receives_snapshot_traffic(self, deployment):
        register_ramses_services(deployment)
        deployment.launch_all()
        client = deployment.client
        profile = build_zoom1_profile(default_namelist_text(), 128, 100)

        def run():
            client.initialize({"MA_name": "MA"})
            yield from client.call(profile)

        deployment.engine.run_process(run())
        used = sum(c.nfs.used_bytes
                   for c in deployment.platform.clusters.values())
        assert used > 1e8   # the snapshot series landed on some NFS volume

    def test_predictor_registration(self, deployment):
        register_ramses_services(deployment, with_predictor=True)
        for sed in deployment.seds:
            predictor = sed.table.lookup("ramsesZoom2")[2]
            assert predictor is not None
            assert predictor(None) > 0


class TestRealService:
    def test_zoom2_real_produces_tarball(self, deployment, tmp_path):
        config = RamsesServiceConfig(mode=ExecutionMode.REAL,
                                     workdir=str(tmp_path),
                                     real_n_steps=6, real_a_end=0.4)
        register_ramses_services(deployment, config)
        deployment.launch_all()
        client = deployment.client
        profile = build_zoom2_profile(default_namelist_text(), 8, 50,
                                      (0.5, 0.5, 0.5), 1)

        def run():
            client.initialize({"MA_name": "MA"})
            return (yield from client.call(profile))

        assert deployment.engine.run_process(run()) == 0
        result = decode_zoom2(profile)
        assert result.succeeded
        assert os.path.exists(result.tarball.local_path)
        with tarfile.open(result.tarball.local_path) as tar:
            names = tar.getnames()
        assert "halo_catalog.dat" in names
        assert any("output_00001" in n for n in names)

    def test_zoom2_real_tarball_is_reproducible(self, tmp_path):
        """Same seed, different directories and instants: byte-identical
        tarballs, hence equal transfer bytes and equal simulated makespan."""
        tarballs, makespans = [], []
        for run_dir in ("a", "b"):
            workdir = tmp_path / run_dir
            workdir.mkdir()
            dep = deploy_paper_hierarchy(build_grid5000(Engine()))
            register_ramses_services(dep, RamsesServiceConfig(
                mode=ExecutionMode.REAL, workdir=str(workdir),
                real_n_steps=6, real_a_end=0.4))
            dep.launch_all()
            profile = build_zoom2_profile(default_namelist_text(), 8, 50,
                                          (0.5, 0.5, 0.5), 1)

            def run(client=dep.client, profile=profile):
                client.initialize({"MA_name": "MA"})
                return (yield from client.call(profile))

            assert dep.engine.run_process(run()) == 0
            with open(decode_zoom2(profile).tarball.local_path, "rb") as fh:
                tarballs.append(fh.read())
            makespans.append(dep.tracer.makespan())
        assert tarballs[0] == tarballs[1]
        assert makespans[0] == makespans[1]
        assert tarballs[0][4:8] == b"\0\0\0\0"   # gzip header mtime

    def test_zoom2_real_malformed_namelist_fails_the_solve(self, deployment,
                                                          tmp_path):
        """A namelist that does not parse is an application failure (status
        1, the error in the handle), not a silent run on the defaults."""
        register_ramses_services(deployment, RamsesServiceConfig(
            mode=ExecutionMode.REAL, workdir=str(tmp_path),
            real_n_steps=6, real_a_end=0.4))
        deployment.launch_all()
        client = deployment.client
        profile = build_zoom2_profile("nstepmax=6\n", 8, 50,
                                      (0.5, 0.5, 0.5), 1)

        def run():
            client.initialize({"MA_name": "MA"})
            handle = client.function_handle("ramsesZoom2")
            status = yield from client.call(profile, handle)
            return status, handle.error

        status, error = deployment.engine.run_process(run())
        assert status == 1
        assert error.startswith("ValueError: parameter outside any group")
        assert profile.parameter(7).get() is None

    def test_real_mode_requires_workdir(self):
        with pytest.raises(ValueError):
            RamsesServiceConfig(mode=ExecutionMode.REAL, workdir=None)
