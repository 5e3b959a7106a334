"""End-to-end REAL-mode campaign: actual physics through the middleware.

The paper's full workflow at toy scale: part 1 runs a real PM simulation
and a real FoF halo finder on a SeD; the client reads the genuine halo
catalog file; part 2 re-simulates the selected halos with real multi-level
ICs; results come back as genuine tarballs.  Every byte crosses the same
DIET code paths the MODELED benchmarks use.
"""

import os
import tarfile

import numpy as np
import pytest

from repro.galics import read_halo_catalog
from repro.ramses import read_snapshot
from repro.services import (
    CampaignConfig,
    ExecutionMode,
    run_campaign,
)


@pytest.fixture(scope="module")
def real_campaign(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("real-campaign"))
    config = CampaignConfig(
        n_sub_simulations=6,
        resolution=32,             # 32768 particles: seconds, not hours
        boxsize_mpc_h=50,
        n_zoom_levels=1,
        mode=ExecutionMode.REAL,
        workdir=workdir,
        real_n_steps=10,
        real_a_end=0.8,
        seed=13)
    return run_campaign(config), workdir


class TestRealCampaign:
    def test_all_succeed(self, real_campaign):
        result, _ = real_campaign
        assert result.part1_trace.status == 0
        assert len(result.part2_traces) == 6
        assert all(t.status == 0 for t in result.part2_traces)

    def test_zoom_centers_come_from_real_halos(self, real_campaign):
        """The client decoded the part-1 catalog, not synthetic centres."""
        result, workdir = real_campaign
        catalog_path = os.path.join(workdir, "zoom1-0001", "halo_catalog.dat")
        assert os.path.exists(catalog_path)
        catalog = read_halo_catalog(catalog_path)
        assert len(catalog) >= 1
        halo_centers = {tuple(np.round(h.center, 6)) for h in catalog}
        for center in result.zoom_centers:
            assert tuple(np.round(center, 6)) in halo_centers

    def test_tarballs_contain_real_outputs(self, real_campaign):
        result, workdir = real_campaign
        job_dirs = sorted(d for d in os.listdir(workdir)
                          if d.startswith("zoom2-"))
        assert len(job_dirs) == 6
        tar_path = os.path.join(workdir, job_dirs[0], "results.tar.gz")
        with tarfile.open(tar_path) as tar:
            assert "halo_catalog.dat" in tar.getnames()

    def test_zoom_snapshot_is_multi_mass(self, real_campaign):
        """The re-simulation genuinely carries refined particles."""
        _, workdir = real_campaign
        job_dirs = sorted(d for d in os.listdir(workdir)
                          if d.startswith("zoom2-"))
        snap_dir = os.path.join(workdir, job_dirs[0], "output_00001")
        _, parts = read_snapshot(snap_dir, 1)
        assert len(np.unique(parts.level)) == 2
        masses = np.unique(np.round(parts.mass, 12))
        assert len(masses) == 2
        assert masses[1] / masses[0] == pytest.approx(8.0, rel=1e-6)

    def test_simulated_time_still_modeled(self, real_campaign):
        """REAL mode charges model time for the toy workload, so the
        simulated clock advanced by (small) solve durations."""
        result, _ = real_campaign
        for t in result.part2_traces:
            assert t.solve_duration > 0
        # toy 8^3 workloads are far quicker than the paper's 128^3
        assert result.part2_mean_duration < 600

    def test_middleware_metrics_present(self, real_campaign):
        result, _ = real_campaign
        assert len(result.finding_times()) == 7      # part1 + 6
        assert all(f > 0 for f in result.finding_times())
        assert max(result.latencies()) >= min(result.latencies())
