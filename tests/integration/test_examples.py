"""Smoke tests: every shipped example runs green from a fresh process."""

import glob
import os
import subprocess
import sys
import tempfile

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def run_example(name: str, timeout: float = 300.0, env=None) -> str:
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, name))
    result = subprocess.run([sys.executable, path], capture_output=True,
                            text=True, timeout=timeout,
                            env=None if env is None else {**os.environ, **env})
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "1h 15min 11s" in out
        assert "[9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 10]" in out
        assert "49.8 ms" in out

    def test_gridrpc_api_tour(self):
        out = run_example("gridrpc_api_tour.py")
        assert "demoSolve" in out
        assert "status=0" in out
        assert "finding time" in out

    def test_plugin_scheduler(self):
        out = run_example("plugin_scheduler.py")
        assert "mct" in out
        assert "paper's prediction holds" in out

    def test_nbody_galaxy_pipeline(self):
        out = run_example("nbody_galaxy_pipeline.py")
        assert "halos" in out
        assert "Merger tree" in out
        assert "GalaxyMaker" in out

    def test_custom_grid(self):
        out = run_example("custom_grid.py")
        assert "GoDIET" in out
        assert "12 zoom simulations completed" in out

    def test_shock_tube(self):
        out = run_example("shock_tube.py")
        assert "density profile" in out
        assert "rarefaction" in out

    def test_zoom_campaign_real(self, tmp_path):
        # The example keeps its work directory for the reader: give it
        # pytest's, so a suite run leaves nothing in the real temp dir.
        pattern = os.path.join(tempfile.gettempdir(), "zoom-campaign-*")
        before = set(glob.glob(pattern))
        out = run_example("zoom_campaign_real.py",
                          env={"TMPDIR": str(tmp_path)})
        assert set(glob.glob(pattern)) <= before
        assert len(list(tmp_path.glob("zoom-campaign-*"))) == 1
        assert "dark-matter halos" in out
        assert "result tarball" in out
        assert "status 0" in out
