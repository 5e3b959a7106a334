"""Unit tests for the LensTools-style batch layout (repro.survey.batch)."""

import json
import os

import pytest

from repro.core.data import DataHandle, FileRef
from repro.survey.batch import HOME_BYTES_LIMIT, SurveyBatch
from repro.survey.grid import CosmologyPoint


@pytest.fixture
def batch(tmp_path):
    return SurveyBatch(str(tmp_path), name="campaign")


class TestLayout:
    def test_home_and_storage_trees_created(self, batch):
        assert os.path.isdir(batch.home)
        assert os.path.isdir(batch.storage)

    def test_init_point_writes_parameters_and_digest(self, batch):
        point = CosmologyPoint(omega_m=0.3)
        directory = batch.init_point(point)
        with open(os.path.join(directory, "cosmology.ini")) as fh:
            assert fh.read() == point.cosmology_text()
        with open(os.path.join(directory, "digest.txt")) as fh:
            assert fh.read().strip() == point.digest


class TestProducts:
    def test_small_inline_file_lands_in_home(self, batch):
        point = CosmologyPoint()
        ref = FileRef.from_text("ic.ini", "seed = 1\n")
        record = batch.record_product(point, "ic", ref)
        assert record.location == "home"
        with open(os.path.join(batch.home, point.label, "ic.ini")) as fh:
            assert fh.read() == "seed = 1\n"

    def test_large_inline_file_gets_storage_placeholder(self, batch):
        point = CosmologyPoint()
        ref = FileRef(path="slabs.npy", nbytes=HOME_BYTES_LIMIT + 1)
        record = batch.record_product(point, "run", ref)
        assert record.location == "storage"
        meta = os.path.join(batch.storage, point.label, "run", "slabs.npy.meta.json")
        with open(meta) as fh:
            assert json.load(fh)["nbytes"] == HOME_BYTES_LIMIT + 1

    def test_handle_recorded_as_grid_resident(self, batch):
        handle = DataHandle(data_id="sed0/req3/arg5", sed_name="sed0", nbytes=4096)
        record = batch.record_product("label", "lensing", handle)
        assert record.location == "grid"
        assert record.sed == "sed0"
        assert record.data_id == "sed0/req3/arg5"

    def test_rejects_non_products(self, batch):
        with pytest.raises(TypeError):
            batch.record_product("label", "ic", object())

    def test_manifest_sorted_and_written(self, batch):
        b = CosmologyPoint(omega_m=0.3)
        a = CosmologyPoint(omega_m=0.24)
        batch.record_product(b, "run", FileRef.from_text("x.txt", "x"))
        batch.record_product(a, "ic", FileRef.from_text("y.txt", "y"))
        manifest = batch.manifest()
        assert [r["point"] for r in manifest] == sorted([a.label, b.label])
        path = batch.write_manifest()
        with open(path) as fh:
            assert json.load(fh) == manifest
