"""LensTools-style batch bookkeeping: the home/storage directory tree.

A survey batch separates what LensTools calls "home" (small bookkeeping:
parameter files, digests, the manifest) from "storage" (large simulation
products).  In this reproduction the large products normally *stay on the
grid* as catalog-registered ``DataHandle``\\ s — storage records then point
at the owning SeD instead of holding bytes — while volatile products
(inline :class:`~repro.core.data.FileRef`\\ s) small enough for bookkeeping
land in home and bigger ones get a placeholder in storage.

The tree is deterministic for a given sequence of
:meth:`SurveyBatch.record_product` calls: the manifest is sorted and
timestamps are simulated, never wall-clock.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Union

from ..core.data import DataHandle, FileRef
from .grid import CosmologyPoint

__all__ = ["ProductRecord", "SurveyBatch"]

#: Inline products at most this big count as bookkeeping and live in home.
HOME_BYTES_LIMIT = 1 << 16


@dataclass(frozen=True)
class ProductRecord:
    """One manifest entry: where a pipeline product ended up."""

    point: str
    stage: str
    name: str
    nbytes: int
    #: "home" (small inline file), "storage" (large inline file staged to
    #: the storage tree) or "grid" (catalog-registered handle; the bytes
    #: live on ``sed``).
    location: str
    sed: str = ""
    data_id: str = ""


class SurveyBatch:
    """One survey campaign's on-disk layout.

    ::

        <root>/<name>/home/<point label>/     cosmology.ini, digest.txt
        <root>/<name>/home/manifest.json      sorted product index
        <root>/<name>/storage/<point label>/<stage>/   large inline products
    """

    def __init__(self, root: str, name: str = "survey"):
        self.root = os.path.join(root, name)
        self.home = os.path.join(self.root, "home")
        self.storage = os.path.join(self.root, "storage")
        os.makedirs(self.home, exist_ok=True)
        os.makedirs(self.storage, exist_ok=True)
        self._records: List[ProductRecord] = []

    # -- per-point bookkeeping ---------------------------------------------

    def point_home(self, point: CosmologyPoint) -> str:
        return os.path.join(self.home, point.label)

    def init_point(self, point: CosmologyPoint) -> str:
        """Create the point's home dir with its parameter file + digest."""
        directory = self.point_home(point)
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "cosmology.ini"), "w") as fh:
            fh.write(point.cosmology_text())
        with open(os.path.join(directory, "digest.txt"), "w") as fh:
            fh.write(point.digest + "\n")
        return directory

    # -- products ----------------------------------------------------------

    def record_product(
        self,
        point: Union[CosmologyPoint, str],
        stage: str,
        product: Union[FileRef, DataHandle],
    ) -> ProductRecord:
        """File a pipeline product under the batch layout.

        Handles are recorded, not copied — their bytes live on the grid.
        Inline files small enough for bookkeeping are written (when they
        carry content) into home; large ones get a metadata placeholder in
        storage.
        """
        label = point if isinstance(point, str) else point.label
        if isinstance(product, DataHandle):
            record = ProductRecord(
                point=label,
                stage=stage,
                name=product.data_id.rsplit("/", 1)[-1],
                nbytes=product.nbytes,
                location="grid",
                sed=product.sed_name,
                data_id=product.data_id,
            )
        elif isinstance(product, FileRef):
            if product.nbytes <= HOME_BYTES_LIMIT:
                directory = os.path.join(self.home, label)
                os.makedirs(directory, exist_ok=True)
                if product.content is not None:
                    with open(os.path.join(directory, product.path), "w") as fh:
                        fh.write(product.content)
                record = ProductRecord(
                    point=label,
                    stage=stage,
                    name=product.path,
                    nbytes=product.nbytes,
                    location="home",
                )
            else:
                directory = os.path.join(self.storage, label, stage)
                os.makedirs(directory, exist_ok=True)
                meta = {
                    "path": product.path,
                    "nbytes": product.nbytes,
                    "local_path": product.local_path,
                }
                meta_path = os.path.join(directory, product.path + ".meta.json")
                with open(meta_path, "w") as fh:
                    json.dump(meta, fh, indent=2, sort_keys=True)
                record = ProductRecord(
                    point=label,
                    stage=stage,
                    name=product.path,
                    nbytes=product.nbytes,
                    location="storage",
                )
        else:
            raise TypeError(f"not a survey product: {product!r}")
        self._records.append(record)
        return record

    @property
    def records(self) -> List[ProductRecord]:
        return list(self._records)

    def manifest(self) -> List[Dict[str, Any]]:
        """Sorted, JSON-ready view of every recorded product."""
        rows = [asdict(r) for r in self._records]
        return sorted(rows, key=lambda r: (r["point"], r["stage"], r["name"]))

    def write_manifest(self) -> str:
        path = os.path.join(self.home, "manifest.json")
        with open(path, "w") as fh:
            json.dump(self.manifest(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def summary(self) -> Dict[str, int]:
        """Product counts by location (deterministic key order)."""
        out = {"grid": 0, "home": 0, "storage": 0}
        for record in self._records:
            out[record.location] += 1
        return out
