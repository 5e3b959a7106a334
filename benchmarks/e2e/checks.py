"""Output digests and sample statistics (no dependency on the program)."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
from typing import Dict, Mapping, Sequence

__all__ = ["canonical", "digest", "summarize", "spread"]


def canonical(obj):
    """Reduce ``obj`` to JSON-able data with one spelling per value.

    Floats become their ``repr`` (shortest round-trip form, so equal floats
    always print equal and ``nan``/``inf`` survive), mappings are sorted by
    key, tuples and lists are lists, bytes become their sha256, dataclasses
    their field mapping and numpy scalars/arrays their Python equivalents.
    """
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, float):
        return float.__repr__(obj)  # numpy's float64 subclass prints differently
    if isinstance(obj, bytes):
        return "sha256:" + hashlib.sha256(obj).hexdigest()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return canonical({f.name: getattr(obj, f.name)
                          for f in dataclasses.fields(obj)})
    if isinstance(obj, Mapping):
        items = sorted((str(key), canonical(value))
                       for key, value in obj.items())
        return dict(items)
    if isinstance(obj, (list, tuple)):
        return [canonical(value) for value in obj]
    if hasattr(obj, "tolist"):  # numpy scalar or array
        return canonical(obj.tolist())
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    """sha256 over the canonical JSON of ``obj``."""
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and count of one metric's samples."""
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


def spread(summary: Mapping[str, float]) -> float:
    """Distance between the quartiles as a share of the median."""
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / median if median else 0.0
