"""Fortran namelist reader/writer (RAMSES' configuration format).

The paper's ramsesZoom2 profile ships "a file containing parameters for
RAMSES" — a Fortran namelist (``&RUN_PARAMS ... /`` groups).  This module
parses and emits that format faithfully enough for round-tripping real
RAMSES-style inputs: logical ``.true./.false.``, integers, reals (including
``1.0d0`` doubles), strings in single quotes, comma-separated arrays, and
``!`` comments.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from typing import Any, Dict, List, Union

__all__ = ["Namelist", "parse_namelist", "format_namelist"]

Scalar = Union[bool, int, float, str]
Value = Union[Scalar, List[Scalar]]


class Namelist(OrderedDict):
    """Mapping group-name -> OrderedDict of parameter -> value."""

    def group(self, name: str) -> "OrderedDict[str, Value]":
        key = name.upper()
        if key not in self:
            self[key] = OrderedDict()
        return self[key]

    def get_param(self, group: str, param: str, default: Any = None) -> Any:
        return self.get(group.upper(), {}).get(param.lower(), default)


_TOKEN_RE = re.compile(
    r"""
    '(?:[^']|'')*'          # quoted string (with '' escapes)
    | \.true\. | \.false\.
    | [^\s,]+               # bare token
    """,
    re.VERBOSE | re.IGNORECASE)


def _parse_scalar(tok: str) -> Scalar:
    low = tok.lower()
    if low in (".true.", "t"):
        return True
    if low in (".false.", "f"):
        return False
    if tok.startswith("'") and tok.endswith("'"):
        return tok[1:-1].replace("''", "'")
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        # Fortran double-precision exponents: 1.0d3 -> 1.0e3
        return float(re.sub(r"[dD]", "e", tok))
    except ValueError:
        return tok


def _parse_value(raw: str) -> Value:
    tokens = _TOKEN_RE.findall(raw.strip())
    if not tokens:
        return ""
    values = [_parse_scalar(t) for t in tokens]
    return values[0] if len(values) == 1 else values


def parse_namelist(text: str) -> Namelist:
    """Parse namelist text into a :class:`Namelist`."""
    nml = Namelist()
    group: "OrderedDict[str, Value] | None" = None
    for raw_line in text.splitlines():
        line = raw_line.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("&"):
            group = nml.group(line[1:].strip())
            continue
        if line in ("/", "&end", "&END"):
            group = None
            continue
        if group is None:
            raise ValueError(f"parameter outside any group: {raw_line!r}")
        if "=" not in line:
            raise ValueError(f"malformed namelist line: {raw_line!r}")
        name, _, raw_value = line.partition("=")
        group[name.strip().lower()] = _parse_value(raw_value)
    return nml


def _format_scalar(v: Scalar) -> str:
    if isinstance(v, bool):
        return ".true." if v else ".false."
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, int):
        return str(v)
    return "'" + str(v).replace("'", "''") + "'"


def format_namelist(nml: Dict[str, Dict[str, Value]]) -> str:
    """Emit namelist text (round-trips through :func:`parse_namelist`)."""
    lines: List[str] = []
    for group_name, params in nml.items():
        lines.append(f"&{group_name.upper()}")
        for pname, value in params.items():
            if isinstance(value, list):
                rendered = ",".join(_format_scalar(v) for v in value)
            else:
                rendered = _format_scalar(value)
            lines.append(f"{pname.lower()}={rendered}")
        lines.append("/")
        lines.append("")
    return "\n".join(lines)
