"""Unit tests for tools/knob_audit.py's AST pass, on synthetic trees."""

import importlib
import os
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _audit_module(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    return importlib.import_module("knob_audit")


def _write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))


def test_cls_call_in_a_classmethod_sets_the_field(tmp_path, monkeypatch):
    """A field set only through ``cls(...)`` in a classmethod, which a
    non-test caller calls, is not a hit."""
    knob_audit = _audit_module(monkeypatch)
    _write(tmp_path, "src/repro/__init__.py", "")
    _write(tmp_path, "src/repro/__main__.py", "")
    _write(tmp_path, "src/repro/m.py", """\
        from dataclasses import dataclass


        @dataclass
        class Ref:
            path: str
            content: str = None

            @classmethod
            def from_text(cls, path, text):
                return cls(path=path, content=text)
        """)
    _write(tmp_path, "examples/use.py", """\
        from repro.m import Ref

        Ref.from_text("a.ini", "x = 1")
        """)
    sizes, hits = knob_audit.audit(str(tmp_path))
    assert sizes[2] == 1                     # Ref.content is inventoried
    assert hits == []
