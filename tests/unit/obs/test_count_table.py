"""DESIGN.md's count table names owners that exist.

Every backticked owner in the "record that owns it" column must resolve to
a class in ``src/repro`` and, for ``Class.attr``, to an attribute of that
class: a field, a method or property, or a ``self.attr`` assignment.
``len(Class)`` names a class that defines ``__len__``.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[3]
HEADER = "| count | record that owns it | who reads it |"


def _attributes(cls: ast.ClassDef) -> set:
    names = set()
    for node in ast.walk(cls):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                names.add(node.attr)
    return names


def _classes() -> dict:
    """Class name -> the attribute names it defines or assigns on ``self``."""
    out = {}
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                out.setdefault(node.name, set()).update(_attributes(node))
    return out


def _owners():
    """(class, attribute or None) for each owner the table's middle column
    names.  A bare lower-case token is another attribute of the class the
    cell named last (``Owner.a`` / ``b``)."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    table = text[text.index(HEADER) :].split("\n\n", 1)[0]
    for row in table.splitlines()[2:]:
        owner = None
        for token in re.findall(r"`([^`]+)`", row.split("|")[2]):
            if token.startswith("len(") and token.endswith(")"):
                yield token[4:-1], "__len__"
                continue
            name, _, attr = token.partition(".")
            if name[:1].isupper():
                owner = name
                yield name, attr or None
            else:
                assert owner is not None, f"{token!r} names no class"
                yield owner, token


def test_every_count_owner_resolves():
    classes = _classes()
    owners = list(_owners())
    assert len(owners) >= 10
    missing = [
        f"{cls}.{attr}" if attr else cls
        for cls, attr in owners
        if cls not in classes or (attr is not None and attr not in classes[cls])
    ]
    assert not missing, f"DESIGN count table names missing owners: {missing}"
