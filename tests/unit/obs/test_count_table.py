"""DESIGN.md names code that exists, and stays short.

Every backticked owner in the count table's "record that owns it" column
must resolve to a class in ``src/repro`` and, for ``Class.attr``, to an
attribute of that class: a field, a method or property, a class-level
assignment or a ``self.attr`` assignment, its bases' included.
``len(Class)`` names a class that defines ``__len__``.  The same resolver
reads every backticked ``Class.attr`` of the whole document, and every
backticked ``*.py`` path must name a file.  The line ceiling only moves
down: the document states each mechanism's rule, invariant, current
number and pin, and its history lives in CHANGES.md and ``git log``.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[3]
DESIGN = ROOT / "DESIGN.md"
HEADER = "| count | record that owns it | who reads it |"
MAX_LINES = 900

#: ``Class.attr`` at the start of a backticked token; ``Class.py`` or
#: ``BENCH_x.json`` are file names, not attributes.
CLASS_ATTR = re.compile(r"([A-Z]\w*)\.(\w+)")
FILE_SUFFIXES = {"py", "json", "md"}
#: Where a bare ``name.py`` in DESIGN may live; build trees, virtual
#: environments and ``.git`` hold stale or unrelated copies.
SOURCE_ROOTS = ("src/repro", "tests", "benchmarks", "tools", "examples")


def _attributes(cls: ast.ClassDef) -> set:
    """Methods and ``self.attr`` stores anywhere in the class; plain and
    annotated names only as statements of the class body itself, since in
    a method body they are locals."""
    names = set()
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    for node in ast.walk(cls):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                names.add(node.attr)
    return names


def _classes() -> dict:
    """Class name -> the attribute names it or a base defines or assigns on
    ``self`` (bases resolved by name within ``src/repro``)."""
    own, bases = {}, {}
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                own.setdefault(node.name, set()).update(_attributes(node))
                bases.setdefault(node.name, set()).update(
                    b.id if isinstance(b, ast.Name) else b.attr
                    for b in node.bases
                    if isinstance(b, (ast.Name, ast.Attribute)))

    def resolve(name, seen):
        names = set(own.get(name, ()))
        for base in bases.get(name, ()):
            if base not in seen:
                seen.add(base)
                names |= resolve(base, seen)
        return names

    return {name: resolve(name, {name}) for name in own}


def _count_table_owners(text: str):
    """(class, attribute or None) for each owner the table's middle column
    names.  A bare lower-case token is another attribute of the class the
    cell named last (``Owner.a`` / ``b``)."""
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


def _document_attributes(text: str):
    """(class, attribute) for every backticked token of the document that
    starts with ``Class.attr``."""
    for token in re.findall(r"`([^`\n]+)`", text):
        match = CLASS_ATTR.match(token)
        if match and match.group(2) not in FILE_SUFFIXES:
            yield match.group(1), match.group(2)


def _missing(owners) -> list:
    classes = _classes()
    return sorted({
        f"{cls}.{attr}" if attr else cls
        for cls, attr in owners
        if cls not in classes or (attr is not None and attr not in classes[cls])
    })


def _path_exists(path: str, tracked: set) -> bool:
    """A path relative to the repository, ``src`` or ``src/repro``; a bare
    file name under one of the source roots."""
    if "/" not in path:
        return path in tracked
    return any((base / path).is_file()
               for base in (ROOT, ROOT / "src", ROOT / "src" / "repro"))


def test_every_count_owner_resolves():
    owners = list(_count_table_owners(DESIGN.read_text(encoding="utf-8")))
    assert len(owners) >= 10
    missing = _missing(owners)
    assert not missing, f"DESIGN count table names missing owners: {missing}"


def test_every_class_attribute_in_design_resolves():
    owners = list(_document_attributes(DESIGN.read_text(encoding="utf-8")))
    assert len(owners) >= 30
    missing = _missing(owners)
    assert not missing, f"DESIGN names missing attributes: {missing}"


def test_locals_and_missing_attributes_do_not_resolve():
    """A method's local variable is no attribute of its class."""
    assert _missing([("Endpoint", "policy"), ("Endpoint", "deadline"),
                     ("_DeadlineQueue", "expires"), ("Endpoint", "mailbox"),
                     ("Network", "transfer")]) == [
        "Endpoint.deadline", "Endpoint.mailbox", "Endpoint.policy",
        "Network.transfer", "_DeadlineQueue.expires"]
    assert not _missing([("Endpoint", "request"), ("Endpoint", "deadlines"),
                         ("_Leg", "__call__"), ("_DeadlineQueue", "__call__")])


def test_every_python_path_in_design_exists():
    text = DESIGN.read_text(encoding="utf-8")
    paths = sorted({token for token in re.findall(r"`([^`\s]+\.py)`", text)})
    assert len(paths) >= 10
    tracked = {path.name for root in SOURCE_ROOTS
               for path in (ROOT / root).rglob("*.py")}
    missing = [path for path in paths if not _path_exists(path, tracked)]
    assert not missing, f"DESIGN names missing files: {missing}"


def test_design_stays_under_its_line_ceiling():
    lines = DESIGN.read_text(encoding="utf-8").count("\n")
    assert lines <= MAX_LINES, (
        f"DESIGN.md is {lines} lines, over {MAX_LINES}: state the rule, the "
        "invariant, the current number and its pin; history goes to "
        "CHANGES.md")
