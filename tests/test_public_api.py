"""Every public name is used by the library itself or documented.

A name in linkident.__all__ passes when some module of the package
other than __init__.py loads it (as a Name or an Attribute), not
counting loads inside the name's own definition, or when README.md
names it. An import alone is not a use. The same holds for every
public method and property of the classes in __all__; a class body
counts statement by statement, so a method read only by itself is
not used.
"""

import ast
import inspect
import re
from functools import cached_property
from pathlib import Path

import linkident

PACKAGE = Path(linkident.__file__).resolve().parent
README = PACKAGE.parent.parent / "README.md"


def _defined_by(stmt):
    """Names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)}
    return set()


def _reads(stmt):
    """Names a statement loads."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            out.add(node.attr)
    return out


def _reads_apart(stmt):
    """Names a statement loads outside the definitions it makes."""
    if isinstance(stmt, ast.ClassDef):
        out = set()
        for node in [*stmt.bases, *stmt.keywords, *stmt.decorator_list]:
            out |= _reads(node)
        for inner in stmt.body:
            out |= _reads_apart(inner)
        return out - {stmt.name}
    return _reads(stmt) - _defined_by(stmt)


def names_read_by_the_package():
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            read |= _reads_apart(stmt)
    return read


def _unused(names):
    """The names, or Class.member labels, whose last part neither the
    package reads nor README.md names."""
    read = names_read_by_the_package()
    readme = README.read_text()
    out = []
    for label in names:
        name = label.rsplit(".", 1)[-1]
        if (name not in read
                and not re.search(rf"\b{re.escape(name)}\b", readme)):
            out.append(label)
    return out


def public_methods():
    """Class.member for every public method and property that a class
    in __all__ defines itself."""
    kinds = (property, cached_property, classmethod, staticmethod)
    out = []
    for name in linkident.__all__:
        cls = getattr(linkident, name)
        if not isinstance(cls, type):
            continue
        for attr, value in vars(cls).items():
            if not attr.startswith("_") and (inspect.isfunction(value)
                                             or isinstance(value, kinds)):
                out.append(f"{name}.{attr}")
    return out


def test_every_public_name_is_used_or_documented():
    assert _unused(linkident.__all__) == []


def test_every_public_method_is_used_or_documented():
    methods = public_methods()
    assert {"Graph.n", "Graph.from_json", "Structure.tri"} <= set(methods)
    assert _unused(methods) == []
