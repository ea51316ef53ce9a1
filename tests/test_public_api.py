"""Every public name is used by the library itself or documented.

A name in linkident.__all__ passes when some module of the package
other than __init__.py reads it (a Name or Attribute load, or an
import), not counting reads inside the name's own definition, or when
README.md names it.
"""

import ast
import re
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
    """Names a statement loads or imports."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return out


def names_read_by_the_package():
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            read |= _reads(stmt) - _defined_by(stmt)
    return read


def test_every_public_name_is_used_or_documented():
    read = names_read_by_the_package()
    readme = README.read_text()
    unused = [name for name in linkident.__all__
              if name not in read
              and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert unused == []

