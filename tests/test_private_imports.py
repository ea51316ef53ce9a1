"""Import guard: no library module imports another module's underscore
name, apart from the pinned ones below.

An underscore name is private to its module. Once a second module
imports it, the two modules share a contract that neither advertises,
so each such import has to be listed here with its reason.
"""

import ast
from pathlib import Path

import linkident

PINNED = {
    # the interior predicate enumerates a lobe's paths with the same
    # walk the oracle feeds its echelon from
    ("connectivity", "oracle._walk_paths"),
}


def private_imports(module, tree):
    """(module, "source.name") for each underscore name that tree
    imports from another module of the package."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level == 0:
            if not source.startswith("linkident."):
                continue
            source = source.removeprefix("linkident.")
        for alias in node.names:
            if alias.name.startswith("_") and source != module:
                found.add((module, f"{source}.{alias.name}"))
    return found


def test_only_pinned_private_names_cross_modules():
    found = set()
    for path in sorted(Path(linkident.__file__).parent.glob("*.py")):
        found |= private_imports(path.stem, ast.parse(path.read_text()))
    assert found == PINNED
