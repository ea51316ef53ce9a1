"""Recursion guard: no library function calls itself by name, apart
from the pinned ones below.

A recursive search hits Python's recursion limit on deep enough
graphs, so each self-calling function has to be listed here with its
reason for staying recursive.
"""

import ast
from pathlib import Path

import linkident

PINNED = {
    # the benchmark pins the 600-block chain's RecursionError
    "biconnected_components.dfs",
    # a plain stack rewrite of the path walk was 25-40% slower
    "_walk_paths.go",
}


def self_calling_functions(tree):
    """Dotted names of the functions in tree that call their own name."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = scope + (child.name,)
                if any(isinstance(c, ast.Call)
                       and isinstance(c.func, ast.Name)
                       and c.func.id == child.name
                       for c in ast.walk(child)):
                    found.add(".".join(name))
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,))
            else:
                visit(child, scope)

    visit(tree, ())
    return found


def test_only_pinned_functions_recurse():
    found = set()
    for path in sorted(Path(linkident.__file__).parent.glob("*.py")):
        found |= self_calling_functions(ast.parse(path.read_text()))
    assert found == PINNED

