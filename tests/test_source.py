"""Checks on the package source itself."""

import ast
from pathlib import Path

import lieindex


def test_no_assert_statements():
    # python -O strips assert statements, so invariant checks raise instead.
    found = []
    for path in sorted(Path(lieindex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
