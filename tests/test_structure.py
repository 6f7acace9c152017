"""Tests of the package's module structure."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "regimeclt"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_is_imported_from_a_sibling_module(path):
    # A name a module keeps private is its own: a sibling that needs it
    # should find it public in a shared module (as the transfer core is in
    # regimeclt.exact), not reach past the underscore.
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "regimeclt":
            continue
        source = "." * node.level + (node.module or "")
        offenders += [f"{path.name}:{node.lineno} from {source} import {alias.name}"
                      for alias in node.names if _private(alias.name)]
    assert not offenders, offenders
