"""Boundaries between the package's modules."""

import ast
from pathlib import Path

import cartan_gamma

PACKAGE = Path(cartan_gamma.__file__).parent


def test_no_module_imports_a_private_name_from_a_sibling():
    # A name with a leading underscore belongs to its own module; a sibling
    # that needs it needs a public name.
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("cartan_gamma")):
                private += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []
