"""Modules of the package share only public names with each other."""

import ast
from pathlib import Path

import sqfactor

PACKAGE = Path(sqfactor.__file__).parent


def test_no_private_name_crosses_a_module_boundary():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "sqfactor"
            for alias in node.names:
                if internal and alias.name.startswith("_"):
                    offences.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert offences == []
