"""Modules of the package share only public names with each other."""

import ast
import subprocess
import sys
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


def test_cli_import_loads_no_process_pool():
    # the process pool is imported only where `bench --workers N` builds it
    probe = (
        "import sys, sqfactor.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, cwd=PACKAGE.parent,
    ).stdout
    assert out == "[]\n"
