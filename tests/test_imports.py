"""Modules of the package share only public names with each other."""

import ast
import json
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import sqfactor
from sqfactor import bench, cli, engine, numeric, semiprimes

PACKAGE = Path(sqfactor.__file__).parent
MODULES = (bench, cli, engine, numeric, semiprimes)


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


# loaded only by the subcommands that use them: the process pool where
# `bench --workers N` builds it, bench and statistics by `bench`, semiprimes
# (and with them dataclasses and inspect) by `generate` and `bench`, json
# only for JSON output, and decimal only for integer text past the
# 4300-digit int/str limit
_LAZY = (
    "dataclasses", "decimal", "inspect", "json",
    "sqfactor.bench", "sqfactor.semiprimes", "statistics",
)


def _lazy_among(modules) -> list:
    return sorted(m for m in modules if m in _LAZY or m.split(".")[0] == "multiprocessing")


def _imported(stderr: str) -> set:
    # -X importtime names every module a process loads on stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:")
    }


def _factor_process_loads(*flags) -> set:
    # a whole `factor` process
    run = subprocess.run(
        [sys.executable, *flags, "-X", "importtime", "-m", "sqfactor", "factor", "187"],
        capture_output=True, text=True, check=True, cwd=PACKAGE.parent,
    )
    assert run.stdout == "p=11 q=17 k=0 iterations=0\n"
    return _imported(run.stderr)


def test_cli_import_loads_no_process_pool():
    probe = "import sys, sqfactor.cli; print(*sys.modules, sep='\\n')"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, cwd=PACKAGE.parent,
    ).stdout
    assert _lazy_among(out.splitlines()) == []

    loaded = _factor_process_loads()
    assert {"sqfactor.cli", "sqfactor.engine"} <= loaded
    assert _lazy_among(loaded) == []


def test_factor_json_process_prints_one_document():
    run = subprocess.run(
        [sys.executable, "-m", "sqfactor", "factor", "187", "--json"],
        capture_output=True, text=True, check=True, cwd=PACKAGE.parent,
    )
    assert json.loads(run.stdout)["p"] == "11"


def test_factor_process_without_site_loads_no_typing():
    # the outcomes are collections.namedtuples and the annotations PEP 604
    # strings, so nothing on the factor path needs typing
    assert "typing" not in _factor_process_loads("-S")


def test_generate_process_without_site_loads_no_typing():
    # semiprimes annotates in PEP 604 form and takes Sequence from
    # collections.abc; only bench reads its hints through typing
    run = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "sqfactor",
         "generate", "--bits", "64", "--max-gap", "65536", "--seed", "123"],
        capture_output=True, text=True, check=True, cwd=PACKAGE.parent,
    )
    assert json.loads(run.stdout)["n"] == "14487284227570642567"
    loaded = _imported(run.stderr)
    assert "sqfactor.semiprimes" in loaded
    assert "typing" not in loaded


def test_package_publishes_engine_all_and_two_numeric_names():
    # in a fresh process, since importing a submodule such as bench binds its name too
    probe = "import sqfactor; print(*(n for n in dir(sqfactor) if n[0] != '_'))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, cwd=PACKAGE.parent,
    ).stdout
    # besides the submodules engine and numeric: engine.__all__, ceil_sqrt and
    # is_probable_prime, 18 names
    assert out.split() == [
        "Budget", "BudgetExhausted", "FactorOutcome", "Found", "NoNontrivialFactor",
        "NormalizedInput", "SearchState", "XScanState", "ceil_sqrt", "checkpoint_line",
        "engine", "fermat_factor", "is_probable_prime", "normalize_input", "numeric",
        "parse_checkpoint", "predict_k", "resume_fermat", "resume_xscan", "xscan_factor",
    ]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_signature_resolves(module):
    # typing.get_type_hints evaluates the string annotations in the module's
    # namespace, so each name an annotation uses must exist there at runtime
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        targets = [obj] if callable(obj) else []
        if isinstance(obj, type) and "__new__" in vars(obj):
            targets.append(obj.__new__)
        for target in targets:
            typing.get_type_hints(target)


def test_factor_process_without_site_loads_no_random():
    # -S keeps site from preloading modules, so this sees what the package
    # itself imports; random is needed only for a primality test past the
    # deterministic bound with no generator given
    loaded = _factor_process_loads("-S")
    assert "sqfactor.numeric" in loaded
    assert "random" not in loaded
