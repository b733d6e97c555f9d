"""src/lumps imports only the standard library, numpy and lumps itself.

numpy is the one declared dependency; sympy and mpmath serve the tests as
independent oracles and must stay out of the library.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lumps"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "lumps"}


def imported_roots(source: str):
    """Top-level package of every absolute import in the source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_scan_sees_every_import_form():
    source = ("import os, sympy.core\nfrom mpmath import mp\nfrom . import cm\n"
              "def f():\n    import scipy\n")
    assert set(imported_roots(source)) - ALLOWED == {"sympy", "mpmath", "scipy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_imports_only_stdlib_and_numpy(path):
    outside = sorted(set(imported_roots(path.read_text())) - ALLOWED)
    assert outside == [], f"{path.name} imports {outside}"


def test_numpy_is_the_one_dependency_from_2_0():
    # catalog.energy sums its rows with np.vecdot, which numpy 2.0 added
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
