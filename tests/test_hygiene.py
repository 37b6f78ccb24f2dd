"""Source hygiene: no module of the package imports a name it never uses.

An `ast` scan, so it needs no linter.  A name is used when it appears as
an `ast.Name` anywhere in the module; an import statement carrying
`# noqa: F401` on one of its lines is a deliberate re-export and is
skipped.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cwspheres"


def unused_imports(text):
    """(line, name) of each name imported by `text` and never used."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unused_names_and_honours_noqa():
    text = ("from __future__ import annotations\n"
            "import math\n"
            "import numpy as np\n"
            "from os import (path,\n"
            "                sep)\n"
            "from .flows import phase_bound_check  # noqa: F401\n"
            "x = np.pi + len(sep)\n")
    assert unused_imports(text) == [(2, "math"), (4, "path")]
