"""Source hygiene of the slab package, checked with the standard library."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import slab

SOURCES = sorted(pathlib.Path(slab.__file__).parent.glob("*.py"))


def unused_imports(tree):
    """Names an import binds that the module never loads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_unused_import_check_finds_one():
    tree = ast.parse("import os\nimport sys\n"
                     "from a import b as c, d\nsys.exit(d)\n")
    assert unused_imports(tree) == ["c", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_one_frequency_layout(path):
    # the lattice is in FFT order end to end; a shift between layouts
    # would bring a second one back
    assert "fftshift" not in path.read_text()


def test_cli_import_loads_neither_jsonschema_nor_scipy():
    # every CLI process pays this import; jsonschema is only the tests'
    # oracle, and scipy loads only when perfbench's tracer asks for
    # symbols.minimize
    src = str(pathlib.Path(slab.__file__).parents[1])
    code = ("import sys, slab.cli; "
            "print(sorted({'jsonschema', 'scipy'} & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         env=dict(os.environ, PYTHONPATH=src), text=True,
                         timeout=120, check=True)
    assert res.stdout == "[]\n"
