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


ROOT = pathlib.Path(__file__).resolve().parents[1]
CALLERS = sorted(path for folder in ("src", "tests", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


def _name(func):
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _is_dataclass(cls):
    return any(_name(dec.func if isinstance(dec, ast.Call) else dec)
               == "dataclass" for dec in cls.decorator_list)


def _init_false(value):
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant)
        and kw.value.value is False for kw in value.keywords)


def options(tree):
    """(callee, positional parameters, defaulted parameters) for every
    function, method and dataclass constructor; a method's callee is its
    own name, an ``__init__``'s its class name."""
    methods = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                static = any(_name(dec) == "staticmethod"
                             for dec in item.decorator_list)
                methods[item] = (cls.name if item.name == "__init__"
                                 else item.name, 0 if static else 1)
        if _is_dataclass(cls):
            fields = [item for item in cls.body
                      if isinstance(item, ast.AnnAssign)
                      and not _init_false(item.value)]
            yield (cls.name, [item.target.id for item in fields],
                   [item.target.id for item in fields if item.value])
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            callee, skip = methods.get(fn, (fn.name, 0))
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args][skip:]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, default in zip(args.kwonlyargs,
                                                      args.kw_defaults)
                          if default is not None]
            if defaulted:
                yield callee, positional, defaulted


def calls(tree):
    """(callee, positional count, keyword names) of every call; a count of
    None passes every parameter.  ``**_args(cfg, *keys)`` passes its keys;
    any other ``*``/``**`` passes everything."""
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        count = len(call.args)
        if any(isinstance(a, ast.Starred) for a in call.args):
            count = None
        names = set()
        for kw in call.keywords:
            if kw.arg is not None:
                names.add(kw.arg)
            elif (isinstance(kw.value, ast.Call)
                  and _name(kw.value.func) == "_args"):
                names.update(a.value for a in kw.value.args[1:])
            else:
                count = None
        yield _name(call.func), count, names


def never_set(sources, callers):
    """``module.callee.parameter`` of each defaulted parameter or dataclass
    field in ``sources`` that no call in ``callers`` passes."""
    passed = {}
    for tree in callers:
        for callee, count, names in calls(tree):
            passed.setdefault(callee, []).append((count, names))
    out = []
    for module, tree in sources:
        for callee, positional, defaulted in options(tree):
            for param in defaulted:
                index = positional.index(param) if param in positional \
                    else len(positional)
                if not any(count is None or index < count or param in names
                           for count, names in passed.get(callee, ())):
                    out.append(f"{module}.{callee}.{param}")
    return sorted(out)


def test_never_set_check_finds_each_unpassed_option():
    lib = ast.parse(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c=2, d=3): pass\n"
        "def g(a=1, b=2): pass\n"
        "def h(a=1): pass\n"
        "@dataclass\n"
        "class K:\n"
        "    x: int = 0\n"
        "    y: list = field(init=False)\n"
        "    def m(self, z=0): pass\n")
    use = ast.parse("f(0, c=1)\ng(**_args(cfg, 'b'))\nh(**kw)\n"
                    "K().m(1)\n")
    assert never_set([("lib", lib)], [use]) == [
        "lib.K.x", "lib.f.b", "lib.f.d", "lib.g.a"]


def test_every_library_option_has_a_caller():
    # a defaulted parameter or field that no call sets is a constant in
    # disguise: one more configuration nothing runs
    sources = [(path.stem, ast.parse(path.read_text())) for path in SOURCES]
    callers = [ast.parse(path.read_text()) for path in CALLERS]
    assert never_set(sources, callers) == []
