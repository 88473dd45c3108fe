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
    """(callee, positional parameters, {defaulted parameter: default
    node}) for every function, method and dataclass constructor; a
    method's callee is its own name, an ``__init__``'s its class name."""
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
                   {item.target.id: item.value for item in fields
                    if item.value})
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            callee, skip = methods.get(fn, (fn.name, 0))
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args][skip:]
            defaulted = dict(zip(
                positional[len(positional) - len(args.defaults):],
                args.defaults))
            defaulted.update((a.arg, default) for a, default in zip(
                args.kwonlyargs, args.kw_defaults) if default is not None)
            if defaulted:
                yield callee, positional, defaulted


# the value of an argument that is not a literal
_VARIES = object()


def calls(tree):
    """(callee, positional argument nodes, {keyword: node}) of every call;
    the arguments are None where a ``*``/``**`` passes every parameter.
    ``**_args(cfg, *keys)`` passes its keys, each with the value
    _VARIES."""
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        args = call.args
        if any(isinstance(a, ast.Starred) for a in args):
            args = None
        keywords = {}
        for kw in call.keywords:
            if kw.arg is not None:
                keywords[kw.arg] = kw.value
            elif (isinstance(kw.value, ast.Call)
                  and _name(kw.value.func) == "_args"):
                keywords.update((a.value, _VARIES) for a in kw.value.args[1:])
            else:
                args = None
        yield _name(call.func), args, keywords


def _value(node):
    """A literal argument's source form, else _VARIES."""
    if node is _VARIES:
        return node
    try:
        ast.literal_eval(node)
    except ValueError:
        return _VARIES
    return ast.dump(node)


# the value of an option a call leaves out
_OMITTED = object()


def passed_values(sources, callers):
    """(``module.callee.parameter``, default node, the value each call in
    ``callers`` gives it) for every option in ``sources``; a value is a
    literal's source form, _VARIES or _OMITTED."""
    passed = {}
    for tree in callers:
        for callee, args, keywords in calls(tree):
            passed.setdefault(callee, []).append((args, keywords))
    for module, tree in sources:
        for callee, positional, defaulted in options(tree):
            for param, default in defaulted.items():
                # a keyword-only parameter sits past the positional ones
                index = positional.index(param) if param in positional \
                    else len(positional)
                values = []
                for args, keywords in passed.get(callee, ()):
                    if args is None:
                        values.append(_VARIES)
                    elif param in keywords:
                        values.append(_value(keywords[param]))
                    elif index < len(args):
                        values.append(_value(args[index]))
                    else:
                        values.append(_OMITTED)
                yield f"{module}.{callee}.{param}", default, values


def never_set(sources, callers):
    """``module.callee.parameter`` of each defaulted parameter or dataclass
    field in ``sources`` that no call in ``callers`` passes."""
    return sorted(option for option, _, values in
                  passed_values(sources, callers)
                  if all(value is _OMITTED for value in values))


def single_valued(sources, callers):
    """``module.callee.parameter`` of each defaulted parameter or dataclass
    field in ``sources`` that takes one value from ``callers``: the
    literals the calls pass, plus the default where a call leaves it out.
    A non-literal or a ``*``/``**`` argument is a second value."""
    out = []
    for option, default, values in passed_values(sources, callers):
        values = {ast.dump(default) if value is _OMITTED else value
                  for value in values}
        if _VARIES not in values and len(values) < 2:
            out.append(option)
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


def test_single_value_check_finds_each_constant_option():
    lib = ast.parse(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2, d=3, e=4): pass\n"
        "def g(a=1, b=2, c=3): pass\n"
        "def h(a=1): pass\n"
        "@dataclass\n"
        "class K:\n"
        "    x: int = 0\n"
        "    y: tuple = (1, 2)\n"
        "    def m(self, z=0, w=0): pass\n")
    # f.b: 5 and the default; f.c: 7 twice; f.d: the default, passed as
    # a literal and left out; f.e: a name; g: **_args passes a and *
    # everything; h: left out only; K.y: passed (1, 2) once;
    # m.z: 1 by position and by keyword; m.w: 0 and 2
    use = ast.parse("f(0, 5, c=7, d=3, e=v)\nf(0, c=7)\n"
                    "g(**_args(cfg, 'a'))\ng(*xs)\nh()\n"
                    "K(1, y=(1, 2))\nK(2)\n"
                    "K().m(1, 0)\nK().m(z=1, w=2)\n")
    assert single_valued([("lib", lib)], [use]) == [
        "lib.K.y", "lib.f.c", "lib.f.d", "lib.h.a", "lib.m.z"]


def test_every_library_option_has_a_caller():
    # a defaulted parameter or field that no call sets is a constant in
    # disguise: one more configuration nothing runs
    sources = [(path.stem, ast.parse(path.read_text())) for path in SOURCES]
    callers = [ast.parse(path.read_text()) for path in CALLERS]
    assert never_set(sources, callers) == []


def test_every_library_option_takes_two_values():
    # an option every caller gives the same value is a constant in
    # disguise, like one that no caller sets
    sources = [(path.stem, ast.parse(path.read_text())) for path in SOURCES]
    callers = [ast.parse(path.read_text()) for path in CALLERS]
    assert single_valued(sources, callers) == []
