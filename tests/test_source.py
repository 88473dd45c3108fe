"""Source hygiene of the slab package, checked with the standard library."""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import slab
from slab import cli

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


def production_callers(root):
    """The files outside the package whose calls are the library's
    production use: the benchmark harness and the acceptance criteria.
    Unit tests are not among them, so an option value or a definition
    that only a unit test uses is one that no path needs."""
    return sorted([*(root / "perfbench").rglob("*.py"),
                   root / "tests" / "test_acceptance.py"])


CALLERS = production_callers(ROOT)


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


def single_valued(sources, callers):
    """``module.callee.parameter`` of each defaulted parameter or dataclass
    field in ``sources`` that takes fewer than two values from
    ``callers``: the literals the calls pass, plus the default where a
    call leaves it out (none where no call reaches the callee).  A
    non-literal or a ``*``/``**`` argument is a second value."""
    out = []
    for option, default, values in passed_values(sources, callers):
        values = {ast.dump(default) if value is _OMITTED else value
                  for value in values}
        if _VARIES not in values and len(values) < 2:
            out.append(option)
    return sorted(out)


def test_single_value_check_finds_each_constant_option(tmp_path):
    lib = ast.parse(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2, d=3, e=4): pass\n"
        "def g(a=1, b=2, c=3): pass\n"
        "def h(a=1): pass\n"
        "def u(a=1, *, b=2): pass\n"
        "@dataclass\n"
        "class K:\n"
        "    x: int = 0\n"
        "    y: tuple = (1, 2)\n"
        "    def m(self, z=0, w=0): pass\n")
    # f.b: 5 and the default; f.c: 7 twice; f.d: the default, passed as
    # a literal and left out; f.e: a name; g: **_args passes a and *
    # everything; h: left out only; u: no call sets either option;
    # K.y: passed (1, 2) once; m.z: 1 by position and by keyword; m.w: 0
    # and 2
    use = ast.parse("f(0, 5, c=7, d=3, e=v)\nf(0, c=7)\n"
                    "g(**_args(cfg, 'a'))\ng(*xs)\nh()\n"
                    "K(1, y=(1, 2))\nK(2)\n"
                    "K().m(1, 0)\nK().m(z=1, w=2)\n")
    assert single_valued([("lib", lib)], [use]) == [
        "lib.K.y", "lib.f.c", "lib.f.d", "lib.h.a", "lib.m.z", "lib.u.a",
        "lib.u.b"]
    # a value that only a unit test passes does not count: h.a still
    # takes one value from the production callers
    for name, text in (("perfbench/run.py", "h()\n"),
                       ("tests/test_acceptance.py", "h(a=1)\n"),
                       ("tests/test_lib.py", "h(a=2)\n")):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    callers = [ast.parse(path.read_text())
               for path in production_callers(tmp_path)]
    assert single_valued([("lib", ast.parse("def h(a=1): pass\n"))],
                         callers) == ["lib.h.a"]


def test_every_library_option_takes_two_values():
    # an option every production caller gives the same value is a
    # constant in disguise, and so is one that no caller sets.  The one
    # exception: perfbench/tracing.py reads apply_pseudo's method by name,
    # so it stays until the tracer moves into the library
    sources = [(path.stem, ast.parse(path.read_text())) for path in SOURCES]
    callers = [ast.parse(path.read_text())
               for path in [*SOURCES, *CALLERS]]
    assert single_valued(sources, callers) == [
        "quantize.apply_pseudo.method"]


def _imports(tree):
    """{bound name: ``module`` or ``module.name``} of the package's
    imports in ``tree``: ``from . import grid as gr`` binds gr to grid,
    ``from .errors import X`` and ``from slab.errors import X`` bind X to
    errors.X."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "slab"):
            module = (node.module or "").removeprefix("slab").lstrip(".")
            for alias in node.names:
                bound[alias.asname or alias.name] = (
                    f"{module}.{alias.name}" if module else alias.name)
    return bound


def _references(node, module, bound):
    """(``module.name``, imported) of each name that ``node`` loads and of
    each ``alias.name`` of an imported module; imported is True where the
    name is read from another module."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id not in bound:
            yield f"{module}.{sub.id}", False
        elif isinstance(sub, ast.Name) and "." in bound[sub.id]:
            yield bound[sub.id], True
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and "." not in bound.get(sub.value.id, ".")):
            yield f"{bound[sub.value.id]}.{sub.attr}", True


def unreached(sources, roots, callers=()):
    """``module.name`` of each top-level function or class in ``sources``
    that neither a ``module.name`` of ``roots``, nor a package name that
    ``callers`` load, nor a module's import-time statements reach.  A
    definition reaches every name in it, a class every name in its
    methods; a name that a module does not define but reads from outside
    it reaches that module's ``__getattr__``.  Names resolve by spelling
    alone, so a local variable named like a definition keeps it."""
    graph, defined, start = {}, set(), []
    for module, tree in sources:
        bound = _imports(tree)
        for stmt in tree.body:
            refs = list(_references(stmt, module, bound))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.add(f"{module}.{stmt.name}")
                graph[f"{module}.{stmt.name}"] = refs
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            graph[f"{module}.{name.id}"] = refs
            else:
                start += refs
    start += [(root, True) for root in roots]
    for tree in callers:
        start += _references(tree, "", _imports(tree))
    seen = set()
    while start:
        name, imported = start.pop()
        if name not in graph and imported:
            name = name.rsplit(".", 1)[0] + ".__getattr__"
        if name in graph and name not in seen:
            seen.add(name)
            start += graph[name]
    return sorted(defined - seen)


def test_reachability_check_finds_each_unreached_name():
    lib = ast.parse(
        "from . import b as bb\n"
        "from .b import g\n"
        "def f(): return bb.h()\n"
        "def dead(): return k()\n"
        "class K:\n"
        "    def m(self): return g()\n"
        "def k(): pass\n"
        "TABLE = {'k': k}\n"
        "def main(): pass\n"
        "if __name__ == '__main__':\n"
        "    main()\n")
    other = ast.parse(
        "def g(): pass\n"
        "def h(): pass\n"
        "def lazy(): pass\n"
        "def __getattr__(name): return lazy\n"
        "def unused(): return lazy()\n")
    sources = [("a", lib), ("b", other)]
    # the import-time statements reach a.main; a.dead reaches a.k, but
    # nothing reaches a.dead, and a.TABLE is never read; a.K's method
    # reaches b.g only once a caller names a.K, and b.__getattr__
    # answers for a name b lacks, read from outside b
    assert unreached(sources, ["a.f"]) == [
        "a.K", "a.dead", "a.k", "b.__getattr__", "b.g", "b.lazy",
        "b.unused"]
    use = ast.parse("from slab import a as x, b\nx.K()\nb.missing\n")
    assert unreached(sources, [], [use]) == [
        "a.dead", "a.f", "a.k", "b.h", "b.unused"]


def test_every_public_name_is_reachable():
    # the library is what the CLI kinds, the acceptance criteria and the
    # benchmark tracer's attach points reach; anything else is code that
    # only unit tests run
    tracing = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracer = importlib.util.module_from_spec(tracing)
    tracing.loader.exec_module(tracer)
    roots = ["cli.main", "symbols.HomogeneousSymbol", "symbols.minimize"]
    roots += [f"{mod}.{fn.split('.')[0]}"
              for mod, fns in tracer.SPANNED.items() for fn in fns]
    sources = [(path.stem, ast.parse(path.read_text())) for path in SOURCES]
    roots += [f"cli.{fn.name}" for fn in dict(sources)["cli"].body
              if isinstance(fn, ast.FunctionDef) and any(
                  isinstance(dec, ast.Call) and _name(dec.func) == "_kind"
                  for dec in fn.decorator_list)]
    callers = [ast.parse(path.read_text()) for path in CALLERS]
    assert unreached(sources, roots, callers) == []


def handled_types(trees):
    """Names of the types that an ``except`` clause or the class argument
    of an ``issubclass`` call in ``trees`` names, alone or in a tuple; a
    dotted name counts by its last part."""
    named = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                spec = node.type
            elif (isinstance(node, ast.Call) and _name(node.func)
                  == "issubclass" and len(node.args) == 2):
                spec = node.args[1]
            else:
                continue
            named.update(_name(t) for t in (
                spec.elts if isinstance(spec, ast.Tuple) else [spec]))
    return named


def test_handler_check_finds_each_unhandled_type():
    errors = ast.parse("class A(Exception): pass\nclass B(A): pass\n"
                       "class C(A): pass\nclass D(Warning): pass\n"
                       "class E(A): pass\n")
    use = ast.parse("try:\n    f()\nexcept (errors.B, KeyError):\n    pass\n"
                    "except A as exc:\n    raise E() from exc\n"
                    "ok = issubclass(w.category, D)\n"
                    "pytest.raises(C)\n")
    # raising E and pytest.raises(C) tell no handler apart
    assert sorted({cls.name for cls in errors.body} - handled_types([use])) \
        == ["C", "E"]


def test_every_error_type_is_handled():
    # a type only earns its place where a production handler tells it
    # apart from the others; a type that is only raised, or named only by
    # a unit test's pytest.raises, is the base type with another name
    errors = ast.parse(
        pathlib.Path(slab.__file__).with_name("errors.py").read_text())
    defined = {cls.name for cls in errors.body
               if isinstance(cls, ast.ClassDef)}
    callers = [ast.parse(path.read_text()) for path in [*SOURCES, *CALLERS]]
    assert sorted(defined - handled_types(callers)) == []


def _is_name(node, name):
    return isinstance(node, ast.Name) and node.id == name


def config_reads(fn, helpers):
    """The config keys that ``fn``, a function whose first parameter is the
    config, reads: each ``cfg[key]`` and ``cfg.get(key, ...)`` with a
    literal key, each key it passes ``_args(cfg, ...)``, and the reads of
    each function in ``helpers`` that it passes the config first."""
    cfg = fn.args.args[0].arg
    keys = set()
    for node in ast.walk(fn):
        if (isinstance(node, ast.Subscript) and _is_name(node.value, cfg)
                and isinstance(node.slice, ast.Constant)):
            keys.add(node.slice.value)
        elif not isinstance(node, ast.Call) or not node.args:
            continue
        elif (isinstance(node.func, ast.Attribute) and node.func.attr == "get"
              and _is_name(node.func.value, cfg)
              and isinstance(node.args[0], ast.Constant)):
            keys.add(node.args[0].value)
        elif _is_name(node.args[0], cfg) and _name(node.func) == "_args":
            keys.update(arg.value for arg in node.args[1:])
        elif _is_name(node.args[0], cfg) and _name(node.func) in helpers:
            keys |= config_reads(helpers[_name(node.func)], helpers)
    return keys


def test_read_check_finds_each_read_key():
    tree = ast.parse(
        "def helper(c):\n    return c['h']\n"
        "def unused(c):\n    return c['u']\n"
        "def run(cfg):\n"
        "    x = cfg['a'] + cfg.get('b', 0) + other.get('o')\n"
        "    helper(cfg)\n    f(**_args(cfg, 'c', 'd'))\n"
        "    unused(1, cfg)\n    return cfg[key]\n")
    helpers = {fn.name: fn for fn in tree.body}
    assert config_reads(helpers["run"], helpers) == {"a", "b", "c", "d", "h"}


def test_every_registry_key_is_read_by_its_runner():
    # a key that its runner never reads is an option with no effect; a
    # verdict bound is a constant of the runner, not a key
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    helpers = {fn.name: fn for fn in tree.body
               if isinstance(fn, ast.FunctionDef)}
    unread = []
    for kind, entry in cli.KINDS.items():
        reads = config_reads(helpers[entry.run.__name__], helpers)
        unread += [f"{kind}.{key}" for key in entry.schema["properties"]
                   if key not in reads]
    assert sorted(unread) == []
