"""Source hygiene checks that need no linter: the standard library's ast
reads each module of the package, and a fresh interpreter imports it."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mclex"

# __init__.py imports names only to re-export them
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names a module imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_detected():
    source = "import os\nimport json\nfrom . import a, b\nfrom x import y as z\nos.sep\nb()\n"
    assert unused_imports(source) == ["json", "a", "z"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def unused_parameters(source):
    """(function, parameter) of each parameter a function never reads, in
    source order; self and cls are exempt."""
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [
            p for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p
        ]
        read = {"self", "cls"} | {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unused += [(node.name, p.arg) for p in params if p.arg not in read]
    return unused


def test_unused_parameters_detected():
    source = (
        "def f(M, i, *args, key=None, **kw):\n    return i + len(kw)\n"
        "class C:\n    def g(self, x, y=1):\n        def h(z):\n            return x\n"
        "        return h\n    @classmethod\n    def c(cls):\n        pass\n"
    )
    assert unused_parameters(source) == [
        ("f", "M"), ("f", "args"), ("f", "key"), ("g", "y"), ("h", "z"),
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_parameters(module):
    assert unused_parameters((SRC / module).read_text()) == []


def _defined(node):
    """Names a top-level statement defines as a function, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _read(node):
    """Names a statement reads, as a variable or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def unread_private_names(sources):
    """(module, name) of each private module-level name that no other
    top-level statement of the modules reads; importing is not reading."""
    statements = [
        (module, node) for module, source in sources.items() for node in ast.parse(source).body
    ]
    reads = [_read(node) for _, node in statements]
    return [
        (module, name)
        for i, (module, node) in enumerate(statements)
        for name in _defined(node)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in r for j, r in enumerate(reads) if j != i)
    ]


def test_unread_private_names_detected():
    sources = {
        "a.py": "_used = 1\n_unused = 2\ndef _rec(n):\n    return _rec(n)\nclass _C:\n    pass\n",
        "b.py": "from .a import _used\nprint(_used)\n",
    }
    assert unread_private_names(sources) == [("a.py", "_unused"), ("a.py", "_rec"), ("a.py", "_C")]


def test_no_unread_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def write_only_fields(sources):
    """(class, field) of each name in a class's __slots__ that no function
    of the modules reads as an attribute, apart from functions that also
    store it; fields match by name, whatever the object."""
    slots = []
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                slots += [
                    (node.name, c.value)
                    for stmt in node.body
                    if isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
                    for c in ast.walk(stmt.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                ]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                attrs = [n for n in ast.walk(node) if isinstance(n, ast.Attribute)]
                stored = {n.attr for n in attrs if isinstance(n.ctx, ast.Store)}
                read |= {n.attr for n in attrs if isinstance(n.ctx, ast.Load)} - stored
    return [(cls, name) for cls, name in slots if name not in read]


def test_write_only_fields_detected():
    sources = {
        "a.py": (
            "class A:\n    __slots__ = ('x', 'y', 'z')\n"
            "    def __init__(self, x):\n        self.x = x\n        self.y = self.z = None\n"
            "def f(a):\n    a.y = 1\n    return a.y\n"
            "class B:\n    __slots__ = ()\n"
        ),
        "b.py": "def g(a):\n    return a.x\n",
    }
    assert write_only_fields(sources) == [("A", "y"), ("A", "z")]


def test_no_write_only_fields():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert write_only_fields(sources) == []


def _functools_names(tree):
    """A function giving the functools name that a node of the tree reads,
    or None."""
    aliases = {
        a.asname or a.name: a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for a in node.names
    }

    def name(node):
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
            return node.attr
        return None

    return name


def unbounded_caches(source):
    """(line, name), in line order, of each functools cache without a
    finite maxsize of its own: `cache`, `lru_cache` used bare or called with no maxsize (an
    unstated 128), and `lru_cache(maxsize=None)`."""
    tree = ast.parse(source)
    name = _functools_names(tree)
    called = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and name(node.func) == "lru_cache":
            sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            called[id(node.func)] = sizes and not (
                isinstance(sizes[0], ast.Constant) and sizes[0].value is None
            )
    return sorted(
        (node.lineno, name(node))
        for node in ast.walk(tree)
        if name(node) in ("cache", "lru_cache") and isinstance(node.ctx, ast.Load)
        and not called.get(id(node))
    )


def test_unbounded_caches_detected():
    source = (
        "import functools\nfrom functools import lru_cache, cache as memo\n"
        "@lru_cache(maxsize=1 << 4)\ndef a(): pass\n"
        "@functools.lru_cache(8)\ndef b(): pass\n"
        "@lru_cache\ndef c(): pass\n"
        "@lru_cache()\ndef d(): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef e(): pass\n"
        "@memo\ndef f(): pass\n"
        "g = functools.cache(len)\n"
        "cache = {}\nh = lru_cache(None)(len)\n"
    )
    assert unbounded_caches(source) == [
        (7, "lru_cache"), (9, "lru_cache"), (11, "lru_cache"), (13, "cache"),
        (15, "cache"), (17, "lru_cache"),
    ]


def test_caches_are_bounded():
    # each cache's comment argues for its bound, and a cache without one
    # grows with every matrix a long enumeration meets
    found = {p.name: unbounded_caches(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {module: caches for module, caches in found.items() if caches} == {}


def cached_functions(source):
    """In line order, the function each functools cache of a module
    decorates, or `line N` for a cache made any other way."""
    tree = ast.parse(source)
    name = _functools_names(tree)
    decorated = {
        id(d.func if isinstance(d, ast.Call) else d): node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for d in node.decorator_list
    }
    caches = sorted(
        (node for node in ast.walk(tree)
         if name(node) in ("cache", "lru_cache") and isinstance(node.ctx, ast.Load)),
        key=lambda node: (node.lineno, node.col_offset),
    )
    return [decorated.get(id(node), f"line {node.lineno}") for node in caches]


def test_cached_functions_detected():
    source = (
        "import functools\nfrom functools import lru_cache, cache as memo\n"
        "@lru_cache(maxsize=8)\ndef a(): pass\n"
        "@memo\ndef b(): pass\n"
        "g = functools.lru_cache(4)(len)\n"
        "@staticmethod\ndef c(): pass\n"
    )
    assert cached_functions(source) == ["a", "b", "line 7"]


# each functools cache of the package and its maxsize, by module, in line
# order; _goal_codes is the only per-goal cache of a decide, and _derived,
# keyed by hypotheses and goal shape, holds at most (k+1)**n saturations
# per key
CACHES = {
    "_kernel.py": {"_packed": 32, "_perm_slices": 16},
    "closure.py": {"instantiate": 1 << 8, "_goal_codes": 1 << 11, "_derived": 1 << 11},
    "degeneracy.py": {"is_trivial": 1 << 12, "_row_view": 1 << 10},
    "enumeration.py": {"_probe_masks": 16, "_probe_bits": 1 << 12},
}


def test_caches_are_named():
    # each cache holds memory that no caller frees, so adding one, or
    # changing the bound its comment argues, means naming it here
    found = {p.name: cached_functions(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == {
        module: list(caches) for module, caches in CACHES.items()
    }
    for module, caches in CACHES.items():
        mod = importlib.import_module("mclex." + module.removesuffix(".py"))
        got = {name: getattr(mod, name).cache_parameters()["maxsize"] for name in caches}
        assert got == caches, module


def _modules_loaded_by_import():
    """The modules a bare `import mclex` adds to a fresh interpreter."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import mclex\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "mclex" in out
    return out


def test_import_starts_no_process_machinery():
    # nothing in the package spawns processes, so importing it must not
    # pay for the multiprocessing modules
    out = _modules_loaded_by_import()
    assert [m for m in out if m.split(".")[0] in ("multiprocessing", "concurrent")] == []


def test_import_loads_no_dataclass_machinery():
    # every command starts a fresh interpreter: dataclasses and the source
    # introspection it loads cost about 8 ms of each start
    out = _modules_loaded_by_import()
    assert [m for m in out if m in ("dataclasses", "inspect", "ast", "dis", "tokenize")] == []
