"""Load-bearing audit: every module is reached from a real entry point,
every package re-export is imported through that package by someone,
every constructor parameter with a default is set by someone, every
public method and function is used by code that runs, and every public
attribute is read by it — a use being an attribute access, a class-body
alias, a ``getattr``-family name or a tracer binding, never a bare name
that happens to match, and counting for the class its receiver resolves
to — and every verb the cache node accepts is sent by it.

ROADMAP aim 2: a module survives only if a paper figure, a CI gate or a
live code path needs it.  The roots are the things a user or CI actually
runs — the CLI, the standalone server, every bench a paper section or CI
needs (:func:`_is_root`; ``benchmarks/e2e`` and the bench helpers always)
and every example — and never ``tests/``: a module only its own tests
import is not load-bearing.  The walks are static ``ast`` passes, so
they cost nothing and cannot be fooled by import side effects; the module
walk has no allow-list, on purpose, and the parameter, method,
attribute and verb gates' (``KEPT``, ``KEPT_METHODS``,
``KEPT_ATTRIBUTES``, ``KEPT_VERBS``) can only shrink.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import re
import builtins
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

import pytest

from repro.config import ClusterConfig
from repro.core.retrieval import RetrievalConfig
from repro.experiments.testbed import Sizing
from repro.provisioning.controller import DelayFeedbackController
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.retry import RetryPolicy

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
BENCHMARKS = REPO / "benchmarks"

#: the text of what CI runs: a bench named here is a CI gate
CI_TEXT = "".join(
    (REPO / name).read_text() for name in (".github/workflows/ci.yml", "Makefile")
)
#: what a ``REPRODUCES`` constant must name
PAPER_SECTION = re.compile(r"\b(Section|§) ?[IVX]+\b")


@functools.lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    """*path* parsed, once for every gate."""
    return ast.parse(path.read_text())


def _constant(path: Path, name: str, default):
    """The literal value of *path*'s module-level ``name = ...``, or
    *default*."""
    for node in _tree(path).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return default


def _reproduces(path: Path) -> str:
    """The module-level ``REPRODUCES`` string of *path*, or ``""``."""
    return _constant(path, "REPRODUCES", "")


def _is_root(path: Path) -> bool:
    """A top-level ``benchmarks/bench_*.py`` is a root only as a paper
    figure or theory check, as a bench CI runs by file name, or with a
    ``REPRODUCES`` constant naming a paper section; everything else under
    ``benchmarks/`` (``e2e``, the helpers) always is."""
    name = path.name
    if path.parent != BENCHMARKS or not name.startswith("bench_"):
        return True
    return (
        name.startswith(("bench_fig", "bench_theory"))
        or name in CI_TEXT
        or bool(PAPER_SECTION.search(_reproduces(path)))
    )


#: what gets run: ``python -m repro`` / the ``repro`` console script,
#: ``python -m repro.net.server`` (the e2e benchmark's child processes),
#: the root benches and the examples
ROOTS = sorted(
    [
        SRC / "repro" / "__main__.py",
        SRC / "repro" / "cli.py",
        SRC / "repro" / "net" / "server.py",
        *filter(_is_root, BENCHMARKS.rglob("*.py")),
        *(REPO / "examples").glob("*.py"),
    ]
)


def _dotted(relative: Path) -> Tuple[str, ...]:
    parts = relative.with_suffix("").parts
    return parts[:-1] if parts[-1] == "__init__" else parts


def _modules() -> Dict[str, Path]:
    """Dotted name -> file for everything under ``src/repro``."""
    return {
        ".".join(_dotted(path.relative_to(SRC))): path
        for path in (SRC / "repro").rglob("*.py")
    }


MODULES = _modules()
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


def _imports(tree: ast.AST) -> Iterator[Tuple[str, str]]:
    """``(module, name)`` for every import statement in *tree*, at any
    nesting depth; *name* is ``""`` for a plain ``import module``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ""
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "src/repro uses absolute imports only"
            for alias in node.names:
                yield node.module, alias.name


@functools.lru_cache(maxsize=None)
def _file_imports(path: Path) -> Tuple[Tuple[str, str], ...]:
    return tuple(_imports(_tree(path)))


@functools.lru_cache(maxsize=None)
def _lazy_exports(package: str) -> Dict[str, str]:
    """A package ``__init__``'s PEP 562 name table (``_EXPORTS``): name ->
    the module its ``__getattr__`` loads the name from on first access."""
    return _constant(MODULES[package], "_EXPORTS", {})


def _defining_module(module: str, name: str) -> str:
    """The module ``from module import name`` really loads code from:
    a submodule, or — through a package ``__init__``'s lazy name table or
    its own import statements, as many hops as it takes — the module that
    defines it."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if module in PACKAGES:
        lazy = _lazy_exports(module).get(name)
        if lazy in MODULES:
            return _defining_module(lazy, name)
        for origin, exported in _file_imports(MODULES[module]):
            if exported == name and origin in MODULES:
                return _defining_module(origin, name)
    return module


def _with_parents(module: str) -> List[str]:
    parts = module.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def _reached() -> Set[str]:
    """Modules the roots load code from, transitively.  Importing a.b.c
    also runs a/__init__ and a/b/__init__, but a package ``__init__`` is a
    name table here, not a reason to keep everything it lists: it is
    marked reached and never walked."""
    by_path = {path: name for name, path in MODULES.items()}
    reached: Set[str] = set()
    walked: Set[Path] = set()
    pending = list(ROOTS)
    while pending:
        path = pending.pop()
        if path in walked:
            continue
        walked.add(path)
        if path in by_path:
            reached.update(_with_parents(by_path[path]))
        for module, name in _file_imports(path):
            if module not in MODULES:
                continue
            target = _defining_module(module, name) if name else module
            if target in PACKAGES:
                reached.update(_with_parents(target))
            else:
                pending.append(MODULES[target])
    return reached


def test_every_module_is_reached_from_an_entry_point():
    unreached = sorted(set(MODULES) - _reached())
    assert not unreached, (
        "nothing the CLI, the server, a root bench or an example runs "
        f"imports {unreached}: delete them (with the tests that alone kept "
        "them alive) or give them a real caller"
    )


def test_every_reproduces_constant_names_a_paper_section():
    """One that names none would silently demote its bench from the roots."""
    vague = {
        path.name: claim
        for path in BENCHMARKS.glob("bench_*.py")
        if (claim := _reproduces(path)) and not PAPER_SECTION.search(claim)
    }
    assert not vague, f"REPRODUCES names no paper section: {vague}"


_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _importers() -> Iterator[Tuple[Path, Sequence[Tuple[str, str]]]]:
    """Every place an import can be written: the python trees, and the
    fenced python snippets of the user-facing docs."""
    for tree in ("src", "tests", "benchmarks", "examples"):
        for path in (REPO / tree).rglob("*.py"):
            yield path, _file_imports(path)
    for doc in [REPO / "README.md", *(REPO / "docs").glob("*.md")]:
        found = []
        for snippet in _FENCE.findall(doc.read_text()):
            try:
                found.extend(_imports(ast.parse(snippet)))
            except SyntaxError:
                continue  # an elided snippet ("...") documents, not imports
        yield doc, found


def _exports(package: str) -> List[str]:
    return list(_constant(MODULES[package], "__all__", []))


def test_every_reexport_is_imported_through_its_package():
    used: Set[Tuple[str, str]] = set()
    for path, imports in _importers():
        for module, name in imports:
            if module in PACKAGES and MODULES[module].parent not in path.parents:
                used.add((module, name))
    unused = sorted(
        f"{package}.{name}"
        for package in PACKAGES
        for name in _exports(package)
        if (package, name) not in used
    )
    assert not unused, (
        "re-exported but never imported from the package itself — import "
        f"from the defining module and drop the re-export: {unused}"
    )


def test_the_root_package_resolves_every_export_lazily():
    """``repro/__init__`` loads nothing eagerly: ``__all__`` and the
    ``_EXPORTS`` table list the same names, each resolves by ``getattr``
    to its defining module's object, and the walk above follows the table
    to that module."""
    import repro

    table = _lazy_exports("repro")
    assert sorted(repro.__all__) == sorted(table)
    assert table == repro._EXPORTS
    for name, module in table.items():
        defined = getattr(importlib.import_module(module), name)
        assert getattr(repro, name) is defined
        assert _defining_module("repro", name) == module
    assert set(repro.__all__) <= set(dir(repro))
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
    with pytest.raises(ImportError):
        from repro import no_such_name  # noqa: F401


#: dataclasses whose fields are options a caller fills in — the configs of
#: a run or a deployment and the three policy records; every other class
#: enters the gate by defining ``__init__`` (state and counter records, the
#: engine's commands and ``FaultPlan`` — the fault script of ``tests/simnet``
#: — are not options)
OPTION_RECORDS = [
    RetrievalConfig, ClusterConfig, Sizing, ResiliencePolicy, RetryPolicy,
    DelayFeedbackController,
]

#: (class, parameter) -> why it stays with no caller outside the tests; an
#: entry that gains a caller fails the gate, so this can only shrink
KEPT = {
    ("AsyncProteusFrontend", "config"): (
        "the planned sim-drives-live SimTestbed passes the engine options "
        "through it, and the planned live state machine sets coalescing "
        "through it"
    ),
    ("AsyncProteusFrontend", "admission"): (
        "the planned sim-drives-live SimTestbed passes its virtual-queue "
        "admission through it"
    ),
}


def _class_defs() -> Iterator[Tuple[str, ast.ClassDef]]:
    for module, path in sorted(MODULES.items()):
        for node in _tree(path).body:
            if isinstance(node, ast.ClassDef):
                yield module, node


@functools.lru_cache(maxsize=None)
def _classes() -> Dict[str, type]:
    """Every top-level class under ``src/repro``, by name."""
    return {
        node.name: getattr(importlib.import_module(module), node.name)
        for module, node in _class_defs()
    }


def _initialiser(cls: type) -> type:
    """The class whose ``__init__`` a call of *cls* runs."""
    return next(k for k in cls.__mro__ if "__init__" in vars(k))


@functools.lru_cache(maxsize=None)
def _gated() -> Dict[str, type]:
    """The classes under the gate, by name: every class under
    ``src/repro`` that defines ``__init__``, and the option records."""
    defines_init = {
        node.name
        for _, node in _class_defs()
        if any(
            isinstance(item, ast.FunctionDef) and item.name == "__init__"
            for item in node.body
        )
    }
    gated = {name: _classes()[name] for name in defines_init}
    gated.update((record.__name__, record) for record in OPTION_RECORDS)
    return {
        name: cls for name, cls in sorted(gated.items()) if _defaults(cls)
    }


def _defaults(cls: type) -> List[str]:
    """``__init__``'s parameters that have a default, in signature order."""
    return [
        p.name for p in inspect.signature(cls.__init__).parameters.values()
        if p.default is not p.empty
    ]


def _positional(cls: type) -> List[str]:
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return [
        p.name for p in params
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]


def _calls(path: Path) -> Iterator[Tuple[type, ast.Call, bool]]:
    """``(initialiser, call, whole)`` for every call in *path* that builds a
    ``src/repro`` class: ``X(...)``, ``mod.X(...)``, ``cls(...)`` in X's
    body and ``super().__init__(...)`` in a subclass of X (*whole*: its
    arguments map onto ``__init__``), and ``X.classmethod(...)`` (only its
    keywords count)."""
    classes = _classes()
    tree = _tree(path)
    owner: Dict[int, type] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in classes:
            cls = classes[node.name]
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if getattr(func, "id", None) == "cls":
                    owner[id(call)] = _initialiser(cls)
                elif (
                    isinstance(func, ast.Attribute) and func.attr == "__init__"
                    and isinstance(func.value, ast.Call)
                    and getattr(func.value.func, "id", None) == "super"
                ):
                    owner[id(call)] = _initialiser(cls.__mro__[1])
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if id(node) in owner:
            yield owner[id(node)], node, True
        elif getattr(func, "id", None) in classes:
            yield _initialiser(classes[func.id]), node, True
        elif isinstance(func, ast.Attribute):
            if func.attr in classes:
                yield _initialiser(classes[func.attr]), node, True
            elif getattr(func.value, "id", None) in classes:
                yield _initialiser(classes[func.value.id]), node, False


def _assigned(path: Path) -> Iterator[str]:
    """Attribute names *path* assigns on something other than ``self``."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and getattr(target.value, "id", None) != "self"
                ):
                    yield target.attr


@functools.lru_cache(maxsize=None)
def _set() -> Dict[type, Set[str]]:
    """Initialiser -> the parameters some non-test call passes."""
    passed: Dict[type, Set[str]] = {}
    assigned: Set[str] = set()
    for path in {*MODULES.values(), *ROOTS}:
        for cls, call, whole in _calls(path):
            names = passed.setdefault(cls, set())
            names.update(kw.arg for kw in call.keywords if kw.arg)
            if whole:
                n = sum(not isinstance(a, ast.Starred) for a in call.args)
                names.update(_positional(cls)[:n])
        assigned.update(_assigned(path))
    for cls in OPTION_RECORDS:
        passed.setdefault(cls, set()).update(
            f.name for f in dataclasses.fields(cls) if f.name in assigned
        )
    return passed


@pytest.mark.parametrize("name", sorted(_gated()))
def test_every_constructor_parameter_is_set_outside_the_tests(name):
    """A parameter only tests set is an option nobody runs with: make its
    value a constant at its one use, drop the branch a non-default value
    selected, and drop the parameter."""
    cls = _gated()[name]
    passed = _set().get(cls, set())
    unset = [
        p for p in _defaults(cls) if p not in passed and (name, p) not in KEPT
    ]
    assert not unset, (
        f"no {name}(...) call in src/, benchmarks/ or examples/ passes {unset}"
    )
    stale = [
        p for (owner, p) in KEPT
        if owner == name and (p in passed or p not in _defaults(cls))
    ]
    assert not stale, f"KEPT lists {stale} of {name}: drop the entry"


#: where a member counts as used: the code that runs (the library, the
#: benches with the e2e tracer, the examples) and the virtual-network
#: harness that is to move into ``src/``
CALLERS = ("src", "benchmarks", "examples", "tests/simnet")
#: the e2e tracer binds an entry point by ``"module:Class.method"``
_BOUND = re.compile(r"^[\w.]+:[\w.]+$")
#: builtins whose second argument names a member
_ACCESSORS = ("getattr", "hasattr", "setattr")

#: "Class.method" (a function: "module.function") -> the open ROADMAP item
#: that will call it; an entry that gains a caller fails the gate, so this
#: can only shrink
KEPT_METHODS = {
    "ClusterConfig.build_frontend": (
        "ROADMAP item 4 builds the live stack of the paper's headline run "
        "from a config file"
    ),
    "ClusterConfig.build_router": (
        "ROADMAP item 5 builds the sim driver's router from the same "
        "config file"
    ),
    "ClusterConfig.load": (
        "ROADMAP item 4 reads that config file with it before "
        "build_frontend builds the live stack"
    ),
    "MemcachedClient.incr": (
        "ROADMAP item 3(e)'s no-blind-resend contract: an incr lost to a "
        "reset connection must not be applied twice"
    ),
    "health.open_circuits": (
        "ROADMAP item 11's live provisioning loop builds its "
        "ClusterHealthMonitor with it, as test_health_parity.py does"
    ),
}


# --- receivers: the class a member use is for ------------------------------
#
# Gates 4 and 5 credit a use ``x.name`` to the class of ``x`` where a static
# pass can be certain of it.  A type below is ``None`` when unknown — the
# use then counts for every class, as matching by name does — or a tuple
# tagged by its first element:
#
# * ``("inst", names)``: an instance of one of the indexed classes *names*;
#   ``("class", name)``: that class object.  A use counts for the class, its
#   bases and its subclasses (:meth:`_Receivers.credit`);
# * ``("foreign",)``: a value of a known non-``repro`` type — a literal, a
#   builtin, asyncio or hashlib object — and the builtin containers
#   ``("seq", element)``, ``("map", key, value)``, ``("tuple", elements)``.
#   A use on one counts for no class;
# * ``("none",)``: the ``None`` constant, which adds nothing to a join;
# * what a call or an attribute resolves through: ``("funcs", ((def,
#   scope), ...))``, ``("coro", result)``, ``("cm", entered)``,
#   ``("cmethod", container, name)``, ``("module", dotted)`` (an indexed
#   module), ``("fmod", dotted)`` / ``("fname", dotted)`` (a stdlib or
#   numpy module and a name in one), ``("builtin", name)`` and
#   ``("local", class)`` (a class the index does not hold).

_NONE = ("none",)
_FOREIGN = ("foreign",)
#: the kinds of value a use counts for no class on
_INERT = frozenset({"foreign", "seq", "map", "tuple"})
_SEQUENCES = frozenset({
    "List", "Sequence", "MutableSequence", "Iterable", "Iterator",
    "Collection", "Reversible", "Set", "FrozenSet", "AbstractSet",
    "MutableSet", "Deque", "KeysView", "ValuesView", "Generator",
    "AsyncIterator", "AsyncIterable", "AsyncGenerator",
    "list", "set", "frozenset", "deque",
})
_MAPPINGS = frozenset({
    "Dict", "Mapping", "MutableMapping", "OrderedDict", "DefaultDict",
    "dict", "defaultdict", "Counter",
})
#: modules whose names :func:`_annotation` reads as typing, not as a type
_TYPING = frozenset({"typing", "collections", "collections.abc"})
#: builtins that build a value of a known non-``repro`` type
_FOREIGN_BUILTINS = frozenset({
    "str", "bytes", "bytearray", "int", "float", "bool", "complex", "len",
    "repr", "format", "hash", "id", "isinstance", "issubclass", "hasattr",
    "callable", "ord", "chr", "hex", "bin", "abs", "round", "range",
})
#: node type -> the fields that may hold child nodes (not ``ctx``)
_FIELDS = {
    cls: tuple(f for f in cls._fields if f != "ctx")
    for cls in vars(ast).values()
    if isinstance(cls, type) and issubclass(cls, ast.AST)
}
#: the expressions that build a container
_BUILT = (ast.List, ast.Set, ast.Dict, ast.ListComp, ast.SetComp, ast.DictComp)
#: methods that add to a container
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "update", "setdefault",
})
#: builtins that return an immutable sequence or an iterator over theirs
_BUILTIN_SEQUENCES = frozenset({"tuple", "frozenset", "reversed", "iter"})
#: stdlib callables that return an asyncio, hashlib or container object
_FOREIGN_CALLS = re.compile(
    r"(asyncio\.(get_running_loop|get_event_loop|new_event_loop|"
    r"create_task|ensure_future|[A-Z]\w*)|hashlib\.\w+|"
    r"collections\.\w+|numpy\.\w+)\Z"
)
#: decorators after which a function still returns what it annotates
_TRANSPARENT = frozenset({
    "staticmethod", "classmethod", "abstractmethod", "lru_cache", "cache",
    "contextmanager", "asynccontextmanager",
})
_BUILTIN_NAMES = frozenset(dir(builtins))


#: top-level modules whose objects are never indexed classes
_FOREIGN_MODULES = frozenset(sys.stdlib_module_names | {"numpy"})


def _foreign_module(dotted: str) -> bool:
    return dotted.split(".")[0] in _FOREIGN_MODULES


def _join(types: Iterable) -> object:
    """The one type every value of *types* has, or ``None``."""
    out = _NONE
    for t in types:
        if t is None:
            return None
        if t == _NONE or t == out:
            continue
        if out == _NONE:
            out = t
        elif out[0] == t[0] == "inst":
            out = ("inst", out[1] | t[1])
        elif out[0] == t[0] == "funcs":
            out = ("funcs", out[1] + t[1])
        elif out[0] == t[0] == "seq":
            out = ("seq", _join((out[1], t[1])))
        elif out[0] == t[0] == "map":
            out = ("map", _join((out[1], t[1])), _join((out[2], t[2])))
        elif out[0] in _INERT and t[0] in _INERT:
            out = _FOREIGN
        else:
            return None
    return out


def _element(t) -> object:
    """What iterating a value of type *t* yields."""
    if t is None:
        return None
    if t[0] == "seq":
        return t[1]
    if t[0] == "map":
        return t[1]
    if t[0] == "tuple":
        return _join(t[1])
    return None


def _last(dotted: str) -> str:
    return dotted.rsplit(".", 1)[-1]


def _decorators(fn: ast.AST) -> Set[str]:
    """The last name of each decorator: ``property``, ``setter``."""
    found = set()
    for d in fn.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        name = d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", "")
        found.add(name)
    return found


def _runtime(t):
    """The stdlib or builtin object a ``("fname", ...)`` or ``("builtin",
    ...)`` type names, or None."""
    if t is None or t[0] not in ("fname", "builtin"):
        return None
    if t[0] == "builtin":
        return getattr(builtins, t[1], None)
    module, _, name = t[1].rpartition(".")
    try:
        return getattr(importlib.import_module(module), name, None)
    except ImportError:
        return None


class _Scope:
    """One namespace of a walked file: a module, a class body, a function
    or a comprehension, with every binding its body makes."""

    __slots__ = ("parent", "module", "owner", "name", "node", "names",
                 "declared", "memo", "attrs")

    def __init__(self, parent, owner=None, name=None, node=None):
        self.parent = parent  # where a name it does not bind is looked up
        self.module = parent.module if parent else self
        self.owner = owner  # a method's class: what self, cls and super() are
        self.name = name  # a module's dotted name, a class's name
        self.node = node  # a class body's ClassDef
        self.names: Dict[str, List[tuple]] = {}
        self.declared: Dict[str, ast.expr] = {}
        self.memo: Dict[str, object] = {}
        self.attrs: Dict[str, List[tuple]] = {}  # a class's ``self.x = ...``


class _Receivers:
    """One pass over *modules* (dotted name -> tree) crediting each member
    use to the classes its receiver can be.  The top-level classes and
    functions of the *indexed* modules are the ones under the gates; a
    class elsewhere is read as a local one."""

    def __init__(self, modules: Dict[str, ast.Module], indexed: Set[str]):
        self.indexed = indexed
        self.modules: Dict[str, _Scope] = {}
        self.classes: Dict[str, Tuple[ast.ClassDef, _Scope]] = {}
        self.functions: Dict[str, Tuple[str, ast.AST]] = {}
        self.sites: List[tuple] = []
        #: a class body's or a comprehension's scope, by ``id`` of its node
        self.bodies: Dict[int, _Scope] = {}
        self.memo: Dict[object, object] = {}
        for module in indexed:
            for stmt in modules[module].body:
                if isinstance(stmt, ast.ClassDef):
                    self.classes[stmt.name] = (stmt, None)
                elif isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not stmt.name.startswith("_"):
                    key = f"{_last(module)}.{stmt.name}"
                    assert key not in self.functions, f"two {key} functions"
                    self.functions[key] = (module, stmt)
        self.function_names = {fn.name for _, fn in self.functions.values()}
        self.mutated: Set[str] = set()
        #: attribute -> what code stores there on something not ``self``
        self.stored: Dict[str, List[tuple]] = {}
        self.aliased: List[Tuple[str, _Scope]] = []
        for module, tree in modules.items():
            self.modules[module] = self._walk_module(tree, module)
        seen = set()
        for name, scope in self.aliased:  # grows as aliases of aliases show
            while scope is not None and name not in scope.names:
                scope = scope.parent
            if scope is None or (name, id(scope)) in seen:
                continue
            seen.add((name, id(scope)))
            for b in scope.names[name]:
                if b[0] == "value" and isinstance(
                    b[1], (ast.Name, ast.Attribute)
                ):
                    self._mutate(b[1], b[2])
        self.uses: Dict[str, Set[str]] = {}
        self.reads: Dict[str, Set[str]] = {}
        for site in self.sites:
            self._resolve(*site)
        self._follow_aliases()

    # -- phase 1: bindings and use sites ---------------------------------

    def _walk_module(self, tree: ast.Module, module) -> _Scope:
        scope = _Scope(None, name=module)
        for stmt in tree.body:
            self._visit(stmt, scope)
        return scope

    def _bind(self, scope: _Scope, name: str, binding: tuple) -> None:
        scope.names.setdefault(name, []).append(binding)

    def _target(self, target, binding, scope) -> None:
        if isinstance(target, ast.Name):
            self._bind(scope, target.id, binding)
        elif isinstance(target, (ast.Tuple, ast.List)):
            starred = any(isinstance(e, ast.Starred) for e in target.elts)
            for i, elt in enumerate(target.elts):
                inner = ("unknown",) if starred else ("item", binding, i)
                if isinstance(elt, ast.Starred):
                    elt = elt.value
                self._target(elt, inner, scope)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
        ):
            owner = self._self_class(scope, target.value.id)
            if owner is not None:
                owner.attrs.setdefault(target.attr, []).append(binding)
                return
        if isinstance(target, ast.Attribute):
            stored = (binding, target.value, scope)
            self.stored.setdefault(target.attr, []).append(stored)

    def _mutate(self, node, scope: _Scope) -> None:
        """Note that the container *node* names is added to, and so is the
        one a local that does so was bound from (``xs = self.xs``)."""
        if isinstance(node, ast.Attribute):
            self.mutated.add(node.attr)
        elif isinstance(node, ast.Name):
            self.mutated.add(node.id)
            self.aliased.append((node.id, scope))

    def _self_class(self, scope, name):
        """The class body scope whose instance *name* is the ``self`` of."""
        while scope is not None:
            if name in scope.names:
                kind = scope.names[name][0]
                return kind[1] if kind[0] == "self" else None
            scope = scope.parent
        return None

    def _function(self, node, scope: _Scope) -> bool:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is not None:
                self._visit(default, scope)
        parent = scope
        owner = None
        if scope.node is not None and not isinstance(node, ast.Lambda):
            parent, owner = scope.parent, scope
        inner = _Scope(parent, owner=owner)
        params = [*args.posonlyargs, *args.args]
        decorators = _decorators(node) if owner else set()
        if owner is not None and params and "staticmethod" not in decorators:
            first = params.pop(0)
            kind = "cls" if "classmethod" in decorators else "self"
            self._bind(inner, first.arg, (kind, owner))
        for arg in [*params, *args.kwonlyargs]:
            if arg.annotation is not None:
                inner.declared[arg.arg] = arg.annotation
                self._visit(arg.annotation, scope)
            else:
                self._bind(inner, arg.arg, ("unknown",))
        for arg in (args.vararg, args.kwarg):
            if arg is not None:
                self._bind(inner, arg.arg, ("unknown",))
        if isinstance(node, ast.Lambda):
            self._visit(node.body, inner)
            return True
        for decorator in node.decorator_list:
            self._visit(decorator, scope)
        if node.returns is not None:
            self._visit(node.returns, scope)
        self._bind(scope, node.name, ("def", node, scope))
        for stmt in node.body:
            self._visit(stmt, inner)
        return True

    def _comprehension(self, node, scope: _Scope) -> bool:
        inner = self.bodies[id(node)] = _Scope(scope)
        for i, gen in enumerate(node.generators):
            outer = scope if i == 0 else inner  # where its iterable is read
            self._visit(gen.iter, outer)
            self._target(gen.target, ("iter", gen.iter, outer), inner)
            for cond in gen.ifs:
                self._visit(cond, inner)
        for part in ("elt", "key", "value"):
            if hasattr(node, part):
                self._visit(getattr(node, part), inner)
        return True

    def _visit(self, node, scope: _Scope) -> None:
        """Record what *node* binds and uses, then visit its children; a
        handler that returns True visited them itself."""
        handler = self._HANDLERS.get(type(node))
        if handler is not None and handler(self, node, scope):
            return
        for field in _FIELDS[type(node)]:
            value = getattr(node, field)
            if type(value) is list:
                for item in value:
                    if isinstance(item, ast.AST):
                        self._visit(item, scope)
            elif isinstance(value, ast.AST):
                self._visit(value, scope)

    def _on_class(self, node: ast.ClassDef, scope: _Scope) -> bool:
        for part in [*node.decorator_list, *node.bases, *node.keywords]:
            self._visit(part, scope)
        body = self.bodies[id(node)] = _Scope(scope, name=node.name, node=node)
        if scope.parent is None and scope.name in self.indexed:
            self.classes[node.name] = (node, body)
            self._bind(scope, node.name, ("class", node.name))
        else:
            self._bind(scope, node.name, ("local", node, scope))
        for stmt in node.body:
            self._visit(stmt, body)
        return True

    def _on_assign(self, node: ast.Assign, scope: _Scope) -> None:
        for target in node.targets:
            self._target(target, ("value", node.value, scope), scope)
            if isinstance(target, ast.Subscript):
                self._mutate(target.value, scope)

    def _on_annotated(self, node: ast.AnnAssign, scope: _Scope) -> None:
        if isinstance(node.target, ast.Name):
            scope.declared[node.target.id] = node.annotation
            scope.names.setdefault(node.target.id, [])
        else:
            binding = ("annotation", node.annotation, scope.module)
            self._target(node.target, binding, scope)

    def _on_augmented(self, node: ast.AugAssign, scope: _Scope) -> None:
        self._mutate(node.target, scope)
        if isinstance(node.target, ast.Name):
            self._bind(scope, node.target.id, ("unknown",))

    def _on_for(self, node, scope: _Scope) -> None:
        self._target(node.target, ("iter", node.iter, scope), scope)

    def _on_with(self, node, scope: _Scope) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                binding = ("enter", item.context_expr, scope)
                self._target(item.optional_vars, binding, scope)

    def _on_walrus(self, node: ast.NamedExpr, scope: _Scope) -> None:
        self._target(node.target, ("value", node.value, scope), scope)

    def _on_except(self, node: ast.ExceptHandler, scope: _Scope) -> None:
        if node.name:
            self._bind(scope, node.name, ("unknown",))

    def _on_import(self, node: ast.Import, scope: _Scope) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            dotted = alias.name if alias.asname else name
            self._bind(scope, name, ("import", dotted, scope))

    def _on_import_from(self, node: ast.ImportFrom, scope: _Scope) -> None:
        for alias in node.names:
            binding = ("from", node.module, alias.name, scope)
            self._bind(scope, alias.asname or alias.name, binding)
            if alias.name in self.function_names:
                self.sites.append(("import", binding))

    def _on_global(self, node, scope: _Scope) -> None:
        """A ``global`` / ``nonlocal`` name is bound where this scope cannot
        see: unknown here and in every scope it may be bound in."""
        outer = scope.module if isinstance(node, ast.Global) else scope.parent
        for name in node.names:
            self._bind(scope, name, ("unknown",))
            while outer is not None:
                self._bind(outer, name, ("unknown",))
                outer = None if isinstance(node, ast.Global) else outer.parent

    def _on_attribute(self, node: ast.Attribute, scope: _Scope) -> bool:
        read = type(node.ctx) is ast.Load
        self.sites.append(("attr", node.attr, read, node.value, scope))
        self._visit(node.value, scope)
        return True

    def _on_name(self, node: ast.Name, scope: _Scope) -> bool:
        if node.id in self.function_names and type(node.ctx) is ast.Load:
            self.sites.append(("name", node.id, scope))
        return True

    def _on_call(self, node: ast.Call, scope: _Scope) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            self._mutate(func.value, scope)
        if (
            isinstance(func, ast.Name) and func.id in _ACCESSORS
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            read = func.id != "setattr"
            site = ("attr", node.args[1].value, read, node.args[0], scope)
            self.sites.append(site)
            if not read and len(node.args) > 2:
                stored = (("value", node.args[2], scope), node.args[0], scope)
                self.stored.setdefault(node.args[1].value, []).append(stored)

    def _on_constant(self, node: ast.Constant, scope: _Scope) -> bool:
        if isinstance(node.value, str) and _BOUND.match(node.value):
            self.sites.append(("bound", node.value))
        return True

    _HANDLERS = {
        ast.FunctionDef: _function, ast.AsyncFunctionDef: _function,
        ast.Lambda: _function, ast.ClassDef: _on_class,
        ast.ListComp: _comprehension, ast.SetComp: _comprehension,
        ast.GeneratorExp: _comprehension, ast.DictComp: _comprehension,
        ast.Assign: _on_assign, ast.AnnAssign: _on_annotated,
        ast.AugAssign: _on_augmented, ast.For: _on_for, ast.AsyncFor: _on_for,
        ast.With: _on_with, ast.AsyncWith: _on_with, ast.NamedExpr: _on_walrus,
        ast.ExceptHandler: _on_except, ast.Import: _on_import,
        ast.ImportFrom: _on_import_from, ast.Global: _on_global,
        ast.Nonlocal: _on_global, ast.Attribute: _on_attribute,
        ast.Name: _on_name, ast.Call: _on_call, ast.Constant: _on_constant,
    }

    # -- phase 2: types -----------------------------------------------------

    def _lookup(self, scope: _Scope, name: str):
        while scope is not None:
            if name in scope.names or name in scope.declared:
                return self._local(scope, name)
            scope = scope.parent
        return ("builtin", name) if name in _BUILTIN_NAMES else None

    def _local(self, scope: _Scope, name: str):
        memo = scope.memo
        if name in memo:
            return memo[name]
        memo[name] = None  # a binding that depends on itself is unknown
        if name in scope.declared:
            t = self._annotation(scope.declared[name], scope.module)
        else:
            t = _join(self._binding(b, name) for b in scope.names[name])
            if t == _NONE:  # bound to nothing but None here: rebound unseen
                t = None
        memo[name] = t
        return t

    def _binding(self, b: tuple, name: str = ""):
        """The type binding *b* gives *name*.  A container built here (a
        literal, a comprehension) holds what it was built with only while
        nothing adds to it: bound to a name something mutates
        (:attr:`mutated`), its items are unknown."""
        kind = b[0]
        if kind == "value":
            t = self._infer(b[1], b[2])
            if name in self.mutated and isinstance(b[1], _BUILT):
                return ("map", None, None) if t[0] == "map" else ("seq", None)
            return t
        if kind == "iter":
            return _element(self._infer(b[1], b[2]))
        if kind == "item":
            t = self._binding(b[1])
            if t is not None and t[0] == "tuple":
                return t[1][b[2]] if b[2] < len(t[1]) else None
            return _element(t) if t is not None and t[0] == "seq" else None
        if kind == "annotation":
            return self._annotation(b[1], b[2])
        if kind == "enter":
            t = self._infer(b[1], b[2])
            return t[1] if t is not None and t[0] == "cm" else None
        if kind == "def":
            return ("funcs", ((b[1], b[2]),))
        if kind == "class":
            return ("class", b[1])
        if kind == "local":
            return ("local", b[1], b[2])
        if kind == "self":
            return self._instance(b[1])
        if kind == "cls":
            name = self._indexed(b[1])
            return ("class", name) if name else None
        if kind == "import":
            return self._module(b[1], b[2])
        if kind == "from":
            return self._from(b[1], b[2], b[3])
        return None

    def _may_be(self, t, body: _Scope) -> bool:
        """A value of type *t* may be an instance of the class *body*."""
        if t is None or t[0] == "object":
            return t is None or t[1] is body
        return self._indexed(body) in self._credits(t)

    def _plain(self, body: _Scope) -> bool:
        """The class derives from indexed classes only, with no metaclass:
        its class-body names are what they are bound to."""
        node = body.node
        if node.keywords:
            return False
        for base in node.bases:
            t = self._infer(base, body.parent)
            if t is None or t[0] != "class":
                return False
            if not self._plain(self.classes[t[1]][1]):
                return False
        return True

    def _indexed(self, body: _Scope):
        """The name of the indexed class whose body *body* is, or None."""
        entry = self.classes.get(body.name)
        return body.name if entry is not None and entry[1] is body else None

    def _instance(self, body: _Scope):
        """An instance of the class whose body is *body*: an indexed one is
        itself; another class counts for none when it derives from nothing
        indexed and forwards no attribute (``__getattr__``), else unknown."""
        name = self._indexed(body)
        if name is not None:
            return ("inst", frozenset({name}))
        return self._local_instance(body.node, body.parent)

    def _local_instance(self, node: ast.ClassDef, scope: _Scope):
        """An instance of a class the index does not hold: one that derives
        from nothing but stdlib classes and forwards no attribute
        (``__getattr__``) is ``("object", body)``, which counts for no
        indexed class; any other is unknown."""
        if "__getattr__" in {getattr(s, "name", None) for s in node.body}:
            return None
        for base in node.bases:
            t = self._infer(base, scope)
            if t is None or t[0] not in ("fname", "builtin"):
                return None
        return ("object", self.bodies[id(node)])

    def _walked(self, dotted: str, scope: _Scope):
        """The walked module an import of *dotted* in *scope* loads: by its
        dotted name, or a sibling of the importer (a script's directory is
        on its path), or None."""
        if dotted in self.modules:
            return dotted
        sibling = f"{scope.module.name.rpartition('.')[0]}.{dotted}"
        return sibling if sibling in self.modules else None

    def _module(self, dotted: str, scope: _Scope):
        walked = self._walked(dotted, scope)
        if walked is not None:
            return ("module", walked)
        return ("fmod", dotted) if _foreign_module(dotted) else None

    def _from(self, module, name, scope: _Scope):
        if module is None:
            return None
        walked = self._walked(f"{module}.{name}", scope)
        if walked is not None:
            return ("module", walked)
        module = self._walked(module, scope) or module
        if module in self.modules:
            if module in MODULES:
                module = _defining_module(module, name)
            scope = self.modules.get(module)
            if scope is None or not (
                name in scope.names or name in scope.declared
            ):
                return None
            return self._local(scope, name)
        if _foreign_module(module):
            return ("fname", f"{module}.{name}")
        return None

    def _infer(self, node, scope: _Scope):
        if isinstance(node, ast.Name):
            return self._lookup(scope, node.id)
        if isinstance(node, ast.Attribute):
            return self._attribute(self._infer(node.value, scope), node.attr)
        if isinstance(node, ast.Call):
            return self._call(node, scope)
        if isinstance(node, ast.Subscript):
            return self._subscript(self._infer(node.value, scope), node.slice)
        if isinstance(node, ast.Await):
            t = self._infer(node.value, scope)
            return t[1] if t is not None and t[0] == "coro" else None
        if isinstance(node, ast.IfExp):
            return _join(
                self._infer(e, scope) for e in (node.body, node.orelse)
            )
        if isinstance(node, ast.BoolOp):
            return _join(self._infer(v, scope) for v in node.values)
        if isinstance(node, ast.NamedExpr):
            return self._infer(node.value, scope)
        if isinstance(node, ast.Constant):
            return _NONE if node.value is None else _FOREIGN
        if isinstance(node, (ast.JoinedStr, ast.Compare)):
            return _FOREIGN
        if isinstance(node, ast.Tuple):
            return ("tuple", tuple(self._infer(e, scope) for e in node.elts))
        if isinstance(node, (ast.List, ast.Set)):
            if not node.elts:
                return ("seq", None)  # what is added to it decides
            return ("seq", _join(self._infer(e, scope) for e in node.elts))
        if isinstance(node, ast.Dict):
            if not node.keys or None in node.keys:
                return ("map", None, None)
            return ("map", _join(self._infer(k, scope) for k in node.keys),
                    _join(self._infer(v, scope) for v in node.values))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return ("seq", self._infer(node.elt, self.bodies[id(node)]))
        if isinstance(node, ast.DictComp):
            inner = self.bodies[id(node)]
            key = self._infer(node.key, inner)
            return ("map", key, self._infer(node.value, inner))
        return None

    def _attribute(self, t, name: str):
        if t is None:
            return None
        kind = t[0]
        if kind == "inst":
            return self._member(t[1], name)
        if kind == "class":
            return self._member(frozenset({t[1]}), name)
        if kind == "object":
            found = self._definitions(t[1], name)
            t = _join(found) if found else None
            return None if t == _NONE else t
        if kind == "module":
            return self._from(t[1], name, self.modules[t[1]])
        if kind in ("fmod", "fname"):
            return ("fname", f"{t[1]}.{name}")
        if kind in _INERT:
            return ("cmethod", t, name)
        return None

    def _member(self, names: frozenset, name: str):
        """The type of attribute *name* on an instance of *names*: every
        definition of it in their bases and subclasses, joined."""
        key = (names, name)
        if key in self.memo:
            return self.memo[key]
        self.memo[key] = None
        classes = set().union(*(self.credit(n) for n in names))
        found = [
            t for cls in sorted(classes)
            for t in self._definitions(self.classes[cls][1], name)
        ]
        t = _join(found) if found else None
        self.memo[key] = None if t == _NONE else t
        return self.memo[key]

    def _definitions(self, body: _Scope, name: str) -> List[object]:
        """The types of attribute *name* as the class whose body is *body*
        defines it: a method, a property, a class-level name, a field or a
        ``self.name = ...``, where an annotation wins over the values
        assigned.  Empty where the class does not define it."""
        key = ("defined", id(body), name)
        if key in self.memo:
            return self.memo[key]
        self.memo[key] = [None]  # a definition that depends on itself
        found = []
        if name in body.declared:
            found.append(self._annotation(body.declared[name], body.module))
        for b in body.names.get(name, ()):
            decorators = _decorators(b[1]) if b[0] == "def" else set()
            if decorators & {"setter", "deleter"}:
                continue
            if decorators & {"property", "cached_property"}:
                found.append(self._returns(b[1], b[2], called=False))
            elif b[0] == "value" and not self._plain(body):
                found.append(None)  # an Enum's members are not their values
            else:
                found.append(self._binding(b, name))
        assigned = body.attrs.get(name, ())
        annotated = [b for b in assigned if b[0] == "annotation"]
        found.extend(self._binding(b, name) for b in annotated or assigned)
        if found:  # what code outside the class stores on its instances
            found.extend(
                self._binding(b, name)
                for b, receiver, scope in self.stored.get(name, ())
                if self._may_be(self._infer(receiver, scope), body)
            )
        self.memo[key] = found
        return found

    def _returns(self, fn, scope: _Scope, called: bool = True):
        """What calling *fn* (defined in *scope*) returns, by its
        annotation; ``None`` past a decorator that may change it."""
        key = ("returns", id(fn), called)
        if key in self.memo:
            return self.memo[key]
        self.memo[key] = None
        decorators = _decorators(fn) - {"property", "cached_property"}
        if fn.returns is None or decorators - _TRANSPARENT:
            return None
        t = self._annotation(fn.returns, scope.module)
        if decorators & {"contextmanager", "asynccontextmanager"}:
            t = ("cm", _element(t))
        elif called and isinstance(fn, ast.AsyncFunctionDef):
            generator = any(
                isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(fn)
            )
            t = None if generator else ("coro", t)
        self.memo[key] = t
        return t

    def _call(self, node: ast.Call, scope: _Scope):
        f = self._infer(node.func, scope)
        if f is None:
            return None
        kind = f[0]
        if kind == "class":
            return ("inst", frozenset({f[1]}))
        if kind == "local":
            return self._local_instance(f[1], f[2])
        if kind == "funcs":
            return _join(self._returns(fn, s) for fn, s in f[1])
        if kind == "fname":
            return _FOREIGN if _FOREIGN_CALLS.match(f[1]) else None
        if kind == "cmethod":
            return self._container_call(f[1], f[2], node, scope)
        if kind == "builtin":
            name, args = f[1], node.args
            if name in _FOREIGN_BUILTINS:
                return _FOREIGN
            items = [_element(self._infer(a, scope)) for a in args]
            if name in _BUILTIN_SEQUENCES:
                return ("seq", items[0] if items else None)
            if name in ("list", "set", "sorted"):
                return ("seq", None)
            if name == "dict":
                return ("map", None, None)
            if name == "enumerate" and items:
                return ("seq", ("tuple", (_FOREIGN, items[0])))
            if name == "zip":
                return ("seq", ("tuple", tuple(items)))
            if name == "next" and len(items) == 1:
                return items[0]
            if name == "super" and not args:
                while scope is not None and scope.owner is None:
                    scope = scope.parent
                return None if scope is None else self._instance(scope.owner)
        return None

    def _container_call(self, t, name: str, node: ast.Call, scope: _Scope):
        if t[0] == "map":
            if name in ("get", "pop", "setdefault"):
                default = node.args[1:2]
                extra = [self._infer(default[0], scope)] if default else []
                return _join([t[2], *extra])
            if name == "values":
                return ("seq", t[2])
            if name == "keys":
                return ("seq", t[1])
            if name == "items":
                return ("seq", ("tuple", (t[1], t[2])))
            if name == "copy":
                return t
        elif t[0] == "seq":
            if name == "pop":
                return t[1]
            if name == "copy":
                return t
        elif name == "copy":  # a str, a hash object: the same kind again
            return t
        return None

    def _subscript(self, t, index):
        if t is None:
            return None
        if t[0] == "seq":
            return t if isinstance(index, ast.Slice) else t[1]
        if t[0] == "map":
            return t[2]
        if t[0] == "tuple":
            i = getattr(index, "value", None)
            if isinstance(index, ast.Constant) and isinstance(i, int):
                return t[1][i] if -len(t[1]) <= i < len(t[1]) else None
            return None if isinstance(index, ast.Slice) else _join(t[1])
        return None

    def _annotation(self, node, module: _Scope):
        """The type an annotation names, read in *module*'s namespace."""
        key = ("ann", id(node))
        if key not in self.memo:
            self.memo[key] = None
            self.memo[key] = self._read_annotation(node, module)
        return self.memo[key]

    def _typing_name(self, node, module: _Scope):
        """The bare name of a typing, collections or builtin generic
        *node* refers to (``Dict``, ``OrderedDict``, ``list``), or None."""
        t = self._infer(node, module)
        if t is None:
            return None
        if t[0] == "builtin":
            return t[1]
        if t[0] == "fname" and t[1].rsplit(".", 1)[0] in _TYPING:
            return _last(t[1])
        return None

    def _read_annotation(self, node, module: _Scope):
        if isinstance(node, ast.Constant):
            if node.value is None:
                return _NONE
            if isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval").body
                except SyntaxError:
                    return None
                return self._annotation(parsed, module)
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            sides = (node.left, node.right)
            return _join(self._annotation(side, module) for side in sides)
        if isinstance(node, ast.Subscript):
            head = self._typing_name(node.value, module)
            inner = node.slice
            args = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            types = [self._annotation(a, module) for a in args]
            if head in ("Optional", "Union"):
                return _join(types)
            if head in ("ClassVar", "Final"):
                return types[0]
            if head in _SEQUENCES:
                return ("seq", types[0])
            if head in _MAPPINGS:
                if len(types) != 2:
                    return ("map", None, None)
                return ("map", types[0], types[1])
            if head in ("Tuple", "tuple"):
                if getattr(args[-1], "value", None) is Ellipsis:
                    return ("seq", types[0])
                return ("tuple", tuple(types))
            named = types[0]
            if head == "Type" and named and named[0] == "inst":
                (name,) = named[1] if len(named[1]) == 1 else (None,)
                return ("class", name) if name else None
            return None
        if not isinstance(node, (ast.Name, ast.Attribute)):
            return None
        alias = self._alias(node, module)
        if alias is not None:
            return self._annotation(*alias)
        t = self._infer(node, module)
        if t is None:
            return None
        if t[0] == "class":
            return ("inst", frozenset({t[1]}))
        if t[0] == "local":
            return self._local_instance(t[1], t[2])
        name = self._typing_name(node, module)
        if name in _SEQUENCES or name in ("Tuple", "tuple"):
            return ("seq", None)
        if name in _MAPPINGS:
            return ("map", None, None)
        if t[0] not in ("fname", "builtin"):
            return None
        named = _runtime(t)
        if named in (object, type) or isinstance(named, type) and any(
            issubclass(base, named) for base in self._foreign_bases()
        ):
            return None  # an indexed instance may be one
        return _FOREIGN  # a stdlib name no indexed class derives from

    def _alias(self, node, module: _Scope):
        """``(expression, module)`` where *node* names a module-level type
        alias (``Provisioner = Union[...]``), followed through imports."""
        if not isinstance(node, ast.Name):
            return None
        bindings = module.names.get(node.id, ())
        if len(bindings) != 1:
            return None
        b = bindings[0]
        if b[0] == "value" and isinstance(b[1], (ast.Subscript, ast.BinOp)):
            return b[1], module
        if b[0] == "from" and b[1] is not None:
            source = self._walked(b[1], module)
            if source is not None:
                return self._alias(ast.Name(b[2]), self.modules[source])
        return None

    def _foreign_bases(self) -> List[type]:
        """The non-indexed classes an indexed class derives from: an
        annotation naming one of them, or a base of one, may hold an
        indexed instance."""
        if "foreign_bases" not in self.memo:
            self.memo["foreign_bases"] = [
                base
                for node, body in self.classes.values()
                for base in map(_runtime, (
                    self._infer(b, body.parent) for b in node.bases
                ))
                if isinstance(base, type)
            ]
        return self.memo["foreign_bases"]

    # -- crediting ----------------------------------------------------------

    def _bases(self, name: str) -> List[str]:
        """*name* and every indexed class it derives from."""
        key = ("bases", name)
        if key not in self.memo:
            self.memo[key] = [name]
            node, body = self.classes[name]
            found = [name]
            for base in node.bases:
                t = self._infer(base, body.parent)
                if t is not None and t[0] == "class":
                    found += [b for b in self._bases(t[1]) if b not in found]
            self.memo[key] = found
        return self.memo[key]

    def credit(self, name: str) -> Set[str]:
        """The classes a use on an instance of *name* counts for: it and
        its subclasses, and every base of each (a method a mixin calls on
        ``self`` may be a sibling base's)."""
        key = ("credit", name)
        if key not in self.memo:
            self.memo[key] = {
                base
                for other in self.classes
                if name in self._bases(other)
                for base in self._bases(other)
            }
        return self.memo[key]

    def _credits(self, t) -> Set[str]:
        if t is None:
            return {"*"}
        if t[0] == "inst":
            return set().union(*(self.credit(n) for n in t[1]))
        if t[0] == "class":
            return self.credit(t[1])
        if t[0] == "local" and self._local_instance(t[1], t[2]) is None:
            return {"*"}
        return set()

    def _count(self, name: str, credits: Set[str], read: bool) -> None:
        self.uses.setdefault(name, set()).update(credits)
        if read:
            self.reads.setdefault(name, set()).update(credits)

    def _count_functions(self, t) -> None:
        """Credit each module-level function *t* resolves to, to its
        module."""
        for fn, where in t[1] if t is not None and t[0] == "funcs" else ():
            if where.parent is None:
                self._count(fn.name, {where.name}, True)

    def _resolve(self, kind, *site) -> None:
        if kind == "attr":
            name, read, receiver, scope = site
            t = self._infer(receiver, scope)
            if t is not None and t[0] == "module":  # ``module.function``
                self._count_functions(self._attribute(t, name))
            else:
                self._count(name, self._credits(t), read)
        elif kind == "name":
            self._count_functions(self._lookup(site[1], site[0]))
        elif kind == "import":
            self._count_functions(self._binding(site[0]))
        elif kind == "bound":
            module, path = site[0].split(":", 1)
            owner, _, member = path.rpartition(".")
            if not owner:
                credits = {module}
            elif owner in self.classes:
                credits = self.credit(owner)
            else:
                credits = {"*"}
            self._count(member, credits, True)

    def _follow_aliases(self) -> None:
        """A class-body alias (``update = add_many``) uses its target for
        the class only where the alias is itself used for it; a dunder
        alias (``__contains__ = contains``) always is, by the interpreter."""
        aliases = [
            (cls, alias, b[1].id)
            for cls, (node, body) in self.classes.items()
            for alias, bindings in body.names.items()
            for b in bindings
            if b[0] == "value" and isinstance(b[1], ast.Name)
            and b[1].id in body.names
        ]
        changed = True
        while changed:
            changed = False
            for cls, alias, target in aliases:
                aliased = alias.startswith("__") or self.used(cls, alias)
                if aliased and cls not in self.uses.get(target, ()):
                    self._count(target, {cls}, True)
                    changed = True

    def used(self, owner: str, name: str, reads: bool = False) -> bool:
        credits = (self.reads if reads else self.uses).get(name, ())
        return "*" in credits or owner in credits


@functools.lru_cache(maxsize=None)
def _receivers() -> _Receivers:
    """The inference over every file in :data:`CALLERS`, ``src/repro``
    indexed."""
    modules = {
        ".".join(_dotted(path.relative_to(REPO))): _tree(path)
        for tree in CALLERS[1:]
        for path in sorted((REPO / tree).rglob("*.py"))
    }
    modules.update((module, _tree(path)) for module, path in MODULES.items())
    return _Receivers(modules, set(MODULES))


#: the classes the receiver cases of :func:`test_only_real_uses_count` use
_CASES = """
from typing import Dict, Optional, Sequence

class Filter:
    def contains_many(self, keys): ...
    def add_many(self, keys): ...
    update = add_many

class Item:
    expires_at: float

class Response: ...

class Cluster:
    def get(self, key) -> Response: ...

class Store:
    def __init__(self):
        self.items: "Dict[str, Item]" = {}
        self.digests: Dict[int, Filter] = {}
    def get_many(self, keys) -> Dict[str, Item]: ...
    def item(self) -> "Item": ...
    def check(self): ...

class Sub(Store): ...

def helper(): ...
"""


def test_only_real_uses_count():
    """The rule gates 4 and 5 apply, on source strings: the names a source
    uses, each with the classes (a function: its module) the use counts
    for — ``"*"``, every one, where the receiver is unknown."""
    def uses(source: str, reads: bool = False) -> Dict[str, Set[str]]:
        receivers = _Receivers({"m": ast.parse(source)}, {"m"})
        return receivers.reads if reads else receivers.uses

    def used(source: str, owner: str, name: str) -> bool:
        source = _CASES + source
        return _Receivers({"m": ast.parse(source)}, {"m"}).used(owner, name)

    def counted(source: str, name: str) -> Set[str]:
        return uses(_CASES + source)[name]

    # what is a use at all
    assert "pct" not in uses("def f(pct):\n    rank = pct\n    return rank")
    assert "pct" not in uses("pct = 99.9\nprint(pct)")
    assert uses("x.pct()")["pct"] == {"*"}
    assert "pct" in uses("getattr(x, 'pct')")
    assert "pct" not in uses("class C:\n    __slots__ = ('pct',)")
    assert "pct" not in uses("d = {'pct': 1}")
    assert "pct" in uses("bind('repro.m:C.pct')")
    assert uses("x.pct = 1\nsetattr(x, 'rank', 2)", reads=True) == {}
    assert set(uses("x.pct = 1\nsetattr(x, 'rank', 2)")) == {"pct", "rank"}
    # the receivers that resolve, and count for their class, its bases
    # and its subclasses
    assert counted("class A(Store):\n    def f(self):\n        self.check()",
                   "check") == {"A", "Store"}
    store = {"Store", "Sub"}
    assert counted("def f(s: Store):\n    s.check()", "check") == store
    assert counted("def f(s: Sub):\n    s.check()", "check") == store
    assert counted("def f(s: Optional['Store']):\n    s.check()",
                   "check") == store
    assert counted("s = Store()\ns.check()", "check") == {"Store", "Sub"}
    assert counted("Store().item().expires_at", "expires_at") == {"Item"}
    assert counted("def f(items: Sequence[Item]):\n    items[0].expires_at",
                   "expires_at") == {"Item"}
    assert counted("Store().get_many([]).get('k').expires_at",
                   "expires_at") == {"Item"}
    assert counted("for item in Store().items.values():\n    item.expires_at",
                   "expires_at") == {"Item"}
    assert counted("Store().digests.get(0).contains_many([])",
                   "contains_many") == {"Filter"}
    assert used("helper()", "m", "helper")
    # a builtin receiver counts for no class
    assert counted("seen = set()\nseen.update([1])", "update") == set()
    # an alias keeps its target only where the alias is used for its class
    assert not used("", "Filter", "add_many")
    assert not used("seen = set()\nseen.update([1])", "Filter", "add_many")
    assert used("def f(b: Filter):\n    b.update([])", "Filter", "add_many")
    # an unannotated receiver stays unknown, and a bare method name never
    # resolves a call: neither Store.get_many's nor Cluster.get's return
    # type is read off a receiver that may be anything
    assert counted("def f(d, k):\n    d.get(k).contains_many([])",
                   "contains_many") == {"*"}
    assert counted("def f(d):\n    d.get_many([]).get('k').expires_at",
                   "expires_at") == {"*"}
    assert not used("Store().digests.get(0)", "Cluster", "get")


def _overrides_foreign(cls: type, name: str) -> bool:
    """*name* overrides a callback of a base class from outside ``repro``
    (``BufferedProtocol.buffer_updated``): the base's caller calls it."""
    return any(
        name in vars(base)
        for base in cls.__mro__[1:]
        if not base.__module__.startswith("repro")
    )


def _where(module: str, line: int) -> str:
    return f"{MODULES[module].relative_to(REPO)}:{line}"


#: a gated member: ``path:line``, and the class (a function's module) and
#: name a use must be credited to
Member = Tuple[str, str, str]


def _public_methods() -> Dict[str, Member]:
    """``Class.method`` -> where it is for every public method,
    classmethod, staticmethod and property defined in a class under
    ``src/repro`` (a property's setter is the same name), and
    ``module.function`` -> where it is for every public module-level
    function (*module* the last part of its dotted name)."""
    found = {
        key: (_where(module, fn.lineno), module, fn.name)
        for key, (module, fn) in _receivers().functions.items()
    }
    for module, node in _class_defs():
        cls = _classes()[node.name]
        for item in node.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
                and not _overrides_foreign(cls, item.name)
            ):
                found.setdefault(
                    f"{node.name}.{item.name}",
                    (_where(module, item.lineno), node.name, item.name),
                )
    return found


def _audit(
    members: Dict[str, Member], reads: bool, kept: Dict[str, str], verb: str
) -> None:
    """Fail on each member of *members* no use (a read, with *reads*) is
    credited to and *kept* does not list, naming where it is defined, and
    on each entry of *kept* that is gone or now used."""
    receivers = _receivers()
    used = {
        m for m, (_, owner, name) in members.items()
        if receivers.used(owner, name, reads)
    }
    unused = sorted(
        f"{where} {m}" for m, (where, _, _) in members.items()
        if m not in used and m not in kept
    )
    assert not unused, (
        "no code in " + ", ".join(f"{t}/" for t in CALLERS) + f" {verb}:\n"
        + "\n".join(unused)
    )
    stale = sorted(m for m in kept if m not in members or m in used)
    assert not stale, f"the allow-list lists {stale}: drop the entry"


def test_every_public_method_is_called_outside_the_tests():
    """A method only tests call is API nobody runs: delete it, with the
    tests that alone kept it alive, or list it in ``KEPT_METHODS`` with the
    open item that will call it.  A public module-level function is under
    the same rule, a bare-name call or reference, an import or an
    attribute access being its use.  A use counts for the class its
    receiver resolves to (:class:`_Receivers`), that class's bases and its
    subclasses; a use on a receiver the inference cannot resolve counts for
    every class, so a member sharing its name with one used that way still
    slips through.  Those members, audited by grep of :data:`CALLERS`:

    * kept: ``DatabaseCluster.put`` (hidden by the frontends' ``put``,
      which ``tests/simnet`` calls on an unresolved ``web``):
      ``tests/property/test_stateful_transitions.py`` models the
      authoritative write with it, and ROADMAP item 3(a)'s sim twin builds
      on that machine;
    * live: ``AsyncProteusFrontend.put``, ``FetchStats.degraded_events``
      and ``FaultSchedule.servers`` (called on ``tests/simnet``'s
      unresolved stacks), ``BloomFilter.size_bytes`` (a fetched digest in
      ``examples/live_memcached_cluster.py``), ``CacheStats.requests``,
      ``ScheduledFault.active``, and the ``CacheTransport`` methods the
      frontend calls on ``self.transport`` (a bench swaps in a wrapper);
    * gone: ``CacheServer.get`` (the sim tier reads with ``get_many``),
      ``CacheStats.hit_ratio`` and ``MemcachedClient.inflight``."""
    _audit(_public_methods(), False, KEPT_METHODS, "uses")


#: "Class.attribute" -> why it stays though nothing reads it; an entry
#: that gains a reader fails the gate, so this can only shrink
KEPT_ATTRIBUTES = {
    "FetchResult.old_server": (
        "the ring-0 old owner of a remapped key, part of the one result "
        "both substrates return: the sim-vs-live and batch-vs-scalar "
        "parity suites compare it key by key"
    ),
    "FetchResult.probes": (
        "the cache probes a key cost, part of the same result: the parity "
        "suites compare it, and ROADMAP item 5 step 1's gate compares it "
        "sim against live at r = 2"
    ),
}


def _public_attributes() -> Dict[str, Member]:
    """``Class.attribute`` -> ``path:line`` (its first assignment) for
    every public attribute a class under ``src/repro`` assigns on ``self``
    in its body, and every field a dataclass declares."""
    found: Dict[str, Member] = {}
    for module, node in _class_defs():
        first: Dict[str, int] = {}
        if dataclasses.is_dataclass(_classes()[node.name]):
            first.update(
                (item.target.id, item.lineno) for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
            )
        for inner in ast.walk(node):
            if isinstance(inner, ast.Attribute) and isinstance(
                inner.ctx, ast.Store
            ) and getattr(inner.value, "id", None) == "self":
                line = first.get(inner.attr, inner.lineno)
                first[inner.attr] = min(line, inner.lineno)
        found.update(
            (f"{node.name}.{name}", (_where(module, line), node.name, name))
            for name, line in first.items() if not name.startswith("_")
        )
    return found


def test_every_public_attribute_is_read_outside_the_tests():
    """An attribute nothing reads is a counter or a record field kept for
    nobody: delete it with its writes, or list it in ``KEPT_ATTRIBUTES``
    with the reason it stays.  A read is a load (``x.attr``,
    ``getattr(x, "attr")``) anywhere in :data:`CALLERS`, credited as for
    methods; an assignment, ``+=`` and ``setattr`` are not reads.  Audited
    by grep, as for methods, where only unresolved reads keep a shared
    name alive:

    * read: ``HitRatioPoint.hit_ratio`` / ``distinct_keys``,
      ``RunReport.active_series`` / ``failovers``, ``FetchResult.degraded``,
      ``FaultPlan.seed`` (``tests/simnet`` seeds a plan's draws with it)
      and ``ClusterConfig.name`` (``asdict`` writes it out);
    * gone: ``TraceSummary.duration``,
      ``LoadBalanceResult.slot_seconds``, ``Channel.name``,
      ``ServerSpec.name``, ``WebServer.server_id`` (the argument still
      seeds its RNG) and ``FetchResult.key`` (results are keyed by key)."""
    _audit(_public_attributes(), True, KEPT_ATTRIBUTES, "reads")


#: verb -> why the node keeps serving it though no caller sends it; an
#: entry that gains a sender fails the gate, so this can only shrink
KEPT_VERBS: Dict[str, str] = {}

#: where the node reads a command line's verb: ``_dispatch`` branches on
#: it, ``parse_command_line`` accepts it (its storage verbs are the
#: module's ``STORAGE_COMMANDS``)
VERB_READERS = {
    SRC / "repro" / "net" / "server.py": "_dispatch",
    SRC / "repro" / "net" / "protocol.py": "parse_command_line",
}
#: a literal that is a whole command line, or the head of one that the
#: code completes (``"get " + " ".join(keys) + "\r\n"``)
_COMMAND_LINE = re.compile(r"([a-z_]+)(?: [^\r\n]*)?\r\n\Z|([a-z_]+) \Z")


def _verb_comparisons(node: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(verb, line)`` for each string *node* compares ``command`` with:
    ``command == "get"``, ``command in ("stats", "quit")``."""
    for compare in ast.walk(node):
        if not (
            isinstance(compare, ast.Compare)
            and getattr(compare.left, "id", None) == "command"
        ):
            continue
        for constant in ast.walk(compare):
            if isinstance(constant, ast.Constant) and isinstance(
                constant.value, str
            ):
                yield constant.value, constant.lineno


def _accepted_verbs() -> Dict[str, str]:
    """Verb -> ``path:line`` where the node first accepts it."""
    found: Dict[str, str] = {}
    for path, reader in VERB_READERS.items():
        where = path.relative_to(REPO)
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef) and node.name == reader:
                uses = list(_verb_comparisons(node))
            elif isinstance(node, ast.ClassDef):
                uses = [
                    use for item in node.body
                    if getattr(item, "name", None) == reader
                    for use in _verb_comparisons(item)
                ]
            elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "STORAGE_COMMANDS"
                for t in node.targets
            ):
                uses = [
                    (c.value, c.lineno) for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                ]
            else:
                continue
            for verb, line in uses:
                found.setdefault(verb, f"{where}:{line}")
    return found


def _sent_verbs(tree: ast.AST) -> Iterator[str]:
    """The verbs *tree*'s literals send: a str or bytes literal that is
    a command line or its head (:data:`_COMMAND_LINE`), an f-string that
    starts with a verb and a space and ends in CRLF (``f"get {key}\\r\\n"``),
    or a bare bytes verb (``_storage_burst(b"add", ...)``).  Prose — a
    docstring, an ``argparse`` help text — sends nothing."""
    parts = {
        id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
        for part in node.values
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            first, last = node.values[0], node.values[-1]
            if (
                isinstance(first, ast.Constant)
                and isinstance(last, ast.Constant)
                and last.value.endswith("\r\n")
                and (head := re.match(r"([a-z_]+) ", first.value))
            ):
                yield head.group(1)
        elif isinstance(node, ast.Constant) and id(node) not in parts:
            value = node.value
            if isinstance(value, bytes):
                if value.replace(b"_", b"").isalpha():
                    yield value.decode()
                value = value.decode("latin-1")
            if isinstance(value, str) and (
                line := _COMMAND_LINE.match(value)
            ):
                yield line.group(1) or line.group(2)


def test_every_accepted_verb_is_sent_outside_the_tests():
    """The node speaks what the tier sends (ROADMAP item 13): every verb
    ``_dispatch`` or ``parse_command_line`` accepts is sent by some
    command literal in :data:`CALLERS` — the two modules that read verbs
    excluded — or listed in ``KEPT_VERBS``.  A verb nobody sends is
    protocol surface kept for nobody: drop its branch and its parsing,
    and the parser's unknown-command reply answers it."""
    sent = {
        verb
        for tree in CALLERS
        for path in (REPO / tree).rglob("*.py")
        if path not in VERB_READERS
        for verb in _sent_verbs(_tree(path))
    }
    accepted = _accepted_verbs()
    unsent = sorted(
        f"{where} {verb}" for verb, where in accepted.items()
        if verb not in sent and verb not in KEPT_VERBS
    )
    assert not unsent, (
        "no code in " + ", ".join(f"{t}/" for t in CALLERS)
        + " sends:\n" + "\n".join(unsent)
    )
    stale = sorted(v for v in KEPT_VERBS if v not in accepted or v in sent)
    assert not stale, f"KEPT_VERBS lists {stale}: drop the entry"
