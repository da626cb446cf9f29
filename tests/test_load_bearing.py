"""Load-bearing audit: every module is reached from a real entry point,
every package re-export is imported through that package by someone,
every constructor parameter with a default is set by someone, every
public method is used by code that runs, and every public attribute is
read by it — a use being an attribute access, a class-body alias, a
``getattr``-family name or a tracer binding, never a bare name that
happens to match — and every verb the cache node accepts is sent by it.

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
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

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


def _constant(path: Path, name: str, default):
    """The literal value of *path*'s module-level ``name = ...``, or
    *default*."""
    for node in ast.parse(path.read_text()).body:
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


def _modules() -> Dict[str, Path]:
    """Dotted name -> file for everything under ``src/repro``."""
    found = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


MODULES = _modules()
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


def _imports(source: str) -> Iterator[Tuple[str, str]]:
    """``(module, name)`` for every import statement in *source*, at any
    nesting depth; *name* is ``""`` for a plain ``import module``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ""
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "src/repro uses absolute imports only"
            for alias in node.names:
                yield node.module, alias.name


@functools.lru_cache(maxsize=None)
def _file_imports(path: Path) -> Tuple[Tuple[str, str], ...]:
    return tuple(_imports(path.read_text()))


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
                found.extend(_imports(snippet))
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
        for node in ast.parse(path.read_text()).body:
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
    tree = ast.parse(path.read_text())
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
    for node in ast.walk(ast.parse(path.read_text())):
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

#: "Class.method" -> the open ROADMAP item that will call it; an entry that
#: gains a caller fails the gate, so this can only shrink
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
}


def _names(source: str) -> Iterator[Tuple[str, bool]]:
    """Every member use in *source*, and whether it reads the member.

    A use is an attribute access ``x.name`` (a read unless it is assigned
    to, ``+=`` included), a class-body alias such as ``update = add_many``,
    the second argument of ``getattr`` / ``hasattr`` / ``setattr`` (only
    ``setattr`` writes), and the member of a ``"module:Class.member"``
    string the e2e tracer binds.  A bare name (a parameter, a local), a
    dict-key string and a ``__slots__`` entry are not uses."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            yield node.attr, isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.Assign) and isinstance(
                    item.value, ast.Name
                ):
                    yield item.value.id, True
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in _ACCESSORS
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            yield node.args[1].value, node.func.id != "setattr"
        elif (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and _BOUND.match(node.value)
        ):
            yield node.value.rsplit(".", 1)[-1], True


def test_only_real_uses_count():
    """The rule gates 4 and 5 apply, on source strings."""
    def uses(source: str) -> Set[str]:
        return {name for name, _ in _names(source)}

    assert "pct" not in uses("def f(pct):\n    rank = pct\n    return rank")
    assert "pct" not in uses("pct = 99.9\nprint(pct)")
    assert "pct" in uses("x.pct()")
    assert "add_many" in uses("class C:\n    update = add_many")
    assert "pct" in uses("getattr(x, 'pct')")
    assert "pct" not in uses("class C:\n    __slots__ = ('pct',)")
    assert "pct" not in uses("d = {'pct': 1}")
    assert "pct" in uses("bind('repro.m:C.pct')")
    assert dict(_names("x.pct = 1\nsetattr(x, 'rank', 2)")) == {
        "pct": False, "rank": False,
    }


@functools.lru_cache(maxsize=None)
def _referenced(reads_only: bool) -> Set[str]:
    return {
        name
        for tree in CALLERS
        for path in (REPO / tree).rglob("*.py")
        for name, read in _names(path.read_text())
        if read or not reads_only
    }


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


def _public_methods() -> Dict[str, str]:
    """``Class.method`` -> ``path:line`` for every public method,
    classmethod, staticmethod and property defined in a class under
    ``src/repro`` (a property's setter is the same name)."""
    found = {}
    for module, node in _class_defs():
        cls = _classes()[node.name]
        for item in node.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
                and not _overrides_foreign(cls, item.name)
            ):
                member = f"{node.name}.{item.name}"
                found.setdefault(member, _where(module, item.lineno))
    return found


def _audit(
    members: Dict[str, str], names: Set[str], kept: Dict[str, str], verb: str
) -> None:
    """Fail on each ``Class.member`` of *members* whose name is not in
    *names* and not in *kept*, naming where it is defined, and on each
    entry of *kept* that is gone or whose name now is."""
    unused = sorted(
        f"{where} {m}" for m, where in members.items()
        if m.rsplit(".", 1)[1] not in names and m not in kept
    )
    assert not unused, (
        "no code in " + ", ".join(f"{t}/" for t in CALLERS) + f" {verb}:\n"
        + "\n".join(unused)
    )
    stale = sorted(
        m for m in kept if m not in members or m.rsplit(".", 1)[1] in names
    )
    assert not stale, f"the allow-list lists {stale}: drop the entry"


def test_every_public_method_is_called_outside_the_tests():
    """A method only tests call is API nobody runs: delete it, with the
    tests that alone kept it alive, or list it in ``KEPT_METHODS`` with the
    open item that will call it.  Matching is by name (:func:`_names`), so
    an overridden method is used with its base's, and a method sharing a
    name with a live one slips through.  Audited by hand for that, by grep
    of :data:`CALLERS`:

    * gone: ``DatabaseCluster.reset``, ``DatabaseShard.reset`` and
      ``ServiceQueue.reset`` (the controller's ``reset``),
      ``DatabaseShard.queue_delay`` and ``ServiceQueue.delay``
      (``FaultPlan.delay``), ``EventLoop.schedule`` / ``run`` and
      ``EventHandle.cancel`` / ``cancelled`` (asyncio's),
      ``ProvisioningSchedule.transitions`` / ``duration``
      (``RunReport``'s), ``HotKeyCache.clear`` (every ``dict.clear``),
      ``ServerPowerModel.efficiency`` (``ServerSpec.efficiency``'s),
      ``Deadline.expires_at`` (``CacheItem.expires_at``'s) and
      ``Deadline.check`` (``TransitionManager.check``'s);
      before them the client's ``prepend`` / ``decr`` / ``touch`` /
      ``version`` / ``add`` / ``append``, ``HotKeyArmor.observe`` and
      ``CountMinSketch.memory_bytes``.  The node's own ``version`` /
      ``append`` and the other verbs no client sends went with their
      branches (gate 6 below), and ``KeyValueStore.touch`` with its
      one caller, the node's ``touch``;
    * kept: ``DatabaseCluster.put`` / ``DatabaseShard.put`` and
      ``DatabaseShard.dataset`` (the engine's ``put`` hides them):
      ``tests/property/test_stateful_transitions.py`` models the
      authoritative write with them, and ROADMAP item 3(a)'s sim twin
      builds on that machine."""
    _audit(
        _public_methods(), _referenced(reads_only=False), KEPT_METHODS,
        "uses",
    )


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


def _public_attributes() -> Dict[str, str]:
    """``Class.attribute`` -> ``path:line`` (its first assignment) for
    every public attribute a class under ``src/repro`` assigns on ``self``
    in its body, and every field a dataclass declares."""
    found: Dict[str, str] = {}
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
            (f"{node.name}.{name}", _where(module, line))
            for name, line in first.items() if not name.startswith("_")
        )
    return found


def test_every_public_attribute_is_read_outside_the_tests():
    """An attribute nothing reads is a counter or a record field kept for
    nobody: delete it with its writes, or list it in ``KEPT_ATTRIBUTES``
    with the reason it stays.  A read is a load by :func:`_names`
    (``x.attr``, ``getattr(x, "attr")``) anywhere in :data:`CALLERS`; an
    assignment, ``+=`` and ``setattr`` are not reads.  Matching is by
    name, as for methods."""
    _audit(
        _public_attributes(), _referenced(reads_only=True), KEPT_ATTRIBUTES,
        "reads",
    )


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
        for node in ast.parse(path.read_text()).body:
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


def _sent_verbs(source: str) -> Iterator[str]:
    """The verbs *source*'s literals send: a str or bytes literal that is
    a command line or its head (:data:`_COMMAND_LINE`), an f-string that
    starts with a verb and a space and ends in CRLF (``f"get {key}\\r\\n"``),
    or a bare bytes verb (``_storage_burst(b"add", ...)``).  Prose — a
    docstring, an ``argparse`` help text — sends nothing."""
    tree = ast.parse(source)
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
        for verb in _sent_verbs(path.read_text())
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
