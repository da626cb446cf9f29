"""Load-bearing audit: every module is reached from a real entry point,
every package re-export is imported through that package by someone, and
every config field is set by someone.

ROADMAP aim 2: a module survives only if a paper figure, a CI gate or a
live code path needs it.  The roots are the things a user or CI actually
runs — the CLI, the standalone server, every bench (``benchmarks/e2e``
included) and every example — and never ``tests/``: a module only its own
tests import is not load-bearing.  The walk is a static ``ast`` pass, so
it costs nothing and cannot be fooled by import side effects; there is no
allow-list, on purpose.
"""

import ast
import dataclasses
import functools
import re
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

import pytest

from repro.config import ClusterConfig
from repro.core.retrieval import RetrievalConfig
from repro.experiments.autopilot import AutopilotConfig
from repro.experiments.cluster import ExperimentConfig
from repro.experiments.failover import FailoverConfig
from repro.experiments.testbed import Sizing

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: what gets run: ``python -m repro`` / the ``repro`` console script,
#: ``python -m repro.net.server`` (the e2e benchmark's child processes),
#: the benches and the examples
ROOTS = sorted(
    [
        SRC / "repro" / "__main__.py",
        SRC / "repro" / "cli.py",
        SRC / "repro" / "net" / "server.py",
        *(REPO / "benchmarks").rglob("*.py"),
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


def _defining_module(module: str, name: str) -> str:
    """The module ``from module import name`` really loads code from:
    a submodule, or — through a package ``__init__``'s own import
    statements, as many hops as it takes — the module that defines it."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if module in PACKAGES:
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
        "nothing the CLI, the server, a bench or an example runs imports "
        f"{unreached}: delete them (with the tests that alone kept them "
        "alive) or give them a real caller"
    )


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
    tree = ast.parse(MODULES[package].read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


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


#: every dataclass a caller fills in to configure a run or a deployment
CONFIGS = [
    RetrievalConfig, ClusterConfig, ExperimentConfig, AutopilotConfig,
    FailoverConfig, Sizing,
]


def _config_keywords(path: Path) -> Iterator[Tuple[str, str]]:
    """``(class, keyword)`` for every keyword *path* passes to a config: a
    call of the class (``X(...)``) or of one of its classmethods
    (``X.for_fleet(...)``), and ``cls(...)`` inside the class's own body."""
    names = {config.__name__ for config in CONFIGS}
    tree = ast.parse(path.read_text())
    owner = {
        id(call): node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name in names
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "cls"
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
            callee = callee.value  # X.for_fleet(...) configures an X
        name = owner.get(id(node), getattr(callee, "id", getattr(callee, "attr", None)))
        if name in names:
            yield from ((name, kw.arg) for kw in node.keywords if kw.arg)


@functools.lru_cache(maxsize=None)
def _passed() -> Dict[str, Set[str]]:
    passed: Dict[str, Set[str]] = {}
    for path in {*MODULES.values(), *ROOTS}:
        for name, keyword in _config_keywords(path):
            passed.setdefault(name, set()).add(keyword)
    return passed


@pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.__name__)
def test_every_config_field_is_set_outside_the_tests(config):
    """A config field that only tests set is an option nobody runs with:
    make it the default (or a constant) and drop the field."""
    passed = _passed().get(config.__name__, set())
    unset = [
        field.name for field in dataclasses.fields(config)
        if field.name not in passed
    ]
    assert not unset, (
        f"no {config.__name__}(...) call in src/, benchmarks/ or examples/ "
        f"passes {unset}"
    )
