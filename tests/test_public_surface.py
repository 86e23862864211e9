"""The public surface, checked mechanically: every export resolves, the
option census is what the docs say, no engine selector has crept back,
and ``src/`` carries no unused import — the lint gate ``make lint`` runs
on machines without ruff."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import repro
from repro.api import BouquetConfig
from repro.serve import ServeRequest

SRC = pathlib.Path(repro.__file__).parent


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        yield importlib.import_module(info.name)


def test_every_export_resolves_once():
    problems = []
    for module in _modules():
        exported = list(getattr(module, "__all__", ()))
        for name in sorted(set(exported)):
            if exported.count(name) > 1:
                problems.append(f"{module.__name__}.__all__ repeats {name}")
            if not hasattr(module, name):
                problems.append(f"{module.__name__}.__all__ names missing {name}")
    assert not problems, "\n".join(problems)


def test_option_census():
    assert [f.name for f in dataclasses.fields(BouquetConfig)] == [
        "ratio",
        "lambda_",
        "resolution",
        "mode",
        "crossing",
        "equivalence_threshold",
        "model_error_delta",
        "cost_model",
        "patch",
        "template",
    ]
    assert sorted(BouquetConfig().to_dict()) == sorted(
        f.name for f in dataclasses.fields(BouquetConfig)
    )
    assert sorted(ServeRequest(query="select 1").to_dict()) == [
        "budget",
        "cached_only",
        "crossing",
        "deadline",
        "format",
        "mode",
        "query",
        "request_id",
        "tenant",
    ]


def _public_callables(module):
    """Exported functions, plus the public methods (and constructor) of
    exported classes defined inside ``repro``."""
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) and obj.__module__.startswith("repro"):
            for attr, member in inspect.getmembers(obj, callable):
                if attr == "__init__" or not attr.startswith("_"):
                    yield f"{name}.{attr}", member
        elif inspect.isfunction(obj):
            yield name, obj


def test_no_engine_selector_on_the_public_surface():
    """One engine per algorithm: nothing public takes ``compile_engine``
    or a string-defaulted ``engine`` (an ``engine`` that is an object,
    like ``RealExecutionService``'s executor, is not a selector)."""
    offenders = []
    for package in ("api", "ess", "core", "sweep", "serve"):
        module = importlib.import_module(f"repro.{package}")
        for label, fn in _public_callables(module):
            try:
                parameters = inspect.signature(fn).parameters
            except (TypeError, ValueError):
                continue
            engine = parameters.get("engine")
            if "compile_engine" in parameters or (
                engine is not None and isinstance(engine.default, str)
            ):
                offenders.append(f"repro.{package}.{label}")
    assert not offenders, offenders


def _unused_imports(path: pathlib.Path):
    tree = ast.parse(path.read_text())
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Quoted annotations ("OrderedDict[int, np.ndarray]") and the
            # names listed in ``__all__`` count as uses.
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(
                n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
            )
    return [
        f"{path.relative_to(SRC.parent)}:{line} {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_src_has_no_unused_imports():
    """What ruff's F401 reports; ``__init__.py`` re-export hubs are
    exempt, as in ``pyproject.toml``."""
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            unused.extend(_unused_imports(path))
    assert not unused, "\n".join(unused)
