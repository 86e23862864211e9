"""The public surface, checked mechanically: every export resolves, the
option census is what the docs say, no engine selector or stray
``workers`` knob has crept back, and ``src/`` carries no unused import —
the lint gate ``make lint`` runs on machines without ruff.  Run as a
script (``make census``) it prints the figures a CHANGES entry quotes:
``src/`` lines per package, the option counts, the ``workers`` census."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

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


def _public_parameters(module):
    """``(label, parameters)`` of every public callable with a signature."""
    for label, fn in _public_callables(module):
        try:
            yield label, inspect.signature(fn).parameters
        except (TypeError, ValueError):
            continue


def test_no_engine_selector_on_the_public_surface():
    """One engine per algorithm: nothing public takes ``compile_engine``
    or a string-defaulted ``engine`` (an ``engine`` that is an object,
    like ``RealExecutionService``'s executor, is not a selector)."""
    offenders = []
    for package in ("api", "ess", "core", "sweep", "serve"):
        module = importlib.import_module(f"repro.{package}")
        for label, parameters in _public_parameters(module):
            engine = parameters.get("engine")
            if "compile_engine" in parameters or (
                engine is not None and isinstance(engine.default, str)
            ):
                offenders.append(f"repro.{package}.{label}")
    assert not offenders, offenders


def workers_census():
    """Every public callable of ``repro.*`` that takes ``workers`` or
    ``compile_workers``, named by where it is defined."""
    found = set()
    for module in _modules():
        if not hasattr(module, "__all__"):
            continue
        for label, parameters in _public_parameters(module):
            if "workers" in parameters or "compile_workers" in parameters:
                owner = getattr(module, label.split(".")[0])
                found.add(f"{owner.__module__}.{label}")
    return sorted(found)


def test_workers_census():
    """Process fan-out is asked for in four places: parallel POSP
    (§4.2), the pool it runs on, and the campaign that shards over it.
    ``LoadSpec.workers`` counts service slots, not processes."""
    assert workers_census() == [
        "repro.bench.serve_load.LoadSpec.__init__",
        "repro.ess.diagram.PlanDiagram.exhaustive",
        "repro.par.pool.WorkerPool.__init__",
        "repro.par.pool.get_pool",
        "repro.wlgen.campaign.CampaignConfig.__init__",
    ]


def test_import_leaves_shared_memory_alone():
    """Payloads are plain pickles: nothing ``import repro`` pulls in
    reaches for ``multiprocessing.shared_memory``."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = "import repro, sys; sys.exit('multiprocessing.shared_memory' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


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


def _src_lines():
    """Lines of ``*.py`` under ``src/`` per package of ``repro`` (what
    ``find src -name '*.py' | xargs cat | wc -l`` counts in total)."""
    lines = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        package = relative.parts[0] if len(relative.parts) > 1 else "(top level)"
        lines[package] = lines.get(package, 0) + path.read_text().count("\n")
    return lines


if __name__ == "__main__":
    lines = _src_lines()
    for package, count in sorted(lines.items()):
        print(f"{count:7d}  {package}")
    print(f"{sum(lines.values()):7d}  src/ total")
    print(f"BouquetConfig fields: {len(dataclasses.fields(BouquetConfig))}")
    print(f"ServeRequest wire keys: {len(ServeRequest(query='select 1').to_dict())}")
    census = workers_census()
    print(f"workers census ({len(census)}):")
    for name in census:
        print(f"  {name}")
