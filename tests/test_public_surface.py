"""The public surface, checked mechanically: every export resolves, the
option census is what the docs say, no engine selector or stray
``workers`` knob has crept back, nothing public is reachable from tests
alone, and ``src/`` carries no unused import — the lint gate ``make
lint`` runs on machines without ruff.  Run as a script (``make census``)
it prints the figures a CHANGES entry quotes: lines per package, the
option counts, the ``workers`` census, defaulted parameters per package,
the CLI subcommands and the caller census."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib.util
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import repro
from repro.api import BouquetConfig
from repro.cli import build_parser
from repro.serve import ServeRequest

SRC = pathlib.Path(repro.__file__).parent
ROOT = SRC.parent.parent


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
        "model_error_delta",
        "cost_model",
        "template",
    ]
    # ``crossing`` is a read-only property and ``patch`` is gone: an
    # artifact's config block writes the fields and nothing else.
    assert BouquetConfig().crossing == "sequential"
    assert list(BouquetConfig().to_dict()) == [
        f.name for f in dataclasses.fields(BouquetConfig)
    ]
    assert sorted(ServeRequest(query="select 1").to_dict()) == [
        "budget",
        "cached_only",
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
    """Process fan-out is asked for in three places: the pool and the
    campaign that shards over it.  A POSP diagram is one serial slab DP
    (its axis-0 fan-out was slower than one process on the ``Lab()``
    grids, and nothing outside the tests asked for it)."""
    assert workers_census() == [
        "repro.par.pool.WorkerPool.__init__",
        "repro.par.pool.get_pool",
        "repro.wlgen.campaign.CampaignConfig.__init__",
    ]


def cli_subcommands():
    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return sorted(subparsers.choices)


def test_cli_subcommands():
    """Every command is one someone runs to *use* the system; checks of
    the system are tests (``tests/serve/``), not commands."""
    assert cli_subcommands() == [
        "advise",
        "compile",
        "explain",
        "fuzz",
        "refresh",
        "run",
        "schema",
        "serve",
        "serve-stats",
        "trace",
    ]


def _public_defs(path: pathlib.Path):
    """``(label, node)`` of the module-level functions of one source file
    and of the constructor and public methods of its module-level
    classes, names not starting with ``_``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (*functions, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, functions) and (
                    member.name == "__init__" or not member.name.startswith("_")
                ):
                    yield f"{node.name}.{member.name}", member


def _package(path: pathlib.Path) -> str:
    relative = path.relative_to(SRC)
    return relative.parts[0] if len(relative.parts) > 1 else "(top level)"


def defaulted_parameter_census():
    """Parameters with a default on the public callables of ``src/``,
    per package: each is a value some caller may set differently."""
    census = {}
    for path in sorted(SRC.rglob("*.py")):
        for _label, node in _public_defs(path):
            if isinstance(node, ast.ClassDef):
                continue
            count = len(node.args.defaults) + sum(
                default is not None for default in node.args.kw_defaults
            )
            package = _package(path)
            census[package] = census.get(package, 0) + count
    return {package: count for package, count in census.items() if count}


def test_defaulted_parameter_census():
    """320 before the paths nothing but tests reached were deleted
    (``bench`` alone 64), 262 before the crossing schedulers were, 242
    before the runtime package and ``repro.fuzz`` were, 235 before the
    delta re-plan and ``refresh_bouquet`` were; ``sweep`` had 4 before
    ``SweepEngine(residue_min=)``, reached only by tests, went;
    ``ess`` had 31 before ``slab_columns(start=0, stop=None)`` became
    ``slab_columns(positions)``; ``batchopt`` had 1 before
    ``batch_best_plans`` took the query's ``JoinEnumerator`` instead of
    an optional one; 223 before the §8 dimension elimination, the
    workload error log, the advisor's two test-only flags, ``request=``
    on ``execute`` / ``simulate`` and three parameters nobody set
    (``min_box_edge``, ``mcv_entries``, ``decade_edges``) went.  A
    new defaulted parameter lands here with the two callers that need
    different values.  ``ess`` had 24 before ``PlanDiagram.exhaustive``
    lost its test-only ``workers``; ``executor`` had 13 before
    ``group_counts`` lost ``weights`` (an aggregate groups its input
    once, so there is no weighted merge of per-batch tables)."""
    assert defaulted_parameter_census() == {
        "(top level)": 26,
        "bench": 31,
        "catalog": 10,
        "core": 21,
        "datagen": 4,
        "drift": 5,
        "ess": 23,
        "executor": 12,
        "obs": 7,
        "optimizer": 9,
        "par": 6,
        "query": 7,
        "robustness": 3,
        "serve": 30,
        "sweep": 3,
        "template": 6,
        "wlgen": 7,
    }


def _identifiers(path: pathlib.Path, skip_imports: bool):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not skip_imports:
            names.update(alias.name for alias in node.names)
    return names


def caller_census():
    """Public definitions of ``src/`` whose name is an identifier nowhere
    in ``src/``, ``ledger/``, ``benchmarks/`` or ``examples/`` (the
    imports of ``__init__.py`` re-export hubs do not count): whatever
    reaches them, it is a test.  Name-based, so a method is vouched for
    by any use of its name; a class found this way stands for its
    methods."""
    used = set()
    for area in ("src", "ledger", "benchmarks", "examples"):
        for path in (ROOT / area).rglob("*.py"):
            hub = area == "src" and path.name == "__init__.py"
            used |= _identifiers(path, skip_imports=hub)
    found = []
    for path in SRC.rglob("*.py"):
        for label, _node in _public_defs(path):
            owner, _, name = label.rpartition(".")
            if name not in used and (not owner or owner in used):
                found.append(f"{path.relative_to(SRC)}::{label}")
    return sorted(found)


#: What the caller census may find, and why each stays.
TEST_ONLY_BY_DESIGN = {
    "datagen/database.py::Database.invalidate_fingerprint": (
        "safety: how a Database mutated in place drops its stale "
        "fingerprint, indexes and row counts"
    ),
}


def test_caller_census():
    """Code stays in ``src/`` when something other than a test reaches
    it (DESIGN decision 10); the exceptions are listed with reasons."""
    assert caller_census() == sorted(TEST_ONLY_BY_DESIGN)


def test_crossing_schedulers_are_gone():
    """Contour plans run one at a time: the scheduler package is gone."""
    assert importlib.util.find_spec("repro.sched") is None


def test_clock_package_is_gone():
    """The gateway reads a clock and the HTTP front-end owns the one
    thread pool: there is no runtime package between them."""
    assert importlib.util.find_spec("repro.runtime") is None


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


def _line_count(path: pathlib.Path) -> int:
    return path.read_text().count("\n")


def _src_lines():
    """Lines of ``*.py`` under ``src/`` per package of ``repro`` (what
    ``find src -name '*.py' | xargs cat | wc -l`` counts in total)."""
    lines = {}
    for path in sorted(SRC.rglob("*.py")):
        package = _package(path)
        lines[package] = lines.get(package, 0) + _line_count(path)
    return lines


if __name__ == "__main__":
    lines = _src_lines()
    for package, count in sorted(lines.items()):
        print(f"{count:7d}  {package}")
    print(f"{sum(lines.values()):7d}  src/ total")
    # Code moved out of src/ lands in one of these, so a move cannot
    # lower this figure.
    everything = sum(
        _line_count(path)
        for area in ("src", "tests", "benchmarks", "examples")
        for path in (ROOT / area).rglob("*.py")
    )
    print(f"{everything:7d}  src/ + tests/ + benchmarks/ + examples/")
    print(f"BouquetConfig fields: {len(dataclasses.fields(BouquetConfig))}")
    print(f"ServeRequest wire keys: {len(ServeRequest(query='select 1').to_dict())}")
    census = workers_census()
    print(f"workers census ({len(census)}):")
    for name in census:
        print(f"  {name}")
    defaulted = defaulted_parameter_census()
    print(f"defaulted public parameters ({sum(defaulted.values())}):")
    for package, count in sorted(defaulted.items()):
        print(f"{count:7d}  {package}")
    commands = cli_subcommands()
    print(f"CLI subcommands ({len(commands)}): {' '.join(commands)}")
    unreached = caller_census()
    print(f"public definitions only tests reach ({len(unreached)}):")
    for name in unreached:
        print(f"  {name}")
