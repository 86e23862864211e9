"""Versioned (de)serialization of compiled bouquets.

The compile product of the bouquet pipeline is a pure function of
(query, catalog statistics, compile knobs), which makes it a reusable
*artifact*: the paper's §4.2 canned-query scenario compiles offline and
executes forever, and the serving layer (:mod:`repro.serve`) caches
artifacts keyed by a content hash of those inputs.

This module owns the wire format of the bouquet itself,
``repro.bouquet.v2``: the POSP plans as one shared node table
(:func:`repro.optimizer.serialize.plans_to_table`), the diagram's plan
ids (``<i8``) and costs (``<f8``) as base64 of their little-endian
bytes, and the contours.  It is packed, not printed: no diagram float
goes through ``repr``, and decoding gives the compiled bouquet back bit
for bit.  No older payload is read; a cache recompiles it.
:class:`repro.api.CompiledBouquet` wraps it in its own envelope (query
text, config) and delegates here.
"""

from __future__ import annotations

import base64
from typing import Dict

import numpy as np

from ..ess.diagram import PlanCostCache, PlanDiagram
from ..ess.space import ErrorDimension, SelectivitySpace
from ..exceptions import BouquetError, OptimizerError, QueryError
from ..optimizer.optimizer import Optimizer
from ..optimizer.serialize import plans_from_table, plans_to_table
from ..query.query import Query
from .bouquet import PlanBouquet
from .contours import Contour

#: Format tag of the core bouquet payload.
BOUQUET_FORMAT = "repro.bouquet.v2"


def _pack(array: np.ndarray, dtype: str) -> str:
    return base64.b64encode(np.ascontiguousarray(array, dtype=dtype)).decode("ascii")


def _unpack(text, dtype: str, shape) -> np.ndarray:
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise BouquetError(f"bad base64 in a {dtype} diagram array") from exc
    if len(raw) != int(np.prod(shape)) * np.dtype(dtype).itemsize:
        raise BouquetError(f"{dtype} diagram array does not fill shape {shape}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def bouquet_to_dict(query: Query, bouquet: PlanBouquet) -> Dict:
    """Serialize a compiled bouquet (plans, contours, cost fields)."""
    diagram = bouquet.diagram
    posp = diagram.posp_plan_ids
    plan_ids = sorted(set(posp) | set(bouquet.plan_ids))
    nodes, roots = plans_to_table([bouquet.registry.plan(pid) for pid in plan_ids])
    space = bouquet.space
    return {
        "format": BOUQUET_FORMAT,
        "query_name": query.name,
        "predicates": sorted(query.predicate_ids),
        "lambda": bouquet.lambda_,
        "ratio": bouquet.ratio,
        "dimensions": [
            {"pid": d.pid, "lo": d.lo, "hi": d.hi, "label": d.label}
            for d in space.dimensions
        ],
        "shape": list(space.shape),
        "base_assignment": space.base_assignment,
        "nodes": nodes,
        "plans": [[pid, root] for pid, root in zip(plan_ids, roots)],
        "diagram_plan_ids": _pack(diagram.plan_ids, "<i8"),
        "diagram_costs": _pack(diagram.costs, "<f8"),
        "contours": [
            {
                "index": c.index,
                "cost": c.cost,
                "plan_at": [
                    {"location": list(loc), "plan": pid}
                    for loc, pid in sorted(c.plan_at.items())
                ],
            }
            for c in bouquet.contours
        ],
    }


def bouquet_from_dict(data: Dict, optimizer: Optimizer, query: Query) -> PlanBouquet:
    """Reconstruct a :class:`PlanBouquet` from :func:`bouquet_to_dict` output.

    The caller supplies the same logical query (validated against the
    stored predicate ids), mirroring the canned-query deployment: the SQL
    is known, the compile-time artifacts are precomputed.  Plan ids are
    remapped through ``optimizer``'s registry so loaded plans coexist
    with freshly optimized ones.
    """
    if data.get("format") != BOUQUET_FORMAT:
        raise BouquetError("unrecognized bouquet file format")
    if sorted(query.predicate_ids) != data["predicates"]:
        raise QueryError(
            "supplied query's predicates do not match the saved bouquet"
        )
    dims = [
        ErrorDimension(d["pid"], d["lo"], d["hi"], d.get("label", ""))
        for d in data["dimensions"]
    ]
    shape = tuple(data["shape"])
    space = SelectivitySpace(query, dims, list(shape), data["base_assignment"])

    registry = optimizer.registry(query)
    stored = sorted(data["plans"])
    try:
        plans = plans_from_table(data["nodes"], [root for _, root in stored])
    except OptimizerError as exc:
        raise BouquetError(f"bad plan table: {exc}") from exc
    # Plans register in ascending stored-id order, so a fresh registry
    # numbers them the same way on every load.
    old_ids = np.array([old_id for old_id, _ in stored], dtype=np.int64)
    new_ids = np.array([registry.register(plan)[0] for plan in plans], dtype=np.int64)
    id_map: Dict[int, int] = dict(zip(old_ids.tolist(), new_ids.tolist()))

    raw_ids = _unpack(data["diagram_plan_ids"], "<i8", shape)
    at = np.searchsorted(old_ids, raw_ids)
    if not stored or not np.array_equal(old_ids.take(at, mode="clip"), raw_ids):
        raise BouquetError("the diagram names a plan the artifact does not store")
    plan_ids = new_ids[at]
    costs = _unpack(data["diagram_costs"], "<f8", shape)
    cache = PlanCostCache(space, optimizer, registry)
    diagram = PlanDiagram(space, plan_ids, costs, registry, cache)

    contours = []
    for entry in data["contours"]:
        plan_at = {
            tuple(item["location"]): id_map[int(item["plan"])]
            for item in entry["plan_at"]
        }
        contours.append(
            Contour(
                index=entry["index"],
                cost=entry["cost"],
                locations=list(plan_at),
                plan_at=plan_at,
            )
        )
    lambda_ = data["lambda"]
    budgets = [(1.0 + lambda_) * c.cost for c in contours]
    plan_set = sorted({pid for c in contours for pid in c.plan_ids})
    return PlanBouquet(
        space=space,
        diagram=diagram,
        registry=registry,
        contours=contours,
        budgets=budgets,
        plan_ids=plan_set,
        lambda_=lambda_,
        ratio=data["ratio"],
    )
