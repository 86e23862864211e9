"""Versioned (de)serialization of compiled bouquets.

The compile product of the bouquet pipeline is a pure function of
(query, catalog statistics, compile knobs), which makes it a reusable
*artifact*: the paper's §4.2 canned-query scenario compiles offline and
executes forever, and the serving layer (:mod:`repro.serve`) caches
artifacts keyed by a content hash of those inputs.

This module owns the wire format of the bouquet itself,
``repro.bouquet.v1`` (plans, diagram fields, contours); it is kept
byte-compatible so artifacts saved by earlier versions keep loading.
:class:`repro.api.CompiledBouquet` wraps it in its own envelope (query
text, config) and delegates here.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..ess.diagram import PlanCostCache, PlanDiagram
from ..ess.space import ErrorDimension, SelectivitySpace
from ..exceptions import BouquetError, QueryError
from ..optimizer.optimizer import Optimizer
from ..optimizer.serialize import plan_from_dict, plan_to_dict
from ..query.query import Query
from .bouquet import PlanBouquet
from .contours import Contour

#: Format tag of the core bouquet payload (unchanged since v1 for
#: backward compatibility with previously saved artifacts).
BOUQUET_FORMAT = "repro.bouquet.v1"


def bouquet_to_dict(query: Query, bouquet: PlanBouquet) -> Dict:
    """Serialize a compiled bouquet (plans, contours, cost fields)."""
    diagram = bouquet.diagram
    posp = diagram.posp_plan_ids
    plan_ids = sorted(set(posp) | set(bouquet.plan_ids))
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
        "plans": {
            str(pid): plan_to_dict(bouquet.registry.plan(pid))
            for pid in plan_ids
        },
        "diagram_plan_ids": diagram.plan_ids.ravel().tolist(),
        "diagram_costs": diagram.costs.ravel().tolist(),
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
    id_map: Dict[int, int] = {}
    for old_id_str, plan_data in sorted(
        data["plans"].items(), key=lambda kv: int(kv[0])
    ):
        plan = plan_from_dict(plan_data)
        new_id, _ = registry.register(plan)
        id_map[int(old_id_str)] = new_id

    raw_ids = np.array(data["diagram_plan_ids"], dtype=np.int64).reshape(shape)
    remap = np.vectorize(lambda pid: id_map[int(pid)])
    plan_ids = remap(raw_ids)
    costs = np.array(data["diagram_costs"], dtype=float).reshape(shape)
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
