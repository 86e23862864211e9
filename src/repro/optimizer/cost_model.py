"""Cost models: the optimizer's currency.

The primary model mirrors PostgreSQL's disk/CPU constants; a second
configuration ("COM") stands in for the commercial engine of the paper's
§6.8 — same formulas, different constants and operator preferences, which
is exactly the kind of variation that distinguishes real engines.

All operator cost formulas live with the plan nodes
(:mod:`repro.optimizer.plans`); this module only owns the constants, so a
cost model is a plain, comparable value object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CostModel:
    """Cost constants, PostgreSQL-style.

    The unit is "one sequential page read" = 1.0, as in PostgreSQL.
    """

    name: str = "postgres"
    seq_page_cost: float = 1.0
    random_page_cost: float = 4.0
    cpu_tuple_cost: float = 0.01
    cpu_index_tuple_cost: float = 0.005
    cpu_operator_cost: float = 0.0025
    #: Per-tuple cost of inserting into / probing a hash table.
    hash_tuple_cost: float = 0.012
    #: Multiplier on n*log2(n) comparisons for sorting.
    sort_cpu_factor: float = 0.0075
    #: Whether the engine considers sort-merge joins at all.
    enable_mergejoin: bool = True
    #: Whether the engine considers (materialized) nested-loop joins.
    enable_nestloop: bool = True

    def sort_cost(self, rows):
        """CPU cost of sorting ``rows`` tuples (n·log2 n comparisons).

        Array-valued entry point: ``rows`` may be a scalar or a numpy
        array of cardinalities (one per ESS location), in which case the
        formula evaluates elementwise — the batch compile kernel and the
        vectorized cost-field sweeps both lean on this.
        """
        return self.sort_cpu_factor * rows * np.log2(rows + 2.0)


#: The default, PostgreSQL-flavoured cost model used throughout.
POSTGRES_COST_MODEL = CostModel()

#: A "commercial engine" flavour: SSD-ish random reads, pricier CPU ops,
#: and a stronger preference for hash joins (merge join disabled), giving a
#: genuinely different plan space for the Figure 19 experiment.
COMMERCIAL_COST_MODEL = CostModel(
    name="com",
    seq_page_cost=1.0,
    random_page_cost=2.0,
    cpu_tuple_cost=0.02,
    cpu_index_tuple_cost=0.004,
    cpu_operator_cost=0.0015,
    hash_tuple_cost=0.008,
    sort_cpu_factor=0.0125,
    enable_mergejoin=False,
    enable_nestloop=True,
)
