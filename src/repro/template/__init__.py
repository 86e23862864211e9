"""Cross-query bouquet template cache: compile once per query template,
rebind per instance.

The paper's target regime is parametric workloads — a handful of query
*templates* with varying constants.  The exact-key serving cache treats
every constant binding as a distinct artifact; this package lifts plan
canonicalization (:meth:`~repro.optimizer.plans.PlanNode.canonical_signature`)
one level, to whole queries:

- :mod:`repro.template.signature` — the structural canonicalizer
  (template signatures, invariant under constants and twin-relation
  renaming, plus the slot-for-slot rebinding dictionaries);
- :mod:`repro.template.rebind` — the rebinding engine (remap a compiled
  bouquet's plan skeleton onto a new instance, carry it over when no
  compile input moved, fall back loudly via
  :class:`~repro.exceptions.TemplateError` otherwise);
- :mod:`repro.template.store` — the LRU template tier the serving layer
  consults in front of the exact-key artifact store.
"""

from .rebind import RebindOutcome, rebind_compiled, remap_plan
from .signature import TemplateSignature, canonical_table_order, template_signature
from .store import TemplateEntry, TemplateStore

__all__ = [
    "RebindOutcome",
    "TemplateEntry",
    "TemplateSignature",
    "TemplateStore",
    "canonical_table_order",
    "rebind_compiled",
    "remap_plan",
    "template_signature",
]
