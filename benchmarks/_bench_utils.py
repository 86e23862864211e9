"""Helpers shared by the benchmark modules."""

from repro.core.runtime import KnownSelectivities
from repro.executor import RealExecutionService


def run_once(benchmark, fn):
    """Run a heavyweight experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


class OriginStartService(RealExecutionService):
    """The real execution service with its index probes withheld.

    The paper's run-time knows nothing before the first contour, and the
    experiments that reproduce its contour-wise accounts (Table 3, the δ
    ablation) are about that discovery; the shipped service would pin
    their base-table selection dimensions up front and leave nothing to
    discover."""

    def known_selectivities(self):
        return KnownSelectivities()
