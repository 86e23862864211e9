"""Exception hierarchy for the plan-bouquet reproduction library."""


class ReproError(Exception):
    """Base class for all library-specific errors."""


class CatalogError(ReproError):
    """Raised for schema/catalog inconsistencies (unknown table, column...)."""


class QueryError(ReproError):
    """Raised for malformed queries (disconnected join graph, bad predicate)."""


class OptimizerError(ReproError):
    """Raised when the optimizer cannot produce a plan."""


class ExecutionError(ReproError):
    """Raised for run-time execution failures."""


class BudgetExceeded(ExecutionError):
    """Raised by the executor when a cost-limited execution hits its budget.

    Carries the instrumentation snapshot so the caller can harvest the
    partial-execution knowledge (tuple counters, spent cost).
    """

    def __init__(self, message, spent=None, instrumentation=None):
        super().__init__(message)
        self.spent = spent
        self.instrumentation = instrumentation


class EssError(ReproError):
    """Raised for error-selectivity-space construction problems."""


class BouquetError(ReproError):
    """Raised when bouquet identification or execution cannot proceed."""


class TemplateError(ReproError):
    """Raised when a compiled bouquet cannot be rebound from a cached
    template onto a new query instance (dimension/grid mismatch, a moved
    base selectivity, or renamed relations that are not statistically
    interchangeable).  Callers treat it as "fall back to a full compile"
    and record the carried ``reason``."""

    def __init__(self, message, reason="rebind-failed"):
        super().__init__(message)
        self.reason = reason


class DriftError(ReproError):
    """Raised when an artifact cannot be carried over to a new statistics
    world view or query instance because something its compile sees has
    moved: the error dimensions, the grid, or a non-dimension base
    selectivity.  Callers fall back to a full recompile or invalidation;
    ``reason`` is one of ``"dimension-mismatch"``, ``"grid-mismatch"``
    and ``"base-moved"``."""

    def __init__(self, message, reason):
        super().__init__(message)
        self.reason = reason
