"""Benchmark harness: shared lab environment and reporting helpers."""

from .harness import DEFAULT_RESOLUTIONS, Lab, QueryLab
from .reporting import format_table

__all__ = [
    "DEFAULT_RESOLUTIONS",
    "Lab",
    "QueryLab",
    "format_table",
]
