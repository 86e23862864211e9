"""Benchmark harness: the shared lab environment and the SVG figures."""

from .harness import DEFAULT_RESOLUTIONS, Lab, QueryLab

__all__ = [
    "DEFAULT_RESOLUTIONS",
    "Lab",
    "QueryLab",
]
