"""Synthetic data generation."""

from .database import ColumnIndex, Database
from .generators import (
    ColumnGenerator,
    CorrelatedFloat,
    DateRange,
    DictionaryString,
    ForeignKeyRef,
    SequentialKey,
    UniformFloat,
    UniformInt,
)

__all__ = [
    "ColumnIndex",
    "Database",
    "ColumnGenerator",
    "CorrelatedFloat",
    "DateRange",
    "DictionaryString",
    "ForeignKeyRef",
    "SequentialKey",
    "UniformFloat",
    "UniformInt",
]
