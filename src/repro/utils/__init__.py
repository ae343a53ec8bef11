"""Shared utilities: RNG handling, validation helpers, table formatting."""

from repro.utils.rng import as_generator
from repro.utils.validation import (
    check_permutation,
    check_positive,
    check_probability_vector,
)
from repro.utils.tables import format_table

__all__ = [
    "as_generator",
    "check_permutation",
    "check_positive",
    "check_probability_vector",
    "format_table",
]
