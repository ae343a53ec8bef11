"""Tests for repro.utils: rng plumbing, validation, tables, timing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.rng import as_generator
from repro.utils.tables import format_cell, format_table
from repro.utils.validation import (
    check_permutation,
    check_positive,
    check_probability_vector,
)


class TestRng:
    def test_int_seed_reproducible(self):
        a = as_generator(42).uniform(size=8)
        b = as_generator(42).uniform(size=8)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_seed_sequence_accepted(self):
        g = as_generator(np.random.SeedSequence(5))
        assert isinstance(g, np.random.Generator)

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive("x", 2.5) == 2.5

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0.0)

    def test_check_positive_nonstrict_accepts_zero(self):
        assert check_positive("x", 0.0, strict=False) == 0.0

    def test_check_positive_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            check_positive("x", float("nan"))

    def test_check_positive_rejects_inf(self):
        with pytest.raises(ValueError):
            check_positive("x", float("inf"))

    def test_check_permutation_valid(self):
        out = check_permutation([2, 0, 1])
        assert out.dtype == np.intp
        np.testing.assert_array_equal(out, [2, 0, 1])

    def test_check_permutation_empty(self):
        assert check_permutation([]).size == 0

    def test_check_permutation_repeats(self):
        with pytest.raises(ValueError, match="repeated"):
            check_permutation([0, 0, 2])

    def test_check_permutation_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            check_permutation([0, 1, 3])

    def test_check_permutation_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            check_permutation([0, 1], n=3)

    def test_check_permutation_2d_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            check_permutation(np.zeros((2, 2), dtype=int))

    @given(st.permutations(list(range(8))))
    def test_check_permutation_property(self, perm):
        np.testing.assert_array_equal(check_permutation(perm), perm)

    def test_probability_vector_valid(self):
        v = check_probability_vector("w", [1, 2, 3])
        assert v.dtype == np.float64

    def test_probability_vector_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_probability_vector("w", [1, -1])

    def test_probability_vector_rejects_zero_sum(self):
        with pytest.raises(ValueError, match="positive sum"):
            check_probability_vector("w", [0.0, 0.0])

    def test_probability_vector_rejects_empty(self):
        with pytest.raises(ValueError):
            check_probability_vector("w", [])

    def test_probability_vector_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            check_probability_vector("w", [1.0, float("nan")])


class TestTables:
    def test_basic_layout(self):
        out = format_table(["a", "bb"], [[1, 2], [30, 4]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "-+-" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        out = format_table(["v"], [[0.123456]], float_fmt="{:.2f}")
        assert "0.12" in out

    def test_bool_cells(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_alignment_width(self):
        out = format_table(["col"], [["longvalue"]])
        header, sep, row = out.splitlines()
        assert len(header) == len(row)
