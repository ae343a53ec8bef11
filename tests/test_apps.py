"""Tests for the application layer (workloads, ordering quality)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.workloads import random_capabilities
from repro.graph.generators import paper_mesh
from repro.partition.ordering import IdentityOrdering
from repro.partition.quality import compare_orderings, evaluate_ordering
from repro.partition.rcb import RCBOrdering


class TestWorkloads:
    def test_random_capabilities_normalized(self):
        rng = np.random.default_rng(0)
        caps = random_capabilities(6, rng)
        assert caps.sum() == pytest.approx(1.0)
        assert caps.min() >= 0.019


class TestOrderingQuality:
    def test_evaluate_ordering_fields(self):
        g = paper_mesh(300, seed=5)
        rep = evaluate_ordering(g, RCBOrdering(), part_counts=(2, 4))
        assert rep.name == "rcb"
        assert set(rep.cuts) == {2, 4}
        assert rep.mean_span > 0

    def test_compare_orderings_rows(self):
        g = paper_mesh(300, seed=5)
        reps = compare_orderings(g, [RCBOrdering(), IdentityOrdering()], (2,))
        assert len(reps) == 2
        row = reps[0].as_row((2,))
        assert row[0] == "rcb" and len(row) == 4

