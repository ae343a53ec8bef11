"""``sfc_order``: the packed-word sort against the stable argsort it replaces.

When key and vertex id fit one 64-bit word, ``sfc_order`` sorts
``key << id_bits | id`` by value; otherwise it keeps the stable argsort.
Both must return ``np.argsort(keys, kind="stable")``: vertices sharing a
grid cell keep input order.  ``quantize_coords`` must snap to exactly the
lattice points of its whole-array oracle.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from oracles_graph import grid_mesh_3d
from oracles_partition import quantize_coords_oracle
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph, paper_mesh, scale_mesh
from repro.partition import sfc
from repro.partition.rcb import RCBOrdering
from repro.partition.sfc import (
    HilbertOrdering,
    hilbert_keys_2d,
    morton_keys,
    quantize_coords,
    sfc_order,
)

CURVES = (
    ("hilbert", 2, hilbert_keys_2d),
    ("morton", 2, morton_keys),
    ("morton", 3, morton_keys),
)


def points(coords: np.ndarray) -> CSRGraph:
    return CSRGraph.from_edges(coords.shape[0], [], coords=coords)


@pytest.fixture
def assert_stable(monkeypatch):
    """Check ``sfc_order`` on a lattice of 2^bits cells per axis (the
    orderings use 2^16; coarser lattices tie many keys)."""
    def check(graph: CSRGraph, curve: str, keys_fn, bits: int) -> None:
        monkeypatch.setattr(sfc, "_BITS", bits)
        expected = np.argsort(keys_fn(graph.coords, bits=bits), kind="stable")
        order = sfc_order(graph, curve=curve)
        assert order.dtype == np.intp
        np.testing.assert_array_equal(order, expected)

    return check


@pytest.mark.parametrize("curve, dim, keys_fn", CURVES, ids=("h2", "m2", "m3"))
class TestStableOrder:
    @pytest.mark.parametrize("n", (1, 2, 3, 17, 5_000))
    @pytest.mark.parametrize("bits", (1, 4, 16))
    def test_random_clouds(self, assert_stable, curve, dim, keys_fn, n, bits):
        coords = np.random.default_rng(n).random((n, dim))
        assert_stable(points(coords), curve, keys_fn, bits)

    @pytest.mark.parametrize("bits", (2, 5, 16))
    def test_structured_grids_share_cells(
        self, assert_stable, curve, dim, keys_fn, bits
    ):
        # At 2 and 5 bits many grid points land in one cell (tied keys).
        graph = grid_graph(37, 41) if dim == 2 else grid_mesh_3d(9, 10, 11).graph
        assert_stable(graph, curve, keys_fn, bits)

    def test_all_points_in_one_cell(self, assert_stable, curve, dim, keys_fn):
        assert_stable(points(np.full((100, dim), 2.5)), curve, keys_fn, 16)


@pytest.mark.parametrize("bits", (1, 4, 16, 21))
@pytest.mark.parametrize(
    "coords",
    (
        np.random.default_rng(0).normal(size=(5_000, 2)) * (30.0, 0.01),
        np.random.default_rng(1).random((2_000, 3)) - 0.5,
        np.column_stack((np.random.default_rng(2).random(300), np.full(300, -4.0))),
        np.full((40, 3), 2.5),
        np.array([[1.5, -2.0]]),
        np.array([[7.0, 1.0, -1.0]]),
    ),
    ids=("random-2d", "random-3d", "zero-span-axis", "all-equal-3d",
         "one-point-2d", "one-point-3d"),
)
def test_quantize_coords_matches_oracle(coords, bits):
    q = quantize_coords(coords, bits)
    expected = quantize_coords_oracle(coords, bits)
    assert q.dtype == expected.dtype and q.shape == expected.shape
    np.testing.assert_array_equal(q, expected)


@pytest.mark.parametrize("n", (1 << 16, (1 << 16) + 1), ids=("packed", "argsort"))
def test_both_sides_of_the_packing_limit(assert_stable, n):
    # 3-D Morton keys at 16 bits span 48 bits: ids of n <= 2**16 vertices
    # fit the remaining 16, one more vertex does not.
    coords = np.random.default_rng(n).random((n, 3))
    coords[:1000] = coords[1000:2000]  # shared cells on either side
    assert int(morton_keys(coords, bits=16).max()).bit_length() == 48
    assert_stable(points(coords), "morton", morton_keys, 16)


# sha256 of the positions arrays on the benchmark's 10k smoke meshes; taken
# before the orderings sorted packed integer words, which must not change
# one byte of them.
@pytest.mark.parametrize("build, rcb, hilbert", [
    pytest.param(
        lambda: scale_mesh("10k", family="geometric", seed=1995),
        "60ee5ef5d9cb674c4fbfd7b23f2c352527bab8468a41abfbd70a5bdc77f55782",
        "5ee98efcbea4918dab81b3e904a2daf2ac31314830f045245c8688cffcb61869",
        id="scale_mesh(10k,geometric,seed=1995)",
    ),
    pytest.param(
        lambda: paper_mesh(10_000, seed=1995),
        "84e2e2ff6dd057ce45031001fd7b9529462d7900ce3381c9b9d8890265d4d7d4",
        "4c26569d893c4ac0f343dbeb57d763eb26db5d844de6412acc897463bd745eb7",
        id="paper_mesh(10_000,seed=1995)",
    ),
])
def test_ordering_digest_pinned(build, rcb, hilbert):
    graph = build()
    assert tuple(
        hashlib.sha256(np.ascontiguousarray(method(graph)).tobytes()).hexdigest()
        for method in (RCBOrdering(), HilbertOrdering())
    ) == (rcb, hilbert)
