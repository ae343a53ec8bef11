#!/usr/bin/env python
"""Fig. 2 theme: compare one-dimensional locality transformations.

One permutation must serve every partition count (Sec. 3.1's "good
partitioning for a wide range of partitions").  This example scores RCB,
inertial, RSB, Hilbert, Morton, and the identity/random baselines by the
edge cut of contiguous equal splits at several processor counts.

Run:  python examples/ordering_comparison.py
"""

from __future__ import annotations

from repro.graph import paper_mesh
from repro.partition import (
    HilbertOrdering,
    IdentityOrdering,
    InertialOrdering,
    MortonOrdering,
    RandomOrdering,
    RCBOrdering,
    SpectralOrdering,
    compare_orderings,
)
from repro.utils import format_table


def main() -> None:
    graph = paper_mesh(3_000, seed=9)
    print(f"workload: {graph} (the paper's mesh family)")

    part_counts = (2, 4, 8, 16)
    methods = [
        RCBOrdering(),
        InertialOrdering(),
        SpectralOrdering(leaf_size=128),
        HilbertOrdering(),
        MortonOrdering(),
        IdentityOrdering(),
        RandomOrdering(seed=0),
    ]
    reports = compare_orderings(graph, methods, part_counts)
    rows = [r.as_row(part_counts) for r in reports]
    print(
        format_table(
            ["Ordering", "Mean edge span", "Bandwidth"]
            + [f"cut@{p}" for p in part_counts],
            rows,
            title="1-D locality transformations on an unstructured mesh",
            float_fmt="{:.1f}",
        )
    )
    print(
        "\nlower is better everywhere; a good transformation keeps every "
        "column far below the random baseline"
    )


if __name__ == "__main__":
    main()
