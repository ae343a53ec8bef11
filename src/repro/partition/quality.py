"""Ordering-quality sweeps (supports the Fig. 2 theme).

The point of the 1-D transformation is "good partitioning for a wide range
of partitions" from one permutation.  :func:`compare_orderings` evaluates a
set of ordering methods on one graph across many partition counts,
producing the rows the Fig. 2 benchmark prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.metrics import edge_cut, mean_edge_span, ordering_bandwidth
from repro.partition.intervals import partition_list
from repro.partition.ordering import OrderingMethod

__all__ = ["OrderingReport", "evaluate_ordering", "compare_orderings"]


@dataclass
class OrderingReport:
    """Quality of one ordering on one graph."""

    name: str
    mean_span: float
    bandwidth: int
    #: Edge cut of each part count's equal contiguous split.
    cuts: dict[int, int] = field(default_factory=dict, init=False)

    def as_row(self, part_counts: Sequence[int]) -> list[object]:
        return [self.name, self.mean_span, self.bandwidth] + [
            self.cuts[p] for p in part_counts
        ]


def evaluate_ordering(
    graph: CSRGraph,
    method: OrderingMethod,
    part_counts: Sequence[int] = (2, 4, 8, 16),
) -> OrderingReport:
    """Edge cuts of equal contiguous splits of one ordering."""
    perm = method(graph)
    report = OrderingReport(
        name=getattr(method, "name", type(method).__name__),
        mean_span=mean_edge_span(graph, perm),
        bandwidth=ordering_bandwidth(graph, perm),
    )
    n = graph.num_vertices
    for p in part_counts:
        part = partition_list(n, np.ones(p))
        labels = part.to_labels()[perm]  # element at 1-D position perm[v]
        report.cuts[int(p)] = edge_cut(graph, labels)
    return report


def compare_orderings(
    graph: CSRGraph,
    methods: Iterable[OrderingMethod],
    part_counts: Sequence[int] = (2, 4, 8, 16),
) -> list[OrderingReport]:
    """Evaluate several ordering methods on the same graph."""
    return [evaluate_ordering(graph, m, part_counts) for m in methods]
