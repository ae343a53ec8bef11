"""Each analytic exchange price charges exactly the bytes that ship.

``estimate_remap_cost`` and ``estimate_checkpoint_cost`` are evaluated on
a unit network (no latency, no per-message overhead, 1 B/s), where each
returns its bytes term alone.  The shipped side is what the messages of a
real :func:`exchange_fields` / :func:`take_checkpoint` run are charged
for (``payload_nbytes``, summed in ``net.bytes_sent`` and traced per
send) less the fixed header ``payload_nbytes`` adds to every message.
The estimates and ``price_checks`` also return, float for float, the
prices recorded before they asked the network model for them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import paper_mesh
from repro.net.cluster import uniform_cluster
from repro.net.message import Tags, pack_arrays, payload_nbytes
from repro.net.network import PointToPointNetwork, SharedEthernet
from repro.net.spmd import run_spmd
from repro.partition.intervals import partition_list
from repro.runtime.adaptive import LoadBalanceConfig, price_checks
from repro.runtime.adaptive.redistribution import (
    estimate_remap_cost,
    exchange_fields,
)
from repro.runtime.resilience import estimate_checkpoint_cost, take_checkpoint

UNIT_LINKS = {"latency": 0.0, "bandwidth": 1.0, "per_message_overhead": 0.0}
DTYPES = (np.int32, np.float64, np.complex128)
#: Each network kind with how its price combines per-link bytes: a shared
#: medium serializes every frame, switched links overlap.
NETWORKS = (
    (SharedEthernet, sum),
    (PointToPointNetwork, lambda nbytes: max(nbytes, default=0)),
)


def run_on(network_cls, p, fn):
    cluster = uniform_cluster(p, network_factory=lambda: network_cls(**UNIT_LINKS))
    return run_spmd(cluster, fn, trace=True)


def header_nbytes(num_fields: int) -> int:
    """What ``payload_nbytes`` charges a packed message beyond its
    segments' bytes: the same message with every segment empty."""
    return payload_nbytes(pack_arrays([np.empty(0)] * (1 + num_fields)))


def shipped_by_link(res, tag: int, num_fields: int) -> dict[tuple[int, int], int]:
    """Segment bytes per (source, dest) over the run's *tag* sends, after
    checking the trace adds up to every rank's ``net.bytes_sent``."""
    sends = [e for e in res.trace if e.kind == "send" and e.tag == tag]
    assert sum(ev.nbytes for ev in sends) == sum(
        counters.get("net.bytes_sent", 0) for counters in res.values
    )
    out: dict[tuple[int, int], int] = {}
    for ev in sends:
        key = (ev.rank, ev.peer)
        out[key] = out.get(key, 0) + ev.nbytes - header_nbytes(num_fields)
    return out


def random_fields(rng, n: int, k: int):
    dtype = DTYPES[int(rng.integers(len(DTYPES)))]
    return [rng.integers(0, 1000, n).astype(dtype) for _ in range(k)]


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(8, 400),
    p=st.integers(2, 5),
    k=st.integers(1, 3),
)
@settings(max_examples=30, deadline=None)
def test_remap_price_equals_shipped_bytes(seed, n, p, k):
    rng = np.random.default_rng(seed)
    old = partition_list(n, rng.uniform(0.1, 1.0, p), rng.permutation(p))
    new = partition_list(n, rng.uniform(0.1, 1.0, p), rng.permutation(p))
    fields = random_fields(rng, n, k)

    def fn(ctx):
        lo, hi = old.interval(ctx.rank)
        exchange_fields(ctx, old, new, [f[lo:hi] for f in fields])
        return ctx.metrics.snapshot()["counters"]

    for network_cls, combine in NETWORKS:
        by_link = shipped_by_link(
            run_on(network_cls, p, fn), Tags.REDISTRIBUTE, k
        )
        price = estimate_remap_cost(
            network_cls(**UNIT_LINKS), old, new, fields[0].itemsize,
            num_fields=k,
        )
        assert price == combine(by_link.values())


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(8, 400),
    p=st.integers(3, 5),
    replication=st.integers(1, 2),
)
@settings(max_examples=30, deadline=None)
def test_checkpoint_price_equals_shipped_bytes(seed, n, p, replication):
    rng = np.random.default_rng(seed)
    part = partition_list(n, rng.uniform(0.1, 1.0, p), rng.permutation(p))
    active = np.ones(p, dtype=bool)
    fields = random_fields(rng, n, 1)

    def fn(ctx):
        lo, hi = part.interval(ctx.rank)
        take_checkpoint(
            ctx, part, [f[lo:hi] for f in fields], active,
            next_iteration=0, epoch=0, replication_factor=replication,
        )
        return ctx.metrics.snapshot()["counters"]

    for network_cls, combine in NETWORKS:
        by_link = shipped_by_link(run_on(network_cls, p, fn), Tags.CHECKPOINT, 1)
        by_source: dict[int, int] = {}  # a source's copies share its port
        for (source, _), nbytes in by_link.items():
            by_source[source] = by_source.get(source, 0) + nbytes
        price = estimate_checkpoint_cost(
            network_cls(**UNIT_LINKS), part, active, fields[0].itemsize,
            replication_factor=replication,
        )
        assert price == combine(by_source.values())


#: Link parameters whose sums round, so an evaluation-order change shows.
ODD_LINKS = {"latency": 1.3e-3, "bandwidth": 1.1e6, "per_message_overhead": 3.7e-4}
#: Each price as recorded while the estimates still restated the network's
#: formulas: (remap, remap of 3 fields of 12 B, checkpoint, checkpoint to
#: 2 replicas, centralized check, distributed check).  The fourth is the
#: parent commit's float for one field: the two-field case went with the
#: checkpoint estimate's field count.
RECORDED_PRICES = {
    "ethernet-default": (
        0.0722464, 0.2615712, 0.07765999999999999, 0.15531999999999999,
        0.00405, 0.00255,
    ),
    "ethernet-odd": (
        0.08168363636363637, 0.29682545454545456,
        0.08793909090909091, 0.17587818181818182,
        0.004390000000000001, 0.00272,
    ),
    "p2p-default": (
        0.025129600000000002, 0.050038400000000004,
        0.0263192, 0.0526384, 0.00405, 0.00255,
    ),
    "p2p-odd": (
        0.028141818181818185, 0.05644727272727273,
        0.02959727272727273, 0.05919454545454546, 0.004390000000000001, 0.00272,
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED_PRICES))
def test_prices_are_the_recorded_floats(name):
    kind, links = name.split("-")
    cls = SharedEthernet if kind == "ethernet" else PointToPointNetwork
    link = ODD_LINKS if links == "odd" else {}

    def make():
        return cls(**link)

    # Nine ranks: 12 remap links and 9 / 18 checkpoint messages, counts
    # at which a regrouped fixed term rounds differently.
    old = partition_list(10_007, np.ones(9))
    new = partition_list(10_007, np.arange(1, 10))
    active = np.ones(9, dtype=bool)
    degrees = paper_mesh(300, seed=3).degrees
    prices = (
        estimate_remap_cost(make(), old, new, 8),
        estimate_remap_cost(make(), old, new, 12, num_fields=3),
        estimate_checkpoint_cost(make(), new, active, 8),
        estimate_checkpoint_cost(make(), new, active, 8, replication_factor=2),
        *(
            price_checks(
                uniform_cluster(5, network_factory=make), degrees, 20,
                LoadBalanceConfig(check_interval=3, style=style),
            ).per_check
            for style in ("centralized", "distributed")
        ),
    )
    assert prices == RECORDED_PRICES[name]
