"""Collective operations over :class:`~repro.net.comm.RankContext`.

Implemented with the library's own point-to-point primitives (plus hardware
multicast where the network supports it), the way the paper's library built
its collectives over P4.  Every collective is *symmetric*: all ranks of the
communicator must call it, in the same order.  Every receive names its
source and tag: a rooted collective drains its known peer set with
:meth:`~repro.net.comm.RankContext.recv_expected`, everything else is an
exact ``recv(source, tag)``.
"""

from __future__ import annotations

from typing import Any, Iterable, TYPE_CHECKING

from repro.net.message import Tags

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.comm import RankContext

__all__ = [
    "bcast",
    "gather",
    "allgather",
    "alltoallv",
]


def bcast(ctx: "RankContext", payload: Any, *, tag: int = Tags.BCAST) -> Any:
    """Broadcast from rank 0; returns rank 0's payload on every rank.

    Uses one multicast transmission when the network supports it (Sec. 3.6);
    otherwise rank 0 sends p-1 unicasts.
    """
    if ctx.size == 1:
        return payload
    if ctx.rank == 0:
        ctx.multicast(list(range(1, ctx.size)), payload, tag=tag)
        return payload
    return ctx.recv(0, tag)


def gather(ctx: "RankContext", payload: Any, *, root: int = 0) -> list[Any] | None:
    """Gather one value per rank at *root* (rank order); None elsewhere."""
    if ctx.rank != root:
        ctx.send(root, payload, Tags.GATHER)
        return None
    values: list[Any] = [None] * ctx.size
    values[root] = payload
    # Deterministic drain: one contribution per peer, virtual time charged
    # in arrival order regardless of host thread scheduling (duplicate
    # contributions surface as unexpected-source errors).
    peers = [r for r in range(ctx.size) if r != root]
    for source, msg in ctx.recv_expected(peers, Tags.GATHER).items():
        values[source] = msg.payload
    return values


def allgather(ctx: "RankContext", payload: Any) -> list[Any]:
    """Gather at rank 0, then broadcast the full list."""
    values = gather(ctx, payload)
    return bcast(ctx, values, tag=Tags.BCAST)


def alltoallv(
    ctx: "RankContext",
    outgoing: dict[int, Any],
    recv_from: Iterable[int],
    *,
    tag: int = Tags.ALLTOALL,
) -> dict[int, Any]:
    """Personalized exchange with a *known* communication pattern.

    ``outgoing`` maps destination rank -> payload; ``recv_from`` lists the
    ranks this rank expects a message from.  The pattern must be globally
    consistent (rank s lists d in ``outgoing`` iff rank d lists s in
    ``recv_from``) — in this library both sides always derive the pattern
    from the replicated interval lists, so no pattern-discovery round is
    needed (one of the paper's arguments for the 1-D representation).

    Sends are issued before receives, so the exchange cannot deadlock for
    any consistent pattern.
    """
    for dest, payload in sorted(outgoing.items()):
        if dest == ctx.rank:
            continue
        ctx.send(dest, payload, tag)
    received: dict[int, Any] = {}
    if ctx.rank in outgoing:
        received[ctx.rank] = outgoing[ctx.rank]
    expected = sorted(set(r for r in recv_from if r != ctx.rank))
    for src in expected:
        received[src] = ctx.recv(src, tag)
    return received
