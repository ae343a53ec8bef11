"""Data redistribution between interval partitions (Sec. 3.4 mechanics).

Given old and new partitions of the same 1-D list, every rank can compute
the full transfer pattern locally (the partitions are replicated knowledge,
like the Fig. 3 interval list), so the exchange needs no pattern-discovery
round: each rank sends its outgoing slabs and receives exactly the incoming
slabs the shared plan predicts.

:func:`redistribute_fields` is the workhorse: it moves *k* field arrays
plus a slab-bounds header in **one** packed message per peer
(:class:`repro.net.message.PackedArrays`), so a remap pays the
per-message setup cost once per peer instead of once per field.  Its body,
:func:`exchange_fields`, is also the failure-recovery exchange (dead
sources stood in for by their replica holders): one implementation.  The
header, ``[lo0, hi0, lo1, hi1, ...]``, names every moved vertex in two
integers per slab; the receiver checks it against the shared plan — a
desynchronized partition (ranks disagreeing about who owns what) fails
loudly instead of silently scattering data.  Slabs are copied
with numpy slicing; the per-element loops of ``tests/oracles_runtime.py``
are the oracle they are tested against.

:func:`estimate_remap_cost` is the analytic cost the rebalancing strategy
uses for its profitability test before actually moving anything, and
:func:`transfer_plan_summary` exposes the structural facts of a plan (the
golden regression tests pin them).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.errors import RedistributionError
from repro.net.message import Tags, pack_arrays, payload_nbytes, unpack_arrays
from repro.partition.arrangement import Transfer, transfer_matrix
from repro.partition.intervals import IntervalPartition

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.comm import RankContext

__all__ = [
    "redistribute",
    "redistribute_fields",
    "exchange_fields",
    "extract_slabs",
    "pack_slabs",
    "slab_bounds",
    "verify_slabs",
    "place_slabs",
    "estimate_remap_cost",
    "transfer_plan_summary",
    "SLAB_BOUNDS_NBYTES",
]

#: Wire size of one slab's ``(lo, hi)`` header entry (two ``np.intp`` on
#: the simulated testbed's 64-bit hosts), counted by the exchange prices.
SLAB_BOUNDS_NBYTES = 2 * np.dtype(np.intp).itemsize


# The packed wire format of one slab group — THE single implementation.
# The remap / recovery exchange (:func:`exchange_fields`) and the
# checkpoint replication (:mod:`repro.runtime.resilience.checkpoint`) ship
# slabs through these four helpers, so the pack/verify/place semantics
# cannot diverge between the exchanges.


def extract_slabs(
    source_fields: Sequence[np.ndarray],
    slabs: Sequence[Transfer],
    src_lo: int,
) -> list[np.ndarray]:
    """Per-field concatenated slab payloads (no identity, not packed).

    *src_lo* is the global start of the block *source_fields* covers.
    """
    return [
        np.concatenate([f[tr.lo - src_lo : tr.hi - src_lo] for tr in slabs])
        for f in source_fields
    ]


def slab_bounds(slabs: Sequence[Transfer]) -> np.ndarray:
    """The header of a slab group: ``[lo0, hi0, lo1, hi1, ...]``."""
    return np.array([[tr.lo, tr.hi] for tr in slabs], dtype=np.intp).reshape(-1)


def pack_slabs(
    source_fields: Sequence[np.ndarray],
    slabs: Sequence[Transfer],
    src_lo: int,
):
    """One packed [bounds, field0, ...] payload for a slab group.

    *src_lo* is the global start of the block *source_fields* covers
    (the sender's interval — or, on the recovery path, the dead owner's).
    """
    return pack_arrays(
        [slab_bounds(slabs)] + extract_slabs(source_fields, slabs, src_lo)
    )


def verify_slabs(
    rank: int,
    origin: str,
    parts: Sequence[np.ndarray],
    slabs: Sequence[Transfer],
    num_fields: int,
    outs: Sequence[np.ndarray],
    error_cls: type[Exception] = RedistributionError,
) -> None:
    """Check one received payload against the shared plan's prediction:
    its slab bounds, and each field's length, dtype and trailing shape."""
    if len(parts) != 1 + num_fields:
        raise error_cls(
            f"rank {rank}: packed message from {origin} has "
            f"{len(parts)} segments, plan expects {1 + num_fields}"
        )
    if not np.array_equal(parts[0], slab_bounds(slabs)):
        raise error_cls(
            f"rank {rank}: slab from {origin} carries slab bounds that "
            f"do not match the shared transfer plan (desynchronized exchange?)"
        )
    count = sum(tr.count for tr in slabs)
    for f_idx, out in enumerate(outs):
        part = parts[1 + f_idx]
        want = (count,) + out.shape[1:]
        if part.shape != want or part.dtype != out.dtype:
            raise error_cls(
                f"rank {rank}: field {f_idx} slab from {origin} does "
                f"not match the plan ({part.shape} of {part.dtype}, "
                f"expected {want} of {out.dtype})"
            )


def place_slabs(
    outs: Sequence[np.ndarray],
    slabs: Sequence[Transfer],
    parts: Sequence[np.ndarray],
    new_lo: int,
) -> None:
    """Place verified per-field slab payloads into the new-block arrays."""
    for f_idx, out in enumerate(outs):
        part = parts[f_idx]
        offset = 0
        for tr in slabs:
            out[tr.lo - new_lo : tr.hi - new_lo] = part[
                offset : offset + tr.count
            ]
            offset += tr.count


def exchange_fields(
    ctx: "RankContext",
    old: IntervalPartition,
    new: IntervalPartition,
    fields: Sequence[np.ndarray],
    *,
    failed: np.ndarray | None = None,
    shippers: Mapping[int, int] | None = None,
    replicas: Mapping[int, Sequence[np.ndarray]] | None = None,
    error_cls: type[Exception] = RedistributionError,
) -> list[np.ndarray]:
    """The packed *old* -> *new* exchange; SPMD collective.

    One packed message per peer (tag ``Tags.REDISTRIBUTE``) carries the
    slab bounds plus every field's slab; the receiver checks the bounds
    against the shared plan before placing anything.  With nothing
    *failed* this is the Phase D remap.  On the recovery path
    (:mod:`repro.runtime.resilience.recovery`) a *failed* rank
    contributes no data: each slab it owned is shipped by
    ``shippers[owner]`` out of ``replicas[owner]``, under a per-owner tag
    (``Tags.RECOVERY_BASE + owner``) so a holder covering several dead
    owners keeps their streams apart from each other and from its own.
    """
    fields = [np.asarray(f) for f in fields]
    if not fields:
        raise error_cls("the packed exchange needs at least one field")
    rank = ctx.rank
    if failed is None:
        failed = np.zeros(ctx.size, dtype=bool)
    old_lo, old_hi = old.interval(rank)
    new_lo, new_hi = new.interval(rank)
    outs = [
        np.empty((new_hi - new_lo,) + f.shape[1:], dtype=f.dtype)
        for f in fields
    ]
    if not failed[rank]:
        for k, f in enumerate(fields):
            if f.shape[0] != old_hi - old_lo:
                raise error_cls(
                    f"rank {rank}: field {k} has {f.shape[0]} elements, old "
                    f"interval holds {old_hi - old_lo}"
                )
        # Retained overlap: the slab (if any) that stays on this rank.
        kept = [Transfer(rank, rank, max(old_lo, new_lo), min(old_hi, new_hi))]
        if kept[0].lo < kept[0].hi:
            place_slabs(
                outs, kept, extract_slabs(fields, kept, old_lo), new_lo
            )

    def replica_tag(owner: int) -> int:
        if Tags.RECOVERY_BASE + owner >= Tags.USER_BASE:
            raise error_cls(
                f"rank {owner} exceeds the recovery tag space "
                f"(world must stay below {Tags.USER_BASE - Tags.RECOVERY_BASE} "
                f"ranks)"
            )
        return Tags.RECOVERY_BASE + owner

    # Group the plan's slabs by who really ships them.  Slabs keep the
    # plan's global order inside each group, so sender and receiver agree
    # on segment layout without negotiation.
    own_out: dict[int, list[Transfer]] = {}  # dest -> slabs (this rank's data)
    replica_out: dict[tuple[int, int], list[Transfer]] = {}  # (owner, dest)
    incoming_live: dict[int, list[Transfer]] = {}  # live source -> slabs
    incoming_dead: dict[int, list[Transfer]] = {}  # dead owner -> slabs
    for tr in transfer_matrix(old, new):
        if failed[tr.source]:
            if shippers[tr.source] == rank:
                replica_out.setdefault((tr.source, tr.dest), []).append(tr)
            if tr.dest == rank:
                incoming_dead.setdefault(tr.source, []).append(tr)
        else:
            if tr.source == rank:
                own_out.setdefault(tr.dest, []).append(tr)
            if tr.dest == rank:
                incoming_live.setdefault(tr.source, []).append(tr)

    # Sends first (buffered), destinations ascending so the virtual clock
    # is deterministic regardless of plan enumeration details: own slabs,
    # then replica slabs.
    for dest in sorted(own_out):
        ctx.send(
            dest, pack_slabs(fields, own_out[dest], old_lo), Tags.REDISTRIBUTE
        )
    for owner, dest in sorted(replica_out):
        if dest != rank:  # this rank's own share is placed locally below
            payload = pack_slabs(
                list(replicas[owner]), replica_out[(owner, dest)],
                old.interval(owner)[0],
            )
            ctx.send(dest, payload, replica_tag(owner))

    # Live incoming, ascending source: verified against the plan's
    # slab bounds, then placed slab by slab.
    for source in sorted(incoming_live):
        slabs = incoming_live[source]
        parts = unpack_arrays(ctx.recv(source, Tags.REDISTRIBUTE))
        verify_slabs(
            rank, f"rank {source}", parts, slabs, len(fields), outs, error_cls
        )
        place_slabs(outs, slabs, parts[1:], new_lo)

    # Dead owners' slabs, ascending owner: from the local replica when
    # this rank is the designated shipper, else from its message.
    for owner in sorted(incoming_dead):
        slabs = incoming_dead[owner]
        holder = shippers[owner]
        if holder == rank:
            parts = extract_slabs(
                list(replicas[owner]), slabs, old.interval(owner)[0]
            )
        else:
            parts = unpack_arrays(ctx.recv(holder, replica_tag(owner)))
            verify_slabs(
                rank, f"partner {holder} (owner {owner})", parts, slabs,
                len(fields), outs, error_cls,
            )
            parts = parts[1:]
        place_slabs(outs, slabs, parts, new_lo)
    return outs


def redistribute_fields(
    ctx: "RankContext",
    old: IntervalPartition,
    new: IntervalPartition,
    fields: Sequence[np.ndarray],
) -> list[np.ndarray]:
    """Move this rank's block of *k* fields from *old* to *new* homes.

    SPMD collective: all ranks call it with their old-block fields; each
    returns its new-block fields (:func:`exchange_fields`, nothing failed).
    """
    return exchange_fields(ctx, old, new, fields)


def redistribute(
    ctx: "RankContext",
    old: IntervalPartition,
    new: IntervalPartition,
    local_data: np.ndarray,
) -> np.ndarray:
    """Move one field between partitions (single-field convenience form).

    Equivalent to ``redistribute_fields(ctx, old, new, [local_data])[0]``:
    the exchange still ships the slab bounds alongside the data in one
    packed message per peer.
    """
    return redistribute_fields(ctx, old, new, [np.asarray(local_data)])[0]


def estimate_remap_cost(
    network,
    old: IntervalPartition,
    new: IntervalPartition,
    element_nbytes: int,
    *,
    num_fields: int = 1,
) -> float:
    """Predicted virtual seconds to redistribute, without doing it.

    Prices the packed exchange :func:`redistribute_fields` performs: per
    moved element, ``num_fields`` payload copies of *element_nbytes*; per
    slab, its :data:`SLAB_BOUNDS_NBYTES` header; and one per-peer message
    setup.  The messages go to *network* (a
    :class:`~repro.net.network.NetworkModel`) as one burst, one port per
    (source, destination) link: a shared medium (Ethernet) serializes all
    frames, switched links overlap transfers to distinct destinations.
    """
    if element_nbytes <= 0:
        raise RedistributionError(
            f"element_nbytes must be > 0, got {element_nbytes}"
        )
    if num_fields < 1:
        raise RedistributionError(
            f"num_fields must be >= 1, got {num_fields}"
        )
    transfers = transfer_matrix(old, new)
    if not transfers:
        return 0.0
    per_element = num_fields * element_nbytes
    by_link: dict[tuple[int, int], int] = {}
    for tr in transfers:
        key = (tr.source, tr.dest)
        by_link[key] = (
            by_link.get(key, 0) + tr.count * per_element + SLAB_BOUNDS_NBYTES
        )
    return network.burst_seconds(by_link.values(), len(by_link))


def transfer_plan_summary(
    old: IntervalPartition,
    new: IntervalPartition,
    *,
    num_fields: int = 1,
) -> dict:
    """Structural facts of one remap's transfer plan (deterministic).

    Returns the slab list, the packed per-peer message count, the moved
    element total, and each packed message's wire size for ``num_fields``
    fields of 8-byte elements — the facts the golden regression fixture
    pins so redistribution semantics cannot silently drift.
    """
    transfers = transfer_matrix(old, new)
    by_peer: dict[tuple[int, int], list[Transfer]] = {}
    for tr in transfers:
        by_peer.setdefault((tr.source, tr.dest), []).append(tr)
    # A dummy block covering the whole list stands in for every sender's
    # fields, so each message is sized by the one wire format itself.
    block = np.empty(old.num_elements, dtype="V8")
    message_nbytes = {
        f"{source}->{dest}": payload_nbytes(
            pack_slabs([block] * num_fields, slabs, 0)
        )
        for (source, dest), slabs in sorted(by_peer.items())
    }
    return {
        "transfers": [
            [tr.source, tr.dest, tr.lo, tr.hi] for tr in transfers
        ],
        "moved_elements": int(sum(tr.count for tr in transfers)),
        "packed_messages": len(by_peer),
        "packed_message_nbytes": message_nbytes,
    }
