"""Partner-replication checkpoints: one packed message per rank.

A checkpoint makes the run survivable: every data-holding rank ships its
interval's fields **plus its bounds** to a *partner* (the next active
rank on a ring over the active set) through the same
:class:`~repro.net.message.PackedArrays` wire format the Phase D
redistribution uses — one message, one per-message setup charge — and
keeps an in-memory snapshot of its own block.  If rank R later dies
unannounced, R's snapshot dies with it, but R's partner still holds the
replica; every survivor still holds its own snapshot.  Rolling the world
back to the checkpoint epoch therefore needs **no stable storage**: the
paper's testbed (workstations on a LAN) gets diskless checkpointing for
the price of one extra message per rank.

Like every other Phase D decision, the checkpoint is collective and built
from replicated knowledge only: the partition is replicated (Fig. 3), so
the ring assignment, the message sizes, and the bounds headers are all
known to every rank without negotiation, and
:func:`estimate_checkpoint_cost` can price the whole exchange analytically
the same way :func:`~repro.runtime.adaptive.redistribution.estimate_remap_cost`
prices a remap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.errors import ResilienceError, ResilienceWarning
from repro.net.message import Tags, payload_nbytes, unpack_arrays
from repro.partition.arrangement import Transfer
from repro.partition.intervals import IntervalPartition
from repro.runtime.adaptive.redistribution import (
    SLAB_BOUNDS_NBYTES,
    pack_slabs,
    verify_slabs,
)
from repro.runtime.resilience.policy import CheckpointPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.comm import RankContext

__all__ = [
    "Checkpoint",
    "ResilienceState",
    "effective_replication_factor",
    "replica_partners",
    "take_checkpoint",
    "estimate_checkpoint_cost",
]


def effective_replication_factor(
    replication_factor: int, num_active: int
) -> int:
    """The replication factor a pool of *num_active* ranks can honor.

    A ring of ``n`` active ranks has at most ``n - 1`` distinct successors,
    so ``k > n - 1`` is capped to ``n - 1`` — **with a warning** (echoed
    once per process; the ``warnings`` default filter deduplicates repeat
    occurrences).  This is the single capping rule every consumer agrees
    on: :func:`replica_partners` (and through it :func:`take_checkpoint`
    and :func:`estimate_checkpoint_cost`), and the configuration-time
    check in :func:`repro.runtime.program.run_program` behind the CLI's
    ``--replication``.
    """
    if replication_factor < 1:
        raise ResilienceError(
            f"replication_factor must be >= 1, got {replication_factor}"
        )
    if num_active < 0:
        raise ResilienceError(f"num_active must be >= 0, got {num_active}")
    k = min(replication_factor, max(num_active - 1, 0))
    if k < replication_factor:
        warnings.warn(
            f"replication_factor {replication_factor} exceeds what "
            f"{num_active} active rank(s) can honor; capped to {k} ring "
            f"successor(s) per owner",
            ResilienceWarning,
        )
    return k


def replica_partners(
    partition: IntervalPartition,
    active: np.ndarray,
    replication_factor: int = 1,
) -> dict[int, tuple[int, ...]]:
    """The replica assignment: each data-holding active rank → its holders.

    Holders are the next *replication_factor* distinct ring successors
    over the *sorted active set*, so the assignment is a pure function of
    replicated knowledge (every rank computes the identical map without a
    message).  A pool with fewer than ``replication_factor + 1`` active
    ranks degrades gracefully: every owner replicates to all other active
    ranks (the widest ring the pool affords) and
    :func:`effective_replication_factor` warns about the cap once.  A
    single active rank has nobody to replicate to and gets an empty map —
    a failure there empties the active set, which the membership trace
    already forbids.
    """
    actives = [int(r) for r in np.flatnonzero(np.asarray(active, dtype=bool))]
    k = effective_replication_factor(replication_factor, len(actives))
    if len(actives) < 2:
        return {}
    n = len(actives)
    index = {r: i for i, r in enumerate(actives)}
    return {
        r: tuple(actives[(index[r] + j) % n] for j in range(1, k + 1))
        for r in actives
        if partition.size(r) > 0
    }


def normalize_partners(
    partners: "Mapping[int, int | Sequence[int]]",
) -> dict[int, tuple[int, ...]]:
    """Accept both the k=1 ``owner -> rank`` map and the general
    ``owner -> (rank, ...)`` map, returning the general form.

    Validates the map: an owner replicating to itself or naming the same
    holder twice is a malformed assignment (it would silently lower the
    real replication degree) and raises
    :class:`~repro.errors.ResilienceError`.
    """
    out: dict[int, tuple[int, ...]] = {}
    for owner, holders in partners.items():
        if isinstance(holders, (int, np.integer)):
            holders = (int(holders),)
        else:
            holders = tuple(int(h) for h in holders)
        owner = int(owner)
        if owner in holders:
            raise ResilienceError(
                f"partner map: owner {owner} replicates to itself — a "
                f"failure would take both copies"
            )
        if len(set(holders)) != len(holders):
            raise ResilienceError(
                f"partner map: owner {owner} names duplicate holders "
                f"{holders} — the real replication degree is lower than "
                f"declared"
            )
        out[owner] = holders
    return out


@dataclass
class Checkpoint:
    """One consistent epoch: everything needed to roll the world back.

    The metadata (epoch, iteration, partition, ring) is replicated on
    every rank; ``snapshot`` and ``replicas`` are the per-rank data
    halves — a rank holds its *own* block at the checkpoint partition
    plus the blocks of the owners whose partner it is.
    """

    epoch: int
    next_iteration: int  # first iteration NOT yet captured by this epoch
    clock: float  # synchronized post-checkpoint clock
    partition: IntervalPartition
    active: np.ndarray  # active mask when taken
    partners: dict[int, tuple[int, ...]]  # data owner -> replica holders
    snapshot: list[np.ndarray] = field(default_factory=list)
    replicas: dict[int, list[np.ndarray]] = field(default_factory=dict)


@dataclass
class ResilienceState:
    """One rank's checkpoint/recovery bookkeeping (session-owned)."""

    policy: CheckpointPolicy
    checkpoint: Checkpoint | None = None
    #: Measured synchronized cost of the last checkpoint (virtual s);
    #: identical on every rank, which is what lets
    #: :class:`~repro.runtime.resilience.policy.CostModelCheckpoint`
    #: decide without a message.
    measured_cost: float = 0.0
    epochs_taken: int = 0


def take_checkpoint(
    ctx: "RankContext",
    partition: IntervalPartition,
    fields: Sequence[np.ndarray],
    active: np.ndarray,
    *,
    next_iteration: int,
    epoch: int,
    tag: int = Tags.CHECKPOINT,
    replication_factor: int = 1,
) -> Checkpoint:
    """Replicate this epoch to the ring partners; SPMD collective.

    Every rank calls it at a synchronized boundary with its current block
    of *fields*.  Data-holding active ranks send one packed message
    (interval bounds + every field) to each of their *replication_factor* ring
    successors; every rank snapshots its own block locally; a trailing
    barrier makes the epoch's cost a synchronized span every rank
    measures identically.  With ``replication_factor=1`` this is the
    single-partner diskless scheme; ``k`` successors survive any ``k``
    correlated failures within one epoch's ring neighborhood.
    """
    fields = [np.asarray(f) for f in fields]
    if not fields:
        raise ResilienceError("take_checkpoint needs at least one field")
    active = np.asarray(active, dtype=bool)
    rank = ctx.rank
    lo, hi = partition.interval(rank)
    for k, f in enumerate(fields):
        if f.shape[0] != hi - lo:
            raise ResilienceError(
                f"rank {rank}: field {k} has {f.shape[0]} elements, the "
                f"interval holds {hi - lo}"
            )
    partners = replica_partners(partition, active, replication_factor)

    # Outgoing: one packed message per ring successor (if this rank
    # holds data) — the interval as a single slab through the shared
    # wire-format implementation, packed once and fanned out.  Sends go
    # in ring order so the virtual clock is deterministic.
    for partner in partners.get(rank, ()):
        payload = pack_slabs(fields, [Transfer(rank, partner, lo, hi)], lo)
        ctx.metrics.count("cp.checkpoint_bytes", payload_nbytes(payload))
        ctx.send(partner, payload, tag)

    # Local snapshot: the rank's own half of the epoch (free of network
    # cost, like the retained-overlap copy of a redistribution).
    snapshot = [f.copy() for f in fields]

    # Incoming: every ring predecessor whose holder set names this rank
    # (at most ``replication_factor`` of them).  The shared verify
    # checks the bounds against the replicated partition plus every field
    # segment's length, dtype and trailing shape (own fields are the
    # reference — SPMD ranks run one program), so a malformed replica
    # fails at replication time, not mid-rollback.
    replicas: dict[int, list[np.ndarray]] = {}
    predecessors = [o for o, holders in partners.items() if rank in holders]
    for owner in sorted(predecessors):
        parts = unpack_arrays(ctx.recv(owner, tag))
        olo, ohi = partition.interval(owner)
        verify_slabs(
            rank,
            f"checkpoint owner {owner}",
            parts,
            [Transfer(owner, rank, olo, ohi)],
            len(fields),
            fields,
            ResilienceError,
        )
        replicas[owner] = parts[1:]

    ctx.barrier()
    return Checkpoint(
        epoch=epoch,
        next_iteration=next_iteration,
        clock=ctx.clock,
        partition=partition,
        active=active.copy(),
        partners=partners,
        snapshot=snapshot,
        replicas=replicas,
    )


def estimate_checkpoint_cost(
    network,
    partition: IntervalPartition,
    active: np.ndarray,
    element_nbytes: int,
    *,
    num_fields: int = 1,
    replication_factor: int = 1,
) -> float:
    """Predicted virtual seconds for one checkpoint, without taking it.

    Prices exactly what :func:`take_checkpoint` ships: per data-holding
    active rank, one packed message per ring successor (``k`` of them
    under ``replication_factor=k``) of its interval's ``num_fields``
    payload copies per element plus one slab-bounds header.  The
    messages go to *network* (a :class:`~repro.net.network.NetworkModel`)
    as one burst, one port per owner: shared media serialize all frames;
    switched fabrics overlap distinct sources but serialize each source's
    own fan-out — the same style of model as
    :func:`~repro.runtime.adaptive.redistribution.estimate_remap_cost`.
    """
    if element_nbytes <= 0:
        raise ResilienceError(
            f"element_nbytes must be > 0, got {element_nbytes}"
        )
    if num_fields < 1:
        raise ResilienceError(f"num_fields must be >= 1, got {num_fields}")
    partners = replica_partners(partition, active, replication_factor)
    if not partners:
        return 0.0
    # Per owner: all its replica copies leave through its own port.
    outgoing = {
        owner: (
            partition.size(owner) * num_fields * element_nbytes
            + SLAB_BOUNDS_NBYTES
        ) * len(holders)
        for owner, holders in partners.items()
    }
    n_messages = sum(len(holders) for holders in partners.values())
    return network.burst_seconds(outgoing.values(), n_messages)
