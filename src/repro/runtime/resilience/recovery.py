"""Recovery: redistribute a checkpoint epoch around its dead owners.

After a ``fail`` event, the world rolls back to the last checkpoint: every
survivor restores its own snapshot, and the epoch's data must then move
from the *checkpoint* partition to a fresh partition over the shrunken
active set (chosen by the ordinary MCR profitability machinery, where the
dead rank holding elements makes the remap mandatory).

The exchange *is* the packed Phase D redistribution
(:func:`~repro.runtime.adaptive.redistribution.exchange_fields`, one
body for both) with one twist: slabs
whose *source* is a dead rank are shipped from the replica by that
rank's *first surviving* checkpoint holder instead — the plan is still
fully replicated (partition, ring, holder lists, and failure set are
shared knowledge), so no discovery round is needed and the receiver can
still verify every slab's vertex identity against the plan.  Under
k-successor replication an owner has up to ``k`` holders; exactly one
(the designated shipper) speaks for it, chosen identically on every
rank.  Replica slabs travel under a per-owner tag
(``Tags.RECOVERY_BASE + owner``) so a holder covering several dead
owners keeps their streams apart from each other and from its own slabs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.errors import ResilienceError
from repro.partition.intervals import IntervalPartition
from repro.runtime.adaptive.redistribution import exchange_fields
from repro.runtime.resilience.checkpoint import normalize_partners

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.comm import RankContext

__all__ = ["check_recoverable", "recover_redistribute_fields"]


def check_recoverable(
    partition: IntervalPartition,
    partners: "Mapping[int, int | Sequence[int]]",
    failed: np.ndarray,
) -> dict[int, int]:
    """Fail loudly when the epoch cannot be reassembled.

    Every dead rank that owned data at the checkpoint must have at least
    one live replica holder.  Two ways to lose: the owner never had a
    partner (a single-active-rank pool), or the owner *and all k of its
    holders* died within one epoch — the correlated-failure limit of
    k-successor partner replication (k=1 is the classic ring-edge double
    failure).  Returns each such owner's designated *shipper*: its first
    live holder in ring-successor order — replicated knowledge, so every
    rank names the same one without a message.
    """
    failed = np.asarray(failed, dtype=bool)
    holder_map = normalize_partners(partners)
    shippers: dict[int, int] = {}
    for owner in sorted(int(r) for r in np.flatnonzero(failed)):
        if partition.size(owner) == 0:
            continue
        holders = holder_map.get(owner, ())
        if not holders:
            raise ResilienceError(
                f"rank {owner} failed holding {partition.size(owner)} "
                f"elements but the checkpoint epoch has no replica partner "
                f"for it; its data is unrecoverable"
            )
        if all(failed[h] for h in holders):
            k = len(holders)
            who = (
                f"its replica partner {holders[0]} both"
                if k == 1
                else f"all {k} of its replica holders {list(holders)}"
            )
            raise ResilienceError(
                f"rank {owner} and {who} "
                f"failed within one checkpoint epoch; the interval "
                f"[{partition.interval(owner)[0]}, "
                f"{partition.interval(owner)[1]}) is unrecoverable "
                f"(k-successor partner replication survives k failures "
                f"per epoch per ring neighborhood — checkpoint more "
                f"often or raise the replication factor)"
            )
        shippers[owner] = next(h for h in holders if not failed[h])
    return shippers


def recover_redistribute_fields(
    ctx: "RankContext",
    old: IntervalPartition,
    new: IntervalPartition,
    fields: Sequence[np.ndarray],
    *,
    failed: np.ndarray,
    partners: "Mapping[int, int | Sequence[int]]",
    replicas: Mapping[int, Sequence[np.ndarray]],
) -> list[np.ndarray]:
    """Move the restored epoch from *old* to *new* homes; SPMD collective.

    Survivors call it with their restored snapshot (*old*-block fields);
    dead ranks participate with nothing (their snapshot died with them)
    and must own nothing under *new*.  *partners*/*replicas* come from the
    checkpoint being recovered (holder lists under k-successor
    replication; the bare ``owner -> rank`` form is accepted for k=1);
    *failed* is the cumulative failure mask at detection time.  Each rank
    returns its *new*-block fields.
    """
    failed = np.asarray(failed, dtype=bool)
    shippers = check_recoverable(old, partners, failed)
    if np.any(failed & (new.sizes() > 0)):
        bad = np.flatnonzero(failed & (new.sizes() > 0)).tolist()
        raise ResilienceError(
            f"recovery partition assigns elements to failed ranks {bad}"
        )
    return exchange_fields(
        ctx, old, new, fields, failed=failed,
        shippers=shippers, replicas=replicas, error_cls=ResilienceError,
    )
