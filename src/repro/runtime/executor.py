"""The executor: gather/scatter primitives driven by communication schedules.

"The executor uses the communication schedules generated by the inspector to
move data between the processors ... There are two basic primitives, gather
and scatter." (Sec. 3.3)

Both primitives are SPMD collectives over a consistent set of schedules:
every rank calls them in the same phase.  The schedule names every peer a
rank hears from, so each phase is one known-pattern drain
(:meth:`RankContext.recv_expected`: one message per scheduled peer on the
phase's tag, taken as they arrive so no peer can stall progress).  Received
payloads are **applied in sorted peer order**, never arrival order, so
results are bit-deterministic even when thread scheduling reorders arrivals
(this matters for ``scatter(op="add")``, where a local element accumulates
floating-point contributions from several peers).  Virtual time is charged
in sorted virtual-arrival order, so on deterministic networks the clocks
are bit-reproducible too — across runs and thread schedules.

Buffers are packed and unpacked with fancy indexing (``np.add.at`` for
accumulation), one coalesced payload per peer per phase; the per-element
loops of ``tests/oracles_runtime.py`` are the oracle they are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.errors import ConfigurationError, ScheduleError
from repro.net.message import Tags
from repro.runtime.schedule import CommSchedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.comm import RankContext

__all__ = [
    "ExecutorCostModel",
    "ExecutorScratch",
    "gather",
    "scatter",
]


@dataclass(frozen=True)
class ExecutorCostModel:
    """Virtual-time constants for executor-side buffer packing."""

    sec_per_pack: float = 0.5e-6    # copy one element into a send buffer
    sec_per_unpack: float = 0.5e-6  # place one received element


class ExecutorScratch:
    """Reusable *receive-side* buffers for the executor primitives.

    An iterative driver allocates one scratch object outside its loop and
    passes it to every :func:`gather` call; the
    ghost buffer is then allocated once and recycled across iterations
    instead of hitting the allocator every sweep (reallocation happens
    automatically when a remap changes the ghost size or dtype).

    Validity contract: a ghost buffer returned against a scratch object
    is only valid until the **next** gather with the same scratch — the
    usual consume-within-the-iteration pattern.  Only receive-side
    buffers are pooled: simulated sends pass payloads *by reference*, so
    recycling a send-side pack buffer would corrupt messages still in
    flight.
    """

    def __init__(self) -> None:
        self._bufs: dict[Any, np.ndarray] = {}

    def ghost(
        self, key: Any, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        buf = self._bufs.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._bufs[key] = buf
        return buf


def _check_local_shape(
    ctx: "RankContext", schedule: CommSchedule, local_data: np.ndarray
) -> None:
    lo, hi = schedule.partition.interval(ctx.rank)
    if local_data.shape[0] != hi - lo:
        raise ScheduleError(
            f"rank {ctx.rank}: local data has {local_data.shape[0]} elements, "
            f"interval holds {hi - lo}"
        )


def _receive_all(
    ctx: "RankContext",
    expected: dict[int, int],
    tag: int,
    phase: str,
) -> dict[int, np.ndarray]:
    """Drain one message per expected peer, validating source and length.

    :meth:`RankContext.recv_expected` keeps progress independent of
    arrival order while charging virtual time deterministically; the
    caller applies the returned payloads in sorted peer order.
    """
    received: dict[int, np.ndarray] = {}
    for source, msg in ctx.recv_expected(expected, tag).items():
        payload = np.asarray(msg.payload)
        if payload.shape[0] != expected[source]:
            raise ScheduleError(
                f"rank {ctx.rank}: {phase} payload from {source} has "
                f"{payload.shape[0]} elements, schedule expects "
                f"{expected[source]}"
            )
        received[source] = payload
    return received


def gather(
    ctx: "RankContext",
    schedule: CommSchedule,
    local_data: np.ndarray,
    *,
    tag: int = Tags.EXECUTOR_GATHER,
    cost_model: ExecutorCostModel = ExecutorCostModel(),
    # bench/tracing.py passes this; ROADMAP item 3 deletes it.
    backend: None = None,
    scratch: ExecutorScratch | None = None,
) -> np.ndarray:
    """Fetch off-processor elements into this rank's ghost buffer.

    Returns the filled ghost buffer (length ``schedule.ghost_size``), whose
    slot *i* holds the value of global element ``schedule.ghost_globals[i]``.
    With *scratch*, the ghost buffer is recycled across calls (see
    :class:`ExecutorScratch` for the validity contract).
    """
    if backend is not None:
        raise ConfigurationError(
            f"backend must be None (the runtime has one implementation), "
            f"got {backend!r}"
        )
    local_data = np.asarray(local_data)
    _check_local_shape(ctx, schedule, local_data)
    ctx.metrics.count("exec.gathers")
    ctx.metrics.count("exec.ghost_elements", schedule.ghost_size)
    pack = 0
    for dest in schedule.send_peers():
        idx = schedule.send_lists[dest]
        ctx.send(dest, np.ascontiguousarray(local_data[idx]), tag)
        pack += idx.size
    if pack:
        ctx.compute(pack * cost_model.sec_per_pack, label="gather-pack")

    shape = (schedule.ghost_size,) + local_data.shape[1:]
    if scratch is not None:
        ghost = scratch.ghost("gather", shape, local_data.dtype)
    else:
        ghost = np.empty(shape, dtype=local_data.dtype)
    expected = {
        src: pos.size for src, pos in schedule.recv_lists.items() if pos.size
    }
    received = _receive_all(ctx, expected, tag, "gather")
    unpack = 0
    for src in schedule.recv_peers():
        pos = schedule.recv_lists[src]
        ghost[pos] = received[src]
        unpack += pos.size
    if unpack:
        ctx.compute(unpack * cost_model.sec_per_unpack, label="gather-unpack")
    return ghost


def scatter(
    ctx: "RankContext",
    schedule: CommSchedule,
    ghost_data: np.ndarray,
    local_data: np.ndarray,
    *,
    op: Callable[[np.ndarray, np.ndarray, np.ndarray], None] | str = "add",
    tag: int = Tags.EXECUTOR_SCATTER,
    cost_model: ExecutorCostModel = ExecutorCostModel(),
) -> np.ndarray:
    """Push ghost-buffer contributions back to their home processors.

    The mirror of :func:`gather`: this rank sends each source's segment of
    its ghost buffer back, and receives contributions for the elements it
    sent out during gather, combining them into ``local_data`` with *op*
    (``"add"``, ``"replace"``, or a callable ``op(local, idx, values)``).

    Contributions are combined in ascending peer order regardless of
    message arrival order, so accumulation results are bit-deterministic
    across runs and thread schedules.

    Used by irregular kernels that accumulate into neighbor data (the
    symmetric counterpart of Fig. 8's read pattern).  Modifies and returns
    ``local_data``.
    """
    ghost_data = np.asarray(ghost_data)
    if ghost_data.shape[0] != schedule.ghost_size:
        raise ScheduleError(
            f"rank {ctx.rank}: ghost buffer has {ghost_data.shape[0]} "
            f"elements, schedule has {schedule.ghost_size} slots"
        )
    if not (op in ("add", "replace") or callable(op)):
        raise ScheduleError(f"unknown scatter op {op!r}")
    ctx.metrics.count("exec.scatters")
    pack = 0
    for src in schedule.recv_peers():
        pos = schedule.recv_lists[src]
        ctx.send(src, np.ascontiguousarray(ghost_data[pos]), tag)
        pack += pos.size
    if pack:
        ctx.compute(pack * cost_model.sec_per_pack, label="scatter-pack")

    expected = {
        dest: idx.size for dest, idx in schedule.send_lists.items() if idx.size
    }
    received = _receive_all(ctx, expected, tag, "scatter")
    unpack = 0
    for source in schedule.send_peers():
        idx = schedule.send_lists[source]
        payload = received[source]
        if op == "add":
            np.add.at(local_data, idx, payload)
        elif op == "replace":
            local_data[idx] = payload
        else:
            op(local_data, idx, payload)
        unpack += idx.size
    if unpack:
        ctx.compute(unpack * cost_model.sec_per_unpack, label="scatter-unpack")
    return local_data
