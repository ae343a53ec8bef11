"""Message records and tag constants for the simulated message-passing layer.

The paper's experiments ran on P4 over Ethernet; our substitute is an
in-memory message-passing substrate whose messages carry *virtual* timestamps
assigned by a :class:`repro.net.network.NetworkModel`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "Tags",
    "Message",
    "PackedArrays",
    "pack_arrays",
    "unpack_arrays",
    "payload_nbytes",
]


class Tags:
    """Reserved message tags used by the runtime library.

    User code should use tags >= :attr:`USER_BASE`.  Collective operations
    and the load-balancing protocol reserve the low tag space so they never
    collide with application point-to-point traffic.
    """

    BARRIER = 0
    BCAST = 1
    GATHER = 2
    ALLTOALL = 5
    SCHEDULE_REQUEST = 6
    SCHEDULE_REPLY = 7
    EXECUTOR_GATHER = 8
    EXECUTOR_SCATTER = 9
    REDISTRIBUTE = 10
    LOAD_REPORT = 11
    LB_DECISION = 12
    CHECKPOINT = 13
    #: Recovery redistribution uses ``RECOVERY_BASE + dead_rank`` so one
    #: partner covering several dead owners keeps their slab streams
    #: apart; world sizes up to ``USER_BASE - RECOVERY_BASE`` are safe.
    RECOVERY_BASE = 20
    USER_BASE = 100


@dataclass
class Message:
    """One in-flight message.

    ``send_time`` is the sender's virtual clock when the send was issued;
    ``arrival_time`` is assigned by the network model and is when the payload
    becomes available at the destination (the receiver's clock is advanced to
    at least this value on receipt).
    """

    source: int
    dest: int
    tag: int
    payload: Any
    nbytes: int
    send_time: float
    arrival_time: float = 0.0

    def __post_init__(self) -> None:
        if self.source < 0 or self.dest < 0:
            raise ValueError(
                f"message endpoints must be concrete ranks, got "
                f"source={self.source} dest={self.dest}"
            )
        if self.tag < 0:
            raise ValueError(f"message tag must be >= 0, got {self.tag}")


@dataclass(frozen=True)
class PackedArrays:
    """Several arrays coalesced into one contiguous wire payload.

    The batching primitive behind per-peer message coalescing: a sender
    with k logical arrays for one destination ships a single
    ``PackedArrays`` (one message, one per-message setup charge) instead
    of k messages.  ``buffer`` is the concatenated raw bytes; ``index``
    records ``(dtype string, shape)`` per segment so the receiver can
    reconstruct zero-copy views.
    """

    buffer: np.ndarray  # 1-D uint8
    index: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def num_segments(self) -> int:
        return len(self.index)


def pack_arrays(arrays: "list[np.ndarray] | tuple[np.ndarray, ...]") -> PackedArrays:
    """Coalesce *arrays* into one contiguous byte buffer + segment index."""
    segments = []
    index = []
    for a in arrays:
        a = np.asarray(a)
        # ascontiguousarray promotes 0-d to 1-d, so record the shape first.
        shape = a.shape
        contiguous = np.ascontiguousarray(a)
        segments.append(contiguous.reshape(-1).view(np.uint8))
        index.append((a.dtype.str, shape))
    buffer = (
        np.concatenate(segments)
        if segments
        else np.empty(0, dtype=np.uint8)
    )
    return PackedArrays(buffer=buffer, index=tuple(index))


def unpack_arrays(packed: PackedArrays) -> list[np.ndarray]:
    """Reconstruct the packed arrays as views into the shared buffer."""
    if not isinstance(packed, PackedArrays):
        raise TypeError(f"expected PackedArrays, got {type(packed).__name__}")
    out: list[np.ndarray] = []
    offset = 0
    for dtype_str, shape in packed.index:
        dt = np.dtype(dtype_str)
        count = 1
        for s in shape:
            count *= s
        nbytes = count * dt.itemsize
        seg = packed.buffer[offset : offset + nbytes]
        out.append(seg.view(dt).reshape(shape))
        offset += nbytes
    if offset != packed.buffer.nbytes:
        raise ValueError(
            f"packed buffer has {packed.buffer.nbytes} bytes, index describes "
            f"{offset}"
        )
    return out


def payload_nbytes(payload: Any) -> int:
    """Estimate the wire size of *payload* in bytes.

    numpy arrays count their buffer size exactly (the common case for the
    executor's gather/scatter traffic); scalars count their itemsize; other
    Python objects fall back to their pickled length, mirroring how P4 (and
    mpi4py's lowercase API) would serialize them.  Every path adds a small
    fixed header, so even empty messages have nonzero cost.
    """
    header = 16
    if isinstance(payload, PackedArrays):
        # One wire message: shared header + 8 bytes of index per segment.
        return header + int(payload.buffer.nbytes) + 8 * payload.num_segments
    if isinstance(payload, np.ndarray):
        return header + int(payload.nbytes)
    if isinstance(payload, (np.generic,)):
        return header + int(payload.itemsize)
    if isinstance(payload, (bool, int, float)):
        return header + 8
    if payload is None:
        return header
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return header + len(payload)
    if isinstance(payload, (tuple, list)) and all(
        isinstance(x, np.ndarray) for x in payload
    ):
        return header + sum(int(x.nbytes) for x in payload)
    try:
        return header + len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # unpicklable payloads still need *some* size
        return header + 64
