"""Length-prefixed socket framing for the real-process execution world.

The sim world hands payload *objects* between threads; the real world
(:mod:`repro.runtime.procs`) must put them on a byte stream.  This module
defines that stream format.  :class:`~repro.net.message.PackedArrays` is
already the runtime's serialization boundary (the executor and checkpoint
layers coalesce arrays into one contiguous buffer per peer), so it maps
directly onto a wire frame: the segment index travels in the frame header
area and the buffer bytes travel verbatim, with no per-element encoding.

Frame layout (all little-endian)::

    magic    u32   sanity check against stream desync
    source   i32   sending rank
    tag      i32   message tag (>= 0; control frames use kind instead)
    kind     i32   payload encoding, one of KIND_*
    meta_len u32   length of the pickled metadata section
    body_len u64   length of the raw body section
    meta     meta_len bytes
    body     body_len bytes

Payload encodings:

``KIND_PACKED``
    body = ``PackedArrays.buffer`` bytes, meta = pickled segment index.
``KIND_ARRAY``
    body = raw ndarray bytes, meta = pickled ``(dtype_str, shape)``.
``KIND_PICKLE``
    body = pickled object, meta empty (fallback for scalars, dicts, ...).
``KIND_SHUTDOWN``
    control frame: the peer is leaving.  meta = pickled bool, True for a
    clean exit (receiver just stops reading this peer) and False for an
    error exit (receiver closes its mailbox so blocked receives wake with
    :class:`~repro.errors.MailboxClosedError`, mirroring the sim world's
    failure cascade).

A frame leaves as one ``sendmsg`` of :func:`frame_parts`.  The receiving
side parses the stream with a :class:`FrameReader`, which never blocks and
never touches a socket: its owner reads whatever bytes are available into
:meth:`FrameReader.buffer` and collects the completed frames.  Bodies are
received into fresh writable memory (a ``bytearray`` per frame, which a
large body is read into directly), so decoded arrays behave like the sim
world's payloads.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any

import numpy as np

from repro.errors import CommunicationError
from repro.net.message import PackedArrays

__all__ = [
    "KIND_PICKLE",
    "KIND_ARRAY",
    "KIND_PACKED",
    "KIND_SHUTDOWN",
    "Frame",
    "FrameReader",
    "encode_payload",
    "decode_payload",
    "frame_parts",
]

_MAGIC = 0x5250524F  # "RPRO"
_HEADER = struct.Struct("<IiiiIQ")
#: One socket read's worth of headers, metadata and small bodies.
_SCRATCH_BYTES = 1 << 16

KIND_PICKLE = 0
KIND_ARRAY = 1
KIND_PACKED = 2
KIND_SHUTDOWN = 3


class Frame:
    """One decoded wire frame."""

    __slots__ = ("source", "tag", "kind", "meta", "body")

    def __init__(self, source: int, tag: int, kind: int, meta: bytes, body: bytes):
        self.source = source
        self.tag = tag
        self.kind = kind
        self.meta = meta
        self.body = body

    @property
    def nbytes(self) -> int:
        """Wire size of this frame (header + sections)."""
        return _HEADER.size + len(self.meta) + len(self.body)


def encode_payload(payload: Any) -> tuple[int, bytes, Any]:
    """Return ``(kind, meta, body)`` for *payload*.

    ``body`` is a bytes-like object (possibly a memoryview over the
    payload's own buffer — callers must send it before mutating the
    payload, which the runtime's buffered-send semantics guarantee).
    """
    if isinstance(payload, PackedArrays):
        buf = np.ascontiguousarray(payload.buffer)
        return KIND_PACKED, pickle.dumps(payload.index), memoryview(buf).cast("B")
    if isinstance(payload, np.ndarray):
        a = np.ascontiguousarray(payload)
        meta = pickle.dumps((a.dtype.str, payload.shape))
        return KIND_ARRAY, meta, memoryview(a.reshape(-1).view(np.uint8)).cast("B")
    return KIND_PICKLE, b"", pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def decode_payload(kind: int, meta: bytes, body: bytes | bytearray) -> Any:
    """Inverse of :func:`encode_payload`."""
    if kind == KIND_PACKED:
        index = pickle.loads(meta)
        buffer = np.frombuffer(body, dtype=np.uint8)
        return PackedArrays(buffer=buffer, index=index)
    if kind == KIND_ARRAY:
        dtype_str, shape = pickle.loads(meta)
        return np.frombuffer(body, dtype=np.dtype(dtype_str)).reshape(shape)
    if kind == KIND_PICKLE:
        return pickle.loads(bytes(body))
    raise CommunicationError(f"cannot decode payload frame of kind {kind}")


def frame_parts(
    source: int, tag: int, kind: int, meta: bytes, body: Any
) -> tuple[bytes, bytes, Any]:
    """The buffers of one frame, ``(header, meta, body)``, for one
    ``sendmsg`` (no concatenation copy)."""
    header = _HEADER.pack(_MAGIC, source, tag, kind, len(meta), len(body))
    return header, meta, body


class FrameReader:
    """Incremental frame parser for one peer's byte stream.

    The owner asks :meth:`buffer` where the next bytes go, reads into it
    (``sock.recv_into``) and reports the count to :meth:`advance`, which
    returns the frames that count completed.  Headers and metadata land in
    a scratch buffer; once a header names a body that has not fully
    arrived, :meth:`buffer` is the unfilled tail of that frame's fresh
    ``bytearray``, so large bodies are read straight into their final
    memory.  :meth:`eof` raises if the stream ends inside a frame.
    """

    __slots__ = ("_scratch", "_pending", "_head", "_body", "_got")

    def __init__(self):
        self._scratch = memoryview(bytearray(_SCRATCH_BYTES))
        self._pending = bytearray()  # unparsed header/meta bytes
        self._head: tuple[int, int, int, bytes] | None = None
        self._body: bytearray | None = None  # the body being filled
        self._got = 0

    def buffer(self) -> memoryview:
        """Writable memory for the next bytes of the stream."""
        if self._body is not None:
            return memoryview(self._body)[self._got:]
        return self._scratch

    def advance(self, n: int) -> list[Frame]:
        """Account for *n* bytes just written into :meth:`buffer`."""
        if self._body is None:
            self._pending += self._scratch[:n]
            return self._parse()
        self._got += n
        if self._got < len(self._body):
            return []
        source, tag, kind, meta = self._head
        frame = Frame(source, tag, kind, meta, self._body)
        self._head = self._body = None
        return [frame]

    def eof(self) -> None:
        """The stream ended: fine at a frame edge, an error inside one."""
        if self._body is not None or self._pending:
            raise CommunicationError("stream ended inside a frame")

    def _parse(self) -> list[Frame]:
        frames: list[Frame] = []
        buf = self._pending
        pos = 0
        while len(buf) - pos >= _HEADER.size:
            magic, source, tag, kind, meta_len, body_len = _HEADER.unpack_from(
                buf, pos
            )
            if magic != _MAGIC:
                raise CommunicationError(
                    f"bad frame magic 0x{magic:08x}: socket stream "
                    f"desynchronized"
                )
            start = pos + _HEADER.size
            if len(buf) - start < meta_len:
                break  # wait for the rest of the metadata
            meta = bytes(buf[start:start + meta_len])
            start += meta_len
            have = min(body_len, len(buf) - start)
            body = bytearray(body_len)
            body[:have] = buf[start:start + have]
            pos = start + have
            if have < body_len:
                self._head, self._body, self._got = (
                    (source, tag, kind, meta), body, have
                )
                break
            frames.append(Frame(source, tag, kind, meta, body))
        del buf[:pos]
        return frames
