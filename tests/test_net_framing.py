"""The frame reader on bytes in hand: no sockets, no processes.

``FrameReader`` is the receive half of the real world's wire format; a
rank feeds it whatever its non-blocking sockets return.  These properties
pin that the frames it yields do not depend on where the stream was cut.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommunicationError
from repro.net.framing import (
    FrameReader,
    decode_payload,
    encode_payload,
    frame_parts,
)

#: Payloads of every encoding; a cut inside the array's body leaves the
#: rest of it to be read straight into the frame's own memory.
PAYLOADS = [
    3.25,
    {"k": [1, 2], "s": "x"},
    np.arange(700, dtype=np.float64),
    np.array([], dtype=np.int64),
    None,
]


def feed(reader, data):
    """Push bytes in hand through *reader*'s buffer/advance protocol,
    exactly as a socket read would; returns the frames completed."""
    frames = []
    view = memoryview(data)
    while len(view):
        buf = reader.buffer()
        k = min(len(buf), len(view))
        buf[:k] = view[:k]
        view = view[k:]
        frames += reader.advance(k)
    return frames


def _wire(frames):
    return b"".join(
        bytes(part)
        for source, tag, payload in frames
        for part in frame_parts(source, tag, *encode_payload(payload))
    )


def _same(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


frame_specs = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.integers(0, 1000),
        st.sampled_from(range(len(PAYLOADS))),
    ),
    min_size=1,
    max_size=8,
)


def _check(specs, got):
    assert [(f.source, f.tag) for f in got] == [(s, t) for s, t, _ in specs]
    for (_, _, i), frame in zip(specs, got):
        decoded = decode_payload(frame.kind, frame.meta, frame.body)
        assert _same(PAYLOADS[i], decoded)


class TestFrameReader:
    @settings(deadline=None, max_examples=80)
    @given(
        specs=frame_specs,
        cuts=st.lists(st.floats(0.0, 1.0), max_size=12),
    )
    def test_random_split_points(self, specs, cuts):
        data = _wire([(s, t, PAYLOADS[i]) for s, t, i in specs])
        points = sorted({int(c * len(data)) for c in cuts} | {0, len(data)})
        reader = FrameReader()
        got = []
        for lo, hi in zip(points, points[1:]):
            got += feed(reader, data[lo:hi])
        reader.eof()
        _check(specs, got)

    @settings(deadline=None, max_examples=30)
    @given(specs=frame_specs)
    def test_many_frames_in_one_chunk(self, specs):
        data = _wire([(s, t, PAYLOADS[i]) for s, t, i in specs])
        reader = FrameReader()
        got = feed(reader, data)
        reader.eof()
        _check(specs, got)

    @settings(deadline=None, max_examples=10)
    @given(specs=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 1000), st.sampled_from([0, 1, 3, 4])),
        min_size=1, max_size=4,
    ))
    def test_byte_at_a_time(self, specs):
        data = _wire([(s, t, PAYLOADS[i]) for s, t, i in specs])
        reader = FrameReader()
        got = []
        for k in range(len(data)):
            got += feed(reader, data[k:k + 1])
        reader.eof()
        _check(specs, got)

    @settings(deadline=None, max_examples=40)
    @given(specs=frame_specs, cut=st.floats(0.0, 1.0, exclude_max=True))
    def test_truncated_frame_at_eof_raises(self, specs, cut):
        frames = [(s, t, PAYLOADS[i]) for s, t, i in specs]
        head, last = _wire(frames[:-1]), _wire(frames[-1:])
        data = head + last
        # Cut strictly inside the last frame: at least one byte of it
        # received, at least one missing.
        keep = len(head) + 1 + int(cut * (len(last) - 1))
        reader = FrameReader()
        feed(reader, data[:keep])
        with pytest.raises(CommunicationError, match="inside a frame"):
            reader.eof()
