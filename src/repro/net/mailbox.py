"""Thread-safe per-rank mailboxes: exact (source, tag) channels.

Each rank owns one :class:`Mailbox`.  Senders deposit :class:`Message`
objects; the owning rank blocks in :meth:`Mailbox.receive` (one channel) or
:meth:`Mailbox.receive_bulk` (one message from each of a known set of
sources on one tag) until the messages it named have arrived.  Every
receive names its source and its tag — the replicated interval list lets
both sides of every exchange derive the pattern locally, so there is no
wildcard matching — and each channel is FIFO, the ordering guarantee P4
(and MPI) provide.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Iterable

from repro.errors import CommunicationError, MailboxClosedError
from repro.net.message import Message

__all__ = ["Mailbox"]


class Mailbox:
    """Unbounded buffered mailbox for a single receiving rank.

    One deque per (source, tag) channel is the only message container:
    a receive is a ``popleft`` on the channel it names, and whether a
    blocked rank can proceed is a function of those channels alone.
    """

    def __init__(
        self, rank: int, block: Callable[[float | None], bool] | None = None
    ):
        self.rank = rank
        self._cond = threading.Condition()
        #: The blocked-wait step: ``block(timeout)`` returns once a deposit
        #: (or a close) may have happened, False if *timeout* passed first.
        #: The sim world waits on the condition a sender thread notifies;
        #: a real-world rank passes its socket progress routine, which
        #: deposits from the calling thread.
        self._block = block or self._cond.wait
        self._channels: dict[tuple[int, int], Deque[Message]] = {}
        self._pending = 0
        self._closed = False

    def deposit(self, msg: Message) -> None:
        """Called by a sender thread (sim) or the owner's progress routine
        (real); never blocks."""
        if msg.dest != self.rank:
            raise CommunicationError(
                f"message for rank {msg.dest} deposited in mailbox {self.rank}"
            )
        with self._cond:
            if self._closed:
                raise MailboxClosedError(
                    f"mailbox {self.rank} is closed; dropping message from "
                    f"{msg.source} tag {msg.tag}"
                )
            self._channels.setdefault((msg.source, msg.tag), deque()).append(msg)
            self._pending += 1
            self._cond.notify_all()

    def _wait(self, timeout: float | None, what: str, waiting_for: str) -> None:
        """Block for the next deposit; caller holds the lock.

        ``timeout`` is a *real* (host) timeout guarding against deadlocks;
        expiry raises :class:`CommunicationError` naming what the rank was
        blocked on and how many other messages sit buffered.
        """
        if not self._block(timeout):
            raise CommunicationError(
                f"rank {self.rank}: {what} timed out after {timeout}s "
                f"waiting for {waiting_for} ({self._pending} non-matching "
                f"message(s) buffered); likely deadlock or a slow peer — "
                f"tune with --recv-timeout / REPRO_RECV_TIMEOUT"
            )

    def receive(
        self, source: int, tag: int, *, timeout: float | None = None
    ) -> Message:
        """Block until the (source, tag) channel has a message; pop it."""
        with self._cond:
            while True:
                if self._closed:
                    raise MailboxClosedError(f"mailbox {self.rank} closed")
                q = self._channels.get((source, tag))
                if q:
                    self._pending -= 1
                    return q.popleft()
                self._wait(
                    timeout, "blocked receive", f"source={source}, tag={tag}"
                )

    def receive_bulk(
        self,
        sources: Iterable[int],
        tag: int,
        *,
        timeout: float | None = None,
    ) -> dict[int, Message]:
        """Receive one message from each of *sources* on *tag*.

        The known-pattern drain: one lock acquisition and one pass over
        the expected channels per wakeup, each source's FIFO head only —
        a fast peer's *next* message on the tag stays queued for the next
        drain.

        A buffered message carrying *tag* from a rank outside *sources*
        is a protocol violation and raises :class:`CommunicationError`,
        checked whenever no expected channel can make progress.
        """
        expected = frozenset(sources)
        received: dict[int, Message] = {}
        pending = set(expected)
        with self._cond:
            while pending:
                if self._closed:
                    raise MailboxClosedError(f"mailbox {self.rank} closed")
                for s in tuple(pending):
                    q = self._channels.get((s, tag))
                    if q:
                        received[s] = q.popleft()
                        pending.discard(s)
                        self._pending -= 1
                if not pending:
                    break
                for (s, t), q in self._channels.items():
                    if t == tag and q and s not in expected:
                        raise CommunicationError(
                            f"rank {self.rank}: unexpected message from rank "
                            f"{s} (tag {tag}) while expecting "
                            f"{sorted(pending)}"
                        )
                self._wait(
                    timeout, "bulk receive",
                    f"sources {sorted(pending)}, tag {tag}",
                )
        return received

    def pending_count(self) -> int:
        """Messages deposited and not yet received."""
        return self._pending

    def close(self) -> None:
        """Wake all blocked receivers with :class:`MailboxClosedError`."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
