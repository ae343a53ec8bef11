"""Communication-schedule data structures (paper Sec. 3.2, Fig. 4).

A :class:`CommSchedule` is one rank's view of a gather/scatter pattern:

* **send lists** — "a list of arrays that store the local references of
  processor P that must be sent to other processors";
* **permutation list** — "an array that stores the placement order in the
  local buffer of P for the data elements that processor P will receive",
  stored per source as ghost-buffer positions;
* **ghost globals** — the global index behind each ghost-buffer slot (used
  by the kernel indirection and by invariant checks).

The structure is strategy-agnostic: the simple, sort1 and sort2 builders in
:mod:`repro.runtime.schedule_builders` all produce one of these, differing
only in element order and build cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ScheduleError
from repro.partition.intervals import IntervalPartition

__all__ = ["CommSchedule"]


@dataclass
class CommSchedule:
    """One rank's gather/scatter schedule.

    Invariant (validated): for matched ranks r, s the data r sends to s
    (``send_lists[s]`` on r, as global indices) equals, elementwise and in
    order, the data s expects from r (``recv_lists[r]`` positions into
    ``ghost_globals`` on s).  ``tests/oracles_runtime.py`` checks it.
    """

    rank: int
    partition: IntervalPartition
    #: dest rank -> local indices (within this rank's block) to send.
    send_lists: dict[int, np.ndarray] = field(default_factory=dict)
    #: source rank -> ghost-buffer positions to place received data at.
    recv_lists: dict[int, np.ndarray] = field(default_factory=dict)
    #: global index behind each ghost slot (len == ghost_size).
    ghost_globals: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.intp)
    )

    def __post_init__(self) -> None:
        lo, hi = self.partition.interval(self.rank)
        block = hi - lo
        for dest, arr in self.send_lists.items():
            self.send_lists[dest] = np.ascontiguousarray(arr, dtype=np.intp)
            if dest == self.rank:
                raise ScheduleError(f"rank {self.rank}: send list to itself")
        ghost = np.ascontiguousarray(self.ghost_globals, dtype=np.intp)
        object.__setattr__(self, "ghost_globals", ghost)
        for src, pos in self.recv_lists.items():
            self.recv_lists[src] = np.ascontiguousarray(pos, dtype=np.intp)
            if src == self.rank:
                raise ScheduleError(f"rank {self.rank}: recv list from itself")
        # Range/coverage checks run once over the concatenated lists (the
        # constructor sits on the phase-B hot path; per-list reductions
        # cost more than they check).  A failed fast check falls back to
        # the per-list scan purely to name the offending peer.
        if self.send_lists:
            all_send = np.concatenate(list(self.send_lists.values()))
            if all_send.size and (
                all_send.min() < 0 or all_send.max() >= block
            ):
                for dest, arr in self.send_lists.items():
                    if arr.size and (arr.min() < 0 or arr.max() >= block):
                        raise ScheduleError(
                            f"rank {self.rank}: send list for {dest} has "
                            f"local indices outside [0, {block})"
                        )
        # Ascending recv positions covering [0, ghost) exactly once imply
        # in-range, no-duplicate, and fully-filled in a single pass.
        pos_all = (
            np.concatenate(list(self.recv_lists.values()))
            if self.recv_lists
            else np.empty(0, dtype=np.intp)
        )
        covered = pos_all.size == ghost.size and bool(
            np.array_equal(
                np.sort(pos_all), np.arange(ghost.size, dtype=np.intp)
            )
        )
        if not covered:
            seen = np.zeros(ghost.size, dtype=bool)
            for src, pos in self.recv_lists.items():
                if pos.size and (pos.min() < 0 or pos.max() >= ghost.size):
                    raise ScheduleError(
                        f"rank {self.rank}: recv positions for {src} out of "
                        f"ghost buffer [0, {ghost.size})"
                    )
                if np.any(seen[pos]):
                    raise ScheduleError(
                        f"rank {self.rank}: ghost slots assigned to two "
                        f"sources"
                    )
                seen[pos] = True
            if ghost.size and not seen.all():
                raise ScheduleError(
                    f"rank {self.rank}: {int((~seen).sum())} ghost slots "
                    f"never filled"
                )
        # Sorted peer order is consulted twice per executor phase per
        # rank; cache it once at validation time instead of re-sorting in
        # the virtual-time hot loop.  (Builders never mutate the lists
        # after construction; anything that does must build a fresh
        # CommSchedule, which re-validates too.)
        self._send_peers: tuple[int, ...] = tuple(
            sorted(d for d, arr in self.send_lists.items() if arr.size)
        )
        self._recv_peers: tuple[int, ...] = tuple(
            sorted(s for s, pos in self.recv_lists.items() if pos.size)
        )

    # ------------------------------------------------------------------ #

    @property
    def ghost_size(self) -> int:
        return int(self.ghost_globals.size)

    @property
    def num_send_messages(self) -> int:
        return sum(1 for arr in self.send_lists.values() if arr.size)

    @property
    def num_recv_messages(self) -> int:
        return sum(1 for arr in self.recv_lists.values() if arr.size)

    @property
    def send_volume(self) -> int:
        """Total elements this rank sends per gather."""
        return sum(int(arr.size) for arr in self.send_lists.values())

    def send_peers(self) -> list[int]:
        """Destinations with a non-empty send list, ascending.

        The executor issues sends in exactly this order (and applies
        received contributions in ascending source order), so schedule
        *dict insertion order* can never influence results.  Computed at
        construction; returned as a fresh list each call.
        """
        return list(self._send_peers)

    def recv_peers(self) -> list[int]:
        """Sources with a non-empty recv list, ascending (cached)."""
        return list(self._recv_peers)

    def stats(self) -> dict[str, int]:
        """Structural facts of this schedule (deterministic; used by the
        scale benchmarks and pinned by the golden regression test)."""
        return {
            "ghosts": self.ghost_size,
            "send_volume": self.send_volume,
            "send_messages": self.num_send_messages,
            "recv_messages": self.num_recv_messages,
        }
