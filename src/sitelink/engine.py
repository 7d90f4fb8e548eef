"""Deterministic discrete-event core: virtual clock, priority queue, RNG substreams.

One :class:`Simulator` instance drives one simulation run.  Instances share no
state, so independent replications may run concurrently in separate processes.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from typing import Callable, Optional, TextIO


class SchedulingInPastError(ValueError):
    """Raised when an event is scheduled before the current virtual clock."""


def _label_seed(label: str, seed: int) -> int:
    # sha256 keeps the label -> stream mapping stable across platforms and
    # Python versions, unlike the built-in hash().
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rng_stream(label: str, seed: int) -> random.Random:
    """Return the deterministic substream identified by (label, seed).

    Identical (label, seed) pairs always yield the identical draw sequence;
    distinct labels are seeded independently so that adding draws to one
    subsystem never perturbs another's sequence.
    """
    return random.Random(_label_seed(label, seed))


class Simulator:
    """Single-threaded event loop over a (time, sequence)-ordered queue.

    Simultaneous events are processed in insertion order, which makes every
    run reproducible bit for bit.  An event may ``claim`` its successor
    instead of queueing it when the queue would run that successor next, with
    the same effect.  An optional *trace* text stream receives one line per
    processed event: ``time<TAB>sequence<TAB>kind<TAB>detail``.
    """

    def __init__(self, trace: Optional[TextIO] = None):
        self._heap: list[tuple[float, int, Callable[[], None], str, str]] = []
        self._now = 0.0
        self._seq = 0
        self._trace = trace
        # The horizon of the run in progress, and the events claimed in it;
        # no claim succeeds outside run().
        self._until = -math.inf
        self._claimed = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, time: float, action: Callable[[], None],
                 kind: str = "event", detail: str = "") -> int:
        """Enqueue *action* at virtual *time*; returns the unique event id."""
        if time < self._now:
            raise SchedulingInPastError(
                f"cannot schedule at t={time}: clock already at {self._now}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, action, kind, detail))
        return seq

    def claim(self, time: float, kind: str = "event", detail: str = "") -> bool:
        """Let the running event process its successor at *time* inline.

        Succeeds only when the queue would run that event next: *time* is
        strictly before every queued event and not past ``run``'s horizon.
        The claimed event then takes the sequence number ``schedule`` would
        have given it, moves the clock, writes its trace line and counts in
        ``run``'s total; the caller performs its action at once.  On a tie or
        past the horizon nothing changes and the caller must ``schedule``.
        """
        heap = self._heap
        if time > self._until or (heap and heap[0][0] <= time):
            return False
        if time < self._now:
            raise SchedulingInPastError(
                f"cannot claim t={time}: clock already at {self._now}")
        seq = self._seq
        self._seq = seq + 1
        self._now = time
        self._claimed += 1
        if self._trace is not None:
            self._trace.write(f"{time:.9f}\t{seq}\t{kind}\t{detail}\n")
        return True

    def run(self, until: float) -> int:
        """Process every event with time <= until; leaves the clock at *until*."""
        if until < self._now:
            raise SchedulingInPastError(
                f"cannot run to t={until}: clock already at {self._now}")
        heap = self._heap
        pop = heapq.heappop
        trace = self._trace
        count = 0
        self._until = until
        self._claimed = 0
        try:
            while heap and heap[0][0] <= until:
                time, seq, action, kind, detail = pop(heap)
                self._now = time
                if trace is not None:
                    trace.write(f"{time:.9f}\t{seq}\t{kind}\t{detail}\n")
                action()
                count += 1
        finally:
            self._until = -math.inf
        self._now = until
        return count + self._claimed

