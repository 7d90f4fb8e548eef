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

# An event's action: called with the event's time, it returns the time of
# its chain's next event, or None to end the chain.
Action = Callable[[float], Optional[float]]


class SchedulingInPastError(ValueError):
    """Raised when an event time is before the virtual clock, or NaN."""


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
    run reproducible bit for bit.  An action receives its event's time and
    may return the time of its chain's next event, which then takes the next
    sequence number, exactly as if the action had scheduled it last.  An
    optional *trace* text stream receives one line per processed event:
    ``time<TAB>sequence<TAB>kind<TAB>detail``.
    """

    def __init__(self, trace: Optional[TextIO] = None):
        self._heap: list[tuple[float, int, Action, str, str]] = []
        self._now = 0.0
        self._seq = 0
        self._trace = trace

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, time: float, action: Action,
                 kind: str = "event", detail: str = "") -> int:
        """Enqueue *action* at virtual *time*; returns the unique event id."""
        if not time >= self._now:   # NaN fails too
            raise SchedulingInPastError(
                f"cannot schedule at t={time}: clock already at {self._now}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, action, kind, detail))
        return seq

    def horizon(self) -> float:
        """The earliest queued event's time; inf if none.

        A chain may serve its own next instants strictly before the horizon,
        and the engine queues every successor.
        """
        return self._heap[0][0] if self._heap else math.inf

    def run(self, until: float) -> int:
        """Process every event with time <= until; leaves the clock at *until*.

        An action's returned successor is queued like a scheduled event.
        """
        if not until >= self._now:
            raise SchedulingInPastError(
                f"cannot run to t={until}: clock already at {self._now}")
        heap = self._heap
        pop, push = heapq.heappop, heapq.heappush
        trace = self._trace
        count = 0
        while heap and heap[0][0] <= until:
            time, seq, action, kind, detail = pop(heap)
            self._now = time
            if trace is not None:
                trace.write(f"{time:.9f}\t{seq}\t{kind}\t{detail}\n")
            count += 1
            nxt = action(time)
            if nxt is not None:
                if not nxt >= time:
                    raise SchedulingInPastError(
                        f"cannot continue at t={nxt}: clock already at {time}")
                seq = self._seq
                self._seq = seq + 1
                push(heap, (nxt, seq, action, kind, detail))
        self._now = until
        return count
