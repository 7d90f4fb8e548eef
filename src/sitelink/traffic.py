"""Constant-bitrate video sources (camera avatars), per-flow queues and sinks.

Video is abstracted as UDP datagrams of the stream's fixed size, emitted on a
strict CBR grid; there is no codec or jitter model.  A packet is its seq: the
index of its instant on the grid, whose time the runner notes once per
instant.  Every flow's queue holds the seqs it accepted, in a drop-tail
deque.  ``Sink`` is the rule a flow's deliveries obey; the runner's outcome
loop checks it inline and calls ``Sink.receive`` only to raise the error for
a delivery that breaks it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterator


class DropCause(str, Enum):
    QUEUE_OVERFLOW = "queue_overflow"
    HARQ_EXHAUSTED = "harq_exhausted"
    OUT_OF_COVERAGE = "out_of_coverage"


@dataclass(frozen=True)
class VideoStream:
    """One camera uplink flow: CBR packets of a fixed size."""

    flow_id: int
    rate_bps: float
    packet_size_bytes: int = 1250
    start_s: float = 0.0
    stop_s: float = 20.0

    def __post_init__(self):
        # An infinite rate gives a 0 s interval: the grid would never end.
        if not 0.0 < self.rate_bps < math.inf:
            raise ValueError("stream rate must be > 0 and finite")
        if not 0 < self.packet_size_bytes <= 1500:
            raise ValueError("packet size must be in 1..1500 bytes")
        if self.start_s > self.stop_s:
            raise ValueError("stream start must not be after stop")

    @property
    def interval_s(self) -> float:
        return self.packet_size_bytes * 8.0 / self.rate_bps


def cbr_grid(stream: VideoStream) -> Iterator[float]:
    """Packet creation times start + k * T, k = 0, 1, ..., strictly before stop.

    Times are computed as start + k * T (not accumulated) so a given stream
    always yields the identical grid.
    """
    start, stop, interval = stream.start_s, stream.stop_s, stream.interval_s
    k = 0
    while (t := start + k * interval) < stop:
        yield t
        k += 1


def cbr_emit_times(stream: VideoStream) -> list[float]:
    """Every creation time of the stream's CBR grid, as a list."""
    return list(cbr_grid(stream))


class FlowQueue(deque):
    """Drop-tail FIFO of packet seqs with a fixed capacity: the deque itself.

    ``len``, truthiness and ``q[0]`` are the deque's own; ``pop`` is its
    ``popleft``, which takes the head."""

    __slots__ = ("capacity",)

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity

    def offer(self, seq: int) -> bool:
        """Enqueue unless full; False means the packet was rejected."""
        if len(self) >= self.capacity:
            return False
        self.append(seq)
        return True

    pop = deque.popleft


class DuplicateDeliveryError(Exception):
    """A flow's seq handed to the sink twice or after a later seq."""


class Sink:
    """One flow's receiving endpoint; rejects early, duplicate and reordered
    deliveries.  Service is FIFO, so delivered seqs strictly increase (drops
    only skip seqs); remembering the last seq catches any duplicate."""

    __slots__ = ("flow_id", "last_seq")

    def __init__(self, flow_id: int, last_seq: int = -1):
        self.flow_id = flow_id
        self.last_seq = last_seq

    def receive(self, seq: int, t_created: float, t: float) -> None:
        """Deliver packet *seq*, created at *t_created*, at time *t*."""
        if t < t_created:
            raise ValueError(
                f"flow {self.flow_id} seq {seq} delivered at t={t} "
                f"before its creation at t={t_created}")
        if seq <= self.last_seq:
            raise DuplicateDeliveryError(
                f"flow {self.flow_id} seq {seq} delivered after seq "
                f"{self.last_seq}")
        self.last_seq = seq
