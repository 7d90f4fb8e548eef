"""Constant-bitrate video sources (camera avatars), per-UE queues, and the sink.

Video is abstracted as fixed-size UDP datagrams emitted on a strict CBR grid;
there is no codec or jitter model.  Queues are drop-tail.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional


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
        if self.rate_bps <= 0.0:
            raise ValueError("stream rate must be > 0")
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


@dataclass(slots=True)
class Packet:
    """One video datagram; the unit of loss and delay accounting."""

    flow_id: int
    seq: int
    size_bytes: int
    t_created: float


class FlowQueue:
    """Drop-tail FIFO with a fixed packet capacity."""

    __slots__ = ("capacity", "_q", "bytes")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._q: deque[Packet] = deque()
        self.bytes = 0

    def __len__(self) -> int:
        return len(self._q)

    def offer(self, pkt: Packet) -> bool:
        """Enqueue unless full; False means the packet was rejected."""
        if len(self._q) >= self.capacity:
            return False
        self._q.append(pkt)
        self.bytes += pkt.size_bytes
        return True

    def head(self) -> Optional[Packet]:
        return self._q[0] if self._q else None

    def pop(self) -> Packet:
        pkt = self._q.popleft()
        self.bytes -= pkt.size_bytes
        return pkt

    def drain(self) -> list[Packet]:
        out = list(self._q)
        self._q.clear()
        self.bytes = 0
        return out


class DuplicateDeliveryError(Exception):
    """A flow's seq handed to the sink twice or after a later seq."""


class Sink:
    """Receiving endpoint; rejects early, duplicate and reordered deliveries.

    Service is FIFO per flow, so delivered seqs strictly increase (drops only
    skip seqs); remembering the last seq per flow catches any duplicate.
    """

    def __init__(self):
        self._last_seq: dict[int, int] = {}

    def receive(self, pkt: Packet, t: float) -> None:
        if t < pkt.t_created:
            raise ValueError("delivery before creation")
        last = self._last_seq.get(pkt.flow_id)
        if last is not None and pkt.seq <= last:
            raise DuplicateDeliveryError(
                f"flow {pkt.flow_id} seq {pkt.seq} delivered after seq {last}")
        self._last_seq[pkt.flow_id] = pkt.seq
