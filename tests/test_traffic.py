"""CBR emission grid, drop-tail queue, and sink bookkeeping."""

import numpy as np
import pytest

from sitelink.metrics import FlowStats
from sitelink.traffic import (DuplicateDeliveryError, FlowQueue, Packet, Sink,
                              VideoStream, cbr_emit_times)


def test_cbr_2mbps_gives_5ms_spacing_and_200_packets_per_second():
    stream = VideoStream(0, rate_bps=2e6, packet_size_bytes=1250,
                         start_s=0.0, stop_s=1.0)
    times = cbr_emit_times(stream)
    assert stream.interval_s == 0.005
    assert len(times) == 200
    assert times[0] == 0.0
    assert times[1] == pytest.approx(0.005, abs=1e-15)


def test_cbr_8mbps_gives_1p25ms_spacing():
    stream = VideoStream(0, rate_bps=8e6, packet_size_bytes=1250,
                         start_s=0.0, stop_s=0.01)
    times = cbr_emit_times(stream)
    assert times == pytest.approx([0.0, 0.00125, 0.0025, 0.00375, 0.005,
                                   0.00625, 0.0075, 0.00875])


def test_cbr_empty_interval_emits_nothing():
    stream = VideoStream(0, rate_bps=2e6, start_s=3.0, stop_s=3.0)
    assert cbr_emit_times(stream) == []


def test_cbr_count_matches_rate_window_within_one_packet():
    rng = np.random.default_rng(4)
    for _ in range(50):
        rate = float(rng.uniform(1e5, 1e7))
        size = int(rng.integers(100, 1500))
        a = float(rng.uniform(0.0, 2.0))
        b = a + float(rng.uniform(0.01, 5.0))
        stream = VideoStream(0, rate_bps=rate, packet_size_bytes=size,
                             start_s=a, stop_s=b)
        times = cbr_emit_times(stream)
        expect = (b - a) * rate / (8.0 * size)
        assert abs(len(times) - expect) <= 1.0
        assert all(a <= t < b for t in times)


def test_stream_invariants_enforced():
    with pytest.raises(ValueError):
        VideoStream(0, rate_bps=0.0)
    with pytest.raises(ValueError):
        VideoStream(0, rate_bps=1e6, packet_size_bytes=1501)
    with pytest.raises(ValueError):
        VideoStream(0, rate_bps=1e6, start_s=2.0, stop_s=1.0)


def test_queue_accepts_until_capacity_then_rejects():
    q = FlowQueue(capacity=3)
    pkts = [Packet(0, i, 1250, 0.0) for i in range(4)]
    assert all(q.offer(p) for p in pkts[:3])
    assert len(q) == 3
    assert q.bytes == 3 * 1250
    assert q.offer(pkts[3]) is False
    assert len(q) == 3
    assert q.bytes == 3 * 1250


def test_queue_fifo_order_and_byte_accounting():
    q = FlowQueue(capacity=10)
    for i in range(5):
        q.offer(Packet(0, i, 100 + i, 0.0))
    assert q.head().seq == 0
    assert q.pop().seq == 0
    assert q.bytes == sum(101 + i for i in range(4))
    rest = q.drain()
    assert [p.seq for p in rest] == [1, 2, 3, 4]
    assert q.bytes == 0 and len(q) == 0


def test_sink_records_delay_and_rejects_duplicates():
    # The runner hands one delivery time to the sink and to the flow ledger.
    sink = Sink()
    stats = FlowStats(3)
    pkt = Packet(3, 17, 1250, t_created=1.000)
    sink.receive(pkt, 1.012)
    stats.on_delivered(pkt, 1.012)
    assert stats.delay_sum_s == pytest.approx(0.012)
    dup = Packet(3, 17, 1250, t_created=1.005)
    with pytest.raises(DuplicateDeliveryError):
        sink.receive(dup, 1.02)


def test_sink_accepts_skipped_seqs_and_rejects_reordering():
    sink = Sink()
    sink.receive(Packet(0, 0, 1250, 0.0), 0.01)
    sink.receive(Packet(0, 5, 1250, 0.0), 0.02)    # seqs 1-4 were dropped
    sink.receive(Packet(1, 0, 1250, 0.0), 0.02)    # flows are independent
    with pytest.raises(DuplicateDeliveryError):
        sink.receive(Packet(0, 3, 1250, 0.0), 0.03)


def test_sink_rejects_delivery_before_creation():
    sink = Sink()
    with pytest.raises(ValueError):
        sink.receive(Packet(0, 0, 1250, t_created=2.0), 1.0)
