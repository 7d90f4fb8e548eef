"""CBR emission grid, drop-tail queue, and sink bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sitelink.phymac import RrState, nr_slot_schedule
from sitelink.traffic import (DuplicateDeliveryError, FlowQueue, Sink,
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
    # At an infinite rate the packet interval is 0 s: the grid would yield
    # its first instant forever.
    with pytest.raises(ValueError, match="finite"):
        VideoStream(0, rate_bps=np.inf)
    with pytest.raises(ValueError):
        VideoStream(0, rate_bps=1e6, packet_size_bytes=1501)
    with pytest.raises(ValueError):
        VideoStream(0, rate_bps=1e6, start_s=2.0, stop_s=1.0)


def test_queue_accepts_until_capacity_then_rejects():
    q = FlowQueue(capacity=3)
    assert all(q.offer(seq) for seq in range(3))
    assert len(q) == 3
    assert q.offer(3) is False
    assert len(q) == 3


def test_queue_fifo_order_and_drain():
    q = FlowQueue(capacity=10)
    for i in range(5):
        q.offer(i)
    assert q[0] == 0
    assert q.pop() == 0
    assert len(q) == 4
    assert [q.pop() for _ in range(4)] == [1, 2, 3, 4]
    assert len(q) == 0 and not q


_QUEUE_OPS = st.sampled_from(["offer", "pop"])


@settings(max_examples=200, deadline=None)
@given(capacities=st.lists(st.integers(1, 10), min_size=1, max_size=5),
       steps=st.lists(st.tuples(st.integers(0, 4), _QUEUE_OPS), max_size=80))
def test_queue_operations_keep_capacity_and_fifo_order(capacities, steps):
    # A plain list models each queue; round robin must pick the same UE
    # from the queues as from their lengths after every step.
    queues = [FlowQueue(c) for c in capacities]
    models = [[] for _ in capacities]
    by_queue, by_len = RrState(), RrState()
    for seq, (which, op) in enumerate(steps):
        q, model = queues[which % len(queues)], models[which % len(queues)]
        if op == "offer":
            full = len(model) == q.capacity
            assert q.offer(seq) is not full
            if not full:
                model.append(seq)
        elif model:
            assert q.pop() == model.pop(0)
        else:
            with pytest.raises(IndexError):
                q.pop()
        for q, model in zip(queues, models):
            assert len(q) == len(model) <= q.capacity
            assert list(q) == model
            assert bool(q) is bool(model)
        pick = nr_slot_schedule(by_queue, queues)
        assert pick == nr_slot_schedule(by_len, [len(q) for q in queues])
        assert by_queue.rr_pos == by_len.rr_pos


def test_sink_records_delay_and_rejects_duplicates():
    sink = Sink(3)
    sink.receive(17, 1.000, 1.012)
    assert sink.last_seq == 17
    with pytest.raises(DuplicateDeliveryError):
        sink.receive(17, 1.005, 1.02)


def test_sink_accepts_skipped_seqs_and_rejects_reordering():
    # One sink per flow: drops skip seqs, and nothing may go back.
    sink = Sink(4)
    sink.receive(0, 0.0, 0.01)
    sink.receive(5, 0.0, 0.02)    # seqs 1-4 were dropped
    for seq in (3, 5):
        with pytest.raises(DuplicateDeliveryError,
                           match=f"^flow 4 seq {seq} delivered after seq 5$"):
            sink.receive(seq, 0.0, 0.03)
    sink.receive(6, 0.0, 0.03)
    assert sink.last_seq == 6
    Sink(5).receive(0, 0.0, 0.03)   # another flow's sink


def test_sink_rejects_delivery_before_creation():
    sink = Sink(2)
    with pytest.raises(ValueError) as err:
        sink.receive(7, 2.0, 1.5)
    assert not isinstance(err.value, DuplicateDeliveryError)
    assert str(err.value) == ("flow 2 seq 7 delivered at t=1.5 before its "
                              "creation at t=2.0")
    assert sink.last_seq == -1
