"""Event queue ordering, clock semantics, and RNG substream determinism."""

import hashlib
import io
import random

import pytest

from sitelink.engine import SchedulingInPastError, Simulator, rng_stream


def test_schedule_on_empty_queue_returns_first_id():
    sim = Simulator()
    log = []
    eid = sim.schedule(0.0, lambda: log.append("a"))
    assert eid == 0
    assert log == []
    sim.run(1.0)
    assert log == ["a"]


def test_simultaneous_events_run_in_insertion_order():
    sim = Simulator()
    log = []
    sim.schedule(1.0, lambda: log.append("A"))
    sim.schedule(1.0, lambda: log.append("B"))
    sim.schedule(0.5, lambda: log.append("C"))
    sim.run(2.0)
    assert log == ["C", "A", "B"]


def test_scheduling_in_the_past_is_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(1.0)
    with pytest.raises(SchedulingInPastError):
        sim.schedule(0.5, lambda: None)


def test_run_processes_all_due_events_and_advances_clock():
    sim = Simulator()
    hits = []
    for t in (0.1, 0.2, 0.3):
        sim.schedule(t, lambda t=t: hits.append(t))
    assert sim.run(1.0) == 3
    assert sim.now == 1.0
    assert hits == [0.1, 0.2, 0.3]


def test_run_is_idempotent_at_same_horizon():
    sim = Simulator()
    sim.schedule(0.5, lambda: None)
    assert sim.run(1.0) == 1
    assert sim.run(1.0) == 0
    assert sim.now == 1.0


def test_event_ids_unique_and_nothing_skipped_or_duplicated():
    sim = Simulator()
    rng = rng_stream("times", 7)
    fired = {}
    ids = set()
    for i in range(500):
        t = rng.random() * 10.0
        eid = sim.schedule(t, lambda i=i: fired.__setitem__(i, fired.get(i, 0) + 1))
        assert eid not in ids
        ids.add(eid)
    processed = sim.run(10.0)
    assert processed == 500
    assert sorted(fired) == list(range(500))
    assert all(n == 1 for n in fired.values())


def test_processed_timestamps_are_nondecreasing():
    sim = Simulator()
    rng = rng_stream("times", 3)
    seen = []
    for _ in range(300):
        sim.schedule(rng.random() * 5.0, lambda: seen.append(sim.now))
    sim.run(5.0)
    assert all(a <= b for a, b in zip(seen, seen[1:]))


def _scripted_trace(seed: int) -> list[str]:
    out = io.StringIO()
    sim = Simulator(trace=out)
    rng = rng_stream("script", seed)

    def emit():
        if sim.now < 4.0:
            sim.schedule(sim.now + rng.random(), emit, "tick", "scripted")

    sim.schedule(0.0, emit, "tick", "scripted")
    sim.run(5.0)
    return out.getvalue().splitlines()


def test_replay_gives_byte_identical_event_traces():
    first = _scripted_trace(42)
    second = _scripted_trace(42)
    assert first == second
    assert first != _scripted_trace(43)


def test_trace_line_format():
    # One line per processed event: time, insertion sequence, kind, detail.
    out = io.StringIO()
    sim = Simulator(trace=out)
    sim.schedule(1.25, lambda: None, "slot", "lte")
    sim.schedule(0.5, lambda: None)
    sim.run(2.0)
    assert out.getvalue() == ("0.500000000\t1\tevent\t\n"
                              "1.250000000\t0\tslot\tlte\n")


def _ticker(claim: bool):
    """A chain of ticks at 0..9 s beside one queued event at 4 s, run to a
    6.5 s horizon and then to the end; with *claim*, each tick claims its
    successor and schedules it only when the claim is refused."""
    out = io.StringIO()
    sim = Simulator(trace=out)
    log = []

    def tick():
        while True:
            log.append(("tick", sim.now))
            nxt = sim.now + 1.0
            if nxt > 9.0:
                return
            if not (claim and sim.claim(nxt, "tick", "chain")):
                sim.schedule(nxt, tick, "tick", "chain")
                return

    sim.schedule(0.0, tick, "tick", "chain")
    sim.schedule(4.0, lambda: log.append(("other", sim.now)), "other")
    counts = (sim.run(6.5), sim.now, sim.run(20.0))
    return log, out.getvalue(), counts


def test_claimed_events_match_scheduled_ones_exactly():
    # Same order (the event queued at 4 s runs before the tick it ties
    # with), same trace lines and sequence numbers, same counts from run,
    # and no tick past the 6.5 s horizon before the second run.
    claimed, scheduled = _ticker(True), _ticker(False)
    assert claimed == scheduled
    log, _, counts = claimed
    assert log.index(("other", 4.0)) == log.index(("tick", 4.0)) - 1
    assert counts == (8, 6.5, 3)


def test_claim_takes_the_sequence_schedule_would_give():
    out = io.StringIO()
    sim = Simulator(trace=out)
    claims = []
    sim.schedule(0.25, lambda: claims.append(sim.claim(0.5, "slot", "nr")),
                 "slot", "nr")
    sim.schedule(1.0, lambda: claims.append(sim.now))
    assert sim.run(2.0) == 3
    assert claims == [True, 1.0]
    assert out.getvalue() == ("0.250000000\t0\tslot\tnr\n"
                              "0.500000000\t2\tslot\tnr\n"
                              "1.000000000\t1\tevent\t\n")


def test_claim_refused_on_a_tie_past_the_horizon_and_outside_run():
    sim = Simulator()
    seen = []

    def probe():
        # 0.5 ties with a queued event and 1.5 is past the horizon; the
        # clock and the sequence stay where they were.
        seen.append((sim.claim(0.5), sim.claim(1.5), sim.now))
        seen.append(sim.schedule(0.75, lambda: None))
    sim.schedule(0.25, probe)
    sim.schedule(0.5, lambda: None)
    assert sim.run(1.0) == 3
    assert seen == [(False, False, 0.25), 2]
    assert sim.claim(1.0) is False    # no run in progress
    assert sim.run(3.0) == 0


def test_rng_stream_same_inputs_same_draws():
    a = rng_stream("harq", 42)
    b = rng_stream("harq", 42)
    assert [a.random() for _ in range(1000)] == [b.random() for _ in range(1000)]


def test_rng_stream_different_seed_differs():
    a = rng_stream("harq", 42)
    b = rng_stream("harq", 43)
    assert [a.random() for _ in range(100)] != [b.random() for _ in range(100)]


def test_rng_stream_labels_are_independent():
    a = rng_stream("harq", 42)
    b = rng_stream("shadowing", 42)
    assert [a.random() for _ in range(100)] != [b.random() for _ in range(100)]


def test_rng_stream_uniform_mean():
    # 3 sigma for the mean of 1e5 U(0,1) draws is ~0.0027, well under 0.01.
    rng = rng_stream("uniform-check", 123)
    n = 100_000
    mean = sum(rng.random() for _ in range(n)) / n
    assert abs(mean - 0.5) < 0.01


def test_rng_stream_exposes_identity():
    # A substream is a random.Random seeded with the first 8 bytes of
    # sha256("label:seed"), so (label, seed) names it on every platform.
    s = rng_stream("outage", 9)
    digest = hashlib.sha256(b"outage:9").digest()
    ref = random.Random(int.from_bytes(digest[:8], "big"))
    assert isinstance(s, random.Random)
    assert [s.random() for _ in range(5)] == [ref.random() for _ in range(5)]
