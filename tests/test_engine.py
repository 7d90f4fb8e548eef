"""Event queue ordering, clock semantics, and RNG substream determinism."""

import hashlib
import io
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sitelink.engine import SchedulingInPastError, Simulator, rng_stream


def test_schedule_on_empty_queue_returns_first_id():
    sim = Simulator()
    log = []
    eid = sim.schedule(0.0, lambda t: log.append("a"))
    assert eid == 0
    assert log == []
    sim.run(1.0)
    assert log == ["a"]


def test_simultaneous_events_run_in_insertion_order():
    sim = Simulator()
    log = []
    sim.schedule(1.0, lambda t: log.append("A"))
    sim.schedule(1.0, lambda t: log.append("B"))
    sim.schedule(0.5, lambda t: log.append("C"))
    sim.run(2.0)
    assert log == ["C", "A", "B"]


def test_scheduling_in_the_past_is_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda t: None)
    sim.run(1.0)
    with pytest.raises(SchedulingInPastError):
        sim.schedule(0.5, lambda t: None)


def test_run_processes_all_due_events_and_advances_clock():
    sim = Simulator()
    hits = []
    for t in (0.1, 0.2, 0.3):
        sim.schedule(t, lambda now, t=t: hits.append(t))
    assert sim.run(1.0) == 3
    assert sim.now == 1.0
    assert hits == [0.1, 0.2, 0.3]


def test_run_is_idempotent_at_same_horizon():
    sim = Simulator()
    sim.schedule(0.5, lambda t: None)
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
        eid = sim.schedule(t, lambda t, i=i: fired.__setitem__(i, fired.get(i, 0) + 1))
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
        sim.schedule(rng.random() * 5.0, lambda t: seen.append(sim.now))
    sim.run(5.0)
    assert all(a <= b for a, b in zip(seen, seen[1:]))


def _scripted_trace(seed: int) -> list[str]:
    out = io.StringIO()
    sim = Simulator(trace=out)
    rng = rng_stream("script", seed)

    def emit(t):
        if t < 4.0:
            sim.schedule(t + rng.random(), emit, "tick", "scripted")

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
    sim.schedule(1.25, lambda t: None, "slot", "lte")
    sim.schedule(0.5, lambda t: None)
    sim.run(2.0)
    assert out.getvalue() == ("0.500000000\t1\tevent\t\n"
                              "1.250000000\t0\tslot\tlte\n")


def _chains(cases, returning: bool, running: bool = False):
    """Run *cases* on one simulator: each chain ticks at its start and then
    after each of its steps, beside one-off events, up to each horizon in
    turn.  A returning chain hands its next instant back to run; otherwise
    its action schedules it, as its last act.  A *running* returning chain,
    on an untraced simulator, first ticks on through its next instants
    itself while they come strictly before ``horizon()`` and not past the
    run's end; such a tick logs its own instant as its clock."""
    chains, one_offs, order, horizons = cases
    out = io.StringIO()
    sim = Simulator(trace=None if running else out)
    log = []
    end = [0.0]

    def chain(c, steps):
        pending = iter(steps)

        def tick(t):
            clock = sim.now
            horizon = sim.horizon() if running else -math.inf
            while True:
                log.append((c, t, clock))
                step = next(pending, None)
                if step is None:
                    return None
                if t + step < horizon and t + step <= end[0]:
                    t = clock = t + step
                    continue
                if returning:
                    return t + step
                sim.schedule(t + step, tick, "tick", str(c))
                return None
        return tick

    starts = [(start, chain(c, steps), "tick", str(c))
              for c, (start, steps) in enumerate(chains)]
    starts += [(t, lambda now, k=k: log.append(("once", k, now)), "once", "")
               for k, t in enumerate(one_offs)]
    ids = [sim.schedule(*starts[i]) for i in order]
    runs = []
    for end[0] in horizons:
        runs.append((sim.run(end[0]), sim.now))
    return ids, log, out.getvalue(), runs


_QUARTERS = st.integers(0, 24).map(lambda q: q / 4.0)


@st.composite
def _chain_cases(draw):
    chains = draw(st.lists(st.tuples(
        _QUARTERS, st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5]),
                            max_size=12)), min_size=1, max_size=3))
    one_offs = draw(st.lists(_QUARTERS, max_size=6))
    order = draw(st.permutations(range(len(chains) + len(one_offs))))
    horizons = sorted(draw(st.lists(st.integers(0, 48).map(lambda q: q / 4.0),
                                    min_size=1, max_size=2)))
    return chains, one_offs, order, horizons


@settings(max_examples=300, deadline=None)
@given(cases=_chain_cases())
# Two chains that tie at every instant, one with a zero step.
@example(cases=([(0.0, [0.5, 0.0, 0.5]), (0.5, [0.5, 0.5])], [], [1, 0],
                [1.0]))
def test_a_returned_successor_equals_a_scheduled_one(cases):
    # Same sequence numbers and trace bytes, same order and clocks, and the
    # same counts from run, horizon by horizon.
    assert _chains(cases, True) == _chains(cases, False)


@settings(max_examples=300, deadline=None)
@given(cases=_chain_cases())
@example(cases=([(0.0, [0.5, 0.0, 0.5]), (0.5, [0.5, 0.5])], [], [1, 0],
                [1.0]))
# A burst of ticks up to a one-off, then across the first horizon.
@example(cases=([(0.0, [0.25] * 8)], [1.0], [0, 1], [1.5, 3.0]))
def test_a_chain_that_runs_its_successors_equals_a_returning_one(cases):
    # The same actions, in the same order and at the same clock values,
    # with the same ids and clocks after each run, in no more events.
    ids, log, _, runs = _chains(cases, True, running=True)
    returned_ids, returned_log, _, returned = _chains(cases, True)
    assert (ids, log) == (returned_ids, returned_log)
    assert [now for _, now in runs] == [now for _, now in returned]
    assert all(a <= b for (a, _), (b, _) in zip(runs, returned))


def test_horizon_is_the_earliest_queued_time():
    sim = Simulator()
    assert sim.horizon() == math.inf
    seen = []
    for t in (2.0, 0.5, 1.0):
        sim.schedule(t, lambda now: seen.append((now, sim.horizon())))
    assert sim.horizon() == 0.5
    sim.run(3.0)
    assert seen == [(0.5, 1.0), (1.0, 2.0), (2.0, math.inf)]
    assert sim.horizon() == math.inf
    # Tracing leaves the horizon alone; the runner sets a traced run's.
    traced = Simulator(trace=io.StringIO())
    traced.schedule(1.0, lambda now: None)
    assert traced.horizon() == 1.0


def test_a_nan_event_time_is_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingInPastError):
        sim.schedule(math.nan, lambda t: None)
    assert sim.horizon() == math.inf


def test_a_nan_run_end_is_rejected_and_leaves_the_clock():
    sim = Simulator()
    sim.schedule(1.0, lambda t: None)
    with pytest.raises(SchedulingInPastError):
        sim.run(math.nan)
    assert sim.now == 0.0
    assert sim.run(2.0) == 1
    with pytest.raises(SchedulingInPastError):
        sim.schedule(1.5, lambda t: None)


def test_a_returned_nan_successor_is_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda t: math.nan)
    with pytest.raises(SchedulingInPastError):
        sim.run(2.0)


def test_returned_successors_match_scheduled_ones_exactly():
    # An action continues its chain by returning its next time.  A chain
    # of ticks at 0..9 s beside one event queued at 4 s, run to 6.5 s and
    # then to the end: the same ids, order, trace lines and counts as a
    # chain that schedules each tick; the queued event runs before the tick
    # it ties with, and no tick past 6.5 s runs in the first run.
    cases = ([(0.0, [1.0] * 9)], [4.0], [0, 1], [6.5, 12.0])
    claimed = _chains(cases, True)
    assert claimed == _chains(cases, False)
    _, log, _, runs = claimed
    assert log.index(("once", 0, 4.0)) == log.index((0, 4.0, 4.0)) - 1
    assert runs == [(8, 6.5), (3, 12.0)]


def test_a_returned_successor_queues_behind_a_tie_and_past_the_run_end():
    # The engine queues a returned time like a scheduled one: behind a
    # queued event it ties with, and, past the end of run, for a later
    # run.  A time returned outside run is no event at all.
    out = io.StringIO()
    sim = Simulator(trace=out)
    seen = []
    successor = {0.25: 0.5, 0.5: 1.5, 1.0: 1.25}

    def probe(t):
        seen.append((t, sim.now))
        return successor.get(t)
    sim.schedule(0.25, probe, "probe")
    sim.schedule(0.5, lambda t: seen.append(("other", t)))
    assert sim.run(1.0) == 3
    assert seen == [(0.25, 0.25), ("other", 0.5), (0.5, 0.5)]
    assert sim.now == 1.0
    assert probe(1.0) == 1.25    # no run in progress
    assert sim.run(1.25) == 0
    assert sim.run(3.0) == 1
    assert seen[-2:] == [(1.0, 1.0), (1.5, 1.5)]
    assert out.getvalue() == ("0.250000000\t0\tprobe\t\n"
                              "0.500000000\t1\tevent\t\n"
                              "0.500000000\t2\tprobe\t\n"
                              "1.500000000\t3\tprobe\t\n")


def test_returned_successors_are_counted_and_traced():
    out = io.StringIO()
    sim = Simulator(trace=out)
    ticks = []

    def tick(t):
        ticks.append(t)
        return t + 0.25 if t < 0.75 else None
    sim.schedule(0.25, tick, "slot", "nr")
    sim.schedule(1.0, lambda t: ticks.append(("other", t)))
    assert sim.run(2.0) == 4
    assert ticks == [0.25, 0.5, 0.75, ("other", 1.0)]
    assert out.getvalue() == ("0.250000000\t0\tslot\tnr\n"
                              "0.500000000\t2\tslot\tnr\n"
                              "0.750000000\t3\tslot\tnr\n"
                              "1.000000000\t1\tevent\t\n")


def test_a_returned_time_before_the_clock_is_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda t: t - 0.5)
    with pytest.raises(SchedulingInPastError):
        sim.run(2.0)


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
