"""The outcome pass against a per-packet oracle.

``_Run._outcomes`` decides a refresh epoch in bulk when its outage draws and
its packets' first HARQ draws all clear, and otherwise packet by packet.
``_per_packet_outcomes`` below is the pass as it was before: one outage
draw per NR grant and one ``harq_transmit`` call per packet, with every
UE's HARQ table built at each epoch.  Both must give the same result, bit
for bit, and leave both random streams in the same state.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sitelink import runner
from sitelink.config import parse_config
from sitelink.metrics import FlowStats, RunResult, finalize
from sitelink.phymac import first_draws_deliver, harq_transmit
from sitelink.runner import SimulationError, _Run
from sitelink.traffic import DropCause, Sink, cbr_emit_times


def _per_packet_outcomes(run, schedule, attempts=None):
    """Every outcome of *schedule*, one packet at a time, in grant order: an
    NR grant draws its outage, then each packet its HARQ result through
    ``harq_transmit``.  With an *attempts* list, note each packet's attempt
    count in it."""
    n_ues = len(run.queues)
    last_seq = [-1] * n_ues
    rx = [0] * n_ues
    delay = [0.0] * n_ues
    lost = [0] * n_ues
    harq, rng = run.harq, run.harq_rng
    core_s, first = run.core_s, schedule.first_seq
    outage = run.outage_rng.random if run.is_nr else None
    p_out, fail_probs = run.p_out, harq.fail_probs
    penalty = run.outage_penalty_db
    grants = iter(zip(schedule.grant_ue, schedule.grant_end,
                      schedule.grant_n))
    served = iter(schedule.served)
    instants = schedule.instants
    start = 0
    for (_, snrs), end in zip(run.links, schedule.epoch_end):
        table = [(fail_probs(snr), snr) for snr in snrs]
        outage_tables = {}
        for _ in range(end - start):
            i, slot_end, n = next(grants)
            probs, snr = table[i]
            if outage is not None and outage() < p_out:
                if i not in outage_tables:
                    outage_tables[i] = fail_probs(snr - penalty)
                probs = outage_tables[i]
            for _ in range(n):
                seq = next(served)
                outcome = harq_transmit(probs, harq, rng)
                if attempts is not None:
                    attempts.append(outcome.attempts)
                if outcome.delivered:
                    created = instants[seq]
                    t_rx = slot_end + outcome.added_delay_s + core_s
                    if t_rx < created or seq <= last_seq[i]:
                        Sink(i, last_seq[i]).receive(seq, created, t_rx)
                    last_seq[i] = seq
                    if seq >= first:
                        rx[i] += 1
                        delay[i] += t_rx - created
                elif seq >= first:
                    lost[i] += 1
        start = end
    flows = []
    for i in range(n_ues):
        drops = {cause.value: n for cause, n in (
            (DropCause.QUEUE_OVERFLOW, schedule.overflow[i]),
            (DropCause.HARQ_EXHAUSTED, lost[i]),
            (DropCause.OUT_OF_COVERAGE, schedule.stranded[i])) if n}
        stats = FlowStats(i, schedule.created, rx[i], delay[i], drops)
        if not stats.conservation_holds():
            raise SimulationError(f"flow {i}: conservation")
        flows.append(stats)
    cfg = run.cfg
    throughput, loss, mean_delay = finalize(
        flows, cfg.duration_s - cfg.warmup_s, run.packet_bytes)
    speed = cfg.mobility.speed_kmh
    if speed == 0 and cfg.sweep_variable != "speed_kmh":
        speed = None
    return RunResult(
        scenario=cfg.preset, rat=run.rat, sweep_variable=cfg.sweep_variable,
        sweep_value=run.sweep_value, ue_count=cfg.ue_count,
        offered_mbps_per_ue=cfg.traffic.data_volume_mbps, speed_kmh=speed,
        throughput_bps=throughput, loss_rate=loss, mean_delay_s=mean_delay,
        seed=run.seed, rep_index=run.rep_index, flows=flows)


def _study(rat, ues, speed, mbps, threshold, retx, warmup, seed):
    return parse_config(
        f"preset=custom\nrats={rat}\nsweep_variable=speed_kmh\n"
        f"sweep={speed!r}\nue_count={ues}\nduration_s=0.45\n"
        f"warmup_s={warmup!r}\ndrain_max_s=0.1\nreplications=1\n"
        f"seed_base={seed}\ntraffic.data_volume_mbps={mbps!r}\n"
        f"traffic.packet_size_bytes=1000\n"
        f"phy.{rat}.harq.bler_threshold_db={threshold!r}\n"
        f"phy.{rat}.harq.max_retx={retx}\n")


def _forcing(rng, index):
    """Make draw *index* of *rng* (0-based) read 0.0, which is an outage
    or a failed attempt at any positive probability; the stream still
    draws it, so its state moves on as before."""
    draw, count = rng.random, [0]

    def forced():
        u = draw()
        count[0] += 1
        return 0.0 if count[0] == index + 1 else u
    rng.random = forced


_WHERE = {"first": lambda a, b: a, "middle": lambda a, b: (a + b) // 2,
          "last": lambda a, b: b - 1}


@settings(max_examples=40, deadline=None)
@given(rat=st.sampled_from(["lte", "nr"]), ues=st.integers(1, 6),
       speed=st.floats(0.0, 120.0), mbps=st.floats(2.0, 12.0),
       threshold=st.floats(35.0, 70.0), retx=st.integers(0, 4),
       on_grid=st.booleans(), seed=st.integers(1, 10_000),
       force=st.sampled_from([None, *(
           (stream, where) for stream in ("outage", "harq")
           for where in _WHERE)]))
@example(rat="nr", ues=3, speed=0.0, mbps=6.0, threshold=20.0, retx=3,
         on_grid=True, seed=2, force=("outage", "first"))
@example(rat="nr", ues=3, speed=0.0, mbps=6.0, threshold=20.0, retx=3,
         on_grid=False, seed=3, force=("outage", "middle"))
@example(rat="nr", ues=3, speed=0.0, mbps=6.0, threshold=20.0, retx=3,
         on_grid=True, seed=4, force=("outage", "last"))
@example(rat="nr", ues=4, speed=0.0, mbps=8.0, threshold=20.0, retx=2,
         on_grid=True, seed=5, force=("harq", "first"))
@example(rat="nr", ues=4, speed=0.0, mbps=8.0, threshold=20.0, retx=2,
         on_grid=False, seed=6, force=("harq", "middle"))
@example(rat="nr", ues=4, speed=0.0, mbps=8.0, threshold=20.0, retx=0,
         on_grid=True, seed=7, force=("harq", "last"))
@example(rat="lte", ues=5, speed=0.0, mbps=12.0, threshold=20.0, retx=3,
         on_grid=True, seed=7, force=("harq", "first"))
@example(rat="lte", ues=5, speed=60.0, mbps=12.0, threshold=20.0, retx=1,
         on_grid=False, seed=8, force=("harq", "middle"))
@example(rat="lte", ues=5, speed=0.0, mbps=12.0, threshold=20.0, retx=0,
         on_grid=True, seed=9, force=("harq", "last"))
# A threshold among the links: first attempts fail on some UEs, not others.
@example(rat="nr", ues=6, speed=0.0, mbps=4.0, threshold=45.0, retx=2,
         on_grid=True, seed=1, force=None)
@example(rat="lte", ues=6, speed=0.0, mbps=4.0, threshold=45.0, retx=2,
         on_grid=False, seed=1, force=None)
# An LTE epoch whose packets number its grants, with empty grants among them.
@example(rat="lte", ues=4, speed=0.0, mbps=4.0, threshold=20.0, retx=1,
         on_grid=True, seed=1, force=None)
# Epochs decided per packet in which UE 1 (57.9 dB) loses packets and then
# delivers later ones: a loss leaves its flow's last delivered seq as it is.
@example(rat="nr", ues=2, speed=0.0, mbps=6.0, threshold=58.0, retx=0,
         on_grid=True, seed=1, force=None)
# One UE whose clean epochs come before and after the forced one.
@example(rat="lte", ues=1, speed=0.0, mbps=6.0, threshold=20.0, retx=2,
         on_grid=False, seed=1, force=("harq", "middle"))
def test_bulk_epochs_equal_the_per_packet_oracle(rat, ues, speed, mbps,
                                                 threshold, retx, on_grid,
                                                 seed, force):
    # The warm-up falls on a CBR instant of the run, or halfway between two.
    emit = cbr_emit_times(_Run(_study(rat, ues, speed, mbps, threshold, retx,
                                      0.0, seed), rat, speed, 0, seed).stream)
    j = len(emit) // 4
    warmup = emit[j] if on_grid else (emit[j] + emit[j + 1]) / 2
    cfg = _study(rat, ues, speed, mbps, threshold, retx, warmup, seed)
    # A forced draw goes to the first, middle or last grant of the middle
    # epoch that has grants; a HARQ draw to the first draw of the grant's
    # first packet, found from the oracle's attempt counts.
    index = None
    if force is not None:
        stream, where = force
        if stream == "outage" and rat == "lte":
            stream = "harq"     # LTE draws no outage
        attempts = []
        run = _Run(cfg, rat, speed, 0, seed)
        run._outcomes = lambda schedule: _per_packet_outcomes(
            run, schedule, attempts)
        run.execute()
        record = run.schedule
        bounds = [(a, b) for a, b in zip([0, *record.epoch_end],
                                         record.epoch_end) if a < b]
        a, b = bounds[len(bounds) // 2]
        grant = _WHERE[where](a, b)
        index = grant if stream == "outage" else sum(
            attempts[:sum(record.grant_n[:grant])])
    runs, results = [], []
    for oracle in (False, True):
        run = _Run(cfg, rat, speed, 0, seed)
        if index is not None:
            _forcing(getattr(run, f"{stream}_rng"), index)
        if oracle:
            run._outcomes = lambda schedule, run=run: _per_packet_outcomes(
                run, schedule)
        results.append(run.execute())
        runs.append(run)
    bulk, expected = results
    assert bulk == expected
    assert [f.delay_sum_s.hex() for f in bulk.flows] == [
        f.delay_sum_s.hex() for f in expected.flows]
    for name in ("harq_rng", "outage_rng"):
        assert (getattr(runs[0], name).getstate()
                == getattr(runs[1], name).getstate()), name


@pytest.mark.parametrize("rat", ["lte", "nr"])
def test_clean_epochs_are_decided_in_bulk(monkeypatch, rat):
    # At 0 km/h (p_out 1.3e-5) seed 2 draws no outage in its 1,352 NR
    # grants, and a threshold far below every link fails no first attempt:
    # every epoch is judged clean, so none goes packet by packet, and the
    # result is the oracle's.
    verdicts = []

    def deliver(draws, fail_prob):
        verdicts.append(first_draws_deliver(draws, fail_prob))
        return verdicts[-1]
    monkeypatch.setattr(runner, "first_draws_deliver", deliver)
    cfg = _study(rat, 4, 0.0, 6.0, 3.0, 3, 0.1, 2)
    runs = [_Run(cfg, rat, 0.0, 0, 2) for _ in range(2)]
    runs[1]._outcomes = lambda schedule: _per_packet_outcomes(runs[1],
                                                              schedule)
    bulk, expected = (run.execute() for run in runs)
    assert bulk == expected and bulk.flows[0].rx_packets > 0
    assert runs[0].harq_rng.getstate() == runs[1].harq_rng.getstate()
    assert len(verdicts) == len(runs[0].schedule.epoch_end)
    assert all(verdicts)


@pytest.mark.parametrize("rat", ["lte", "nr"])
def test_a_substituted_harq_transmit_sees_every_packet(monkeypatch, rat):
    # The bulk path restates phymac's harq_transmit alone: a wrapper bound
    # in its place is called once per served packet, clean epochs included,
    # and the run's result and streams are as before.
    calls = []

    def transmit(*args):
        calls.append(harq_transmit(*args))
        return calls[-1]
    cfg = _study(rat, 4, 30.0, 6.0, 3.0, 3, 0.1, 2)
    plain = _Run(cfg, rat, 30.0, 0, 2)
    expected = plain.execute()
    monkeypatch.setattr(runner, "harq_transmit", transmit)
    run = _Run(cfg, rat, 30.0, 0, 2)
    assert run.execute() == expected
    assert len(calls) == sum(run.schedule.grant_n) > 0
    for name in ("harq_rng", "outage_rng"):
        assert (getattr(run, name).getstate()
                == getattr(plain, name).getstate()), name
