"""Numerology, link adaptation, schedulers and HARQ against closed forms."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sitelink.channel import LteRadio, NrRadio
from sitelink.engine import rng_stream
from sitelink.phymac import (_AVG_FLOOR_BPS, SUPPORTED_SCS_KHZ, HarqOutcome,
                             HarqProcess, LinkAdaptation, LtePhy, NrPhy,
                             PfState, RrState, achievable_rate_bps, bler,
                             harq_transmit, nr_slot_schedule, pf_schedule)
from sitelink.traffic import FlowQueue


# -- numerology ---------------------------------------------------------------

def test_slot_durations():
    assert LtePhy().slot_s == 0.001
    assert NrPhy().slot_s == 0.000125
    assert LtePhy(scs_khz=30).slot_s == 0.0005
    assert NrPhy(scs_khz=60).slot_s == 0.00025


def test_slot_duration_scs_product_is_constant():
    for scs in SUPPORTED_SCS_KHZ:
        for phy in (LtePhy(scs_khz=scs), NrPhy(scs_khz=scs)):
            assert phy.slot_s * scs == pytest.approx(0.015, rel=1e-12)


def test_unsupported_spacing_rejected():
    for section in (LtePhy, NrPhy):
        with pytest.raises(ValueError, match="^scs_khz: "):
            section(scs_khz=45)


# -- link adaptation ----------------------------------------------------------

def _lte_radio(bandwidth_mhz: float) -> LteRadio:
    return replace(LteRadio(), bandwidth_mhz=bandwidth_mhz)


def test_rate_at_unity_linear_snr_equals_bandwidth():
    la = LinkAdaptation(overhead=1.0, eff_max=8.0, snr_floor_db=-20.0)
    assert achievable_rate_bps(0.0, LteRadio(), la) == 5e6  # log2(1 + 1) = 1


def test_rate_cap_gives_lte_plateau():
    la = LinkAdaptation(overhead=0.75, eff_max=4.5)
    assert achievable_rate_bps(60.0, LteRadio(), la) == 16_875_000.0


def test_rate_below_floor_is_zero():
    la = LinkAdaptation(overhead=0.75, eff_max=4.5, snr_floor_db=-5.0)
    assert achievable_rate_bps(-5.1, LteRadio(), la) == 0.0
    assert achievable_rate_bps(-math.inf, LteRadio(), la) == 0.0


def test_rate_monotone_in_snr_and_linear_in_bandwidth():
    la = LinkAdaptation(overhead=0.7, eff_max=7.0)
    snrs = np.linspace(-4.0, 50.0, 40)
    rates = [achievable_rate_bps(float(s), NrRadio(), la) for s in snrs]
    assert all(a <= b for a, b in zip(rates, rates[1:]))
    for s in (3.0, 17.5, 42.0):
        r1 = achievable_rate_bps(s, _lte_radio(1.0), la)
        assert achievable_rate_bps(s, _lte_radio(7.3), la) == pytest.approx(
            7.3 * r1, rel=1e-12)


# -- proportional fair ----------------------------------------------------------

def _state(avgs, rb_count=25, window=100, scs_khz=15):
    phy = LtePhy(scs_khz=scs_khz, rb_count=rb_count, pf_window=window)
    st = PfState(phy, len(avgs))
    st.avg_bps = list(avgs)
    return st


def test_pf_state_reads_its_section():
    st = PfState(LtePhy(scs_khz=30, rb_count=6, pf_window=7), 3)
    assert (st.rb_count, st.window, st.slot_s) == (6, 7, 0.0005)
    assert st.avg_bps == [1000.0] * 3


def test_single_backlogged_ue_gets_all_rbs():
    st = _state([1.0, 1.0, 1.0])
    alloc = pf_schedule(st, [1e6, 1e6, 1e6], [100000, 0, 0])
    assert alloc == [25, 0, 0]


def test_pf_argmax_picks_highest_rate_over_average():
    st = _state([1.0, 2.0], rb_count=1)
    alloc = pf_schedule(st, [10.0, 10.0], [10000, 10000])   # ratios 10 vs 5
    assert alloc == [1, 0]


def test_pf_scaling_all_averages_leaves_allocation_unchanged():
    rates = [3e6, 1e6, 2e6, 2.5e6]
    backlogs = [5000, 2500, 12500, 1250]
    base = pf_schedule(_state([1e3, 2e3, 5e2, 4e3]), rates, backlogs)
    scaled = pf_schedule(_state([3.7e3, 7.4e3, 1.85e3, 14.8e3]), rates,
                         backlogs)
    assert base == scaled


def test_pf_tie_breaks_to_lowest_index():
    st = _state([1.0, 1.0], rb_count=1)
    alloc = pf_schedule(st, [8e4, 8e4], [10, 10])
    assert alloc == [1, 0]


def test_pf_never_exceeds_rb_budget_and_serves_only_backlogged():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        avgs = rng.uniform(1e2, 1e6, n).tolist()
        backlogs = rng.integers(0, 30000, n).tolist()
        backlogged = [b > 0 for b in backlogs]
        rates = rng.uniform(0, 2e7, n).tolist()
        rb = int(rng.integers(1, 50))
        st = _state(avgs, rb_count=rb)
        alloc = pf_schedule(st, rates, backlogs)
        assert sum(alloc) <= rb
        assert all(a == 0 for a, b in zip(alloc, backlogged) if not b)
        assert all(a == 0 for a, r in zip(alloc, rates) if r == 0.0)
        assert all(v > 0 for v in st.avg_bps)


@pytest.mark.parametrize("key", ["rb_count", "pf_window"])
def test_lte_phy_rejects_degenerate_pf_parameters(key):
    # The section is PF's one check: pf_schedule trusts its PfState.
    with pytest.raises(ValueError, match=f"^{key}: must be >= 1, got 0"):
        LtePhy(**{key: 0})


def test_pf_no_backlog_gives_empty_allocation():
    st = _state([1e3, 1e3])
    assert pf_schedule(st, [1e6, 1e6], [0, 0]) == [0, 0]


def test_pf_smoothing_moves_average_toward_served_rate():
    st = _state([1e3], window=10)
    pf_schedule(st, [1e6], [125000])   # serves 1 Mb/s for one subframe
    assert st.avg_bps[0] == pytest.approx(0.9 * 1e3 + 0.1 * 1e6)


def _pf_schedule_oracle(state, rates_bps, backlog_bytes):
    """The sort-keyed PF body that pf_schedule must match bit for bit."""
    avg = state.avg_bps
    n = len(avg)
    alloc = [0] * n
    slot_s = state.slot_s
    rb_count = state.rb_count
    order = sorted(
        (i for i in range(n) if backlog_bytes[i] > 0 and rates_bps[i] > 0.0),
        key=lambda i: (-rates_bps[i] / avg[i], i))
    rb_left = rb_count
    for i in order:
        if rb_left == 0:
            break
        rb_bits = rates_bps[i] * slot_s / rb_count
        need = math.ceil(backlog_bytes[i] * 8.0 / rb_bits)
        grant = min(need, rb_left)
        alloc[i] = grant
        rb_left -= grant
    w = state.window
    keep = 1.0 - 1.0 / w
    for i in range(n):
        if alloc[i]:
            served_bits = min(alloc[i] * rates_bps[i] * slot_s / rb_count,
                              backlog_bytes[i] * 8.0)
            served_bps = served_bits / slot_s
        else:
            served_bps = 0.0
        avg[i] = max(keep * avg[i] + served_bps / w, _AVG_FLOOR_BPS)
    return alloc


# Small pools of exact values make equal ratios (and equal averages) common;
# the free draws cover everything in between.
_PF_RATES = st.sampled_from([0.0, 8e4, 1e6, 2e6, 16_875_000.0]) | st.floats(
    1e-3, 2e7)
_PF_AVGS = st.sampled_from([_AVG_FLOOR_BPS, 1.0, 1000.0, 2e6]) | st.floats(
    _AVG_FLOOR_BPS, 1e7)
_PF_BACKLOGS = st.sampled_from([0, 1, 1250, 50_000]) | st.integers(0, 200_000)


@st.composite
def _pf_subframes(draw):
    """Initial averages plus 1-6 subframes of (rates, backlogs), 1-25 UEs."""
    n = draw(st.integers(1, 25))

    def per_ue(values):
        return st.lists(values, min_size=n, max_size=n)
    avgs = draw(per_ue(_PF_AVGS))
    subframes = draw(st.lists(st.tuples(per_ue(_PF_RATES),
                                        per_ue(_PF_BACKLOGS)),
                              min_size=1, max_size=6))
    return avgs, subframes


_TIE = ([1000.0] * 4, [([1e6] * 4, [50_000, 50_000, 0, 50_000])] * 3)


@settings(max_examples=150, deadline=None)
@given(case=_pf_subframes(), rb_count=st.integers(1, 50),
       window=st.integers(1, 200), scs_khz=st.sampled_from([15, 30, 120]))
# Three UEs tied on the ratio, one zero backlog, over consecutive subframes.
@example(case=_TIE, rb_count=1, window=100, scs_khz=15)
@example(case=_TIE, rb_count=25, window=10, scs_khz=15)
# Window 1 keeps nothing, so every unserved average drops to the floor.
@example(case=([_AVG_FLOOR_BPS, 5.0, 5.0],
               [([0.0, 1e6, 1e6], [100, 0, 100]),
                ([1e6, 1e6, 1e6], [100, 100, 0])]),
         rb_count=50, window=1, scs_khz=15)
def test_pf_matches_the_sort_keyed_oracle_bit_for_bit(case, rb_count, window,
                                                      scs_khz):
    avgs, subframes = case
    fast = _state(avgs, rb_count, window, scs_khz)
    oracle = _state(avgs, rb_count, window, scs_khz)
    for rates, backlogs in subframes:
        assert (pf_schedule(fast, rates, backlogs)
                == _pf_schedule_oracle(oracle, rates, backlogs))
        assert fast.avg_bps == oracle.avg_bps


# -- round-robin slot scheduler -------------------------------------------------

def test_rr_three_ues_six_slots_each_served_twice():
    st = RrState()
    served = [nr_slot_schedule(st, [100, 100, 100]) for _ in range(6)]
    assert served == [0, 1, 2, 0, 1, 2]


def test_rr_single_ue_served_every_slot():
    st = RrState()
    assert [nr_slot_schedule(st, [10]) for _ in range(4)] == [0, 0, 0, 0]


def test_rr_idle_when_no_backlog():
    st = RrState()
    assert nr_slot_schedule(st, [0, 0]) is None


def test_rr_ue_joining_mid_rotation_waits_at_most_one_rotation():
    st = RrState()
    assert nr_slot_schedule(st, [100, 0, 100]) == 0
    backlogs = [100, 100, 100]  # UE 1 joins while the pointer is past UE 0
    assert nr_slot_schedule(st, backlogs) == 1
    assert nr_slot_schedule(st, backlogs) == 2
    assert nr_slot_schedule(st, backlogs) == 0


def test_rr_no_starvation_over_random_backlog_patterns():
    rng = np.random.default_rng(8)
    n = 5
    st = RrState()
    backlogs = [1] * n
    waits = [0] * n
    for _ in range(500):
        pick = nr_slot_schedule(st, backlogs)
        for i in range(n):
            waits[i] = 0 if i == pick else waits[i] + 1
            assert waits[i] <= n   # continuously backlogged => served within n slots
        # keep everyone backlogged, jitter the amounts
        backlogs = [int(rng.integers(1, 100)) for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2), min_size=6, max_size=6),
                min_size=1, max_size=20))
def test_rr_picks_the_same_ue_from_queues_as_from_lengths(steps):
    # The runner hands round robin its FlowQueues; an empty one is falsy.
    by_queue, by_len = RrState(), RrState()
    for counts in steps:
        queues = [FlowQueue(4) for _ in counts]
        for i, k in enumerate(counts):
            for seq in range(k):
                queues[i].offer(seq)
        pos = by_len.rr_pos
        expect = next((i % 6 for i in range(pos, pos + 6) if counts[i % 6]),
                      None)
        assert nr_slot_schedule(by_queue, queues) == expect
        assert nr_slot_schedule(by_len, [len(q) for q in queues]) == expect
        assert by_queue.rr_pos == by_len.rr_pos


# -- BLER and HARQ ---------------------------------------------------------------

def test_bler_midpoint_and_tail():
    assert bler(3.0, threshold_db=3.0, steepness_db=1.0) == 0.5
    tail = bler(13.0, threshold_db=3.0, steepness_db=1.0)
    assert tail == pytest.approx(1.0 / (1.0 + math.exp(10.0)), rel=1e-9)  # ~4.54e-5
    assert bler(1e6) == 0.0
    assert bler(-1e6) == 1.0


def test_bler_monotone_nonincreasing_in_snr():
    snrs = np.linspace(-20.0, 30.0, 60)
    vals = [bler(float(s)) for s in snrs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        bler(0.0, steepness_db=0.0)


def test_harq_high_snr_first_attempt_no_added_delay():
    harq = HarqProcess(max_retx=3, rtt_s=0.008)
    out = harq_transmit(harq.fail_probs(60.0), harq, rng_stream("harq", 1))
    assert out == (True, 1, 0.0)


def test_harq_hopeless_snr_drops_after_all_attempts():
    harq = HarqProcess(max_retx=3, combining_gain_db=2.0, rtt_s=0.008)
    out = harq_transmit(harq.fail_probs(-200.0), harq, rng_stream("harq", 1))
    assert out.delivered is False
    assert out.attempts == 4


def test_harq_each_retransmission_adds_one_rtt():
    harq = HarqProcess(max_retx=3, combining_gain_db=0.0, rtt_s=0.008,
                       bler_threshold_db=3.0, bler_steepness_db=1.0)
    rng = rng_stream("harq", 7)
    probs = harq.fail_probs(3.0)   # per-attempt p = 0.5
    seen = set()
    for _ in range(2000):
        out = harq_transmit(probs, harq, rng)
        if out.delivered:
            assert out.added_delay_s == pytest.approx((out.attempts - 1) * 0.008)
            seen.add(out.attempts)
    assert {1, 2, 3, 4} <= seen


def _snr_for_constant_bler(p: float) -> float:
    # Invert the logistic with default threshold 3 dB, steepness 1 dB.
    return 3.0 + math.log((1.0 - p) / p)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_harq_monte_carlo_matches_analytic_delivery_rate(p):
    harq = HarqProcess(max_retx=3, combining_gain_db=0.0)
    rng = rng_stream("harq-mc", 42)
    snr = _snr_for_constant_bler(p)
    assert bler(snr) == pytest.approx(p, rel=1e-12)
    probs = harq.fail_probs(snr)
    n = 100_000
    delivered = 0
    attempts_total = 0
    for _ in range(n):
        out = harq_transmit(probs, harq, rng)
        delivered += out.delivered
        attempts_total += out.attempts
    expect = 1.0 - p ** 4
    sigma = math.sqrt(expect * (1.0 - expect) / n)
    assert abs(delivered / n - expect) < 3.0 * sigma
    # Expected attempts of the truncated geometric: sum_{k=0..3} p^k.
    expect_attempts = (1.0 - p ** 4) / (1.0 - p)
    assert abs(attempts_total / n - expect_attempts) < 0.02


def _harq_transmit_oracle(snr_db: float, harq: HarqProcess,
                          rng) -> HarqOutcome:
    """The per-attempt HARQ body from before the outcome tables: one bler
    call and one fresh outcome per packet, at a fixed channel SNR."""
    attempts_max = harq.max_retx + 1
    thr = harq.bler_threshold_db
    steep = harq.bler_steepness_db
    gain = harq.combining_gain_db
    for k in range(1, attempts_max + 1):
        p_fail = bler(snr_db + (k - 1) * gain, thr, steep)
        if rng.random() >= p_fail:
            return HarqOutcome(True, k, (k - 1) * harq.rtt_s)
    return HarqOutcome(False, attempts_max, harq.max_retx * harq.rtt_s)


# Exact values at and past the +-700 clamp of bler (at threshold 3, steepness
# 1), the infinities of a dead or ideal link, plus free draws.
_HARQ_SNRS = st.sampled_from([-math.inf, math.inf, -1e6, 1e6, 703.0, -697.0,
                              704.0, -698.0, 3.0]) | st.floats(allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(snr=_HARQ_SNRS, max_retx=st.integers(0, 5),
       gain=st.floats(-20.0, 20.0), thr=st.floats(-50.0, 50.0),
       steep=st.floats(1e-3, 10.0), rtt=st.floats(1e-6, 0.1),
       seed=st.integers(0, 2**32), packets=st.integers(1, 40))
@example(snr=3.0, max_retx=3, gain=0.0, thr=3.0, steep=1.0, rtt=0.008,
         seed=7, packets=40)
def test_harq_table_matches_the_per_attempt_oracle(snr, max_retx, gain, thr,
                                                   steep, rtt, seed, packets):
    harq = HarqProcess(max_retx=max_retx, combining_gain_db=gain, rtt_s=rtt,
                       bler_threshold_db=thr, bler_steepness_db=steep)
    probs = harq.fail_probs(snr)
    fast, oracle = rng_stream("harq", seed), rng_stream("harq", seed)
    for _ in range(packets):
        out = harq_transmit(probs, harq, fast)
        assert out == _harq_transmit_oracle(snr, harq, oracle)
        assert any(out is prebuilt for prebuilt in harq.outcomes)
    # The same draws were made, in the same order.
    assert fast.getstate() == oracle.getstate()
