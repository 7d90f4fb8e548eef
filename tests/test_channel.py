"""Propagation, raster, noise and SNR oracles.

Expected values are frozen from independent evaluations: the EARFCN anchors
against published Band 1 tables, free-space loss against the textbook
32.44 + 20 log10(d_km) + 20 log10(f_MHz) form, and the logistic curves
against direct math evaluation.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from sitelink import runner
from sitelink.channel import (LteRadio, MmWavePathLossParams, NrRadio,
                              earfcn_direction, earfcn_to_freq_mhz,
                              friis_rx_power, mmwave_pathloss_db,
                              noise_power_dbm, nr_arfcn_to_freq_mhz,
                              nr_outage_probability, snr_db)
from sitelink.config import parse_config
from sitelink.runner import _Run

C = 299_792_458.0


# -- frequency raster --------------------------------------------------------

def test_earfcn_band1_anchors():
    assert earfcn_to_freq_mhz(100, "downlink") == 2120.0
    assert earfcn_to_freq_mhz(18100, "uplink") == 1930.0
    assert earfcn_to_freq_mhz(0, "downlink") == 2110.0
    assert earfcn_to_freq_mhz(18000, "uplink") == 1920.0


def test_earfcn_out_of_band_rejected_with_band_diagnostic():
    for n, direction in [(600, "downlink"), (-1, "downlink"),
                         (17999, "uplink"), (18600, "uplink"),
                         (100, "uplink")]:
        with pytest.raises(ValueError, match="Band 1"):
            earfcn_to_freq_mhz(n, direction)
    with pytest.raises(ValueError):
        earfcn_to_freq_mhz(100, "sideways")


def test_earfcn_raster_is_affine_with_100khz_step():
    for n in range(0, 599):
        step = earfcn_to_freq_mhz(n + 1, "downlink") - earfcn_to_freq_mhz(n, "downlink")
        assert abs(step - 0.1) < 1e-9
    for n in range(18000, 18599, 37):
        step = earfcn_to_freq_mhz(n + 1, "uplink") - earfcn_to_freq_mhz(n, "uplink")
        assert abs(step - 0.1) < 1e-9


def test_earfcn_direction_inference():
    assert earfcn_direction(100) == "downlink"
    assert earfcn_direction(18100) == "uplink"
    with pytest.raises(ValueError):
        earfcn_direction(9000)


def test_nr_arfcn_anchors():
    assert nr_arfcn_to_freq_mhz(2016667) == 24250.08
    # n257 band edges from the 60 kHz raster: 37500 and 87498 steps up.
    assert abs(nr_arfcn_to_freq_mhz(2054167) - 26500.08) < 1e-9
    assert abs(nr_arfcn_to_freq_mhz(2104165) - 29499.96) < 1e-9


def test_nr_arfcn_below_segment_rejected():
    with pytest.raises(ValueError):
        nr_arfcn_to_freq_mhz(2016666)
    with pytest.raises(ValueError):
        nr_arfcn_to_freq_mhz(3279166)


def test_nr_arfcn_raster_is_affine_with_60khz_step():
    rng = np.random.default_rng(5)
    for n in rng.integers(2016667, 3279165, size=500):
        step = nr_arfcn_to_freq_mhz(int(n) + 1) - nr_arfcn_to_freq_mhz(int(n))
        assert abs(step - 0.06) < 1e-9


# -- free-space propagation --------------------------------------------------

def test_friis_unit_pathloss_distance():
    # At d = lambda / (4 pi) the free-space loss is exactly unity.
    lam = 0.3
    d = lam / (4.0 * math.pi)
    assert friis_rx_power(1.0, 1.0, 1.0, lam, d) == pytest.approx(1.0, rel=1e-12)


def test_friis_inverse_square_law():
    lam = C / 2.12e9
    for d in (1.0, 13.7, 250.0):
        ratio = friis_rx_power(5.0, 2.0, 3.0, lam, d) / friis_rx_power(
            5.0, 2.0, 3.0, lam, 2.0 * d)
        assert ratio == pytest.approx(4.0, rel=1e-12)


def test_friis_matches_independent_straight_line_evaluation():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        pt = 10.0 ** rng.uniform(-3, 2)
        gt = 10.0 ** rng.uniform(-1, 3)
        gr = 10.0 ** rng.uniform(-1, 3)
        lam = 10.0 ** rng.uniform(-3, 0)
        d = 10.0 ** rng.uniform(0, 3)
        loss = 1.0 + rng.uniform(0.0, 9.0)
        expected = (pt * gt * gr / loss) * (lam / (4.0 * math.pi * d)) ** 2
        got = friis_rx_power(pt, gt, gr, lam, d, loss)
        assert got == pytest.approx(expected, rel=1e-12)


def test_friis_homogeneity_degrees():
    rng = np.random.default_rng(77)
    lam = C / 1.93e9
    for _ in range(50):
        pt = rng.uniform(0.1, 10)
        d = rng.uniform(1, 500)
        c = rng.uniform(0.5, 5)
        base = friis_rx_power(pt, 1.0, 1.0, lam, d)
        assert friis_rx_power(c * pt, 1.0, 1.0, lam, d) == pytest.approx(
            c * base, rel=1e-12)
        assert friis_rx_power(pt, 1.0, 1.0, lam, c * d) == pytest.approx(
            base / c ** 2, rel=1e-12)


def _fspl_db(freq_hz: float, d_m: float) -> float:
    return -10.0 * math.log10(friis_rx_power(1.0, 1.0, 1.0, C / freq_hz, d_m))


def test_fspl_2120mhz_100m_is_78_97_db():
    pl = _fspl_db(2.12e9, 100.0)
    assert abs(pl - 78.97) <= 0.01
    # Cross-check against the km/MHz textbook constant.
    textbook = 32.44 + 20.0 * math.log10(0.1) + 20.0 * math.log10(2120.0)
    assert abs(pl - textbook) <= 0.01


def test_fspl_doubling_and_decade_steps_are_exact():
    for d in (3.0, 47.0, 180.0):
        assert abs(_fspl_db(2.12e9, 2 * d) - _fspl_db(2.12e9, d)
                   - 20.0 * math.log10(2.0)) < 1e-9
        assert abs(_fspl_db(2.12e9, 10 * d) - _fspl_db(2.12e9, d) - 20.0) < 1e-9


def test_friis_rejects_zero_distance():
    with pytest.raises(ValueError):
        friis_rx_power(1.0, 1.0, 1.0, 0.15, 0.0)


# -- mmWave path loss --------------------------------------------------------

def test_mmwave_intercept_at_one_meter():
    params = MmWavePathLossParams(alpha_db=61.4, beta=2.0, sigma_db=5.8)
    assert mmwave_pathloss_db(1.0, params) == 61.4


def test_mmwave_28ghz_los_at_100m():
    params = MmWavePathLossParams(alpha_db=61.4, beta=2.0)
    assert mmwave_pathloss_db(100.0, params) == pytest.approx(101.4, abs=1e-12)


def test_mmwave_decade_adds_10_beta_db():
    params = MmWavePathLossParams(alpha_db=61.4, beta=2.0, max_range_m=1000.0)
    for d in (1.0, 7.3, 55.0):
        diff = mmwave_pathloss_db(10 * d, params) - mmwave_pathloss_db(d, params)
        assert abs(diff - 10.0 * params.beta) < 1e-9


def test_mmwave_beyond_max_range_signals_outage():
    params = MmWavePathLossParams(max_range_m=200.0)
    assert mmwave_pathloss_db(200.0, params) < math.inf
    assert mmwave_pathloss_db(201.0, params) == math.inf


def test_mmwave_shadow_enters_additively():
    params = MmWavePathLossParams()
    base = mmwave_pathloss_db(50.0, params)
    assert mmwave_pathloss_db(50.0, params, shadow_db=4.2) == pytest.approx(
        base + 4.2, abs=1e-12)


# -- noise and SNR -----------------------------------------------------------

def test_noise_floor_anchors():
    assert noise_power_dbm(1.0, 0.0) == -174.0
    assert noise_power_dbm(5e6, 9.0) == pytest.approx(-98.0103, abs=1e-4)
    assert noise_power_dbm(1e8, 7.0) == pytest.approx(-87.0, abs=1e-12)
    with pytest.raises(ValueError):
        noise_power_dbm(0.0, 5.0)


def _nr_cfg(**kw) -> NrRadio:
    # The default section: 100 MHz, 30 dBm, 10 + 24 dBi, NF 7 dB.
    return replace(NrRadio(), **kw)


def _lte_cfg(**kw) -> LteRadio:
    # The default section: 1930 MHz, 5 MHz, 23 dBm, 0 dBi, NF 9 dB.
    return replace(LteRadio(), **kw)


def test_radio_config_wavelength_consistency():
    cfg = _lte_cfg()
    assert cfg.wavelength_m * cfg.carrier_freq_hz == pytest.approx(C, rel=1e-6)
    with pytest.raises(ValueError, match="^bandwidth_mhz: "):
        _lte_cfg(bandwidth_mhz=-1.0)
    with pytest.raises(ValueError, match="^system_loss: "):
        _lte_cfg(system_loss=0.5)


def test_snr_composes_the_worked_nr_link_budget():
    # 30 dBm + 34 dBi - 101.4 dB PL - (-87 dBm) noise = 49.6 dB.
    cfg = _nr_cfg()
    assert snr_db(cfg, 100.0) == pytest.approx(49.6, abs=1e-9)
    assert mmwave_pathloss_db(100.0, cfg.mmwave) == pytest.approx(101.4,
                                                                 abs=1e-9)
    assert cfg.noise_dbm == pytest.approx(-87.0, abs=1e-9)


def test_snr_sample_identity_holds():
    # snr = tx power + antenna gains - shadowed path loss - penalties - noise
    cfg = _nr_cfg()
    rx_power = 30.0 + 10.0 + 24.0 - mmwave_pathloss_db(70.0, cfg.mmwave, -2.0)
    assert snr_db(cfg, 70.0, penalties_db=3.5, shadow_db=-2.0) == pytest.approx(
        rx_power - 3.5 - cfg.noise_dbm, abs=1e-12)


def test_lte_snr_doubling_distance_costs_inverse_square():
    cfg = _lte_cfg()
    for d in (25.0, 80.0):
        diff = snr_db(cfg, d) - snr_db(cfg, 2 * d)
        assert diff == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)
        assert round(diff, 2) == 6.02


def test_snr_monotone_in_distance_and_penalties():
    rng = np.random.default_rng(11)
    for cfg in (_lte_cfg(), _nr_cfg()):
        distances = np.sort(rng.uniform(1.0, 190.0, size=20))
        snrs = [snr_db(cfg, float(d)) for d in distances]
        assert all(a >= b for a, b in zip(snrs, snrs[1:]))
        pens = np.sort(rng.uniform(0.0, 40.0, size=10))
        vals = [snr_db(cfg, 90.0, penalties_db=float(p)) for p in pens]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_nr_out_of_coverage_propagates_as_outage_sample():
    assert snr_db(_nr_cfg(), 201.0) == -math.inf


# -- velocity degradation, as the runner applies it ------------------------

def test_outage_probability_anchors():
    # The default section: v_mid 45 km/h, scale 4 km/h.
    cfg = _nr_cfg()
    assert nr_outage_probability(45.0, cfg) == pytest.approx(0.5, abs=1e-12)
    assert nr_outage_probability(60.0, cfg) == pytest.approx(
        1.0 / (1.0 + math.exp(-3.75)), abs=1e-12)   # ~0.977
    assert nr_outage_probability(0.0, cfg) < 1e-3
    assert nr_outage_probability(30.0, _nr_cfg(v_mid_kmh=30.0)) == 0.5


def test_outage_probability_monotone_in_speed():
    speeds = np.linspace(0.0, 80.0, 33)
    probs = [nr_outage_probability(float(v), _nr_cfg()) for v in speeds]
    assert all(a <= b for a, b in zip(probs, probs[1:]))


def _run_at_speed(rat: str, speed_kmh: float, extra: str = "") -> _Run:
    cfg = parse_config("sweep_variable=speed_kmh\nsweep=0\nue_count=8\n"
                       "duration_s=4\nwarmup_s=0.5\nreplications=1\n" + extra)
    return _Run(cfg, rat, speed_kmh, 0, seed=1)


def _snr_calls(mp: pytest.MonkeyPatch) -> list[float]:
    """Every SNR the runner computes from now on, in call order."""
    snrs = []
    snr = runner.snr_db

    def noting(*args, **kwargs):
        snrs.append(snr(*args, **kwargs))
        return snrs[-1]
    mp.setattr(runner, "snr_db", noting)
    return snrs


def _served_slot_snr_cuts(speed_kmh: float, extra: str = "") -> list[float]:
    """Link-adaptation SNR minus transmit SNR of every served NR slot.

    The outcome pass draws each slot's outage and then hands ``harq_transmit``
    one HARQ table for all the slot's packets: the one at its UE's
    link-adaptation SNR, or in an outage the one at that SNR less the
    configured depth.  Each table is checked against the SNR it stands for,
    its UE's at the slot's refresh epoch, and against the slot's outage draw.
    """
    transmit = runner.harq_transmit
    slots = []      # per outage draw: whether it hit, and the slot's tables

    def transmitting(fail_probs, harq, rng):
        slots[-1][1].append(fail_probs)
        return transmit(fail_probs, harq, rng)
    with pytest.MonkeyPatch.context() as mp:
        snrs = _snr_calls(mp)
        run = _run_at_speed("nr", speed_kmh, extra)
        draw = run.outage_rng.random

        def drawing():
            u = draw()
            slots.append((u < run.p_out, []))
            return u
        run.outage_rng.random = drawing
        mp.setattr(runner, "harq_transmit", transmitting)
        run.execute()
    record = run.schedule
    n_ues = run.cfg.ue_count
    # Shadowing redraws every NR link at every refresh epoch, so each epoch
    # computes every UE's SNR once, in UE order.
    assert len(snrs) == len(record.epoch_t) * n_ues
    epochs = [e for e, (a, b) in enumerate(zip([0, *record.epoch_end],
                                                record.epoch_end))
              for _ in range(b - a)]
    assert len(slots) == len(record.grant_ue) == len(epochs)
    depth = run.cfg.radio_nr.outage_penalty_db
    fail = run.harq.fail_probs
    cuts = []
    for (hit, tables), i, e in zip(slots, record.grant_ue, epochs):
        assert tables, "a served NR slot carries at least one packet"
        fail_probs = tables[0]
        assert all(table is fail_probs for table in tables)
        snr = snrs[e * n_ues + i]
        stands_for = {fail(snr): 0.0, fail(snr - depth): depth}
        assert len(stands_for) == 2
        cut = stands_for[fail_probs]
        assert (cut > 0.0) == hit
        cuts.append(cut)
    return cuts


def test_lte_velocity_penalty_is_deterministic_ramp():
    # Positions at t=0 do not depend on speed, so the whole SNR gap at t=0
    # is the 0.02 dB per km/h ramp.
    with pytest.MonkeyPatch.context() as mp:
        static_snrs = _snr_calls(mp)
        static = _run_at_speed("lte", 0.0)
    with pytest.MonkeyPatch.context() as mp:
        moving_snrs = _snr_calls(mp)
        moving = _run_at_speed("lte", 60.0)
    assert len(static_snrs) == len(moving_snrs) == static.cfg.ue_count
    for a, b in zip(static_snrs, moving_snrs):
        assert a - b == pytest.approx(1.2, abs=1e-9)
    assert static.p_out == moving.p_out == 0.0


def test_nr_velocity_penalty_draw_frequencies():
    static = _served_slot_snr_cuts(0.0)
    assert sum(c > 0 for c in static) / len(static) < 0.001
    at_mid = _served_slot_snr_cuts(45.0)
    # One Bernoulli(0.5) outage draw per served slot.
    frac = sum(c > 0 for c in at_mid) / len(at_mid)
    assert abs(frac - 0.5) < 3 * 0.5 / math.sqrt(len(at_mid))


def test_nr_velocity_penalty_value_is_configured_outage_depth():
    cuts = _served_slot_snr_cuts(45.0, "radio.nr.outage_penalty_db=30\n")
    assert {round(c, 9) for c in cuts} == {0.0, 30.0}
