"""Acceptance gate: the eleven study-level criteria at their stated tolerances.

The three scenario studies run at full default scale (20 s runs, 5
replications each), so this module takes a few minutes of wall clock.  One
PASS/FAIL line prints per criterion (run pytest with -s to see them live).

Tolerances are pinned here:
  1. LTE saturation: rise >= 2 Mb/s per offered step while unsaturated, then
     every point with >= 10 UEs inside 17 +- 15% Mb/s with spread <= 1.7 Mb/s.
  2. 5G scaling: per-point throughput within 5% of 2N Mb/s, loss < 1%.
  3. LTE overload: loss > 50% and within +-5 points of 1 - plateau/offered.
  4. 5G delay: mean delay <= 25 ms at 5 Mb/s per UE.
  5. Light-load delay ratio LTE/5G in 2.0 +- 0.5.
  6. Mobility knee: 5G at 50 km/h below half of static, 0-30 km/h within 15%
     of static, loss strictly increasing from 30 km/h; LTE at 60 km/h within
     10% of static.
  7. Friis oracle 1e-12 relative; FSPL(2120 MHz, 100 m) = 78.97 +- 0.01 dB;
     -6.02 dB per doubling exact to 1e-9.
  8. Raster endpoints exact (1e-9 MHz, i.e. sub-Hz).
  9. HARQ Monte Carlo within 3 sigma of 1 - p^4 over 1e5 trials.
 10. Byte-identical CSV across reruns and worker counts.
 11. Exact per-flow packet conservation.
"""

import math

import numpy as np
import pytest

from sitelink.channel import (earfcn_to_freq_mhz, friis_rx_power,
                              nr_arfcn_to_freq_mhz)
from sitelink.config import default_config, parse_config
from sitelink.engine import rng_stream
from sitelink.metrics import export_csv
from sitelink.phymac import HarqProcess, bler, harq_transmit
from sitelink.runner import run_scenario, run_single

C_LIGHT = 299_792_458.0


def _criterion(name, checks):
    ok = all(good for good, _ in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    for good, msg in checks:
        print(f"    {'ok ' if good else 'BAD'} {msg}")
    assert ok, f"acceptance criterion failed: {name}"


def _by_point(results):
    return {(r.rat, r.sweep_value): r for r in results}


# Two workers: criterion 10 shows the CSV does not depend on the worker count.
@pytest.fixture(scope="module")
def scenario1():
    return _by_point(run_scenario(default_config("scenario1"), workers=2))


@pytest.fixture(scope="module")
def scenario2():
    return _by_point(run_scenario(default_config("scenario2"), workers=2))


@pytest.fixture(scope="module")
def scenario3():
    return _by_point(run_scenario(default_config("scenario3"), workers=2))


def test_sweep_cardinalities_and_light_load_point(scenario1, scenario2):
    assert len(scenario1) == 20    # 10 UE counts x 2 RATs
    assert len(scenario2) == 16    # 8 offered rates x 2 RATs
    for rat in ("lte", "nr"):
        r = scenario1[(rat, 2.0)]
        assert r.loss_rate < 0.01
        assert r.throughput_bps == pytest.approx(4e6, rel=0.02)


def test_criterion_1_lte_saturation_plateau(scenario1):
    thr = {int(n): scenario1[("lte", float(n))].throughput_bps / 1e6
           for n in range(2, 21, 2)}
    checks = []
    for n in (2, 4):
        step = thr[n + 2] - thr[n]
        checks.append((step >= 2.0,
                       f"rising region: thr({n + 2}) - thr({n}) = {step:.2f} Mb/s >= 2"))
    plateau = [thr[n] for n in range(10, 21, 2)]
    for n, v in zip(range(10, 21, 2), plateau):
        checks.append((abs(v - 17.0) <= 2.55,
                       f"plateau N={n}: {v:.2f} Mb/s within 17 +- 2.55"))
    spread = max(plateau) - min(plateau)
    checks.append((spread <= 1.7, f"plateau spread {spread:.2f} Mb/s <= 1.7"))
    _criterion("1 LTE saturation plateau ~17 Mb/s", checks)


def test_criterion_2_nr_tracks_offered_load(scenario1):
    checks = []
    worst_err = 0.0
    worst_loss = 0.0
    for n in range(2, 21, 2):
        r = scenario1[("nr", float(n))]
        offered = 2.0 * n
        err = abs(r.throughput_bps / 1e6 - offered) / offered
        worst_err = max(worst_err, err)
        worst_loss = max(worst_loss, r.loss_rate)
        checks.append((err <= 0.05 and r.loss_rate < 0.01,
                       f"N={n}: thr err {err * 100:.2f}% <= 5%, "
                       f"loss {r.loss_rate:.5f} < 0.01"))
    checks.append((True, f"worst: err {worst_err * 100:.2f}%, loss {worst_loss:.5f}"))
    _criterion("2 5G throughput tracks 2N Mb/s with <1% loss", checks)


def test_criterion_3_lte_overload_loss(scenario2):
    cfg = default_config("scenario2")
    plateau_mbps = (cfg.radio_lte.bandwidth_mhz * cfg.phy_lte.la.overhead
                    * cfg.phy_lte.la.eff_max)
    r = scenario2[("lte", 5.0)]
    offered = 5.0 * 8
    oracle = 1.0 - plateau_mbps / offered
    checks = [
        (r.loss_rate > 0.5, f"loss {r.loss_rate:.4f} > 0.5"),
        (abs(r.loss_rate - oracle) <= 0.05,
         f"flow conservation: |{r.loss_rate:.4f} - {oracle:.4f}| <= 0.05"),
    ]
    _criterion("3 LTE overload loss at 5 Mb/s x 8 UEs", checks)


def test_criterion_4_nr_delay_bound(scenario2):
    r = scenario2[("nr", 5.0)]
    delay_ms = r.mean_delay_s * 1e3
    _criterion("4 5G mean delay <= 25 ms at 5 Mb/s per UE",
               [(delay_ms <= 25.0, f"mean delay {delay_ms:.3f} ms <= 25")])


def test_criterion_5_light_load_delay_ratio(scenario1):
    lte = scenario1[("lte", 2.0)].mean_delay_s
    nr = scenario1[("nr", 2.0)].mean_delay_s
    ratio = lte / nr
    _criterion("5 light-load LTE/5G delay ratio 2.0 +- 0.5",
               [(1.5 <= ratio <= 2.5,
                 f"ratio {ratio:.2f} (LTE {lte * 1e3:.2f} ms / "
                 f"5G {nr * 1e3:.2f} ms) in [1.5, 2.5]")])


def test_criterion_6_mobility_knee(scenario3):
    nr0 = scenario3[("nr", 0.0)].throughput_bps
    nr50 = scenario3[("nr", 50.0)].throughput_bps
    checks = [(nr50 < 0.5 * nr0,
               f"5G thr(50) = {nr50 / 1e6:.2f} Mb/s < 50% of static "
               f"{nr0 / 1e6:.2f} Mb/s")]
    for v in range(0, 31, 5):
        thr = scenario3[("nr", float(v))].throughput_bps
        checks.append((abs(thr - nr0) <= 0.15 * nr0,
                       f"5G thr({v}) = {thr / 1e6:.2f} Mb/s within 15% of static"))
    losses = [scenario3[("nr", float(v))].loss_rate for v in range(30, 61, 5)]
    increasing = all(a < b for a, b in zip(losses, losses[1:]))
    checks.append((increasing,
                   "5G loss strictly increasing for v >= 30 km/h: "
                   + ", ".join(f"{x:.3f}" for x in losses)))
    lte0 = scenario3[("lte", 0.0)].throughput_bps
    lte60 = scenario3[("lte", 60.0)].throughput_bps
    checks.append((abs(lte60 - lte0) <= 0.10 * lte0,
                   f"LTE thr(60) = {lte60 / 1e6:.2f} Mb/s within 10% of "
                   f"static {lte0 / 1e6:.2f} Mb/s"))
    _criterion("6 mobility knee at 40-50 km/h", checks)


def test_criterion_7_propagation_oracles():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        pt = 10.0 ** rng.uniform(-3, 2)
        gt = 10.0 ** rng.uniform(-1, 3)
        gr = 10.0 ** rng.uniform(-1, 3)
        lam = 10.0 ** rng.uniform(-3, 0)
        d = 10.0 ** rng.uniform(0, 3)
        loss = 1.0 + rng.uniform(0.0, 9.0)
        expected = (pt * gt * gr / loss) * lam * lam / (16.0 * math.pi ** 2 * d * d)
        got = friis_rx_power(pt, gt, gr, lam, d, loss)
        worst = max(worst, abs(got - expected) / expected)
    lam = C_LIGHT / 2.12e9
    fspl = -10.0 * math.log10(friis_rx_power(1.0, 1.0, 1.0, lam, 100.0))
    doubling = (-10.0 * math.log10(friis_rx_power(1.0, 1.0, 1.0, lam, 200.0))
                - fspl)
    checks = [
        (worst < 1e-12, f"Friis vs straight-line oracle: worst rel err {worst:.2e}"),
        (abs(fspl - 78.97) <= 0.01, f"FSPL(2120 MHz, 100 m) = {fspl:.4f} dB"),
        (abs(doubling - 20.0 * math.log10(2.0)) < 1e-9,
         f"doubling costs {doubling:.9f} dB (-6.02 expected)"),
    ]
    _criterion("7 propagation oracles", checks)


def test_criterion_8_raster_oracles():
    nr_lo = nr_arfcn_to_freq_mhz(2054167)
    nr_hi = nr_arfcn_to_freq_mhz(2104165)
    checks = [
        (earfcn_to_freq_mhz(100, "downlink") == 2120.0, "EARFCN 100 -> 2120.0 MHz"),
        (earfcn_to_freq_mhz(18100, "uplink") == 1930.0, "EARFCN 18100 -> 1930.0 MHz"),
        (abs(nr_lo - 26500.08) <= 1e-9, f"NR-ARFCN 2054167 -> {nr_lo:.6f} MHz"),
        (abs(nr_hi - 29499.96) <= 1e-9, f"NR-ARFCN 2104165 -> {nr_hi:.6f} MHz"),
    ]
    _criterion("8 frequency raster endpoints", checks)


def test_criterion_9_harq_analytic_match():
    checks = []
    harq = HarqProcess(max_retx=3, combining_gain_db=0.0)
    rng = rng_stream("harq-acceptance", 7)
    n = 100_000
    for p in (0.1, 0.3, 0.5):
        snr = 3.0 + math.log((1.0 - p) / p)   # logistic inverse at defaults
        assert abs(bler(snr) - p) < 1e-12
        probs = harq.fail_probs(snr)
        delivered = sum(harq_transmit(probs, harq, rng).delivered
                        for _ in range(n))
        expect = 1.0 - p ** 4
        sigma = math.sqrt(expect * (1.0 - expect) / n)
        dev = abs(delivered / n - expect)
        checks.append((dev < 3.0 * sigma,
                       f"p={p}: rate {delivered / n:.5f} vs {expect:.5f} "
                       f"(|dev| {dev:.2e} < 3 sigma {3 * sigma:.2e})"))
    _criterion("9 HARQ delivery matches 1 - p^4", checks)


def test_criterion_10_determinism(tmp_path):
    cfg = parse_config("""
preset=custom
sweep_variable=ue_count
sweep=2,6
duration_s=3
warmup_s=0.5
replications=2
seed_base=99
mobility.speed_kmh=35
""")
    blobs = []
    for tag, workers in (("a", 1), ("b", 1), ("w2", 2), ("w3", 3)):
        path = tmp_path / f"{tag}.csv"
        export_csv(run_scenario(cfg, workers=workers), str(path))
        blobs.append(path.read_bytes())
    checks = [
        (blobs[0] == blobs[1], "two serial runs byte-identical"),
        (blobs[0] == blobs[2] == blobs[3],
         "workers 2 and 3 byte-identical to serial"),
    ]
    _criterion("10 determinism across reruns and parallelism", checks)


def test_criterion_11_packet_conservation():
    checks = []
    cases = [
        ("LTE overload", "scenario2", "lte", 4),       # 5 Mb/s x 8 UEs
        ("5G mobility 50 km/h", "scenario3", "nr", 10),
        ("5G 20 UEs", "scenario1", "nr", 9),
    ]
    for label, preset, rat, sweep_index in cases:
        cfg = default_config(preset)
        result = run_single(cfg, rat, sweep_index, 0)
        exact = all(
            f.tx_packets == f.rx_packets + sum(f.drops_by_cause.values())
            for f in result.flows)
        total = sum(f.tx_packets for f in result.flows)
        checks.append((exact,
                       f"{label}: created == delivered + dropped for all "
                       f"{len(result.flows)} flows ({total} packets)"))
    _criterion("11 exact per-flow conservation", checks)
