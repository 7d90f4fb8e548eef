"""
Link budgets: frequency raster, path loss, and SNR vs distance
==============================================================

Walks the radio-channel layer bottom-up: channel numbers to carrier
frequencies, free-space and mmWave line-of-sight path loss, thermal noise,
and the composed SNR curves the simulator schedules against.
"""

import numpy as np

from sitelink import (default_config, earfcn_to_freq_mhz, friis_rx_power,
                      mmwave_pathloss_db, noise_power_dbm,
                      nr_arfcn_to_freq_mhz, snr_db)
from sitelink.channel import SPEED_OF_LIGHT, MmWavePathLossParams

# ---------------------------------------------------------------------------
# 1. Channel numbers -> carrier frequencies (3GPP linear rasters)
# ---------------------------------------------------------------------------

print("Band 1 LTE raster (0.1 MHz steps):")
for earfcn, direction in [(100, "downlink"), (18100, "uplink")]:
    f = earfcn_to_freq_mhz(earfcn, direction)
    print(f"  EARFCN {earfcn:>6} ({direction:8s}) -> {f:8.2f} MHz")

print("mmWave raster (0.06 MHz steps, band n257 spans 26.5 - 29.5 GHz):")
for nr_arfcn in (2054167, 2079167, 2104165):
    print(f"  NR-ARFCN {nr_arfcn} -> {nr_arfcn_to_freq_mhz(nr_arfcn):9.2f} MHz")

# ---------------------------------------------------------------------------
# 2. Free-space loss falls 6 dB per doubling of distance
# ---------------------------------------------------------------------------

lam = SPEED_OF_LIGHT / 1.93e9          # uplink wavelength
distances = np.array([12.5, 25.0, 50.0, 100.0, 200.0])
fspl = np.array([-10 * np.log10(friis_rx_power(1, 1, 1, lam, d))
                 for d in distances])
print("\nFree-space path loss at 1930 MHz:")
for d, pl in zip(distances, fspl):
    print(f"  {d:6.1f} m -> {pl:6.2f} dB")
print(f"  per-doubling increments: {np.round(np.diff(fspl), 4)} dB")

# ---------------------------------------------------------------------------
# 3. The 28 GHz line-of-sight model adds shadowing on a 61.4 + 20 log10(d) trend
# ---------------------------------------------------------------------------

params = MmWavePathLossParams()        # alpha 61.4 dB, beta 2.0, sigma 5.8 dB
print("\n28 GHz LOS path loss (no shadowing):")
for d in (1.0, 20.0, 100.0, 200.0):
    print(f"  {d:6.1f} m -> {mmwave_pathloss_db(d, params):6.2f} dB")

rng = np.random.default_rng(0)
shadowed = [mmwave_pathloss_db(100.0, params, rng.normal(0, params.sigma_db))
            for _ in range(2000)]
print(f"  with shadowing at 100 m: mean {np.mean(shadowed):.2f} dB, "
      f"std {np.std(shadowed):.2f} dB (sigma = {params.sigma_db})")

# ---------------------------------------------------------------------------
# 4. Noise floors scale with bandwidth; SNR composes the pieces
# ---------------------------------------------------------------------------

print("\nThermal noise floors:")
print(f"  LTE  5 MHz, NF 9 dB: {noise_power_dbm(5e6, 9.0):8.2f} dBm")
print(f"  NR 100 MHz, NF 7 dB: {noise_power_dbm(1e8, 7.0):8.2f} dBm")

cfg = default_config()
lte, nr = cfg.radio_lte, cfg.radio_nr
print("\nSNR vs distance with the default link budgets:")
print("  distance    LTE SNR    5G SNR")
for d in (20.0, 50.0, 100.0, 150.0, 200.0):
    print(f"  {d:6.1f} m {snr_db(lte, d):8.2f} dB {snr_db(nr, d):8.2f} dB")

print(f"\nBeyond the {nr.mmwave.max_range_m:.0f} m mmWave range the link is in "
      f"outage: snr={snr_db(nr, 250.0)}")
