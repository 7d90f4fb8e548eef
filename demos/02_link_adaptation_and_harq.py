"""
Link adaptation and HARQ retransmission
=======================================

Shows the truncated-Shannon rate map, the logistic block-error curve, and
how bounded HARQ retries turn per-attempt errors into the closed-form
delivery rate 1 - p^(1+max_retx).
"""

import math

import numpy as np

from sitelink import (HarqProcess, LinkAdaptation, LteRadio, NrRadio,
                      achievable_rate_bps, bler, harq_transmit, rng_stream)

# ---------------------------------------------------------------------------
# 1. Truncated Shannon: capacity grows with SNR until the efficiency ceiling
# ---------------------------------------------------------------------------

lte_la = LinkAdaptation(overhead=0.75, eff_max=4.5)    # 25-RB cell
nr_la = LinkAdaptation(overhead=0.7, eff_max=7.0)      # one FR2 channel

print("Serving rate vs SNR:")
print("  SNR      LTE 5 MHz      5G 100 MHz")
for snr in (-5, 0, 5, 10, 15, 20, 30, 50):
    lte = achievable_rate_bps(snr, LteRadio(), lte_la) / 1e6     # 5 MHz
    nr = achievable_rate_bps(snr, NrRadio(), nr_la) / 1e6        # 100 MHz
    print(f"  {snr:4d} dB {lte:9.3f} Mb/s {nr:10.2f} Mb/s")
print("  (the LTE ceiling 5 MHz x 0.75 x 4.5 = 16.875 Mb/s is the saturation"
      " plateau seen in the UE sweep)")

# ---------------------------------------------------------------------------
# 2. Block error rate: logistic in SNR around a 3 dB threshold
# ---------------------------------------------------------------------------

print("\nBLER curve (threshold 3 dB, steepness 1 dB):")
for snr in (-2, 0, 3, 5, 8, 13):
    print(f"  snr {snr:4.0f} dB -> bler {bler(snr):.2e}")

# ---------------------------------------------------------------------------
# 3. HARQ: four tries at fixed SNR deliver with probability 1 - p^4
# ---------------------------------------------------------------------------

harq = HarqProcess(max_retx=3, combining_gain_db=0.0, rtt_s=0.008)
rng = rng_stream("harq-demo", 1)
trials = 50_000

print("\nMonte Carlo vs closed form (per-attempt error p, 4 attempts):")
print("      p    simulated    1 - p^4    mean attempts   (1-p^4)/(1-p)")
for p in (0.1, 0.3, 0.5, 0.7):
    snr = 3.0 + math.log((1 - p) / p)     # invert the logistic
    probs = harq.fail_probs(snr)          # bler per attempt, computed once
    delivered = 0
    attempts = 0
    for _ in range(trials):
        out = harq_transmit(probs, harq, rng)
        delivered += out.delivered
        attempts += out.attempts
    print(f"  {p:5.1f} {delivered / trials:11.4f} {1 - p ** 4:10.4f}"
          f" {attempts / trials:15.3f} {(1 - p ** 4) / (1 - p):15.3f}")

# ---------------------------------------------------------------------------
# 4. Soft combining shifts later attempts right on the SNR axis
# ---------------------------------------------------------------------------

gain = HarqProcess(max_retx=3, combining_gain_db=2.0, rtt_s=0.008)
rng2 = rng_stream("harq-demo-gain", 1)
snr = 2.0                                  # first attempt fails 73% of the time
probs = gain.fail_probs(snr)
delivered = sum(harq_transmit(probs, gain, rng2).delivered
                for _ in range(trials))
analytic = 1.0 - np.prod([bler(snr + k * 2.0) for k in range(4)])
print(f"\nWith 2 dB combining gain at snr {snr} dB: "
      f"simulated {delivered / trials:.4f}, analytic {analytic:.4f}")
