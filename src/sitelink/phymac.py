"""PHY/MAC abstractions: numerology, link adaptation, scheduling, HARQ.

The serving rate is a truncated Shannon map of SNR.  LTE schedules 25
resource blocks per 1 ms subframe with a proportional-fair rule; the mmWave
cell grants whole 0.125 ms slots round-robin.  HARQ retries a failed block up
to ``max_retx`` times with a fixed soft-combining gain per attempt.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import truediv
from typing import NamedTuple, Optional, Sequence

from .channel import falling_logistic

SUPPORTED_SCS_KHZ = (15, 30, 60, 120)

# Floor for the smoothed served-rate averages; keeps PF ratios finite after
# arbitrarily long idle stretches.
_AVG_FLOOR_BPS = 1e-6
# Every UE's smoothed served rate before its first subframe.
_INIT_AVG_BPS = 1000.0


@dataclass(frozen=True)
class LinkAdaptation:
    """Truncated Shannon mapping from SNR to serving rate."""

    overhead: float = 0.75        # fraction of raw capacity delivered
    eff_max: float = 4.5          # spectral-efficiency ceiling, bits/s/Hz
    snr_floor_db: float = -5.0    # below this the link carries nothing

    def __post_init__(self):
        if not 0.0 < self.overhead <= 1.0:
            raise ValueError(f"overhead: must be in (0, 1], got {self.overhead}")
        if self.eff_max <= 0.0:
            raise ValueError(f"eff_max: must be > 0, got {self.eff_max}")


def achievable_rate_bps(snr_db: float, radio, la: LinkAdaptation) -> float:
    """Serving rate on the channel of *radio*, an LteRadio or NrRadio:
    bandwidth * overhead * min(log2(1 + SNR), eff_max)."""
    if snr_db < la.snr_floor_db:
        return 0.0
    eff = min(math.log2(1.0 + 10.0 ** (snr_db / 10.0)), la.eff_max)
    return radio.bandwidth_hz * la.overhead * eff


class PfState:
    """One LTE cell's PF memory: its LtePhy's RB budget, window and slot."""

    def __init__(self, phy: LtePhy, n_ues: int):
        self.rb_count = phy.rb_count
        self.window = phy.pf_window
        self.slot_s = phy.slot_s
        self.avg_bps = [_INIT_AVG_BPS] * n_ues


class RrState:
    """Round-robin memory of one NR cell: the UE the next rotation starts at."""

    rr_pos = 0


def pf_schedule(state: PfState, rates_bps: Sequence[float],
                backlog_bytes: Sequence[int]) -> list[int]:
    """Proportional-fair allocation of the PfState's RBs for one subframe.

    Every RB goes to the backlogged UE maximising instantaneous rate over
    smoothed served rate.  Because the ratios are fixed within a subframe
    this reduces to walking UEs in ratio order and granting each enough RBs
    to cover its backlog.  The walk is a stable sort on the ratio with
    ``reverse=True``, which keeps equal ratios in index order: ties go to
    the lowest index.  Averages are then smoothed with the
    allocation-implied service (zero for unserved UEs) and floored at
    ``_AVG_FLOOR_BPS``.
    """
    avg = state.avg_bps
    n = len(avg)
    alloc = [0] * n
    slot_s = state.slot_s
    rb_count = state.rb_count

    ratio = list(map(truediv, rates_bps, avg))
    rb_left = rb_count
    # Sorting every UE and skipping the idle ones in the walk is cheaper
    # than filtering first when most UEs are backlogged.
    for i in sorted(range(n), key=ratio.__getitem__, reverse=True):
        if not (backlog_bytes[i] > 0 and rates_bps[i] > 0.0):
            continue
        rb_bits = rates_bps[i] * slot_s / rb_count
        need = math.ceil(backlog_bytes[i] * 8.0 / rb_bits)
        if need >= rb_left:
            alloc[i] = rb_left
            break
        alloc[i] = need
        rb_left -= need

    w = state.window
    keep = 1.0 - 1.0 / w
    floor = _AVG_FLOOR_BPS
    for i, grant in enumerate(alloc):
        v = keep * avg[i]
        if grant:
            served_bits = min(grant * rates_bps[i] * slot_s / rb_count,
                              backlog_bytes[i] * 8.0)
            v += served_bits / slot_s / w
        avg[i] = v if v >= floor else floor
    return alloc


def nr_slot_schedule(state: RrState, backlogs: Sequence) -> Optional[int]:
    """Round-robin pick of one backlogged UE for a whole slot; None when idle.

    A UE counts as backlogged when its entry in *backlogs* is truthy: a
    positive byte count, or a non-empty ``FlowQueue``.  Only the entries from
    the ``RrState`` pointer up to the pick are read.  A UE that becomes
    backlogged mid-rotation joins at its fixed position, so no continuously
    backlogged UE waits more than one full rotation.
    """
    n = len(backlogs)
    pos = state.rr_pos
    for j in range(n):
        i = pos + j
        if i >= n:
            i -= n
        if backlogs[i]:
            state.rr_pos = i + 1 if i + 1 < n else 0
            return i
    return None


def bler(snr_db: float, threshold_db: float = 3.0,
         steepness_db: float = 1.0) -> float:
    """Block error rate, logistic in SNR: 1 / (1 + exp((snr - thr) / k))."""
    if steepness_db <= 0.0:
        raise ValueError("steepness must be > 0")
    return falling_logistic((snr_db - threshold_db) / steepness_db)


class HarqOutcome(NamedTuple):
    delivered: bool
    attempts: int
    added_delay_s: float


@dataclass(frozen=True)
class HarqProcess:
    """Bounded retransmission with soft combining; each retry costs one RTT.

    ``outcomes`` holds every result a packet can have, built once: index
    k - 1 is delivery at attempt k with (k - 1) * rtt extra delay, and the
    last entry is exhaustion after 1 + max_retx failures.
    """

    max_retx: int = 3
    combining_gain_db: float = 2.0
    rtt_s: float = 0.008
    bler_threshold_db: float = 3.0
    bler_steepness_db: float = 1.0

    def __post_init__(self):
        if self.max_retx < 0:
            raise ValueError(f"max_retx: must be >= 0, got {self.max_retx}")
        if self.rtt_s <= 0.0:
            raise ValueError(f"rtt_s: must be > 0, got {self.rtt_s}")
        if self.bler_steepness_db <= 0.0:
            raise ValueError(f"bler_steepness_db: must be > 0, "
                             f"got {self.bler_steepness_db}")
        rtt = self.rtt_s
        attempts_max = self.max_retx + 1
        object.__setattr__(self, "outcomes", tuple(
            [HarqOutcome(True, k, (k - 1) * rtt)
             for k in range(1, attempts_max + 1)]
            + [HarqOutcome(False, attempts_max, self.max_retx * rtt)]))

    def fail_probs(self, snr_db: float) -> tuple[float, ...]:
        """Per-attempt failure probabilities at channel SNR *snr_db*: attempt
        k (1-based) fails with probability bler(snr + (k - 1) * gain)."""
        thr = self.bler_threshold_db
        steep = self.bler_steepness_db
        gain = self.combining_gain_db
        return tuple(bler(snr_db + (k - 1) * gain, thr, steep)
                     for k in range(1, self.max_retx + 2))

    def first_fail_prob(self, snr_db: float) -> float:
        """``fail_probs(snr_db)[0]``, the first attempt's, alone: bler(snr)."""
        return bler(snr_db, self.bler_threshold_db, self.bler_steepness_db)


@dataclass(frozen=True)
class _Phy:
    """What the LTE and NR PHY sections share: numerology, link adaptation
    and HARQ."""

    scs_khz: int
    la: LinkAdaptation
    harq: HarqProcess

    def __post_init__(self):
        if self.scs_khz not in SUPPORTED_SCS_KHZ:
            raise ValueError(f"scs_khz: expected one of {SUPPORTED_SCS_KHZ}, "
                             f"got {self.scs_khz}")

    @property
    def slot_s(self) -> float:
        """Slot length; scales as 15 kHz / SCS ms."""
        return 0.001 * 15 / self.scs_khz


@dataclass(frozen=True)
class LtePhy(_Phy):
    """The LTE cell (config section ``phy.lte``): PF shares ``rb_count``
    resource blocks per subframe, smoothing over ``pf_window`` subframes."""

    scs_khz: int = 15
    la: LinkAdaptation = LinkAdaptation()
    harq: HarqProcess = HarqProcess()
    rb_count: int = 25
    pf_window: int = 100

    def __post_init__(self):
        super().__post_init__()
        if self.rb_count < 1:
            raise ValueError(f"rb_count: must be >= 1, got {self.rb_count}")
        if self.pf_window < 1:
            raise ValueError(f"pf_window: must be >= 1, got {self.pf_window}")


@dataclass(frozen=True)
class NrPhy(_Phy):
    """The mmWave cell (config section ``phy.nr``): whole slots go round
    robin, so it has no resource-block or PF keys."""

    scs_khz: int = 120
    la: LinkAdaptation = LinkAdaptation(overhead=0.7, eff_max=7.0)
    harq: HarqProcess = HarqProcess(rtt_s=0.0005)


def harq_transmit(fail_probs: Sequence[float], harq: HarqProcess,
                  rng: random.Random) -> HarqOutcome:
    """Run one packet through the HARQ chain of *harq*.

    *fail_probs* is ``harq.fail_probs(snr)`` at the channel SNR: one draw
    per attempt, and the first draw at or above its attempt's failure
    probability delivers the packet.  Exhaustion drops it.
    """
    outcomes = harq.outcomes
    draw = rng.random
    if draw() >= fail_probs[0]:    # most packets go through at once
        return outcomes[0]
    for k in range(1, len(fail_probs)):
        if draw() >= fail_probs[k]:
            return outcomes[k]
    return outcomes[-1]


def first_draws_deliver(draws: Sequence[float], fail_prob: float) -> bool:
    """Whether every packet whose first HARQ draw is one of *draws* is
    delivered at once, by ``harq_transmit``'s first-draw rule, when no
    packet's first-attempt failure probability exceeds *fail_prob*."""
    return not draws or min(draws) >= fail_prob
