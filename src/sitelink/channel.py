"""Radio channel: frequency raster, propagation loss, noise, SNR, outage probability.

LTE links use free-space (Friis) propagation on the Band 1 uplink carrier.
The mmWave link uses a statistical line-of-sight model, PL = alpha +
10*beta*log10(d) + X, with log-normal shadowing X and a hard coverage limit,
plus the probability of the empirical beam-tracking outage that degrades the
link as UE speed grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# 3GPP Band 1 raster anchors (TS 36.101 table 5.7.3-1).
_BAND1_DL_LOW_MHZ = 2110.0
_BAND1_DL_RANGE = (0, 599)
_BAND1_UL_LOW_MHZ = 1920.0
_BAND1_UL_OFFSET = 18000
_BAND1_UL_RANGE = (18000, 18599)

# NR global raster, 60 kHz step segment above 24.25 GHz (TS 38.101-2).
_NR_RASTER_START = 2016667
_NR_RASTER_END = 3279165
_NR_BASE_MHZ = 24250.08


def earfcn_to_freq_mhz(earfcn: int, direction: str = "downlink") -> float:
    """Band 1 EARFCN to carrier frequency, F = F_low + 0.1 * (N - N_offset)."""
    if direction == "downlink":
        lo, hi = _BAND1_DL_RANGE
        if not lo <= earfcn <= hi:
            raise ValueError(
                f"EARFCN {earfcn} outside Band 1 downlink range {lo}..{hi}")
        return _BAND1_DL_LOW_MHZ + (earfcn - lo) / 10
    if direction == "uplink":
        lo, hi = _BAND1_UL_RANGE
        if not lo <= earfcn <= hi:
            raise ValueError(
                f"EARFCN {earfcn} outside Band 1 uplink range {lo}..{hi}")
        return _BAND1_UL_LOW_MHZ + (earfcn - _BAND1_UL_OFFSET) / 10
    raise ValueError(f"direction must be 'downlink' or 'uplink', got {direction!r}")


def earfcn_direction(earfcn: int) -> str:
    """Infer downlink/uplink from the Band 1 EARFCN numbering ranges."""
    if _BAND1_DL_RANGE[0] <= earfcn <= _BAND1_DL_RANGE[1]:
        return "downlink"
    if _BAND1_UL_RANGE[0] <= earfcn <= _BAND1_UL_RANGE[1]:
        return "uplink"
    raise ValueError(f"EARFCN {earfcn} is not in Band 1 (DL 0..599, UL 18000..18599)")


def nr_arfcn_to_freq_mhz(nr_arfcn: int) -> float:
    """NR-ARFCN to frequency on the 60 kHz global raster segment above 24.25 GHz."""
    if not _NR_RASTER_START <= nr_arfcn <= _NR_RASTER_END:
        raise ValueError(
            f"NR-ARFCN {nr_arfcn} outside the mmWave raster segment "
            f"{_NR_RASTER_START}..{_NR_RASTER_END}")
    # (N - start) * 6 / 100 keeps the 0.06 MHz step free of binary round-off.
    return _NR_BASE_MHZ + (nr_arfcn - _NR_RASTER_START) * 6 / 100


def friis_rx_power(tx_power_w: float, gain_tx: float, gain_rx: float,
                   wavelength_m: float, distance_m: float,
                   system_loss: float = 1.0) -> float:
    """Free-space received power in watts, Pt*Gt*Gr*lambda^2 / ((4*pi)^2 d^2 L)."""
    if distance_m <= 0.0:
        raise ValueError(f"distance must be > 0, got {distance_m}")
    if system_loss < 1.0:
        raise ValueError(f"system loss must be >= 1, got {system_loss}")
    if gain_tx <= 0.0 or gain_rx <= 0.0:
        raise ValueError("linear antenna gains must be > 0")
    num = tx_power_w * gain_tx * gain_rx * wavelength_m * wavelength_m
    den = (4.0 * math.pi) ** 2 * distance_m * distance_m * system_loss
    return num / den


@dataclass(frozen=True)
class MmWavePathLossParams:
    """Line-of-sight power-law path loss with log-normal shadowing."""

    alpha_db: float = 61.4      # intercept at 1 m
    beta: float = 2.0           # path-loss exponent
    sigma_db: float = 5.8       # shadowing std-dev
    max_range_m: float = 200.0  # beyond this the link is in outage

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ValueError(f"beta: must be > 0, got {self.beta}")
        if self.sigma_db < 0.0:
            raise ValueError(f"sigma_db: must be >= 0, got {self.sigma_db}")
        if self.max_range_m <= 0.0:
            raise ValueError(f"max_range_m: must be > 0, got {self.max_range_m}")


def mmwave_pathloss_db(distance_m: float, params: MmWavePathLossParams,
                       shadow_db: float = 0.0) -> float:
    """LOS mmWave path loss in dB; infinite past the coverage range.

    The shadowing draw is supplied by the caller (from the shadowing RNG
    stream) so the function itself stays pure.  Distances below 1 m clamp to
    the 1 m intercept.
    """
    if distance_m > params.max_range_m:
        return math.inf
    d = max(distance_m, 1.0)
    return params.alpha_db + 10.0 * params.beta * math.log10(d) + shadow_db


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise floor: -174 dBm/Hz + 10*log10(B) + NF."""
    return -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


class _Radio:
    """What the LTE and NR radio sections share: the checks on their common
    fields and the SI-unit link quantities derived from the MHz fields."""

    def __post_init__(self):
        if self.bandwidth_mhz <= 0.0:
            raise ValueError(
                f"bandwidth_mhz: must be > 0, got {self.bandwidth_mhz}")
        if self.system_loss < 1.0:
            raise ValueError(f"system_loss: must be >= 1, got {self.system_loss}")

    @property
    def bandwidth_hz(self) -> float:
        return self.bandwidth_mhz * 1e6

    # Cached: snr_db reads it on every channel refresh.
    @cached_property
    def noise_dbm(self) -> float:
        return noise_power_dbm(self.bandwidth_hz, self.noise_figure_db)


@dataclass(frozen=True)
class LteRadio(_Radio):
    """The LTE uplink (config section ``radio.lte``): Friis free-space loss."""

    rat: ClassVar[str] = "lte"

    earfcn: int = 18100           # Band 1 uplink carrier serves the video
    carrier_freq_mhz: float = 0.0  # 0 derives the carrier from the EARFCN
    bandwidth_mhz: float = 5.0     # 25 resource blocks
    tx_power_dbm: float = 23.0
    tx_gain_dbi: float = 0.0
    rx_gain_dbi: float = 0.0
    noise_figure_db: float = 9.0
    system_loss: float = 1.0
    velocity_db_per_kmh: float = 0.02

    def __post_init__(self):
        if self.carrier_freq_mhz < 0.0:
            raise ValueError(
                f"carrier_freq_mhz: must be >= 0, got {self.carrier_freq_mhz}")
        super().__post_init__()
        try:
            self.carrier_freq_hz
        except ValueError as exc:
            raise ValueError(f"earfcn: {exc}") from None

    @property
    def carrier_freq_hz(self) -> float:
        """The explicit carrier, or the EARFCN's when that is 0."""
        return (self.carrier_freq_mhz or earfcn_to_freq_mhz(
            self.earfcn, earfcn_direction(self.earfcn))) * 1e6

    # Cached: snr_db reads it on every channel refresh.
    @cached_property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz


@dataclass(frozen=True)
class NrRadio(_Radio):
    """The mmWave uplink (config section ``radio.nr``): LOS path loss, which
    has no carrier term, plus the speed-driven beam-tracking outage."""

    rat: ClassVar[str] = "nr"

    bandwidth_mhz: float = 100.0
    tx_power_dbm: float = 30.0
    tx_gain_dbi: float = 10.0      # UE-side array
    rx_gain_dbi: float = 24.0      # base-station array
    noise_figure_db: float = 7.0
    system_loss: float = 1.0
    mmwave: MmWavePathLossParams = MmWavePathLossParams()
    v_mid_kmh: float = 45.0
    s_v_kmh: float = 4.0
    outage_penalty_db: float = 80.0
    beam_refresh_s: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        if self.s_v_kmh <= 0.0:
            raise ValueError(f"s_v_kmh: must be > 0, got {self.s_v_kmh}")
        if self.beam_refresh_s <= 0.0:
            raise ValueError(
                f"beam_refresh_s: must be > 0, got {self.beam_refresh_s}")


def snr_db(cfg: LteRadio | NrRadio, distance_m: float, penalties_db: float = 0.0,
           shadow_db: float = 0.0) -> float:
    """Compose path loss, antenna gains and noise into the link SNR in dB.

    LTE uses Friis free-space loss (shadow ignored); NR uses the statistical
    LOS model.  Beyond the mmWave coverage range the SNR is -inf rather than
    an exception.  No run reaches that value: a config that runs NR keeps
    its corridor, walls included, inside the range.
    """
    if cfg.rat == "lte":
        rx_unit = friis_rx_power(1.0, 1.0, 1.0, cfg.wavelength_m, distance_m,
                                 cfg.system_loss)
        pathloss = -10.0 * math.log10(rx_unit)
    else:
        pathloss = (mmwave_pathloss_db(distance_m, cfg.mmwave, shadow_db)
                    + 10.0 * math.log10(cfg.system_loss))
    rx_power = cfg.tx_power_dbm + cfg.tx_gain_dbi + cfg.rx_gain_dbi - pathloss
    return rx_power - penalties_db - cfg.noise_dbm


def falling_logistic(x: float) -> float:
    """1 / (1 + exp(x)): 1 far below 0, 0 far above, where exp overflows."""
    if x > 700.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(x))


def nr_outage_probability(speed_kmh: float, radio: NrRadio) -> float:
    """Probability that beam tracking loses the link for one slot at this
    speed: logistic around *radio*'s ``v_mid_kmh`` with scale ``s_v_kmh``."""
    return falling_logistic(-(speed_kmh - radio.v_mid_kmh) / radio.s_v_kmh)
