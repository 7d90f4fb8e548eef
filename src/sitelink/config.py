"""Scenario configuration: flat key=value format, presets, validation.

The config file is a flat, diffable text format: one ``key=value`` per line,
``#`` starts a comment line, keys carry section prefixes (``radio.lte.*``,
``radio.nr.*``, ``phy.lte.*``, ``phy.nr.*``, ``traffic.*``, ``mobility.*``).
Unknown keys are rejected.  ``preset=scenario1|scenario2|scenario3`` expands
to the corresponding study (UE-count sweep, offered-rate sweep, speed sweep);
explicitly set keys always win over preset values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Optional

from .channel import (MmWavePathLossParams, RadioConfig, earfcn_direction,
                      earfcn_to_freq_mhz, nr_arfcn_to_freq_mhz)
from .phymac import SUPPORTED_SCS_KHZ, HarqProcess, LinkAdaptation

PRESET_NAMES = ("scenario1", "scenario2", "scenario3", "custom")
SWEEP_VARIABLES = ("ue_count", "offered_mbps", "speed_kmh", "start_distance")


class ConfigError(ValueError):
    """Invalid configuration; carries one message per offending field."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class TrafficConfig:
    data_volume_mbps: float = 2.0
    packet_size_bytes: int = 1250
    queue_capacity_pkts: int = 100
    app_start_s: float = 0.0
    app_stop_s: float = -1.0      # -1 means "run until the simulation ends"
    core_latency_ms: float = 1.0


@dataclass(frozen=True)
class MobilityConfig:
    placement: str = "uniform:20,100"
    speed_kmh: float = 0.0
    corridor_min_m: float = 20.0
    corridor_max_m: float = 200.0


@dataclass(frozen=True)
class LteRadio:
    earfcn: int = 18100           # Band 1 uplink carrier serves the video
    carrier_freq_mhz: float = 0.0  # 0 derives the carrier from the EARFCN
    bandwidth_mhz: float = 5.0     # 25 resource blocks
    tx_power_dbm: float = 23.0
    tx_gain_dbi: float = 0.0
    rx_gain_dbi: float = 0.0
    noise_figure_db: float = 9.0
    system_loss: float = 1.0
    velocity_db_per_kmh: float = 0.02


@dataclass(frozen=True)
class NrRadio:
    nr_arfcn: int = 2079167        # 28.00008 GHz, inside band n257
    carrier_freq_mhz: float = 0.0
    bandwidth_mhz: float = 100.0
    tx_power_dbm: float = 30.0
    tx_gain_dbi: float = 10.0      # UE-side array
    rx_gain_dbi: float = 24.0      # base-station array
    noise_figure_db: float = 7.0
    system_loss: float = 1.0
    mmwave_alpha: float = 61.4
    mmwave_beta: float = 2.0
    mmwave_sigma: float = 5.8
    max_range_m: float = 200.0
    v_mid_kmh: float = 45.0
    s_v_kmh: float = 4.0
    outage_penalty_db: float = 80.0
    beam_refresh_s: float = 0.1


@dataclass(frozen=True)
class PhyConfig:
    scs_khz: int
    rb_count: int
    la_overhead: float
    la_eff_max: float
    harq_rtt_ms: float
    pf_window: int = 100
    la_snr_floor_db: float = -5.0
    harq_max_retx: int = 3
    harq_combining_gain_db: float = 2.0
    bler_threshold_db: float = 3.0
    bler_steepness_db: float = 1.0


_LTE_PHY_DEFAULT = PhyConfig(scs_khz=15, rb_count=25, la_overhead=0.75,
                             la_eff_max=4.5, harq_rtt_ms=8.0)
_NR_PHY_DEFAULT = PhyConfig(scs_khz=120, rb_count=66, la_overhead=0.7,
                            la_eff_max=7.0, harq_rtt_ms=0.5)


@dataclass(frozen=True)
class ScenarioConfig:
    """One sweep study: scenario preset, sweep grid, and all parameter blocks."""

    preset: str = "custom"
    rats: tuple = ("lte", "nr")
    sweep_variable: str = "ue_count"
    sweep: tuple = (8.0,)
    ue_count: int = 8
    duration_s: float = 20.0
    warmup_s: float = 1.0
    replications: int = 5
    seed_base: int = 1
    drain_max_s: float = 5.0
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    radio_lte: LteRadio = field(default_factory=LteRadio)
    radio_nr: NrRadio = field(default_factory=NrRadio)
    phy_lte: PhyConfig = field(default_factory=lambda: _LTE_PHY_DEFAULT)
    phy_nr: PhyConfig = field(default_factory=lambda: _NR_PHY_DEFAULT)

    # -- derived builders ---------------------------------------------------

    def at(self, value: float) -> "ScenarioConfig":
        """The study at one sweep point: the swept parameter set to *value*.
        A start distance is a one-radius placement: every UE at that radius."""
        var, mob = self.sweep_variable, self.mobility
        if var == "ue_count":
            return replace(self, ue_count=int(value))
        if var == "offered_mbps":
            return replace(self, traffic=replace(self.traffic,
                                                 data_volume_mbps=value))
        if var == "speed_kmh":
            return replace(self, mobility=replace(mob, speed_kmh=value))
        placement = repr(float(value))
        return replace(self, mobility=replace(mob, placement=placement))

    def app_stop_effective_s(self) -> float:
        stop = self.traffic.app_stop_s
        return self.duration_s if stop < 0 else min(stop, self.duration_s)

    def lte_carrier_mhz(self) -> float:
        if self.radio_lte.carrier_freq_mhz > 0:
            return self.radio_lte.carrier_freq_mhz
        n = self.radio_lte.earfcn
        return earfcn_to_freq_mhz(n, earfcn_direction(n))

    def nr_carrier_mhz(self) -> float:
        if self.radio_nr.carrier_freq_mhz > 0:
            return self.radio_nr.carrier_freq_mhz
        return nr_arfcn_to_freq_mhz(self.radio_nr.nr_arfcn)

    def radio_config(self, rat: str) -> RadioConfig:
        if rat == "lte":
            r = self.radio_lte
            return RadioConfig(
                rat="lte", carrier_freq_hz=self.lte_carrier_mhz() * 1e6,
                bandwidth_hz=r.bandwidth_mhz * 1e6, tx_power_dbm=r.tx_power_dbm,
                tx_gain_dbi=r.tx_gain_dbi, rx_gain_dbi=r.rx_gain_dbi,
                system_loss=r.system_loss, noise_figure_db=r.noise_figure_db)
        r = self.radio_nr
        return RadioConfig(
            rat="nr", carrier_freq_hz=self.nr_carrier_mhz() * 1e6,
            bandwidth_hz=r.bandwidth_mhz * 1e6, tx_power_dbm=r.tx_power_dbm,
            tx_gain_dbi=r.tx_gain_dbi, rx_gain_dbi=r.rx_gain_dbi,
            system_loss=r.system_loss, noise_figure_db=r.noise_figure_db,
            mmwave=MmWavePathLossParams(
                alpha_db=r.mmwave_alpha, beta=r.mmwave_beta,
                sigma_db=r.mmwave_sigma, max_range_m=r.max_range_m))

    def phy(self, rat: str) -> PhyConfig:
        return self.phy_lte if rat == "lte" else self.phy_nr

    def link_adaptation(self, rat: str) -> LinkAdaptation:
        p = self.phy(rat)
        return LinkAdaptation(overhead=p.la_overhead, eff_max=p.la_eff_max,
                              snr_floor_db=p.la_snr_floor_db)

    def harq(self, rat: str) -> HarqProcess:
        p = self.phy(rat)
        return HarqProcess(max_retx=p.harq_max_retx,
                           combining_gain_db=p.harq_combining_gain_db,
                           rtt_s=p.harq_rtt_ms * 1e-3,
                           bler_threshold_db=p.bler_threshold_db,
                           bler_steepness_db=p.bler_steepness_db)

    def placement_radii(self, n_ues: int) -> list[float]:
        """Starting radii for n UEs from the placement spec."""
        spec = self.mobility.placement
        if spec.startswith("uniform:"):
            lo, hi = (float(v) for v in spec[len("uniform:"):].split(","))
            if n_ues == 1:
                return [(lo + hi) / 2.0]
            step = (hi - lo) / (n_ues - 1)
            return [lo + i * step for i in range(n_ues)]
        radii = [float(v) for v in spec.split(",") if v.strip()]
        return [radii[i % len(radii)] for i in range(n_ues)]


# ---------------------------------------------------------------------------
# Flat key schema
# ---------------------------------------------------------------------------

def _walk():
    """Yield (flat key, section attr or None, field name, default) for every
    config key in field order: a bare field is a bare key, a section field is
    ``<attr with _ -> .>.<field>`` (``radio_lte.earfcn`` -> ``radio.lte.earfcn``)."""
    root = ScenarioConfig()
    for f in fields(root):
        value = getattr(root, f.name)
        if is_dataclass(value):
            prefix = f.name.replace("_", ".")
            for sf in fields(value):
                yield f"{prefix}.{sf.name}", f.name, sf.name, getattr(value, sf.name)
        else:
            yield f.name, None, f.name, value


_SCHEMA = {key: (section, name, default)
           for key, section, name, default in _walk()}


def _coerce(key: str, raw: str, default):
    """Parse *raw* as the type of *default*; a tuple default parses as a
    non-empty comma list of its first element's type."""
    raw = raw.strip()
    try:
        if isinstance(default, tuple):
            vals = tuple(type(default[0])(v.strip())
                         for v in raw.split(",") if v.strip())
            if not vals:
                raise ValueError("empty list")
            return vals
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError([f"{key}: cannot parse {raw!r} ({exc})"]) from None


def _preset_overlay(preset: Optional[str],
                    sweep_variable: Optional[str]) -> dict:
    if preset == "scenario1":
        return {"sweep_variable": "ue_count",
                "sweep": tuple(float(n) for n in range(2, 21, 2)),
                "traffic.data_volume_mbps": 2.0,
                "mobility.speed_kmh": 0.0}
    if preset == "scenario2":
        return {"sweep_variable": "offered_mbps",
                "sweep": tuple(float(n) for n in range(1, 9)),
                "ue_count": 8,
                "mobility.speed_kmh": 0.0}
    if preset == "scenario3":
        overlay = {"ue_count": 8, "traffic.data_volume_mbps": 2.0}
        if sweep_variable == "start_distance":
            overlay["sweep_variable"] = "start_distance"
            overlay["sweep"] = tuple(float(d) for d in range(20, 201, 20))
        else:
            overlay["sweep_variable"] = "speed_kmh"
            overlay["sweep"] = tuple(float(v) for v in range(0, 61, 5))
        return overlay
    return {}


def parse_config(text: str, overrides: Optional[dict] = None) -> ScenarioConfig:
    """Parse the flat key=value format; unknown keys fail closed.

    *overrides* maps keys to raw string values applied on top of the text
    (used by the command line); they count as explicitly set.
    """
    user: dict[str, str] = {}
    errors: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected key=value, got {stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in user:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        user[key] = value
    if errors:
        raise ConfigError(errors)
    for key, value in (overrides or {}).items():
        if key not in _SCHEMA:
            raise ConfigError([f"unknown key {key!r}"])
        user[key] = str(value)

    typed = {k: _coerce(k, v, _SCHEMA[k][2]) for k, v in user.items()}
    # explicit keys beat the preset expansion
    effective = {**_preset_overlay(typed.get("preset"),
                                   typed.get("sweep_variable")), **typed}

    by_section: dict[Optional[str], dict] = {}
    for key, value in effective.items():
        section, name, _ = _SCHEMA[key]
        by_section.setdefault(section, {})[name] = value
    base = ScenarioConfig()
    top = by_section.pop(None, {})
    for section, kwargs in by_section.items():
        top[section] = replace(getattr(base, section), **kwargs)
    cfg = replace(base, **top)
    validate_config(cfg)
    return cfg


def default_config(preset: str = "custom") -> ScenarioConfig:
    return parse_config(f"preset={preset}")


def render_config(cfg: ScenarioConfig) -> str:
    """Serialise every effective key; parse(render(cfg)) == cfg."""
    lines = []
    for key, (section, name, _) in _SCHEMA.items():
        owner = cfg if section is None else getattr(cfg, section)
        lines.append(f"{key}={_render_value(getattr(owner, name))}")
    return "\n".join(lines) + "\n"


def _render_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_render_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def validate_config(cfg: ScenarioConfig) -> None:
    """Check every invariant; raises ConfigError naming each bad field."""
    errs = []

    if cfg.preset not in PRESET_NAMES:
        errs.append(f"preset: expected one of {PRESET_NAMES}, got {cfg.preset!r}")
    if not cfg.rats or any(r not in ("lte", "nr") for r in cfg.rats):
        errs.append(f"rats: expected a non-empty subset of lte,nr, got {cfg.rats}")
    dups = sorted({r for r in cfg.rats if cfg.rats.count(r) > 1})
    if dups:
        errs.append(f"rats: values must be distinct, repeated {dups}")
    if cfg.sweep_variable not in SWEEP_VARIABLES:
        errs.append(f"sweep_variable: expected one of {SWEEP_VARIABLES}, "
                    f"got {cfg.sweep_variable!r}")
    if not cfg.sweep:
        errs.append("sweep: must list at least one value")
    elif any(v < 0 for v in cfg.sweep):
        errs.append("sweep: values must be >= 0")
    dups = sorted({v for v in cfg.sweep if cfg.sweep.count(v) > 1})
    if dups:
        errs.append(f"sweep: values must be distinct, repeated {dups}")
    if cfg.sweep_variable == "ue_count" and any(
            v < 1 or v != int(v) for v in cfg.sweep):
        errs.append("sweep: ue_count values must be positive integers")
    if cfg.sweep_variable == "offered_mbps" and any(v <= 0 for v in cfg.sweep):
        errs.append("sweep: offered_mbps values must be > 0")
    if cfg.sweep_variable == "start_distance" and any(
            v < cfg.mobility.corridor_min_m or v > cfg.mobility.corridor_max_m
            for v in cfg.sweep):
        errs.append("sweep: start_distance values must lie inside the corridor")
    if cfg.ue_count < 1:
        errs.append(f"ue_count: must be >= 1, got {cfg.ue_count}")
    if cfg.duration_s <= 0:
        errs.append(f"duration_s: must be > 0, got {cfg.duration_s}")
    if cfg.warmup_s < 0:
        errs.append(f"warmup_s: must be >= 0, got {cfg.warmup_s}")
    if cfg.duration_s <= cfg.warmup_s:
        errs.append(f"duration_s: must exceed warmup_s "
                    f"({cfg.duration_s} <= {cfg.warmup_s})")
    if cfg.replications < 1:
        errs.append(f"replications: must be >= 1, got {cfg.replications}")
    if cfg.drain_max_s < 0:
        errs.append(f"drain_max_s: must be >= 0, got {cfg.drain_max_s}")

    t = cfg.traffic
    if t.data_volume_mbps <= 0:
        errs.append(f"traffic.data_volume_mbps: must be > 0, got {t.data_volume_mbps}")
    if not 0 < t.packet_size_bytes <= 1500:
        errs.append(f"traffic.packet_size_bytes: must be in 1..1500, "
                    f"got {t.packet_size_bytes}")
    if t.queue_capacity_pkts < 1:
        errs.append(f"traffic.queue_capacity_pkts: must be >= 1, "
                    f"got {t.queue_capacity_pkts}")
    if t.app_start_s < 0:
        errs.append(f"traffic.app_start_s: must be >= 0, got {t.app_start_s}")
    if t.app_stop_s >= 0 and t.app_stop_s <= t.app_start_s:
        errs.append("traffic.app_stop_s: must exceed app_start_s (or be -1)")
    if t.core_latency_ms < 0:
        errs.append(f"traffic.core_latency_ms: must be >= 0, got {t.core_latency_ms}")

    m = cfg.mobility
    if m.corridor_min_m < 1:
        errs.append(f"mobility.corridor_min_m: must be >= 1, got {m.corridor_min_m}")
    if m.corridor_max_m <= m.corridor_min_m:
        errs.append("mobility.corridor_max_m: must exceed corridor_min_m")
    if "nr" in cfg.rats and m.corridor_max_m > cfg.radio_nr.max_range_m:
        errs.append(f"mobility.corridor_max_m: {m.corridor_max_m} exceeds the "
                    f"mmWave coverage range {cfg.radio_nr.max_range_m}")
    if m.speed_kmh < 0:
        errs.append(f"mobility.speed_kmh: must be >= 0, got {m.speed_kmh}")
    try:
        radii = cfg.placement_radii(max(cfg.ue_count, 1))
    except (ValueError, IndexError):
        errs.append(f"mobility.placement: cannot parse {m.placement!r}")
    else:
        if not radii or any(r < m.corridor_min_m or r > m.corridor_max_m
                            for r in radii):
            errs.append("mobility.placement: radii must lie inside the corridor")

    for name, radio in (("radio.lte", cfg.radio_lte), ("radio.nr", cfg.radio_nr)):
        if radio.bandwidth_mhz <= 0:
            errs.append(f"{name}.bandwidth_mhz: must be > 0")
        if radio.system_loss < 1:
            errs.append(f"{name}.system_loss: must be >= 1")
        if radio.carrier_freq_mhz < 0:
            errs.append(f"{name}.carrier_freq_mhz: must be >= 0")
    if cfg.radio_lte.carrier_freq_mhz == 0:
        try:
            earfcn_direction(cfg.radio_lte.earfcn)
        except ValueError as exc:
            errs.append(f"radio.lte.earfcn: {exc}")
    if cfg.radio_nr.carrier_freq_mhz == 0:
        try:
            nr_arfcn_to_freq_mhz(cfg.radio_nr.nr_arfcn)
        except ValueError as exc:
            errs.append(f"radio.nr.nr_arfcn: {exc}")
    nr = cfg.radio_nr
    if nr.mmwave_beta <= 0:
        errs.append(f"radio.nr.mmwave_beta: must be > 0, got {nr.mmwave_beta}")
    if nr.mmwave_sigma < 0:
        errs.append(f"radio.nr.mmwave_sigma: must be >= 0, got {nr.mmwave_sigma}")
    if nr.max_range_m <= 0:
        errs.append(f"radio.nr.max_range_m: must be > 0, got {nr.max_range_m}")
    if nr.beam_refresh_s <= 0:
        errs.append(f"radio.nr.beam_refresh_s: must be > 0, got {nr.beam_refresh_s}")
    if nr.s_v_kmh <= 0:
        errs.append(f"radio.nr.s_v_kmh: must be > 0, got {nr.s_v_kmh}")

    for name, phy in (("phy.lte", cfg.phy_lte), ("phy.nr", cfg.phy_nr)):
        if phy.scs_khz not in SUPPORTED_SCS_KHZ:
            errs.append(f"{name}.scs_khz: expected one of {SUPPORTED_SCS_KHZ}, "
                        f"got {phy.scs_khz}")
        if phy.rb_count < 1:
            errs.append(f"{name}.rb_count: must be >= 1")
        if phy.pf_window < 1:
            errs.append(f"{name}.pf_window: must be >= 1")
        if not 0 < phy.la_overhead <= 1:
            errs.append(f"{name}.la_overhead: must be in (0, 1]")
        if phy.la_eff_max <= 0:
            errs.append(f"{name}.la_eff_max: must be > 0")
        if phy.harq_max_retx < 0:
            errs.append(f"{name}.harq_max_retx: must be >= 0")
        if phy.harq_rtt_ms <= 0:
            errs.append(f"{name}.harq_rtt_ms: must be > 0")
        if phy.bler_steepness_db <= 0:
            errs.append(f"{name}.bler_steepness_db: must be > 0")

    if errs:
        raise ConfigError(errs)
