"""Scenario configuration: flat key=value format, presets, validation.

The config file is a flat, diffable text format: one ``key=value`` per line,
``#`` starts a comment line, keys carry section prefixes (``radio.lte.*``,
``radio.nr.*``, ``phy.lte.*``, ``phy.nr.*``, ``traffic.*``, ``mobility.*``).
Unknown keys are rejected.  ``preset=scenario1|scenario2|scenario3`` expands
to the corresponding study (UE-count sweep, offered-rate sweep, speed sweep);
explicitly set keys always win over preset values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Optional

from .channel import LteRadio, NrRadio
from .phymac import LtePhy, NrPhy

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

    def __post_init__(self):
        if self.data_volume_mbps <= 0:
            raise ValueError(
                f"data_volume_mbps: must be > 0, got {self.data_volume_mbps}")
        if not 0 < self.packet_size_bytes <= 1500:
            raise ValueError(f"packet_size_bytes: must be in 1..1500, "
                             f"got {self.packet_size_bytes}")
        if self.queue_capacity_pkts < 1:
            raise ValueError(f"queue_capacity_pkts: must be >= 1, "
                             f"got {self.queue_capacity_pkts}")
        if self.app_start_s < 0:
            raise ValueError(f"app_start_s: must be >= 0, got {self.app_start_s}")
        if self.app_stop_s != -1 and self.app_stop_s <= self.app_start_s:
            raise ValueError(f"app_stop_s: must be -1 or exceed app_start_s, "
                             f"got {self.app_stop_s}")
        if self.core_latency_ms < 0:
            raise ValueError(
                f"core_latency_ms: must be >= 0, got {self.core_latency_ms}")


@dataclass(frozen=True)
class MobilityConfig:
    placement: str = "uniform:20,100"
    speed_kmh: float = 0.0
    corridor_min_m: float = 20.0
    corridor_max_m: float = 200.0

    def __post_init__(self):
        if self.speed_kmh < 0:
            raise ValueError(f"speed_kmh: must be >= 0, got {self.speed_kmh}")
        if self.corridor_min_m < 1:
            raise ValueError(
                f"corridor_min_m: must be >= 1, got {self.corridor_min_m}")
        if self.corridor_max_m <= self.corridor_min_m:
            raise ValueError(f"corridor_max_m: must exceed corridor_min_m, "
                             f"got {self.corridor_max_m}")


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
    traffic: TrafficConfig = TrafficConfig()
    mobility: MobilityConfig = MobilityConfig()
    radio_lte: LteRadio = LteRadio()
    radio_nr: NrRadio = NrRadio()
    phy_lte: LtePhy = LtePhy()
    phy_nr: NrPhy = NrPhy()

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

def _walk(section, prefix: str = "", path: tuple = ()):
    """Yield (flat key, attribute path, value) for every config key of
    *section* in field order.  A field holding a dataclass is a section, and
    its keys are prefixed with the field name, ``_`` turned into ``.``:
    ``radio_nr.mmwave.alpha_db`` is the key ``radio.nr.mmwave.alpha_db``."""
    for f in fields(section):
        value = getattr(section, f.name)
        if is_dataclass(value):
            yield from _walk(value, f"{prefix}{f.name.replace('_', '.')}.",
                             path + (f.name,))
        else:
            yield prefix + f.name, path + (f.name,), value


_SCHEMA = {key: (path, default)
           for key, path, default in _walk(ScenarioConfig())}


def _coerce(raw: str, default):
    """Parse *raw* as the type of *default*; a tuple default parses as a
    non-empty comma list of its first element's type."""
    if isinstance(default, tuple):
        vals = tuple(type(default[0])(v.strip())
                     for v in raw.split(",") if v.strip())
        if not vals:
            raise ValueError("empty list")
        return vals
    return type(default)(raw)


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

    typed = {}
    for key, raw in user.items():
        raw = raw.strip()
        try:
            typed[key] = _coerce(raw, _SCHEMA[key][1])
        except ValueError as exc:
            errors.append(f"{key}: cannot parse {raw!r} ({exc})")
    if errors:
        raise ConfigError(errors)
    # explicit keys beat the preset expansion
    effective = {**_preset_overlay(typed.get("preset"),
                                   typed.get("sweep_variable")), **typed}

    tree: dict = {}
    for key, value in effective.items():
        *sections, name = _SCHEMA[key][0]
        node = tree
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = value
    cfg = _build(ScenarioConfig(), tree, "", errors)
    if errors:
        raise ConfigError(errors)
    validate_config(cfg)
    return cfg


def _build(default, tree: dict, prefix: str, errors: list):
    """*default* with the values of *tree* (field name -> value, or -> tree
    of a nested section) set.  A section whose checks reject its values
    adds its ``ValueError`` to *errors* under the flat key and gives None."""
    kwargs = {}
    for name, value in tree.items():
        if isinstance(value, dict):
            value = _build(getattr(default, name), value,
                           f"{prefix}{name.replace('_', '.')}.", errors)
        kwargs[name] = value
    if None in kwargs.values():
        return None
    try:
        return replace(default, **kwargs)
    except ValueError as exc:
        errors.append(f"{prefix}{exc}")
        return None


def default_config(preset: str = "custom") -> ScenarioConfig:
    return parse_config(f"preset={preset}")


def render_config(cfg: ScenarioConfig) -> str:
    """Serialise every effective key; parse(render(cfg)) == cfg."""
    return "".join(f"{key}={_render_value(value)}\n"
                   for key, _, value in _walk(cfg))


def _render_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_render_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def validate_config(cfg: ScenarioConfig) -> None:
    """Check the study-level and cross-section rules; raises ConfigError
    naming each bad field.  Each section checks its own fields when built."""
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
    m = cfg.mobility
    if cfg.sweep_variable == "start_distance" and any(
            v < m.corridor_min_m or v > m.corridor_max_m for v in cfg.sweep):
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
    if cfg.traffic.app_start_s >= cfg.duration_s:
        errs.append(f"traffic.app_start_s: must be below duration_s "
                    f"({cfg.traffic.app_start_s} >= {cfg.duration_s})")
    stop = cfg.traffic.app_stop_s
    if stop != -1 and stop <= cfg.warmup_s:
        errs.append(f"traffic.app_stop_s: must exceed warmup_s "
                    f"({stop} <= {cfg.warmup_s})")
    if cfg.replications < 1:
        errs.append(f"replications: must be >= 1, got {cfg.replications}")
    if cfg.drain_max_s < 0:
        errs.append(f"drain_max_s: must be >= 0, got {cfg.drain_max_s}")

    max_range_m = cfg.radio_nr.mmwave.max_range_m
    if "nr" in cfg.rats and m.corridor_max_m > max_range_m:
        errs.append(f"mobility.corridor_max_m: {m.corridor_max_m} exceeds the "
                    f"mmWave coverage range {max_range_m}")
    try:
        radii = cfg.placement_radii(max(cfg.ue_count, 1))
    except (ValueError, IndexError):
        errs.append(f"mobility.placement: cannot parse {m.placement!r}")
    else:
        if not radii or any(r < m.corridor_min_m or r > m.corridor_max_m
                            for r in radii):
            errs.append("mobility.placement: radii must lie inside the corridor")

    if errs:
        raise ConfigError(errs)
