"""Scenario configuration: flat key=value format, presets, validation.

The config file is a flat, diffable text format: one ``key=value`` per line,
``#`` starts a comment line, keys carry section prefixes (``radio.lte.*``,
``radio.nr.*``, ``phy.lte.*``, ``phy.nr.*``, ``traffic.*``, ``mobility.*``).
Unknown keys are rejected.  ``preset=scenario1|scenario2|scenario3`` expands
to the corresponding study (UE-count sweep, offered-rate sweep, speed sweep);
explicitly set keys always win over preset values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from operator import attrgetter
from typing import Optional

from .channel import LteRadio, NrRadio
from .phymac import LtePhy, NrPhy

# The most events one chain of one run may ask for.  A clock that cannot
# move asks for over 2**50, so this policy also rejects every endless run.
WORK_BUDGET = 10**10
# The most per-UE steps one chain of one run may ask for: what the event
# budget allows a cell of the default 8 UEs, whose every subframe or
# refresh event takes one step per UE.
UE_WORK_BUDGET = 8 * WORK_BUDGET

# LTE channel-refresh period.  A static LTE UE draws no shadowing, so only a
# moving UE's SNR changes between refreshes.
LTE_REFRESH_S = 0.1

# Per preset: the keys it fixes, and a sweep grid per sweep variable it has
# one for; the first is the preset's own.  ``custom``, the default, fixes no
# key and sweeps the default UE count.
_PRESETS = {
    "scenario1": ({"traffic.data_volume_mbps": 2.0, "mobility.speed_kmh": 0.0},
                  {"ue_count": range(2, 21, 2)}),
    "scenario2": ({"ue_count": 8, "mobility.speed_kmh": 0.0},
                  {"offered_mbps": range(1, 9)}),
    "scenario3": ({"ue_count": 8, "traffic.data_volume_mbps": 2.0},
                  {"speed_kmh": range(0, 61, 5),
                   "start_distance": range(20, 201, 20)}),
    "custom": ({}, {"ue_count": (8,)}),
}
PRESET_NAMES = tuple(_PRESETS)
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
        # 1e303 is finite, but at an infinite bit rate packets come 0 s
        # apart, and the CBR grid never ends.
        if not math.isfinite(self.data_volume_mbps * 1e6):
            raise ValueError(f"data_volume_mbps: must be finite in bit/s, "
                             f"got {self.data_volume_mbps}")
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
        # A non-finite bound fails here, under its key, not as a bad radius.
        if not 1 <= self.corridor_min_m < math.inf:
            raise ValueError(f"corridor_min_m: must be finite and >= 1, "
                             f"got {self.corridor_min_m}")
        if not self.corridor_max_m > self.corridor_min_m:
            raise ValueError(f"corridor_max_m: must exceed corridor_min_m, "
                             f"got {self.corridor_max_m}")
        try:
            points = self._points()
        except ValueError:
            raise ValueError(
                f"placement: cannot parse {self.placement!r}") from None
        if not points or not all(self.corridor_min_m <= r <= self.corridor_max_m
                                 for r in points):
            raise ValueError("placement: must name radii inside the corridor")
        if self.placement.startswith("uniform:") and points[0] > points[1]:
            raise ValueError("placement: uniform:lo,hi needs lo <= hi")

    def _points(self) -> list[float]:
        """The radii the placement spec names; ``uniform:lo,hi`` names two."""
        spec = self.placement
        if spec.startswith("uniform:"):
            lo, hi = (float(v) for v in spec[len("uniform:"):].split(","))
            return [lo, hi]
        return [float(v) for v in spec.split(",") if v.strip()]

    def radii(self, n_ues: int) -> list[float]:
        """Starting radii for n UEs: evenly spaced from lo to hi under
        ``uniform:lo,hi``, else the listed radii in turn."""
        points = self._points()
        if not self.placement.startswith("uniform:"):
            return [points[i % len(points)] for i in range(n_ues)]
        lo, hi = points
        if n_ues == 1:
            return [(lo + hi) / 2.0]
        step = (hi - lo) / (n_ues - 1)
        # lo + i * step can round one ulp past hi, and so past the corridor.
        return [min(lo + i * step, hi) for i in range(n_ues)]


@dataclass(frozen=True)
class ScenarioConfig:
    """One sweep study: scenario preset, sweep grid, and all parameter blocks.
    Building one checks the cross-section rules and every sweep point."""

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

    def __post_init__(self):
        errs = [f"{key}: must be finite, got {v}"
                for key, get in _GETTERS
                for value in (get(self),)
                for v in (value if isinstance(value, tuple) else (value,))
                if isinstance(v, float) and not math.isfinite(v)]
        # A sweep value is legal exactly when the point it sets builds.  The
        # points are built from finite values only, so never from int(nan).
        finite, points = not errs, []
        if finite and self.sweep_variable in SWEEP_VARIABLES:
            for value in self.sweep:
                try:
                    points.append((value, self._swept(value)))
                except ValueError as exc:
                    errs.append(f"sweep: {value!r} does not build ({exc})")
        rats, sweep, duration, warmup = (self.rats, self.sweep,
                                         self.duration_s, self.warmup_s)
        start, stop = self.traffic.app_start_s, self.traffic.app_stop_s
        corridor_max, nr_range = (self.mobility.corridor_max_m,
                                  self.radio_nr.mmwave.max_range_m)
        rules = (
            (self.preset not in PRESET_NAMES, f"preset: expected one of "
             f"{PRESET_NAMES}, got {self.preset!r}"),
            (not rats or any(r not in ("lte", "nr") for r in rats),
             f"rats: expected a non-empty subset of lte,nr, got {rats}"),
            (dups := sorted({r for r in rats if rats.count(r) > 1}),
             f"rats: values must be distinct, repeated {dups}"),
            (self.sweep_variable not in SWEEP_VARIABLES, f"sweep_variable: "
             f"expected one of {SWEEP_VARIABLES}, got {self.sweep_variable!r}"),
            (not sweep, "sweep: must list at least one value"),
            (dups := sorted({v for v in sweep if sweep.count(v) > 1}),
             f"sweep: values must be distinct, repeated {dups}"),
            (duration <= warmup, f"duration_s: must exceed warmup_s "
             f"({duration} <= {warmup})"),
            (start >= duration, f"traffic.app_start_s: must be below "
             f"duration_s ({start} >= {duration})"),
            (stop != -1 and stop <= warmup, f"traffic.app_stop_s: must "
             f"exceed warmup_s ({stop} <= {warmup})"),
            ("nr" in rats and corridor_max > nr_range,
             f"mobility.corridor_max_m: {corridor_max} exceeds the mmWave "
             f"coverage range {nr_range}"),
            (over := finite and self._over_budget(points), over),
        )
        errs += [msg for broken, msg in rules if broken]
        errs += [f"{name}: must be >= {low}, got {getattr(self, name)}"
                 for name, low in (("ue_count", 1), ("warmup_s", 0),
                                   ("replications", 1), ("drain_max_s", 0))
                 if getattr(self, name) < low]
        if errs:
            raise ConfigError(errs)

    def _swept(self, value: float) -> dict:
        """The field that sweep point *value* sets, mapped to its value.  A
        start distance is a one-radius placement: every UE at that radius."""
        var = self.sweep_variable
        if var == "ue_count":
            if value < 1 or value != int(value):
                raise ValueError(
                    f"ue_count: must be a positive integer, got {value}")
            return {"ue_count": int(value)}
        if var == "offered_mbps":
            return {"traffic": replace(self.traffic, data_volume_mbps=value)}
        if var == "speed_kmh":
            return {"mobility": replace(self.mobility, speed_kmh=value)}
        return {"mobility": replace(self.mobility,
                                    placement=repr(float(value)))}

    def _over_budget(self, points: list[tuple[float, dict]]) -> str:
        """The error of the first chain of a run asking for over WORK_BUDGET
        events, or UE_WORK_BUDGET per-UE steps, or ''.  In order: slots of
        the finest RAT run over duration and drain, named by the longer (the
        LTE refresh is coarser); NR refresh events over that span; CBR
        offers of all UEs, named by the rate at the study's own values, then
        by ``sweep`` at *points*; then every UE's queue length in each LTE
        subframe over that span, and every UE's link state in each refresh
        epoch of a RAT whose links can change, at the study's own values and
        then by ``sweep`` at *points*."""
        span, traffic = self.duration_s + self.drain_max_s, self.traffic
        longer = max(("duration_s", "drain_max_s"), key=self.__getattribute__)
        slot = min((getattr(self, f"phy_{rat}").slot_s for rat in ("lte", "nr")
                    if rat in self.rats), default=math.inf)
        refresh = self.radio_nr.beam_refresh_s
        chains = [(longer, getattr(self, longer), span / slot, "slots",
                   WORK_BUDGET),
                  ("radio.nr.beam_refresh_s", refresh, span / refresh
                   if "nr" in self.rats else 0.0, "NR refresh events",
                   WORK_BUDGET)]
        window = self.app_stop_effective_s() - traffic.app_start_s
        own = ("traffic.data_volume_mbps", traffic.data_volume_mbps, {})
        sweep = [("sweep", *p) for p in points]
        for key, value, fields in (own, *sweep):
            # Every UE is offered a packet, so more UEs than the budget are
            # over it; the cap keeps a huge UE count within a float's range.
            ues = min(fields.get("ue_count", self.ue_count), WORK_BUDGET + 1)
            tr = fields.get("traffic", traffic)
            offers = ues * max(1.0, window * tr.data_volume_mbps * 1e6
                               / (8 * tr.packet_size_bytes))
            chains.append((key, value, offers, f"CBR offers of {ues} UEs",
                           WORK_BUDGET))
        subframes = (span / self.phy_lte.slot_s if "lte" in self.rats
                     else 0.0)
        # At the study's own values, a per-UE chain is named by the factor
        # furthest above its default: the UE count, the longer window, or
        # the NR refresh period where NR links change.  Own values that pass
        # leave a sweep point over budget by what the point sets.
        cls, nr_moves = type(self), bool(self.mobility.speed_kmh
                                         or self.radio_nr.mmwave.sigma_db)
        grown = [("ue_count", self.ue_count, self.ue_count / cls.ue_count),
                 (longer, getattr(self, longer),
                  span / (cls.duration_s + cls.drain_max_s))]
        if "nr" in self.rats and nr_moves:
            grown.append(("radio.nr.beam_refresh_s", refresh,
                          NrRadio.beam_refresh_s / refresh))
        own = (*max(grown, key=lambda factor: factor[2])[:2], {})
        for key, value, fields in (own, *sweep):
            ues = min(fields.get("ue_count", self.ue_count), WORK_BUDGET + 1)
            speed = fields.get("mobility", self.mobility).speed_kmh
            # A RAT's links change between refreshes when its UEs move, or
            # for NR when it draws shadowing.
            epochs = max([span / period for rat, period, moves in (
                ("lte", LTE_REFRESH_S, speed),
                ("nr", refresh, speed or self.radio_nr.mmwave.sigma_db))
                if rat in self.rats and moves], default=1.0)
            chains += [(key, value, ues * subframes,
                        f"UE-subframes of {ues} UEs", UE_WORK_BUDGET),
                       (key, value, ues * epochs,
                        f"UE link updates of {ues} UEs", UE_WORK_BUDGET)]
        return next((f"{key}: {value!r} asks for {count:.3g} {what} in one "
                     f"run, above the work budget of {budget:.0e}"
                     for key, value, count, what, budget in chains
                     if count > budget), "")

    def at(self, value: float) -> "ScenarioConfig":
        """The study at one sweep point: the swept parameter set to *value*."""
        return replace(self, **self._swept(value))

    def app_stop_effective_s(self) -> float:
        stop = self.traffic.app_stop_s
        return self.duration_s if stop < 0 else min(stop, self.duration_s)


# ---------------------------------------------------------------------------
# Flat key schema
# ---------------------------------------------------------------------------

def _walk(section, prefix: str = "", path: tuple = ()):
    """Yield (flat key, attribute path, value) for every config key of
    *section*, a dataclass or its class (whose values are the defaults), in
    field order.  A field holding a dataclass is a section, and
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
           for key, path, default in _walk(ScenarioConfig)}
# Every ScenarioConfig has the same tree, so one getter per key, in field
# order, reads a config's values without walking it again.
_GETTERS = tuple((key, attrgetter(".".join(path)))
                 for key, (path, _) in _SCHEMA.items())


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


def _preset_overlay(typed: dict) -> dict:
    """The keys that *typed*'s preset, ``custom`` if unset, sets.  A preset
    has no grid for another sweep variable, so sweeping one under it needs
    ``sweep``."""
    preset = typed.get("preset", "custom")
    fixed, grids = _PRESETS.get(preset, ({}, {}))
    var = typed.get("sweep_variable", next(iter(grids), None))
    if var in grids:
        return {**fixed, "sweep_variable": var,
                "sweep": tuple(map(float, grids[var]))}
    if grids and "sweep" not in typed and var in SWEEP_VARIABLES:
        raise ConfigError([f"sweep: preset {preset} has no grid for "
                           f"sweep_variable {var!r}; set sweep"])
    return fixed


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
    effective = {**_preset_overlay(typed), **typed}

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
    return cfg


def _build(default, tree: dict, prefix: str, errors: list):
    """*default* with the values of *tree* (field name -> value, or -> tree
    of a nested section) set.  A section whose checks reject its values
    adds its ``ValueError`` to *errors* under the flat key and gives None;
    the study adds each message of its ``ConfigError``."""
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
    except ConfigError as exc:
        errors.extend(exc.errors)
    except ValueError as exc:
        errors.append(f"{prefix}{exc}")
    return None


def default_config(preset: str = "custom") -> ScenarioConfig:
    return parse_config(f"preset={preset}")


def render_config(cfg: ScenarioConfig) -> str:
    """Serialise every effective key; parse(render(cfg)) == cfg."""
    return "".join(f"{key}={_render_value(get(cfg))}\n"
                   for key, get in _GETTERS)


def _render_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_render_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)
