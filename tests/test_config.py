"""Config parsing, preset expansion, round-tripping, and validation."""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sitelink.config import (_SCHEMA, PRESET_NAMES, UE_WORK_BUDGET,
                             WORK_BUDGET, ConfigError, MobilityConfig,
                             default_config, parse_config, render_config)


def test_minimal_preset_expands_to_full_scenario1():
    cfg = parse_config("preset=scenario1")
    assert cfg.preset == "scenario1"
    assert cfg.sweep_variable == "ue_count"
    assert cfg.sweep == tuple(float(n) for n in range(2, 21, 2))
    assert cfg.traffic.data_volume_mbps == 2.0
    assert cfg.mobility.speed_kmh == 0.0
    assert cfg.rats == ("lte", "nr")
    assert cfg.duration_s == 20.0 and cfg.warmup_s == 1.0
    assert cfg.replications == 5


def test_scenario2_preset_sweeps_offered_rate():
    cfg = parse_config("preset=scenario2")
    assert cfg.sweep_variable == "offered_mbps"
    assert cfg.sweep == tuple(float(n) for n in range(1, 9))
    assert cfg.ue_count == 8


def test_scenario3_preset_sweeps_speed_by_default():
    cfg = parse_config("preset=scenario3")
    assert cfg.sweep_variable == "speed_kmh"
    assert cfg.sweep == tuple(float(v) for v in range(0, 61, 5))
    assert cfg.ue_count == 8
    assert cfg.traffic.data_volume_mbps == 2.0


def test_scenario3_distance_interpretation_selectable():
    cfg = parse_config("preset=scenario3\nsweep_variable=start_distance")
    assert cfg.sweep_variable == "start_distance"
    assert cfg.sweep == tuple(float(d) for d in range(20, 201, 20))


# Each preset paired with every sweep variable it has no grid for.  An
# unset preset (None) is custom, whose one grid is the default UE count.
_GRIDLESS = [("scenario1", "offered_mbps"), ("scenario1", "speed_kmh"),
             ("scenario1", "start_distance"), ("scenario2", "ue_count"),
             ("scenario2", "speed_kmh"), ("scenario2", "start_distance"),
             ("scenario3", "ue_count"), ("scenario3", "offered_mbps")] + [
    (preset, var) for preset in ("custom", None)
    for var in ("offered_mbps", "speed_kmh", "start_distance")]


@pytest.mark.parametrize("preset, var", _GRIDLESS)
def test_a_preset_lends_no_grid_to_another_sweep_variable(preset, var):
    # Its own grid would sweep the wrong quantity: scenario1's UE counts
    # read as 2-20 km/h, scenario2's rates as 1-8 UEs, custom's 8 UEs as
    # 8 km/h.
    head = f"preset={preset}\n" if preset else ""
    with pytest.raises(ConfigError) as info:
        parse_config(f"{head}sweep_variable={var}")
    assert len(info.value.errors) == 1
    assert info.value.errors[0].startswith("sweep: ")
    assert "no grid" in info.value.errors[0]
    # With a grid of its own, the study keeps the preset's other keys.
    cfg = parse_config(f"{head}sweep_variable={var}\nsweep=40")
    assert cfg == replace(parse_config(head), sweep_variable=var,
                          sweep=(40.0,))


def test_explicit_keys_override_preset_values():
    cfg = parse_config("preset=scenario1\nsweep=2,4\nduration_s=5")
    assert cfg.sweep == (2.0, 4.0)
    assert cfg.duration_s == 5.0


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ConfigError, match="line 3.*unknown key"):
        parse_config("preset=custom\nduration_s=5\nbogus_key=1\n")


def test_removed_mobility_sweep_key_rejected():
    with pytest.raises(ConfigError, match="line 2: unknown key 'mobility.sweep'"):
        parse_config("preset=scenario3\nmobility.sweep=start_distance\n")


# Keys of the format before the model classes became the config sections,
# each mapped to its new key (None: dropped, it did nothing).
_RENAMED = {
    "phy.nr.rb_count": None,
    "phy.nr.pf_window": None,
    "radio.nr.nr_arfcn": None,
    "radio.nr.carrier_freq_mhz": None,
    "radio.nr.mmwave_alpha": "radio.nr.mmwave.alpha_db",
    "radio.nr.mmwave_beta": "radio.nr.mmwave.beta",
    "radio.nr.mmwave_sigma": "radio.nr.mmwave.sigma_db",
    "radio.nr.max_range_m": "radio.nr.mmwave.max_range_m",
    **{f"phy.{rat}.{old}": f"phy.{rat}.{new}" for rat in ("lte", "nr")
       for old, new in (("la_overhead", "la.overhead"),
                        ("la_eff_max", "la.eff_max"),
                        ("la_snr_floor_db", "la.snr_floor_db"),
                        ("harq_max_retx", "harq.max_retx"),
                        ("harq_combining_gain_db", "harq.combining_gain_db"),
                        ("harq_rtt_ms", "harq.rtt_s"),
                        ("bler_threshold_db", "harq.bler_threshold_db"),
                        ("bler_steepness_db", "harq.bler_steepness_db"))},
}


@pytest.mark.parametrize("old", sorted(_RENAMED))
def test_dropped_or_renamed_key_rejected(old):
    with pytest.raises(ConfigError, match=f"line 2: unknown key '{old}'"):
        parse_config(f"preset=custom\n{old}=1\n")
    new = _RENAMED[old]
    if new is not None:
        assert f"\n{new}=" in render_config(default_config())


def test_key_set_shrank_by_the_dropped_keys():
    keys = render_config(default_config()).splitlines()
    assert len(keys) == 63


def test_section_errors_name_the_flat_key():
    with pytest.raises(ConfigError) as exc:
        parse_config("radio.nr.mmwave.beta=0\ntraffic.queue_capacity_pkts=0\n"
                     "phy.lte.harq.rtt_s=0\nphy.lte.harq.max_retx=-1\n")
    # One error per section: the first bad field each section's check meets.
    assert sorted(exc.value.errors) == [
        "phy.lte.harq.max_retx: must be >= 0, got -1",
        "radio.nr.mmwave.beta: must be > 0, got 0.0",
        "traffic.queue_capacity_pkts: must be >= 1, got 0"]


def test_app_start_must_fall_inside_the_run():
    with pytest.raises(ConfigError, match="traffic.app_start_s: must be below "
                                          "duration_s"):
        parse_config("duration_s=2\nwarmup_s=0.5\ntraffic.app_start_s=3")
    assert parse_config("duration_s=4\ntraffic.app_start_s=3"
                        ).traffic.app_start_s == 3.0


def test_app_stop_is_the_sentinel_or_after_start():
    with pytest.raises(ConfigError, match="traffic.app_stop_s: must be -1"):
        parse_config("traffic.app_stop_s=-5")
    with pytest.raises(ConfigError, match="traffic.app_stop_s"):
        parse_config("traffic.app_start_s=2\ntraffic.app_stop_s=2")
    assert parse_config("traffic.app_stop_s=-1").app_stop_effective_s() == 20.0
    assert parse_config("traffic.app_stop_s=5").app_stop_effective_s() == 5.0


def test_app_stop_must_leave_a_measured_window():
    # Every packet would be created inside the warm-up: throughput 0, no delay.
    with pytest.raises(ConfigError, match="traffic.app_stop_s: must exceed "
                                          "warmup_s"):
        parse_config("rats=lte\nduration_s=2\nwarmup_s=1\n"
                     "traffic.app_stop_s=0.5")
    with pytest.raises(ConfigError, match="traffic.app_stop_s"):
        parse_config("duration_s=2\nwarmup_s=1\ntraffic.app_stop_s=1")
    assert parse_config("duration_s=2\nwarmup_s=1\ntraffic.app_stop_s=1.5"
                        ).app_stop_effective_s() == 1.5


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("duration_s=5\nduration_s=6")


def test_syntax_error_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("duration_s=5\nnot a key value\n")


def test_bad_value_names_the_key():
    with pytest.raises(ConfigError, match="replications"):
        parse_config("replications=few")


def test_every_unparseable_value_is_reported():
    with pytest.raises(ConfigError) as exc:
        parse_config("replications=few\nduration_s=x\nue_count=y")
    assert [err.split(":")[0] for err in exc.value.errors] == [
        "replications", "duration_s", "ue_count"]
    assert all("cannot parse" in err for err in exc.value.errors)


def test_invariant_violations_name_fields():
    with pytest.raises(ConfigError, match="replications"):
        parse_config("replications=0")
    with pytest.raises(ConfigError, match="duration_s.*warmup"):
        parse_config("duration_s=1\nwarmup_s=2")
    with pytest.raises(ConfigError, match="sweep"):
        parse_config("sweep_variable=ue_count\nsweep=2.5")
    with pytest.raises(ConfigError, match="traffic.packet_size_bytes"):
        parse_config("traffic.packet_size_bytes=1501")
    with pytest.raises(ConfigError, match="corridor_max_m"):
        parse_config("mobility.corridor_max_m=500")
    with pytest.raises(ConfigError, match="phy.lte.scs_khz"):
        parse_config("phy.lte.scs_khz=45")
    with pytest.raises(ConfigError, match="radio.lte.earfcn"):
        parse_config("radio.lte.earfcn=9000")
    with pytest.raises(ConfigError, match="preset"):
        parse_config("preset=scenario9")


# Each config breaks one rule; the error must name the flat key it sits on.
_INVALID = [
    ("sweep_variable=speed_kmh\nsweep=-5", "sweep"),
    ("sweep_variable=offered_mbps\nsweep=0", "sweep"),
    ("sweep_variable=start_distance\nsweep=300", "sweep"),
    ("sweep_variable=ue_count\nsweep=2.5", "sweep"),
    ("sweep_variable=ue_count\nsweep=0", "sweep"),
    ("mobility.placement=uniform:5,100", "mobility.placement"),
    ("mobility.placement=uniform:20", "mobility.placement"),
    ("mobility.placement=uniform:100,20", "mobility.placement"),
    ("duration_s=1\nwarmup_s=2", "duration_s"),
    ("duration_s=2\nwarmup_s=0.5\ntraffic.app_start_s=3",
     "traffic.app_start_s"),
    ("mobility.corridor_max_m=500", "mobility.corridor_max_m"),
    ("ue_count=0", "ue_count"),
    # Three configs that validated but never finished: a finite rate whose
    # bit rate is not (its packets come 0 s apart), the same rate swept, and
    # an NR refresh period too short to move the clock at 0.018 s.
    ("traffic.data_volume_mbps=1e303", "traffic.data_volume_mbps"),
    ("preset=scenario2\nsweep=1e303", "sweep"),
    ("radio.nr.beam_refresh_s=1e-18", "radio.nr.beam_refresh_s"),
    # Two that validated but would never finish either: a finite bit rate
    # whose packets come closer than one ulp of the app's stop instant, so
    # that the grid's instants stand still at 1 s, and the same rate swept.
    ("traffic.data_volume_mbps=1e300\ntraffic.app_start_s=1",
     "traffic.data_volume_mbps"),
    ("preset=scenario2\nsweep=1e300", "sweep"),
    # Four whose clocks move but could not finish: 8e15 NR slots, 1e15 LTE
    # subframes and 2e14 CBR instants per UE (the slots are named), a dead
    # LTE link whose queues never drain in a 1e12 s drain window, and 1e9
    # UEs at the study's own rate or at a swept UE count.
    ("duration_s=1e12", "duration_s"),
    ("rats=lte\nradio.lte.tx_power_dbm=-200\ndrain_max_s=1e12",
     "drain_max_s"),
    ("preset=scenario2\nue_count=1000000000", "traffic.data_volume_mbps"),
    ("preset=scenario1\nsweep=1000000000", "sweep"),
    # Two whose offers fit, since the app starts 1 ms before the end, but
    # whose 1e9 UEs each take a step in every one of 25,000 LTE subframes:
    # at the study's own UE count, and at a swept one.
    ("preset=scenario3\nue_count=1000000000\ntraffic.app_start_s=19.999",
     "ue_count"),
    ("preset=scenario1\nrats=lte\nsweep=1000000000\n"
     "traffic.app_start_s=19.999\nmobility.speed_kmh=0", "sweep"),
]


@pytest.mark.parametrize("text, key", _INVALID,
                         ids=[text.replace("\n", ";") for text, _ in _INVALID])
def test_invalid_config_names_its_key(text, key):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert [err.split(":")[0] for err in exc.value.errors] == [key]


def _rejected_keys(text):
    try:
        parse_config(text)
    except ConfigError as exc:
        return [err.split(":")[0] for err in exc.errors]
    return []


def test_the_slots_of_a_run_are_bounded():
    # An LTE subframe is 1 ms, so duration + drain = 1e7 s is the budget;
    # one subframe more is over it, named by the longer of the two terms.
    # The app stops at 2 s, so that the CBR offers stay far below it.
    lte = "rats=lte\ntraffic.app_stop_s=2\n"
    assert WORK_BUDGET == 10**10
    assert _rejected_keys(lte + "duration_s=9999995") == []
    assert _rejected_keys(lte + "duration_s=9999995.001") == ["duration_s"]
    assert _rejected_keys(lte + "duration_s=3\ndrain_max_s=9999997") == []
    assert _rejected_keys(lte + "duration_s=3\ndrain_max_s=9999997.001"
                          ) == ["drain_max_s"]
    # NR slots are 8 times finer.
    assert _rejected_keys("rats=nr\ntraffic.app_stop_s=2\n"
                          "duration_s=1249995") == []
    assert _rejected_keys("rats=nr\ntraffic.app_stop_s=2\n"
                          "duration_s=1249995.001") == ["duration_s"]


def test_the_nr_refresh_events_of_a_run_are_bounded():
    # duration + drain = 25 s: a refresh every 2.5 ns is the budget, and the
    # next shorter period is over it.  LTE never reads the NR period.
    assert _rejected_keys("rats=nr\nradio.nr.beam_refresh_s=2.5e-9") == []
    shorter = math.nextafter(2.5e-9, 0.0)
    assert _rejected_keys(f"rats=nr\nradio.nr.beam_refresh_s={shorter!r}"
                          ) == ["radio.nr.beam_refresh_s"]
    assert _rejected_keys("rats=lte\nradio.nr.beam_refresh_s=1e-18") == []


def test_the_cbr_offers_of_a_run_are_bounded():
    # One UE, 1250 B packets for 20 s: 5e6 Mb/s is the budget, and a rate
    # that adds one offer is over it, named by the rate.
    one = "ue_count=1\nsweep=1\n"
    assert _rejected_keys(one + "traffic.data_volume_mbps=5e6") == []
    assert _rejected_keys(one + "traffic.data_volume_mbps=5000000.0005"
                          ) == ["traffic.data_volume_mbps"]
    # An app that stops at 2 s asks for a tenth of the offers.
    assert _rejected_keys(one + "traffic.data_volume_mbps=5e7\n"
                          "traffic.app_stop_s=2") == []
    # At 2 Mb/s, 2.5e6 UEs are the budget.  The point that passes it is
    # named by sweep, however many points pass it.
    assert _rejected_keys("preset=scenario1\nsweep=2500000") == []
    assert _rejected_keys("preset=scenario1\nsweep=2,2500001,3000000"
                          ) == ["sweep"]
    assert _rejected_keys("preset=scenario2\nue_count=1\n"
                          "sweep=1,5e6,5000000.0005") == ["sweep"]


def test_the_per_ue_work_of_a_run_is_bounded():
    # A run of 25 s has 25,000 LTE subframes and 250 NR refresh epochs.  The
    # app starts 1 ms before the end, so the offers stay far below the
    # budget, and 8e10 per-UE steps are the budget.
    assert UE_WORK_BUDGET == 8 * WORK_BUDGET
    late = "traffic.app_start_s=19.999\n"
    assert _rejected_keys(late + "rats=lte\nue_count=3200000") == []
    assert _rejected_keys(late + "rats=lte\nue_count=3200001") == [
        "ue_count"]
    assert _rejected_keys(late + "rats=lte\nsweep=2,3200001") == ["sweep"]
    # NR shadowing changes every link at every refresh epoch; static links
    # are computed once.
    assert _rejected_keys(late + "rats=nr\nue_count=320000000") == []
    assert _rejected_keys(late + "rats=nr\nue_count=320000001") == [
        "ue_count"]
    assert _rejected_keys(late + "rats=nr\nue_count=320000001\n"
                          "radio.nr.mmwave.sigma_db=0") == []
    assert _rejected_keys(late + "rats=nr\nue_count=320000001\n"
                          "radio.nr.mmwave.sigma_db=0\n"
                          "mobility.speed_kmh=1") == ["ue_count"]
    # The factor furthest above its default names the chain: 20 UEs (8 by
    # default) with a refresh every 5 ns (0.1 s) ask for 1e11 link updates,
    # named by the refresh period, and 80 UEs over 1e6 s (25 s) for just
    # over 8e10 UE-subframes, named by the duration.
    assert _rejected_keys(late + "rats=nr\nue_count=20\n"
                          "radio.nr.beam_refresh_s=5e-9") == [
        "radio.nr.beam_refresh_s"]
    assert _rejected_keys(late + "rats=nr\nue_count=16\n"
                          "radio.nr.beam_refresh_s=5e-9") == []
    slow = "rats=lte\ntraffic.app_stop_s=2\nduration_s=1000000\n"
    assert _rejected_keys(slow + "ue_count=79") == []
    assert _rejected_keys(slow + "ue_count=80") == ["duration_s"]


def test_replace_checks_the_study_rules():
    with pytest.raises(ConfigError, match="^duration_s: "):
        replace(default_config(), warmup_s=30.0)


_FLOAT_KEYS = sorted(key for key, (_, default) in _SCHEMA.items()
                     if isinstance(default, float) or key == "sweep")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_non_finite_value_names_its_key(key, value):
    with pytest.raises(ConfigError) as exc:
        parse_config(f"{key}={value}")
    assert any(err.startswith(f"{key}: ") for err in exc.value.errors)


def test_a_point_that_does_not_build_is_rejected():
    # at() builds a checked config: it neither truncates a fractional UE
    # count nor places UEs outside the corridor.
    with pytest.raises(ValueError, match="ue_count: must be a positive "
                                         "integer"):
        default_config().at(2.5)
    cfg = parse_config("sweep_variable=start_distance\nsweep=50")
    assert cfg.at(50.0).mobility.radii(2) == [50.0, 50.0]
    with pytest.raises(ValueError, match="placement"):
        cfg.at(300.0)


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\nduration_s=7\n# another\n")
    assert cfg.duration_s == 7.0


def test_round_trip_identity():
    for preset in ("custom", "scenario1", "scenario2", "scenario3"):
        cfg = default_config(preset)
        assert parse_config(render_config(cfg)) == cfg


def test_round_trip_preserves_non_default_values():
    cfg = parse_config("preset=scenario2\nseed_base=77\nradio.nr.tx_power_dbm=27.5\n"
                       "phy.lte.la.eff_max=4.8\ntraffic.queue_capacity_pkts=64")
    again = parse_config(render_config(cfg))
    assert again == cfg
    assert again.radio_nr.tx_power_dbm == 27.5
    assert again.phy_lte.la.eff_max == 4.8


_FLOATS = dict(allow_nan=False, allow_infinity=False)
_SWEEPS = {
    "ue_count": st.integers(1, 40).map(float),
    "offered_mbps": st.floats(min_value=0.01, max_value=50, **_FLOATS),
    "speed_kmh": st.floats(min_value=0, max_value=120, **_FLOATS),
    "start_distance": st.floats(min_value=20, max_value=200, **_FLOATS),
}


@st.composite
def _valid_config_text(draw):
    variable = draw(st.sampled_from(sorted(_SWEEPS)))
    sweep = draw(st.lists(_SWEEPS[variable], min_size=1, max_size=6,
                          unique=True))
    warmup = draw(st.floats(min_value=0, max_value=5, **_FLOATS))
    keys = {
        "preset": draw(st.sampled_from(PRESET_NAMES)),
        "rats": ",".join(draw(st.sampled_from([["lte"], ["nr"], ["lte", "nr"],
                                               ["nr", "lte"]]))),
        "sweep_variable": variable,
        "sweep": ",".join(repr(v) for v in sweep),
        "warmup_s": repr(warmup),
        "duration_s": repr(warmup + draw(st.floats(min_value=0.5,
                                                   max_value=60, **_FLOATS))),
        "seed_base": str(draw(st.integers(0, 2**31))),
    }
    optional = {
        "traffic.queue_capacity_pkts": st.integers(1, 1000).map(str),
        "traffic.packet_size_bytes": st.integers(1, 1500).map(str),
        "mobility.speed_kmh": st.floats(min_value=0, max_value=120,
                                        **_FLOATS).map(repr),
        "radio.nr.tx_power_dbm": st.floats(min_value=-10, max_value=40,
                                           **_FLOATS).map(repr),
        "radio.lte.noise_figure_db": st.floats(min_value=0, max_value=15,
                                               **_FLOATS).map(repr),
        "phy.lte.la.eff_max": st.floats(min_value=0.1, max_value=8,
                                        **_FLOATS).map(repr),
        "phy.nr.harq.max_retx": st.integers(0, 8).map(str),
        "radio.nr.mmwave.sigma_db": st.floats(min_value=0, max_value=12,
                                              **_FLOATS).map(repr),
    }
    for key in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        keys[key] = draw(optional[key])
    return "\n".join(f"{k}={v}" for k, v in keys.items())


@settings(max_examples=200, deadline=None)
@given(_valid_config_text())
def test_round_trip_property(text):
    cfg = parse_config(text)
    assert parse_config(render_config(cfg)) == cfg


def test_overrides_behave_like_explicit_keys():
    cfg = parse_config("duration_s=9", overrides={"preset": "scenario1",
                                                  "replications": "2"})
    assert cfg.preset == "scenario1"
    assert cfg.replications == 2
    assert cfg.duration_s == 9.0
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("", overrides={"nope": "1"})


def test_default_config_carrier_frequencies():
    cfg = default_config()
    assert cfg.radio_lte.carrier_freq_hz == 1930e6  # uplink EARFCN 18100


def test_placement_specs():
    cfg = parse_config("ue_count=5\nmobility.placement=uniform:20,100")
    assert cfg.mobility.radii(5) == [20.0, 40.0, 60.0, 80.0, 100.0]
    cfg2 = parse_config("mobility.placement=30,60,90")
    assert cfg2.mobility.radii(5) == [30.0, 60.0, 90.0, 30.0, 60.0]
    with pytest.raises(ConfigError, match="placement"):
        parse_config("mobility.placement=uniform:5,100")


@settings(max_examples=300, deadline=None)
@given(lo=st.floats(1.0, 500.0), width=st.floats(0.1, 500.0),
       n=st.integers(2, 60))
# Unclamped, the sixth radius is 200.00000000000003: a static UE there sits
# past a 200 m corridor, beyond a 200 m mmWave range.
@example(lo=20.1, width=179.9, n=6)
def test_uniform_radii_stay_inside_the_placement_range(lo, width, n):
    hi = lo + width
    radii = MobilityConfig(placement=f"uniform:{lo!r},{hi!r}",
                           corridor_min_m=lo, corridor_max_m=hi).radii(n)
    assert radii[0] == lo and radii[-1] <= hi
    assert all(a <= b for a, b in zip(radii, radii[1:]))


def test_placement_without_radii_rejected():
    with pytest.raises(ConfigError, match="^mobility.placement: must name "
                                          "radii"):
        parse_config("mobility.placement=,")


def test_corridor_bounds_validated():
    # The section is the corridor's one check: every UE distance the runner
    # computes is then at least 1 m.
    with pytest.raises(ValueError, match="^corridor_min_m: "):
        MobilityConfig(corridor_min_m=0.5)
    with pytest.raises(ValueError, match="^corridor_max_m: "):
        MobilityConfig(corridor_min_m=50.0, corridor_max_m=50.0)
    assert MobilityConfig(corridor_min_m=1.0, placement="1").radii(2) == [
        1.0, 1.0]


def test_rats_subset_validation():
    assert parse_config("rats=lte").rats == ("lte",)
    with pytest.raises(ConfigError, match="rats"):
        parse_config("rats=lte,wimax")


def test_duplicate_sweep_values_rejected():
    with pytest.raises(ConfigError, match="sweep: values must be distinct"):
        parse_config("sweep=2,4,2")
    with pytest.raises(ConfigError, match="distinct"):
        parse_config("sweep_variable=offered_mbps\nsweep=1,1.0")
    assert parse_config("sweep=2,4").sweep == (2.0, 4.0)


def test_repeated_rats_rejected():
    # One RAT listed twice would run each sweep point twice on the same
    # seeds and report the copies as independent replications.
    with pytest.raises(ConfigError, match="rats: values must be distinct"):
        parse_config("rats=lte,lte\nreplications=1")
    assert parse_config("rats=nr,lte").rats == ("nr", "lte")
