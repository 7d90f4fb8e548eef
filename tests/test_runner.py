"""Integration behaviour of single runs and sweep orchestration.

These use shortened durations; the full default-scale studies live in
test_acceptance.py.
"""

import csv
import io
import multiprocessing
import os
import tempfile
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sitelink import runner
from sitelink.config import parse_config
from sitelink.engine import Simulator
from sitelink.metrics import (FlowStats, aggregate_replications, export_csv,
                              finalize, sweep_label)
from sitelink.phymac import SUPPORTED_SCS_KHZ
from sitelink.runner import (SWEEP_SEED_STRIDE, _Run, _Schedule,
                             derive_run_seed, run_metadata, run_scenario,
                             run_single)
from sitelink.traffic import (DropCause, DuplicateDeliveryError, FlowQueue,
                              cbr_emit_times)

LIGHT = """
preset=custom
sweep_variable=ue_count
sweep=2
duration_s=3
warmup_s=0.5
replications=1
seed_base=5
"""

OVERLOAD = """
preset=custom
sweep_variable=offered_mbps
sweep=5
ue_count=8
rats=lte
duration_s=4
warmup_s=1
replications=1
"""

MOBILE = """
preset=custom
sweep_variable=speed_kmh
sweep=50
ue_count=4
rats=nr
duration_s=4
warmup_s=1
replications=1
"""


def test_light_load_serves_everything_on_both_rats():
    cfg = parse_config(LIGHT)
    for rat in ("lte", "nr"):
        result = run_single(cfg, rat, 0, 0)
        assert result.loss_rate < 0.01
        assert result.throughput_bps == pytest.approx(4e6, rel=0.02)
        assert 0.0005 < result.mean_delay_s < 0.01
        for flow in result.flows:
            assert flow.tx_packets == flow.rx_packets + flow.dropped_packets


def test_light_load_delay_ordering_lte_above_nr():
    cfg = parse_config(LIGHT)
    lte = run_single(cfg, "lte", 0, 0)
    nr = run_single(cfg, "nr", 0, 0)
    assert lte.mean_delay_s > nr.mean_delay_s


def test_lte_overload_drops_by_queue_overflow_and_conserves():
    cfg = parse_config(OVERLOAD)
    result = run_single(cfg, "lte", 0, 0)
    assert result.loss_rate > 0.5
    drops = {}
    for flow in result.flows:
        assert flow.tx_packets == flow.rx_packets + flow.dropped_packets
        for cause, n in flow.drops_by_cause.items():
            drops[cause] = drops.get(cause, 0) + n
    assert drops.get(DropCause.QUEUE_OVERFLOW.value, 0) > 0


def test_nr_mobility_drops_via_harq_exhaustion():
    cfg = parse_config(MOBILE)
    result = run_single(cfg, "nr", 0, 0)
    assert 0.5 < result.loss_rate < 0.95   # p_out(50) ~ 0.78
    causes = set()
    for flow in result.flows:
        causes.update(flow.drops_by_cause)
        assert flow.tx_packets == flow.rx_packets + flow.dropped_packets
    assert causes == {DropCause.HARQ_EXHAUSTED.value}


def _force_channel(run, ue_idx):
    """Pin one UE's rate to 0 in every epoch's notes, regardless of what the
    refresh recomputes: a link in range (finite SNR) below the SNR floor."""
    original, rates = run._open_epoch, run.schedule.rates

    def pin():
        rates[-1] = rates[-1][:ue_idx] + (0.0,) + rates[-1][ue_idx + 1:]

    def patched(t):
        original(t)
        pin()
    run._open_epoch = patched
    pin()


@pytest.mark.parametrize("rat", ["lte", "nr"])
def test_every_grant_goes_to_a_live_link_of_its_own_epoch(rat):
    # The SNR floor sits near 60 m.  UE 0 starts live at 30 m and patrols
    # out past it; UE 1 starts below it at 90 m and comes back in past it
    # after the wall at 100 m.  The scheduler reads the last epoch's noted
    # rates, so a grant goes only to a UE whose rate in its epoch is > 0.
    cfg = parse_config(
        f"preset=custom\nrats={rat}\nsweep_variable=speed_kmh\nsweep=120\n"
        "ue_count=2\nmobility.placement=30,90\nmobility.corridor_max_m=100\n"
        "duration_s=2\nwarmup_s=0.1\ndrain_max_s=0.1\nreplications=1\n"
        f"radio.nr.mmwave.sigma_db=0\nradio.{rat}.tx_power_dbm=-29.3\n")
    run = _Run(cfg, rat, 120.0, 0, seed=1)
    run.execute()
    record = run.schedule
    assert record.rates[0][0] > 0.0 == record.rates[0][1]
    assert any(rates[0] == 0.0 < rates[1] for rates in record.rates)
    grants, start = [0, 0], 0
    for rates, end in zip(record.rates, record.epoch_end):
        for ue in record.grant_ue[start:end]:
            assert rates[ue] > 0.0
            grants[ue] += 1
        start = end
    assert all(grants)


def test_a_ue_on_the_far_wall_stays_in_mmwave_coverage():
    # 155.1 + (468.2 - 155.1) rounds to 468.20000000000005: unclamped, the
    # patrol put a static UE on the far wall one ulp past the mmWave range,
    # and every packet of its dead link was lost.
    cfg = parse_config(
        "preset=custom\nrats=nr\nsweep_variable=speed_kmh\nsweep=0\n"
        "ue_count=2\nduration_s=1\nwarmup_s=0.1\nreplications=1\n"
        "mobility.corridor_min_m=155.1\nmobility.corridor_max_m=468.2\n"
        "radio.nr.mmwave.max_range_m=468.2\nmobility.placement=300,468.2\n")
    result = run_single(cfg, "nr", 0, 0)
    assert result.loss_rate == 0.0
    for flow in result.flows:
        assert flow.tx_packets == flow.rx_packets == 180
        assert flow.drops_by_cause == {}


def test_unservable_backlog_written_off_at_drain():
    cfg = parse_config(LIGHT, overrides={"warmup_s": "0"})
    run = _Run(cfg, "nr", 2.0, 0, seed=1)
    _force_channel(run, 0)
    result = run.execute()
    # The record holds the rate the scheduler read at every epoch.
    assert len(run.schedule.rates) > 1
    assert all(rates[0] == 0.0 for rates in run.schedule.rates)
    flow = result.flows[0]
    assert flow.rx_packets == 0
    assert flow.drops_by_cause.get(DropCause.QUEUE_OVERFLOW.value, 0) > 0
    assert flow.drops_by_cause.get(DropCause.OUT_OF_COVERAGE.value, 0) > 0
    assert flow.tx_packets == flow.rx_packets + flow.dropped_packets


def test_run_seed_derivation_disjoint_across_sweep_points():
    seeds = {derive_run_seed(1, si, rep) for si in range(20) for rep in range(50)}
    assert len(seeds) == 20 * 50
    assert derive_run_seed(1, 0, 3) == 4
    assert derive_run_seed(1, 2, 0) == 1 + 2 * SWEEP_SEED_STRIDE


def test_replication_aggregation_shape():
    cfg = parse_config(LIGHT, overrides={"replications": "3"})
    results = run_scenario(cfg)
    assert len(results) == 2    # one per rat at the single sweep point
    for r in results:
        assert r.replications == 3
        assert r.seed == cfg.seed_base
        assert r.delay_stddev_s is not None


def test_rat_order_does_not_change_rows():
    base = parse_config(LIGHT)
    flipped = parse_config(LIGHT + "rats=nr,lte")
    rows_a = run_scenario(base)
    rows_b = run_scenario(flipped)
    assert rows_a == rows_b


def test_parallel_workers_produce_identical_csv(tmp_path):
    cfg = parse_config(LIGHT, overrides={"replications": "2", "sweep": "2,4"})
    blobs = []
    for workers in (1, 2, 3):
        path = tmp_path / f"w{workers}.csv"
        export_csv(run_scenario(cfg, workers=workers), str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_same_config_same_seed_identical_csv(tmp_path):
    cfg = parse_config(LIGHT + "mobility.speed_kmh=35",
                       overrides={"sweep": "2,4"})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(run_scenario(cfg), str(a))
    export_csv(run_scenario(cfg), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_event_trace_files_are_deterministic(tmp_path):
    cfg = parse_config(LIGHT)
    d1 = tmp_path / "t1"
    d2 = tmp_path / "t2"
    d1.mkdir()
    d2.mkdir()
    run_single(cfg, "lte", 0, 0, trace_dir=str(d1))
    run_single(cfg, "lte", 0, 0, trace_dir=str(d2))
    name = "custom_lte_2_0.trace"
    assert (d1 / name).exists()
    first = (d1 / name).read_text()
    assert first == (d2 / name).read_text()
    line = first.splitlines()[0].split("\t")
    assert len(line) == 4
    float(line[0])
    int(line[1])


def test_trace_logs_expected_event_kinds(tmp_path):
    cfg = parse_config(LIGHT)
    run_single(cfg, "nr", 0, 0, trace_dir=str(tmp_path))
    text = (tmp_path / "custom_nr_2_0.trace").read_text()
    kinds = {line.split("\t")[2] for line in text.splitlines()}
    assert {"arrival", "slot", "refresh"} <= kinds


@pytest.mark.parametrize("study, speeds", [
    ("preset=scenario1\nsweep=2", [None]),
    ("preset=scenario3\nsweep=10", [10.0]),
    # Speed swept in a static preset: each row names its own speed.
    ("preset=scenario1\nsweep_variable=speed_kmh\nsweep=0,60", [0.0, 60.0]),
    # Moving UEs in a static preset.
    ("preset=scenario1\nsweep=2\nmobility.speed_kmh=35", [35.0]),
    # A custom study whose UEs never move.
    ("preset=custom\nsweep=2", [None]),
], ids=["scenario1", "scenario3", "scenario1-speed-swept",
        "scenario1-moving", "custom-static"])
def test_speed_column_hidden_for_static_presets(study, speeds):
    # The speed dimension is empty exactly when no UE of the study moves.
    cfg = parse_config(study + "\nduration_s=2\nwarmup_s=0.5\n"
                       "replications=1\nrats=lte\nue_count=2")
    assert [r.speed_kmh for r in run_scenario(cfg)] == speeds


# Legal values per sweep variable, inside the default 20-200 m corridor.
_SWEEP_VALUES = {
    "ue_count": st.integers(1, 4).map(float),
    "offered_mbps": st.floats(0.5, 8.0),
    "speed_kmh": st.floats(0.0, 60.0),
    "start_distance": st.floats(20.0, 200.0),
}
# The CSV column that names each sweep variable's value.
_SWEEP_COLUMN = {"ue_count": "ue_count", "offered_mbps": "offered_mbps_per_ue",
                 "speed_kmh": "speed_kmh", "start_distance": "start_distance_m"}


@st.composite
def _studies(draw):
    preset = draw(st.sampled_from(["scenario1", "scenario2", "scenario3",
                                   "custom"]))
    var = draw(st.sampled_from(sorted(_SWEEP_VALUES)))
    values = draw(st.lists(_SWEEP_VALUES[var], min_size=2, max_size=4,
                           unique=True))
    return preset, var, values, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(study=_studies())
@example(study=("scenario3", "start_distance", [40.0, 120.0], False))
@example(study=("scenario2", "offered_mbps", [1.0000001, 1.0000002], False))
def test_csv_rows_name_their_sweep_point(study):
    preset, var, values, moving = study
    cfg = parse_config(
        f"preset={preset}\nsweep_variable={var}\n"
        f"sweep={','.join(map(repr, values))}\nrats=lte\nue_count=2\n"
        f"duration_s=0.2\nwarmup_s=0.05\ndrain_max_s=0.1\nreplications=1\n"
        + ("mobility.speed_kmh=35\n" if moving else ""))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        export_csv(run_scenario(cfg), path)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames
            rows = list(reader)
    assert ("start_distance_m" in header) == (var == "start_distance")
    label_cells = [c for c in header if c in (
        "scenario", "rat", "ue_count", "offered_mbps_per_ue", "speed_kmh",
        "start_distance_m")]
    labels = {tuple(row[c] for c in label_cells) for row in rows}
    assert len(labels) == len(rows) == len(values)
    column = _SWEEP_COLUMN[var]
    assert sorted(float(row[column]) for row in rows) == sorted(values)
    someone_moves = moving or var == "speed_kmh"
    for row in rows:
        assert (row["speed_kmh"] == "") == (not someone_moves)


def test_start_distance_sweep_places_static_ues_at_distance():
    cfg = parse_config("preset=scenario3\nsweep_variable=start_distance\n"
                       "sweep=40,200\nduration_s=2\nwarmup_s=0.5\n"
                       "replications=1\nrats=nr\nue_count=2")
    results = run_scenario(cfg)
    near, far = results[0], results[1]
    assert near.sweep_value == 40.0 and far.sweep_value == 200.0
    assert near.loss_rate < 0.05 and far.loss_rate < 0.05


def test_metadata_echoes_every_effective_key():
    from sitelink.config import parse_config as reparse
    cfg = parse_config(LIGHT)
    meta = run_metadata(cfg)
    assert reparse(meta) == cfg          # comments skipped, keys complete
    assert "seed_base=5" in meta
    assert "phy.nr.la.eff_max" in meta


def test_throughput_never_exceeds_offered_load():
    cfg = parse_config(OVERLOAD)
    result = run_single(cfg, "lte", 0, 0)
    offered = 5e6 * 8
    assert result.throughput_bps <= offered * (1 + 1e-9)


def test_aggregate_throughput_equals_sum_of_flow_throughputs():
    cfg = parse_config(OVERLOAD)
    result = run_single(cfg, "lte", 0, 0)
    window = cfg.duration_s - cfg.warmup_s
    size = cfg.traffic.packet_size_bytes
    per_flow = sum(finalize([f], window, size)[0] for f in result.flows)
    assert result.throughput_bps == pytest.approx(per_flow, rel=1e-9)


def test_static_lte_channel_is_time_invariant(monkeypatch):
    # A static LTE UE draws no shadowing, so no refresh recomputes its SNR.
    cfg = parse_config(LIGHT)
    snrs = []
    snr = runner.snr_db

    def noting(*args, **kwargs):
        snrs.append(snr(*args, **kwargs))
        return snrs[-1]
    monkeypatch.setattr(runner, "snr_db", noting)
    run = _Run(cfg, "lte", 2.0, 0, seed=3)
    first = list(snrs)
    run.sim.run(1.0)    # several refresh periods elapse
    assert len(first) == run.cfg.ue_count and snrs == first
    assert len(run.schedule.rates) > 5
    assert all(rates == run.schedule.rates[0] for rates in run.schedule.rates)
    assert all(links == run.links[0] for links in run.links)


def test_arrivals_follow_the_cbr_grid():
    cfg = parse_config(LIGHT, overrides={"warmup_s": "0",
                                         "traffic.app_start_s": "0.3",
                                         "traffic.app_stop_s": "2.2"})
    run = _Run(cfg, "nr", 2.0, 0, seed=1)
    result = run.execute()
    for flow in result.flows:
        assert flow.tx_packets == len(cbr_emit_times(run.stream)) == 380


def test_one_arrival_instant_offers_one_seq_to_every_queue():
    # Every flow's packet of an instant is the instant's seq, whose time the
    # schedule notes once; a full queue rejects it and keeps what it holds.
    cfg = parse_config(MOBILE, overrides={"warmup_s": "0",
                                          "traffic.app_start_s": "0",
                                          "traffic.queue_capacity_pkts": "1"})
    run = _Run(cfg, "nr", cfg.sweep[0], 0, seed=1)
    assert run.queues[1].offer(99)
    run._arrival(0.0)
    assert [list(q) for q in run.queues] == [[0], [99], [0], [0]]
    assert list(run.schedule.instants) == [0.0]
    assert run.backlog_pkts == cfg.ue_count - 1
    assert run.schedule.overflow == [0, 1, 0, 0]


@pytest.mark.parametrize("rat", ["lte", "nr"])
def test_one_arrival_and_one_refresh_event_serve_every_ue(rat):
    # Every UE streams the cell's CBR grid and refreshes on the cell's
    # period, so each instant is one event, not one per UE.
    cfg = parse_config(MOBILE, overrides={"rats": rat, "duration_s": "1.5",
                                          "warmup_s": "0"})
    trace = io.StringIO()
    run = _Run(cfg, rat, cfg.sweep[0], 0, seed=1, trace_sink=trace)
    result = run.execute()
    lines = [line.split("\t") for line in trace.getvalue().splitlines()]
    arrivals = [t for t, _, kind, _ in lines if kind == "arrival"]
    refreshes = [float(t) for t, _, kind, _ in lines if kind == "refresh"]
    emit = cbr_emit_times(run.stream)
    assert cfg.ue_count == 4
    assert arrivals == [f"{t:.9f}" for t in emit]
    assert all(f.tx_packets == len(emit) for f in result.flows)
    assert len(refreshes) >= cfg.duration_s / run.refresh_s - 1
    assert refreshes == [pytest.approx(k * run.refresh_s)
                         for k in range(1, len(refreshes) + 1)]
    assert all(detail == "" for _, _, kind, detail in lines
               if kind in ("arrival", "refresh"))


@pytest.mark.parametrize("rat", ["lte", "nr"])
def test_only_chain_starts_and_wake_ups_schedule_events(monkeypatch, tmp_path,
                                                        rat):
    # Every other event is a chain's returned successor: the refresh,
    # arrival and slot chains start once each (the NR slot chain on its
    # first wake-up), and only a wake-up restarts a chain.
    calls = {"schedule": 0, "_wake_slots": 0}
    _counting(monkeypatch, "schedule", calls, Simulator)
    _counting(monkeypatch, "_wake_slots", calls, _Run)
    cfg = parse_config(MOBILE, overrides={"rats": rat, "duration_s": "1.5",
                                          "warmup_s": "0"})
    run_single(cfg, rat, 0, 0, trace_dir=str(tmp_path))
    [trace] = tmp_path.iterdir()
    events = len(trace.read_text().splitlines())
    starts = 3 if rat == "lte" else 2
    assert calls["schedule"] == starts + calls["_wake_slots"]
    assert (calls["_wake_slots"] > 0) == (rat == "nr")
    assert events > 2 * calls["schedule"]
    assert not hasattr(Simulator, "claim")


def test_trace_names_keep_close_sweep_values_apart(tmp_path):
    cfg = parse_config(LIGHT + "rats=lte",
                       overrides={"sweep": "2,2.0000001,1000000,1000001",
                                  "sweep_variable": "offered_mbps",
                                  "duration_s": "1.5"})
    run_single(cfg, "lte", 0, 0, trace_dir=str(tmp_path))
    run_single(cfg, "lte", 1, 0, trace_dir=str(tmp_path))
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"custom_lte_2_0.trace", "custom_lte_2.0000001_0.trace"}
    assert sweep_label(1000000.0) == "1000000"
    assert sweep_label(1000001.0) == "1000001"


def test_a_negative_zero_sweep_value_reads_zero(tmp_path):
    # -0.0 passes the speed check (it is not < 0) and equals 0.0, so it
    # labels CSV cells and trace names as 0 does.
    cfg = parse_config(LIGHT + "rats=lte",
                       overrides={"sweep": "-0", "sweep_variable": "speed_kmh",
                                  "duration_s": "1.5"})
    result = run_single(cfg, "lte", 0, 0, trace_dir=str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == ["custom_lte_0_0.trace"]
    export_csv([result], str(tmp_path / "out.csv"))
    with open(tmp_path / "out.csv", newline="") as f:
        [row] = csv.DictReader(f)
    assert row["speed_kmh"] == "0"
    assert sweep_label(-0.0) == sweep_label(0.0) == "0"


class _InlinePool:
    """Stands in for multiprocessing.Pool: maps in-process, spawns nothing,
    and records the chunk size of every ``starmap`` call."""

    def __init__(self, chunksizes):
        self.chunksizes = chunksizes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, jobs, chunksize=None):
        self.chunksizes.append(chunksize)
        return [fn(*j) for j in jobs]


@pytest.mark.parametrize("cpus, workers, expect", [
    (2, 64, 2),       # capped at the CPU count
    (16, 64, 4),      # capped at the job count, one per point
    (16, 3, 3),       # the request itself
    (1, 8, None),     # one CPU: no pool at all
    (None, 8, None),  # unknown CPU count counts as one
])
def test_pool_size_is_capped_by_cpus_and_jobs(monkeypatch, cpus, workers,
                                               expect):
    sizes, chunksizes = [], []

    def pool(processes):
        sizes.append(processes)
        return _InlinePool(chunksizes)
    # run_scenario imports multiprocessing only when it starts a pool, and
    # reads Pool from the module at call time.
    monkeypatch.setattr(multiprocessing, "Pool", pool)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
    cfg = parse_config(LIGHT, overrides={"replications": "3",
                                         "sweep": "2,4", "duration_s": "1"})
    rows = run_scenario(cfg, workers=workers)     # 2 rats x 2 points = 4 jobs
    assert len(rows) == 4
    assert sizes == ([] if expect is None else [expect])
    # One job per task: a default chunk would idle one worker while another
    # works through the rest of its chunk.
    assert chunksizes == ([] if expect is None else [1])


def test_lte_run_never_calls_the_nr_scheduler(monkeypatch):
    # 700 * 1 ms lands an ulp past duration_s=0.7, so the LTE subframe chain
    # goes idle one subframe early and the arrival at 0.6995 s must wake it.
    def nr_scheduler(*args):
        raise AssertionError("NR scheduler called in an LTE run")
    monkeypatch.setattr(runner, "nr_slot_schedule", nr_scheduler)
    cfg = parse_config(LIGHT + "rats=lte",
                       overrides={"duration_s": "0.7", "warmup_s": "0.1",
                                  "traffic.app_start_s": "0.0045",
                                  "drain_max_s": "0.5"})
    result = run_single(cfg, "lte", 0, 0)
    assert result.loss_rate == 0.0


def _counting(monkeypatch, name, calls, owner=runner, returns=None):
    """Count calls of *owner*.*name* in *calls*; with a *returns* list, also
    keep what each call returned."""
    original = getattr(owner, name)

    def counted(*args):
        calls[name] += 1
        value = original(*args)
        if returns is not None:
            returns.append(value)
        return value
    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("mbps, size", [(100, 1250), (10, 100)])
def test_nr_wake_up_never_serves_a_slot_twice(mbps, size):
    # A CBR interval below one 0.125 ms slot puts arrivals on the instant of
    # a slot that has just run; the wake-up must go to the next slot.
    cfg = parse_config(f"rats=nr\nsweep=1\nduration_s=1\nwarmup_s=0\n"
                       f"traffic.data_volume_mbps={mbps}\n"
                       f"traffic.packet_size_bytes={size}")
    trace = io.StringIO()
    _Run(cfg, "nr", 1.0, 0, seed=1, trace_sink=trace).execute()
    slots = [float(line.split("\t")[0])
             for line in trace.getvalue().splitlines()
             if line.split("\t")[2] == "slot"]
    assert len(slots) > 1000
    assert all(a < b for a, b in zip(slots, slots[1:]))


@pytest.mark.parametrize("text, rat, scheduler", [
    (LIGHT, "lte", "pf_schedule"),        # idle subframes tick on
    (OVERLOAD, "lte", "pf_schedule"),     # every subframe saturated
    (LIGHT, "nr", "nr_slot_schedule"),
    (MOBILE, "nr", "nr_slot_schedule"),   # outage and HARQ retries
])
def test_scheduler_is_called_once_per_processed_slot_event(monkeypatch, text,
                                                           rat, scheduler):
    # The benchmark's phymac.pf_calls and phymac.nr_sched_calls count these
    # calls; one per slot keeps them comparable between versions.
    cfg = parse_config(text, overrides={"duration_s": "1.5",
                                        "warmup_s": "0.5"})
    calls = {scheduler: 0}
    _counting(monkeypatch, scheduler, calls)
    trace = io.StringIO()
    _Run(cfg, rat, cfg.sweep[0], 0, seed=1, trace_sink=trace).execute()
    kinds = [line.split("\t")[2] for line in trace.getvalue().splitlines()]
    assert kinds.count("slot") > 0
    assert calls[scheduler] == kinds.count("slot")


@pytest.mark.parametrize("text, rat", [(LIGHT, "lte"), (MOBILE, "nr")],
                         ids=["lte", "nr"])
def test_position_is_computed_once_per_ue_per_channel_update(monkeypatch,
                                                             text, rat):
    # The benchmark's mobility.position_calls counts these calls: one per UE
    # per channel update (the t=0 one plus each refresh event), except that
    # a run with static links (no UE moves, no shadowing, as in the LTE
    # case) computes them at t=0 only.
    cfg = parse_config(text, overrides={"duration_s": "1.5",
                                        "warmup_s": "0.5"})
    calls = {"position_at": 0}
    _counting(monkeypatch, "position_at", calls)
    trace = io.StringIO()
    run = _Run(cfg, rat, cfg.sweep[0], 0, seed=1, trace_sink=trace)
    run.execute()
    kinds = [line.split("\t")[2] for line in trace.getvalue().splitlines()]
    assert kinds.count("refresh") > 0
    assert run.static_links == (rat == "lte")
    updates = 1 if run.static_links else 1 + kinds.count("refresh")
    assert calls["position_at"] == run.cfg.ue_count * updates


@settings(max_examples=40, deadline=None)
@given(rat=st.sampled_from(["lte", "nr"]), ue_count=st.integers(1, 4),
       duration=st.floats(0.3, 1.0), warmup=st.floats(0.0, 0.05),
       app_start=st.floats(0.0, 0.005, exclude_max=True),
       speed=st.floats(0.0, 60.0), mbps=st.floats(5.0, 8.0),
       size=st.integers(500, 1500), seed=st.integers(1, 10_000))
# The LTE wake-up case above (5 ms interval, 0.7 s window: still under 1%).
@example(rat="lte", ue_count=2, duration=0.7, warmup=0.0, app_start=0.0045,
         speed=0.0, mbps=2.0, size=1250, seed=1)
def test_run_invariants_over_random_small_configs(rat, ue_count, duration,
                                                  warmup, app_start, speed,
                                                  mbps, size, seed):
    # Rates of 5-8 Mb/s with packets of 500-1500 B keep the packet interval
    # (at most 2.4 ms, 1500 B at 5 Mb/s) within 1% of the measured window
    # (>= 0.25 s), so a window may hold at most 1% more CBR packets than
    # rate * window: throughput <= 1.01 * offered load.
    cfg = parse_config(
        f"preset=custom\nrats={rat}\nsweep_variable=speed_kmh\nsweep={speed!r}\n"
        f"ue_count={ue_count}\nduration_s={duration!r}\nwarmup_s={warmup!r}\n"
        f"drain_max_s=0.5\nreplications=1\nseed_base={seed}\n"
        f"traffic.app_start_s={app_start!r}\n"
        f"traffic.data_volume_mbps={mbps!r}\n"
        f"traffic.packet_size_bytes={size}\n")
    calls = {"pf_schedule": 0, "nr_slot_schedule": 0}
    picks = []
    with pytest.MonkeyPatch.context() as mp:
        _counting(mp, "pf_schedule", calls)
        _counting(mp, "nr_slot_schedule", calls, returns=picks)
        mp.setattr(runner, "_schedule", None)    # a replay would call neither
        result = run_single(cfg, rat, 0, 0)
    for flow in result.flows:
        assert flow.tx_packets == flow.rx_packets + flow.dropped_packets
    assert result.throughput_bps <= 1.01 * ue_count * mbps * 1e6
    if result.mean_delay_s is not None:
        assert result.mean_delay_s >= cfg.traffic.core_latency_ms * 1e-3
    used = {name for name, n in calls.items() if n}
    assert used == {"pf_schedule" if rat == "lte" else "nr_slot_schedule"}
    # The NR slot chain runs only while a packet waits, so every slot the
    # round robin schedules picks a UE.
    assert None not in picks


# Where the UEs start: at the 1 m inner edge of the corridor, or at the
# mmWave coverage edge (the default 200 m range), which is also the corridor's
# outer wall.
_EDGE_PLACEMENTS = ({"mobility.corridor_min_m": "1", "mobility.placement": "1"},
                    {"mobility.placement": "200"})


@st.composite
def _section_edges(draw):
    """Overrides that set each section rule to its accepted edge or to a
    typical value: the PF budget and window, the queue, the packet size,
    the corridor and placement, every SCS, the speed, and HARQ retries."""
    def pick(*values):
        return draw(st.sampled_from(values))
    size = pick(1, 1500)
    # A 1-byte packet every 2 ms; 1500-byte packets at 1 or 12 Mb/s.
    mbps = 0.004 if size == 1 else pick(1.0, 12.0)
    return {
        "ue_count": pick(1, 3),
        "sweep": pick(0.0, 200.0),
        "phy.lte.rb_count": pick(1, 25),
        "phy.lte.pf_window": pick(1, 100),
        "phy.lte.scs_khz": pick(*SUPPORTED_SCS_KHZ),
        "phy.nr.scs_khz": pick(*SUPPORTED_SCS_KHZ),
        "phy.lte.harq.max_retx": pick(0, 3),
        "phy.nr.harq.max_retx": pick(0, 3),
        "traffic.queue_capacity_pkts": pick(1, 100),
        "traffic.packet_size_bytes": size,
        "traffic.data_volume_mbps": mbps,
        **pick({}, *_EDGE_PLACEMENTS),
    }


_LOW_EDGES = {"ue_count": 3, "sweep": 200.0, "phy.lte.rb_count": 1,
              "phy.lte.pf_window": 1, "phy.lte.scs_khz": 120,
              "phy.nr.scs_khz": 15, "phy.lte.harq.max_retx": 0,
              "phy.nr.harq.max_retx": 0, "traffic.queue_capacity_pkts": 1,
              "traffic.packet_size_bytes": 1500,
              "traffic.data_volume_mbps": 12.0, **_EDGE_PLACEMENTS[0]}


@settings(max_examples=40, deadline=None)
@given(edges=_section_edges(), seed=st.integers(1, 10_000))
@example(edges=_LOW_EDGES, seed=1)
@example(edges={**_LOW_EDGES, "sweep": 0.0, "traffic.packet_size_bytes": 1,
                "traffic.data_volume_mbps": 0.004, **_EDGE_PLACEMENTS[1]},
         seed=1)
def test_configs_at_the_section_edges_run_on_both_rats(edges, seed):
    # The model functions trust their sections' checks: no config that
    # builds may reach a value they would once have rejected.
    cfg = parse_config(
        f"rats=lte,nr\nsweep_variable=speed_kmh\nduration_s=0.3\n"
        f"warmup_s=0.1\ndrain_max_s=0.1\nreplications=1\nseed_base={seed}\n",
        overrides={key: str(value) for key, value in edges.items()})
    for rat in ("lte", "nr"):
        result = run_single(cfg, rat, 0, 0)
        assert all(flow.conservation_holds() for flow in result.flows)
        assert sum(flow.tx_packets for flow in result.flows) > 0


# -- schedule reuse ----------------------------------------------------------

def _reuse_cfg(rat, ue_count=2, speeds=(0.0,), reps=5, seed=5, extra=None,
               **harq):
    """A short static or moving study of one or more speed points; *harq*
    sets keys of phy.<rat>.harq and *extra* any other keys."""
    return parse_config(
        f"preset=custom\nrats={rat}\nsweep_variable=speed_kmh\n"
        f"sweep={','.join(map(repr, speeds))}\nue_count={ue_count}\n"
        f"duration_s=0.5\nwarmup_s=0.1\ndrain_max_s=0.2\n"
        f"replications={reps}\nseed_base={seed}\n",
        overrides={**{f"phy.{rat}.harq.{key}": str(value)
                      for key, value in harq.items()}, **(extra or {})})


def _full_run(cfg, rat, rep, si=0):
    seed = derive_run_seed(cfg.seed_base, si, rep)
    return _Run(cfg, rat, cfg.sweep[si], rep, seed).execute()


# Every UE at the 200 m coverage edge under 20 dB shadowing: about one
# refresh in eight leaves the rate cap, so no two replications share a
# rate timeline.
_EDGE = {"mobility.placement": "uniform:170,200",
         "radio.nr.mmwave.sigma_db": "20"}


@settings(max_examples=40, deadline=None)
@given(rat=st.sampled_from(["lte", "nr"]), ue_count=st.integers(1, 6),
       speed=st.sampled_from([0.0, 30.0]), reps=st.integers(1, 4),
       # The default HARQ never retransmits here; at 37 dB some seeds do and
       # some do not; at 40 dB a retransmission is all but certain.  With no
       # retransmission a failed first attempt is one draw and a drop.
       harq=st.fixed_dictionaries({}, optional={
           "bler_threshold_db": st.sampled_from([37.0, 40.0]),
           "max_retx": st.just(0)}),
       seed=st.integers(1, 10_000))
# Replication 1 retransmits a measured packet over replication 0's schedule.
@example(rat="lte", ue_count=2, speed=0.0, reps=2,
         harq={"bler_threshold_db": 37.0}, seed=9)
# Replication 0 drops a measured packet on its one draw.
@example(rat="lte", ue_count=2, speed=0.0, reps=2,
         harq={"bler_threshold_db": 37.0, "max_retx": 0}, seed=17)
def test_replayed_replications_equal_full_runs(rat, ue_count, speed, reps,
                                               harq, seed):
    cfg = _reuse_cfg(rat, ue_count, (speed,), reps, seed, **harq)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "_schedule", None)
        results = [run_single(cfg, rat, 0, rep) for rep in range(reps)]
    for rep, result in enumerate(results):
        assert result == _full_run(cfg, rat, rep)


@settings(max_examples=40, deadline=None)
@given(rat=st.sampled_from(["lte", "nr"]), ue_count=st.integers(1, 6),
       speeds=st.lists(st.sampled_from([0.0, 15.0, 30.0, 45.0]), min_size=1,
                       max_size=3, unique=True),
       reps=st.integers(1, 4),
       harq=st.fixed_dictionaries({}, optional={
           "bler_threshold_db": st.sampled_from([37.0, 40.0]),
           "max_retx": st.just(0)}),
       sigma=st.sampled_from(["0", "5.8", "20"]), edge=st.booleans(),
       seed=st.integers(1, 10_000),
       # Full runs that run_scenario makes from an empty record; the
       # examples pin it, drawn cases leave it open.
       full_runs=st.none())
# NR at the default placement never leaves the rate cap: one full run, and
# every other replication and speed point reuses its schedule.
@example(rat="nr", ue_count=3, speeds=[0.0, 30.0, 45.0], reps=2, harq={},
         sigma="5.8", edge=False, seed=3, full_runs=1)
# LTE rates never leave the cap either, retransmissions or not.
@example(rat="lte", ue_count=2, speeds=[15.0, 45.0], reps=3,
         harq={"bler_threshold_db": 40.0}, sigma="5.8", edge=True, seed=7,
         full_runs=1)
# At the coverage edge under 20 dB shadowing every check fails: each of the
# six replications falls back to a full run.
@example(rat="nr", ue_count=4, speeds=[0.0, 15.0], reps=3, harq={},
         sigma="20", edge=True, seed=11, full_runs=6)
def test_reused_schedules_equal_full_runs(rat, ue_count, speeds, reps, harq,
                                          sigma, edge, seed, full_runs):
    # The run_single calls below start from the record that run_scenario
    # left, so even a point's first replication may reuse a schedule;
    # reused or not, each must equal its full run, ledgers included.
    extra = {"radio.nr.mmwave.sigma_db": sigma}
    if edge:
        extra["mobility.placement"] = _EDGE["mobility.placement"]
    cfg = _reuse_cfg(rat, ue_count, speeds, reps, seed, extra, **harq)
    points = range(len(speeds))
    fulls = {(si, rep): _full_run(cfg, rat, rep, si)
             for si in points for rep in range(reps)}
    executed = []
    execute = _Run.execute

    def counted(run):
        executed.append(run.rep_index)
        return execute(run)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Run, "execute", counted)
        mp.setattr(runner, "_schedule", None)
        rows = run_scenario(cfg)
        scenario_full_runs = len(executed)
        singles = {(si, rep): run_single(cfg, rat, si, rep)
                   for si in points for rep in range(reps)}
    assert singles == fulls
    assert rows == [
        aggregate_replications([fulls[si, rep] for rep in range(reps)],
                               seed_base=cfg.seed_base)
        for si in sorted(points, key=speeds.__getitem__)]
    if full_runs is not None:
        assert scenario_full_runs == full_runs


@pytest.fixture
def full_runs(monkeypatch):
    """Replication indices of the full runs executed."""
    calls = []
    execute = _Run.execute

    def counted(run):
        calls.append(run.rep_index)
        return execute(run)
    monkeypatch.setattr(_Run, "execute", counted)
    return calls


def _full_row(cfg, rat):
    return aggregate_replications(
        [_full_run(cfg, rat, rep) for rep in range(cfg.replications)],
        seed_base=cfg.seed_base)


def test_static_lte_point_runs_once_and_replays_the_rest(full_runs):
    cfg = _reuse_cfg("lte")
    [row] = run_scenario(cfg)
    assert full_runs == [0]
    assert row.replications == 5
    assert row.delay_stddev_s == 0.0


@pytest.mark.parametrize("rat, speed, harq", [
    ("nr", 45.0, {}),
    ("lte", 0.0, {"bler_threshold_db": 40}),
], ids=["nr", "lte-retransmitting"])
def test_points_that_draw_more_run_once_and_reuse_the_schedule(full_runs, rat,
                                                               speed, harq):
    # Shadowing, outage and HARQ draws differ between replications, but the
    # rates stay at the cap, so each replication redraws only its outcomes.
    cfg = _reuse_cfg(rat, speeds=(speed,), **harq)
    [row] = run_scenario(cfg)
    assert full_runs == [0]
    assert row.delay_stddev_s > 0.0
    assert row == _full_row(cfg, rat)


@pytest.mark.parametrize("rat, speed, harq", [
    ("nr", 45.0, {}),
    ("lte", 0.0, {"bler_threshold_db": 40}),
], ids=["nr", "lte-retransmitting"])
def test_a_reused_replication_touches_no_queue_and_calls_no_scheduler(
        monkeypatch, rat, speed, harq):
    # A reused replication draws its outcomes over the recorded grants: it
    # neither queues nor schedules anything, and it never runs in full.
    cfg = _reuse_cfg(rat, speeds=(speed,), **harq)
    expected = _full_run(cfg, rat, 1)
    run_single(cfg, rat, 0, 0)      # records the schedule
    calls = dict.fromkeys(("pop", "offer", "pf_schedule", "nr_slot_schedule"),
                          0)
    for name in calls:
        _counting(monkeypatch, name, calls,
                  FlowQueue if name in ("pop", "offer") else runner)

    def execute(run):
        raise AssertionError("a reused replication ran in full")
    monkeypatch.setattr(_Run, "execute", execute)
    assert run_single(cfg, rat, 0, 1) == expected
    assert calls == dict.fromkeys(calls, 0)


@pytest.mark.parametrize("rat, speed, harq", [
    ("nr", 45.0, {}),
    ("lte", 0.0, {"bler_threshold_db": 40}),
], ids=["nr", "lte-retransmitting"])
def test_a_reuse_that_fails_at_its_last_epoch_draws_no_outcome(
        monkeypatch, full_runs, rat, speed, harq):
    # The rates are checked at every epoch before any outcome is drawn, so
    # a mismatch at the very last epoch costs no HARQ or outage draw; the
    # replication then runs in full.
    cfg = _reuse_cfg(rat, speeds=(speed,), **harq)
    expected = _full_run(cfg, rat, 1)
    full_runs.clear()
    run_single(cfg, rat, 0, 0)      # records the schedule
    record = runner._schedule
    assert len(record.rates) > 2 and len(record.served) > 0
    record.rates[-1] = tuple(rate + 1.0 for rate in record.rates[-1])
    calls = {"harq_transmit": 0}
    _counting(monkeypatch, "harq_transmit", calls)
    outage_draws = []
    stream = runner.rng_stream

    def counted_stream(label, seed):
        rng = stream(label, seed)
        if label == "outage":
            draw = rng.random
            rng.random = lambda: outage_draws.append(seed) or draw()
        return rng
    monkeypatch.setattr(runner, "rng_stream", counted_stream)
    seed = derive_run_seed(cfg.seed_base, 0, 1)
    assert _Run(cfg, rat, speed, 1, seed).reuse(record) is None
    assert calls["harq_transmit"] == 0 and outage_draws == []
    assert run_single(cfg, rat, 0, 1) == expected
    assert full_runs == [0, 1]
    assert calls["harq_transmit"] > 0
    assert (len(outage_draws) > 0) == (rat == "nr")


def test_a_point_whose_rates_differ_runs_every_replication(full_runs):
    cfg = _reuse_cfg("nr", ue_count=4, extra=_EDGE)
    [row] = run_scenario(cfg)
    assert full_runs == [0, 1, 2, 3, 4]
    assert row == _full_row(cfg, "nr")


def test_a_zero_rate_link_reuses_when_only_its_snr_differs(full_runs,
                                                           monkeypatch):
    # The rates are all of the link state that the schedule reads.  UE 0's
    # link sits below the -5 dB SNR floor in both replications, at -30 dB
    # and then at -20 dB: its rate is 0 in both, so replication 1 reuses
    # replication 0's schedule, and matches its own full run.
    cfg = _reuse_cfg("nr", reps=2)
    r0 = cfg.mobility.radii(cfg.ue_count)[0]
    ue0_snr = [-30.0]
    snr = runner.snr_db

    def patched(radio, d, penalties_db=0.0, shadow_db=0.0):
        return ue0_snr[0] if d == r0 else snr(radio, d, penalties_db,
                                              shadow_db)
    monkeypatch.setattr(runner, "snr_db", patched)
    run_single(cfg, "nr", 0, 0)
    ue0_snr[0] = -20.0
    reused = run_single(cfg, "nr", 0, 1)
    assert full_runs == [0]
    assert reused.flows[0].rx_packets == 0
    assert reused == _full_run(cfg, "nr", 1)


def test_traced_replications_run_in_full(full_runs, tmp_path):
    cfg = _reuse_cfg("lte")
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    run_scenario(cfg, trace_dir=str(tmp_path / "a"))   # records nothing,
    run_single(cfg, "lte", 0, 1)                        # so this runs in full
    run_scenario(cfg, trace_dir=str(tmp_path / "b"))   # and reads nothing
    assert full_runs == [0, 1, 2, 3, 4, 1, 0, 1, 2, 3, 4]
    for sub in ("a", "b"):
        assert sorted(p.name for p in (tmp_path / sub).iterdir()) == [
            f"custom_lte_0_{rep}.trace" for rep in range(5)]


def test_a_replay_shares_no_state_with_returned_results(full_runs):
    cfg = _reuse_cfg("lte")
    for rep in range(2):
        result = run_single(cfg, "lte", 0, rep)
        result.throughput_bps = -1.0
        for flow in result.flows:
            flow.tx_packets += 7
            flow.drops_by_cause["queue_overflow"] = 99
        result.flows.append(result.flows[0])
    assert full_runs == [0]
    assert run_single(cfg, "lte", 0, 2) == _full_run(cfg, "lte", 2)


# -- the schedule record -----------------------------------------------------

def _record(schedule):
    return {name: getattr(schedule, name) for name in _Schedule.__slots__}


def _differing_columns(schedule, other):
    theirs = _record(other)
    return [name for name, column in _record(schedule).items()
            if column != theirs[name]]


@settings(max_examples=30, deadline=None)
@given(rat=st.sampled_from(["lte", "nr"]), ue_count=st.integers(1, 4),
       duration=st.floats(0.3, 0.8), warmup=st.floats(0.0, 0.1),
       speed=st.sampled_from([0.0, 30.0]), mbps=st.floats(2.0, 12.0),
       queue=st.integers(1, 20), seed=st.integers(1, 10_000))
def test_a_record_accounts_for_every_grant_and_epoch(rat, ue_count, duration,
                                                     warmup, speed, mbps,
                                                     queue, seed):
    cfg = parse_config(
        f"preset=custom\nrats={rat}\nsweep_variable=speed_kmh\nsweep={speed!r}\n"
        f"ue_count={ue_count}\nduration_s={duration!r}\nwarmup_s={warmup!r}\n"
        f"drain_max_s=0.2\nreplications=1\nseed_base={seed}\n"
        f"traffic.data_volume_mbps={mbps!r}\n"
        f"traffic.queue_capacity_pkts={queue}\n")
    run = _Run(cfg, rat, speed, 0, seed)
    result = run.execute()
    record = run.schedule
    grants = len(record.grant_ue)
    assert len(record.grant_end) == len(record.grant_n) == grants
    assert sum(record.grant_n) == len(record.served)
    ends = list(record.epoch_end)
    assert all(a <= b for a, b in zip(ends, ends[1:]))
    assert ends[-1] == grants
    assert (len(record.epoch_t) == len(record.rates) == len(run.links)
            == len(ends))
    window = sum(t >= warmup for t in cbr_emit_times(run.stream))
    assert record.created == window
    assert all(flow.tx_packets == window for flow in result.flows)
    # A packet is its seq: the record notes every instant's time once, and
    # each UE's served seqs are ints that strictly increase.
    emit = cbr_emit_times(run.stream)
    assert [t.hex() for t in record.instants] == [t.hex() for t in emit]
    assert all(type(seq) is int for seq in record.served)
    seqs = [[] for _ in range(ue_count)]
    at = 0
    for ue, n in zip(record.grant_ue, record.grant_n):
        seqs[ue] += record.served[at:at + n]
        at += n
    assert all(a < b for mine in seqs for a, b in zip(mine, mine[1:]))


def test_every_lte_grant_serves_a_packet():
    # At 45 km/h the mobility penalty leaves some LTE grants short of one
    # packet's worth of credit: 694 of this run's 3,322 scheduler grants
    # serve none, and the record keeps the other 2,628.
    cfg = parse_config("preset=scenario3\nrats=lte\nsweep=45\nduration_s=2\n")
    run = _Run(cfg, "lte", 45.0, 0, derive_run_seed(cfg.seed_base, 0, 0))
    run.execute()
    record = run.schedule
    assert len(record.grant_n) == 2_628 and 0 not in record.grant_n


@pytest.mark.parametrize("rat, bler_threshold_db", [
    ("lte", 43.0), ("nr", 50.0)], ids=["lte", "nr"])
def test_ledgers_ignore_packets_created_before_warmup(monkeypatch, rat,
                                                      bler_threshold_db):
    # 2 Mb/s of 1250 B packets is one per 5 ms, so grid instant 100 lands
    # exactly on the 0.5 s warm-up, and it is measured.  UE 0's link sits
    # below the SNR floor: its 3-packet queue fills before warm-up, rejects
    # every later packet and is written off at drain.  UEs 1 and 2 sit
    # near the BLER threshold with no retransmission, so HARQ drops packets
    # on both sides of warm-up.
    cfg = parse_config(
        f"preset=custom\nrats={rat}\nsweep_variable=speed_kmh\nsweep=0\n"
        "ue_count=3\nmobility.placement=60,100,100\nduration_s=1\n"
        "warmup_s=0.5\ndrain_max_s=0.1\nreplications=1\nseed_base=3\n"
        "traffic.data_volume_mbps=2\ntraffic.packet_size_bytes=1250\n"
        "traffic.queue_capacity_pkts=3\nradio.nr.mmwave.sigma_db=0\n"
        f"phy.{rat}.harq.max_retx=0\n"
        f"phy.{rat}.harq.bler_threshold_db={bler_threshold_db}\n")
    snr = runner.snr_db

    def patched(radio, d, penalties_db=0.0, shadow_db=0.0):
        return -30.0 if d == 60.0 else snr(radio, d, penalties_db, shadow_db)
    monkeypatch.setattr(runner, "snr_db", patched)
    calls = {"harq_transmit": 0}
    outcomes = []
    _counting(monkeypatch, "harq_transmit", calls, returns=outcomes)
    run = _Run(cfg, rat, 0.0, 0, seed=3)
    result = run.execute()
    emit = cbr_emit_times(run.stream)
    assert emit[99] < emit[100] == 0.5
    window = len(emit) - 100
    assert [list(queue) for queue in run.queues] == [[0, 1, 2], [], []]
    assert result.flows[0] == FlowStats(
        0, window, 0, 0.0, {DropCause.QUEUE_OVERFLOW.value: window})
    record = run.schedule
    grants = [(ue, end) for ue, end, n in zip(
        record.grant_ue, record.grant_end, record.grant_n) for _ in range(n)]
    assert len(outcomes) == len(record.served) == len(grants)
    for i in (1, 2):
        mine = [(record.instants[seq], end, outcome.delivered) for seq,
                (ue, end), outcome in zip(record.served, grants, outcomes)
                if ue == i]
        assert not all(ok for t, _, ok in mine if t < 0.5)
        measured = [(t, end, ok) for t, end, ok in mine if t >= 0.5]
        rx = sum(ok for _, _, ok in measured)
        assert len(measured) == window and 0 < rx < window
        flow = result.flows[i]
        assert (flow.tx_packets, flow.rx_packets) == (window, rx)
        assert flow.delay_sum_s == pytest.approx(sum(
            end + run.core_s - t for t, end, ok in measured if ok))
        assert flow.drops_by_cause == {
            DropCause.HARQ_EXHAUSTED.value: window - rx}
    assert _Run(cfg, rat, 0.0, 0, seed=3).reuse(record) == result


@pytest.mark.parametrize("rat", ["lte", "nr"])
def test_a_traced_run_records_what_an_untraced_one_does(rat):
    cfg = _reuse_cfg(rat, ue_count=3, speeds=(30.0,), extra=_EDGE)
    seed = derive_run_seed(cfg.seed_base, 0, 2)
    plain = _Run(cfg, rat, 30.0, 2, seed)
    traced = _Run(cfg, rat, 30.0, 2, seed, trace_sink=io.StringIO())
    assert plain.execute() == traced.execute()
    assert len(plain.schedule.served) > 0
    # Name the differing columns: a diff of whole columns is slow to print.
    assert _differing_columns(plain.schedule, traced.schedule) == []


@pytest.mark.parametrize("rat", ["lte", "nr"])
def test_a_record_that_reorders_a_flow_fails_the_sink_check(rat):
    # The outcome pass checks each delivery as a flow's sink would.  Swap
    # two packets of UE 0 in the record, the later one created before the
    # earlier one's slot ends: reusing the record delivers the later seq
    # first, in time, and then the earlier one.  At 20 Mb/s per UE packets
    # queue up on both RATs.
    cfg = _reuse_cfg(rat, ue_count=8,
                     extra={"traffic.data_volume_mbps": "20"})
    run = _Run(cfg, rat, 0.0, 0, derive_run_seed(cfg.seed_base, 0, 0))
    run.execute()
    record = run.schedule
    at, mine = 0, []    # UE 0's packets: (index in served, slot end)
    for ue, slot_end, n in zip(record.grant_ue, record.grant_end,
                               record.grant_n):
        if ue == 0:
            mine += [(k, slot_end) for k in range(at, at + n)]
        at += n
    served = record.served
    first, second = next((a, b) for (a, end), (b, _) in zip(mine, mine[1:])
                         if record.instants[served[b]] <= end)
    seq = served[first]
    served[first], served[second] = served[second], served[first]
    run = _Run(cfg, rat, 0.0, 1, derive_run_seed(cfg.seed_base, 0, 1))
    with pytest.raises(DuplicateDeliveryError,
                       match=f"flow 0 seq {seq} delivered after seq {seq + 1}"):
        run.reuse(record)


@pytest.mark.parametrize("rat", ["lte", "nr"])
def test_a_record_that_delivers_before_creation_fails_the_sink_check(rat):
    # Move one grant's slot end a second before its first packet's
    # creation: reusing the record delivers that packet before it exists.
    cfg = _reuse_cfg(rat)
    run = _Run(cfg, rat, 0.0, 0, derive_run_seed(cfg.seed_base, 0, 0))
    run.execute()
    record = run.schedule
    grant = len(record.grant_n) // 2
    while not record.grant_n[grant]:
        grant += 1
    seq = record.served[sum(record.grant_n[:grant])]
    record.grant_end[grant] = record.instants[seq] - 1.0
    run = _Run(cfg, rat, 0.0, 1, derive_run_seed(cfg.seed_base, 0, 1))
    with pytest.raises(ValueError, match=(
            f"flow {record.grant_ue[grant]} seq {seq} delivered at t=.* "
            "before its creation")):
        run.reuse(record)


@pytest.mark.parametrize("rat, bler_threshold_db", [("lte", 56.0),
                                                    ("nr", 51.5)])
def test_a_reorder_in_an_epoch_decided_per_packet_fails_the_sink_check(
        monkeypatch, rat, bler_threshold_db):
    # As above, but each threshold sits about 1 dB below UE 0's link SNR
    # (56.8 dB on LTE, 52.4 dB on NR): its first attempts fail about 30% of
    # the time, so no epoch is clean and the swapped pair goes packet by
    # packet, while its retries deliver it but for about 1 in 10^7.
    cfg = _reuse_cfg(rat, ue_count=8, extra={
        "traffic.data_volume_mbps": "20",
        f"phy.{rat}.harq.bler_threshold_db": str(bler_threshold_db)})
    run = _Run(cfg, rat, 0.0, 0, derive_run_seed(cfg.seed_base, 0, 0))
    run.execute()
    record = run.schedule
    at, mine = 0, []    # UE 0's packets: (index in served, slot end)
    for ue, slot_end, n in zip(record.grant_ue, record.grant_end,
                               record.grant_n):
        if ue == 0:
            mine += [(k, slot_end) for k in range(at, at + n)]
        at += n
    served = record.served
    first, second = next((a, b) for (a, end), (b, _) in zip(mine, mine[1:])
                         if record.instants[served[b]] <= end)
    seq = served[first]
    served[first], served[second] = served[second], served[first]
    verdicts = []
    _counting(monkeypatch, "first_draws_deliver", {"first_draws_deliver": 0},
              returns=verdicts)
    run = _Run(cfg, rat, 0.0, 1, derive_run_seed(cfg.seed_base, 0, 1))
    with pytest.raises(DuplicateDeliveryError,
                       match=f"flow 0 seq {seq} delivered after seq {seq + 1}"):
        run.reuse(record)
    # Every epoch up to the pair's was judged, and none was clean.
    packets = list(accumulate(record.grant_n))
    epoch = next(e for e, end in enumerate(record.epoch_end)
                 if end and packets[end - 1] > second)
    assert len(verdicts) == epoch + 1 and not any(verdicts)


# NR slots are 0.125 ms: a start on that grid puts every arrival of a CBR
# interval that is a multiple of it on a slot instant.
_ON_OR_OFF_THE_SLOT_GRID = st.one_of(
    st.integers(0, 80).map(lambda k: k * 0.000125),
    st.floats(0.0, 0.01, exclude_max=True))


def _small_cfg(rat, ue_count, mbps, size, duration, seed, app_start=0.0,
               queue=100, drain=0.05, extra=""):
    return parse_config(
        f"preset=custom\nrats={rat}\nsweep_variable=ue_count\n"
        f"sweep={ue_count}\nduration_s={duration!r}\nwarmup_s=0.01\n"
        f"drain_max_s={drain!r}\nreplications=1\nseed_base={seed}\n"
        f"traffic.app_start_s={app_start!r}\n"
        f"traffic.data_volume_mbps={mbps!r}\n"
        f"traffic.packet_size_bytes={size}\n"
        f"traffic.queue_capacity_pkts={queue}\n{extra}")


def _untraced_and_traced(cfg, rat):
    """Run *cfg* untraced and traced: per run its result, its schedule and
    its calls of the two schedulers and of ``_Run._slot``,
    ``_Run._arrival`` and ``_Run._replay``."""
    runs = []
    for trace in (None, io.StringIO()):
        calls = {"pf_schedule": 0, "nr_slot_schedule": 0, "_slot": 0,
                 "_arrival": 0, "_replay": 0}
        with pytest.MonkeyPatch.context() as mp:
            _counting(mp, "pf_schedule", calls)
            _counting(mp, "nr_slot_schedule", calls)
            for name in ("_slot", "_arrival", "_replay"):
                _counting(mp, name, calls, _Run)
            run = _Run(cfg, rat, cfg.sweep[0], 0, cfg.seed_base,
                       trace_sink=trace)
            runs.append((run.execute(), run.schedule, calls))
    return runs


@settings(max_examples=40, deadline=None)
@given(rat=st.sampled_from(["lte", "nr"]), ue_count=st.integers(1, 6),
       mbps=st.floats(0.5, 150.0), size=st.integers(100, 1500),
       queue=st.integers(1, 1000), app_start=_ON_OR_OFF_THE_SLOT_GRID,
       duration=st.floats(0.05, 0.2), seed=st.integers(1, 10_000))
# Arrivals every 0.125 ms, each on a slot instant: every burst meets one.
@example(rat="nr", ue_count=3, mbps=64.0, size=1000, queue=5,
         app_start=0.0, duration=0.05, seed=1)
def test_a_burst_of_slots_equals_one_event_per_slot(rat, ue_count, mbps,
                                                    size, queue, app_start,
                                                    duration, seed):
    # An untraced run serves back-to-back slots in one event, and replays
    # a repeating NR instant with no scheduler call; a traced run has one
    # event and one scheduler call per slot.  At the default PF window of
    # 100 subframes the PF averages take thousands of subframes to settle,
    # so a run this short never replays an LTE subframe: its untraced run
    # makes one PF call per slot too.
    cfg = _small_cfg(rat, ue_count, mbps, size, duration, seed, app_start,
                     queue)
    (plain, plain_record, bursts), (traced, traced_record, slots) = (
        _untraced_and_traced(cfg, rat))
    assert plain == traced
    # Name the differing columns: a diff of whole columns is slow to print.
    assert _differing_columns(plain_record, traced_record) == []
    assert bursts["pf_schedule"] == slots["pf_schedule"]
    assert bursts["nr_slot_schedule"] <= slots["nr_slot_schedule"]
    assert bursts["_slot"] <= slots["_slot"]
    assert slots["_slot"] == slots["pf_schedule"] + slots["nr_slot_schedule"]


def test_nr_instants_that_cannot_repeat_make_every_scheduler_call():
    # An arrival every 0.125 ms slot, while an instant's burst takes a slot
    # per UE: after the first, no arrival finds the slot chain asleep, so
    # none is replayed.
    cfg = _small_cfg("nr", 4, 64.0, 1000, 0.1, seed=1)
    (plain, _, bursts), (traced, _, slots) = _untraced_and_traced(cfg, "nr")
    assert plain == traced
    assert bursts["nr_slot_schedule"] == slots["nr_slot_schedule"] >= 800


def test_repeating_nr_instants_make_a_tenth_of_the_scheduler_calls():
    # 8 UEs at 8 Mb/s of 1250 B packets, as in the nr_flood benchmark: an
    # instant every 1.25 ms, served in 8 of its 10 slots.  Only about one
    # instant per 0.1 s refresh epoch, its first, runs the slot loop.  The
    # arrival chain serves each instant before the next queued event in
    # the same event, so arrival events are about as few, and one replay
    # call serves an event's run of repeating instants.
    cfg = _small_cfg("nr", 8, 8.0, 1250, 1.0, seed=1)
    (plain, _, bursts), (traced, _, slots) = _untraced_and_traced(cfg, "nr")
    assert plain == traced
    assert slots["nr_slot_schedule"] == 8 * 800
    assert 0 < bursts["nr_slot_schedule"] < slots["nr_slot_schedule"] / 10
    assert slots["_arrival"] == 800
    assert 0 < bursts["_arrival"] < slots["_arrival"] / 10
    assert 0 < bursts["_replay"] <= bursts["_arrival"]


# CBR traffic as (Mb/s, packet bytes): drawn freely, or with an interval
# that is an exact binary fraction, a multiple of 2^-13 s (1000 B at
# 8.192 Mb/s is 2^-10 s), or 1 to 16 NR slots of 0.125 ms (1000 B at
# 64 Mb/s is one slot, 8 of them an LTE subframe).  Refresh periods and
# application starts are also drawn on those two grids, so that arrivals,
# refreshes and slots tie often, exactly.
_TRAFFIC = st.one_of(
    st.tuples(st.floats(0.5, 40.0), st.integers(100, 1500)),
    st.tuples(st.integers(-2, 2).map(lambda k: 8.192 * 2.0 ** k),
              st.sampled_from([500, 1000, 1500])),
    st.tuples(st.integers(0, 4).map(lambda k: 64.0 / 2 ** k), st.just(1000)))


def _on_exact_grids(least, most):
    return st.one_of(
        st.integers(least, most).map(lambda m: m / 1024),
        st.integers(8 * least, 8 * most).map(lambda m: m * 0.000125))


@settings(max_examples=150, deadline=None)
@given(rat=st.sampled_from(["lte", "nr"]), ue_count=st.integers(1, 6),
       traffic=_TRAFFIC, queue=st.integers(1, 100),
       app_start=st.one_of(_ON_OR_OFF_THE_SLOT_GRID, _on_exact_grids(0, 16)),
       refresh=st.one_of(st.floats(0.001, 0.05), _on_exact_grids(1, 128)),
       duration=st.floats(0.05, 0.2), drain=st.sampled_from([0.0, 0.05]),
       edge=st.booleans(), ue0_snr=st.sampled_from([None, -30.0, -2.0]),
       seed=st.integers(1, 10_000))
# 4 UEs, an instant every 1 ms served in slots 0-3 of its 8: the refresh at
# 10.3 ms comes after the third slot of the 10 ms instant, whose burst would
# otherwise repeat the 9 ms one.
@example(rat="nr", ue_count=4, traffic=(8.0, 1000), queue=100, app_start=0.0,
         refresh=0.0103, duration=0.05, drain=0.05, edge=False, ue0_snr=None,
         seed=1)
# An instant every 0.5 ms, as long as its 4-slot burst: each replay starts
# on the slot after the last one served.
@example(rat="nr", ue_count=4, traffic=(16.0, 1000), queue=100, app_start=0.0,
         refresh=0.1, duration=0.05, drain=0.05, edge=False, ue0_snr=None,
         seed=1)
# UE 0's link sits below the SNR floor: its queue never empties, so no
# instant is clean.
@example(rat="nr", ue_count=3, traffic=(8.0, 1000), queue=100, app_start=0.0,
         refresh=0.1, duration=0.05, drain=0.05, edge=False, ue0_snr=-30.0,
         seed=1)
# At -2 dB UE 0 takes two slots per packet, so the first instant's burst
# leaves the round-robin pointer on UE 1, and the second instant's burst
# differs from it.
@example(rat="nr", ue_count=3, traffic=(8.0, 1000), queue=100, app_start=0.0,
         refresh=0.1, duration=0.05, drain=0.05, edge=False, ue0_snr=-2.0,
         seed=1)
# One UE, one slot per instant, from a start one slot in: instants 9, 13,
# 18, ... land an ulp after their slot's grid instant, so their slot starts
# at the arrival.
@example(rat="nr", ue_count=1, traffic=(8.0, 1000), queue=100,
         app_start=0.000125, refresh=0.1, duration=0.05, drain=0.05,
         edge=False, ue0_snr=None, seed=1)
# One UE, an instant every 0.1 ms: the 0.4 ms instant takes the slot at
# 0.5 ms, so the 0.5 ms instant waits for the slot at 0.625 ms, after the
# next arrival, and that slot carries both packets.
@example(rat="nr", ue_count=1, traffic=(8.0, 100), queue=100, app_start=0.0,
         refresh=0.1, duration=0.05, drain=0.05, edge=False, ue0_snr=None,
         seed=1)
# One UE at the coverage edge: its link falls below the SNR floor for the
# ninth refresh epoch, whose first instant opens as the one before it did,
# but in a new epoch.
@example(rat="nr", ue_count=1, traffic=(1.0, 100), queue=100,
         app_start=0.000125, refresh=0.0078125, duration=0.125, drain=0.0,
         edge=True, ue0_snr=None, seed=186)
# The LTE subframe chain stops after its last subframe in the window, at
# 50 ms, and the arrivals at 50.1-50.4 ms find it asleep with every queue
# empty.  PF's averages drift, so no LTE instant is replayed.
@example(rat="lte", ue_count=2, traffic=(8.0, 100), queue=100, app_start=0.0,
         refresh=0.1, duration=0.0505, drain=0.05, edge=False, ue0_snr=None,
         seed=1)
# 1000 B packets at 8.192 Mb/s: an instant every 2^-10 s, so every 8th one
# ties exactly with a 2^-7 s refresh, which was queued first and runs first.
@example(rat="nr", ue_count=4, traffic=(8.192, 1000), queue=100, app_start=0.0,
         refresh=0.0078125, duration=0.05, drain=0.05, edge=False,
         ue0_snr=None, seed=1)
# The 50 ms instant's burst would take slots to 50.375 ms, and the run
# stops at 50.3 ms: the slot loop leaves its last packet queued.
@example(rat="nr", ue_count=4, traffic=(8.0, 1000), queue=100, app_start=0.0,
         refresh=0.1, duration=0.0503, drain=0.0, edge=False, ue0_snr=None,
         seed=1)
# One LTE UE with an arrival every NR slot: eight arrivals per subframe,
# and the one on each subframe instant ties with that subframe's slot.
@example(rat="lte", ue_count=1, traffic=(64.0, 1000), queue=1, app_start=0.0,
         refresh=1 / 1024, duration=0.1875, drain=0.0, edge=False,
         ue0_snr=None, seed=1)
# Two NR UEs with an arrival every two slots and a refresh every 2^-10 s:
# every 2^-6 s, 125 slots, a busy slot ties with a refresh.
@example(rat="nr", ue_count=2, traffic=(32.0, 1000), queue=1, app_start=0.0,
         refresh=1 / 1024, duration=0.125, drain=0.0, edge=False,
         ue0_snr=None, seed=1)
# 4 UEs, an instant every 1 ms served in slots 0-3 of its 8: the refreshes
# at 23.7 and 47.4 ms come after one instant's burst and before the next
# instant, and end the event's run of replays there.
@example(rat="nr", ue_count=4, traffic=(8.0, 1000), queue=100, app_start=0.0,
         refresh=0.0237, duration=0.05, drain=0.05, edge=False, ue0_snr=None,
         seed=1)
# Two UEs, an instant every 0.2 ms, 1.6 slots: the 0.2 ms instant is
# replayed, and the 0.4 ms one's burst would take the slot at 0.625 ms,
# after the next arrival, so the same arrival event wakes the slot chain.
@example(rat="nr", ue_count=2, traffic=(40.0, 1000), queue=100, app_start=0.0,
         refresh=0.1, duration=0.05, drain=0.05, edge=False, ue0_snr=None,
         seed=1)
# 4 UEs from a start one slot in: inside one run of replays, instants 9,
# 13, 18, ... land an ulp after their slot's grid instant, so each one's
# first slot ends off the grid and its other three on it.
@example(rat="nr", ue_count=4, traffic=(8.0, 1000), queue=100,
         app_start=0.000125, refresh=0.1, duration=0.05, drain=0.05,
         edge=False, ue0_snr=None, seed=1)
def test_a_replaying_run_records_what_a_traced_one_does(rat, ue_count,
                                                        traffic, queue,
                                                        app_start, refresh,
                                                        duration, drain, edge,
                                                        ue0_snr, seed):
    # An untraced NR run replays each instant that repeats the one before
    # it; a traced run never does.  At a tie the queued event goes first:
    # an untraced run's chains stop strictly before the horizon, and a
    # traced run queues every instant.  Their records must match column by
    # column, and their results must be equal.  At the coverage edge under
    # 20 dB shadowing, rates change from one refresh epoch to the next;
    # *ue0_snr* pins UE 0's link.
    mbps, size = traffic
    extra = f"radio.nr.beam_refresh_s={refresh!r}\n"
    if edge:
        extra += "".join(f"{key}={value}\n" for key, value in _EDGE.items())
    cfg = _small_cfg(rat, ue_count, mbps, size, duration, seed, app_start,
                     queue, drain, extra)
    r0 = cfg.mobility.radii(ue_count)[0]
    snr = runner.snr_db

    def patched(radio, d, penalties_db=0.0, shadow_db=0.0):
        if ue0_snr is not None and d == r0:
            return ue0_snr
        return snr(radio, d, penalties_db, shadow_db)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "snr_db", patched)
        (plain, plain_record, _), (traced, traced_record, _) = (
            _untraced_and_traced(cfg, rat))
    assert plain == traced
    assert _differing_columns(plain_record, traced_record) == []


def _lte_runs_agree(cfg):
    """Run *cfg* on LTE untraced and traced, check that the two record the
    same, and return the untraced run's PF calls, the subframes served and
    the record."""
    (plain, plain_record, bursts), (traced, traced_record, slots) = (
        _untraced_and_traced(cfg, "lte"))
    assert plain == traced
    assert _differing_columns(plain_record, traced_record) == []
    # A traced run has one event, and one PF call, per subframe.
    assert slots["pf_schedule"] == slots["_slot"]
    assert bursts["pf_schedule"] <= slots["pf_schedule"]
    return bursts["pf_schedule"], slots["pf_schedule"], plain_record


# LTE cells whose PF state cycles within about a hundred subframes: a PF
# window of 2 subframes settles the averages after about 60 of them.
# Saturated cells take 675 B packets every 1 ms, 8 RBs' worth of bits per
# packet, so the carried credits cycle too.  Each case keeps its cycle or
# then breaks it in one way: (Mb/s, packet bytes, UEs, queue capacity,
# duration, drain window, further config lines).
_SATURATED = (5.4, 675, 4, 10)
_LTE_CYCLES = {
    "saturated": (*_SATURATED, 0.3, 0.05, ""),
    "idle subframes": (1.0, 1000, 2, 100, 0.3, 0.05, ""),
    # The arrivals stop at 0.2 s: the queues drain, and no later
    # subframe repeats the cycle.
    "app stop": (*_SATURATED, 0.3, 0.05, "traffic.app_stop_s=0.2\n"),
    # The queues drain after the measured window.
    "drain": (*_SATURATED, 0.2, 0.2, ""),
    # Moving UEs at the rate cap: every epoch's rates are a new tuple of
    # the same values, which keeps the cycle.
    "moving, capped": (*_SATURATED, 0.3, 0.05, "mobility.speed_kmh=30\n"),
    # Weak links at the corridor's end: the rates change with every
    # refresh, which drops the cycle, and the search starts again.
    "moving, rates change": (2.7, 675, 2, 100, 0.25, 0.05,
                             "mobility.speed_kmh=120\n"
                             "mobility.placement=uniform:170,200\n"
                             "radio.lte.tx_power_dbm=-4\n"),
    "queue of one": (5.4, 675, 3, 1, 0.3, 0.05, ""),
}


def _lte_cycle_cfg(case):
    mbps, size, ue_count, queue, duration, drain, extra = _LTE_CYCLES[case]
    return _small_cfg("lte", ue_count, mbps, size, duration, 1, queue=queue,
                      drain=drain, extra="phy.lte.pf_window=2\n" + extra)


@pytest.mark.parametrize("case", sorted(_LTE_CYCLES))
def test_an_lte_run_replays_a_cycle_of_scheduler_state(case):
    pf_calls, subframes, record = _lte_runs_agree(_lte_cycle_cfg(case))
    assert pf_calls < subframes
    assert (len(set(record.rates)) > 1) == (case == "moving, rates change")


def test_equal_rates_in_a_new_epoch_keep_the_cycle():
    # Rates are compared by value: the moving UEs' capped rates, a new
    # tuple at every refresh, schedule the subframes the static UEs' do.
    static, moving = (_lte_runs_agree(_lte_cycle_cfg(case))
                      for case in ("saturated", "moving, capped"))
    assert static[:2] == moving[:2]


def test_a_replay_that_misses_resumes_the_period():
    # Eight saturated UEs at 8 Mb/s: a subframe whose state misses its
    # snapshot breaks the replay, and a later one whose averages and credits
    # equal those the snapshot before it left takes the period up again.
    # Dropping the period at the first miss instead schedules every
    # subframe of this run.
    cfg = parse_config("preset=scenario2\nrats=lte\nsweep=8\nduration_s=3\n"
                       "warmup_s=0.5\ndrain_max_s=0.5\nphy.lte.pf_window=2")
    pf_calls, subframes, _ = _lte_runs_agree(cfg)
    assert pf_calls <= 0.75 * subframes


@settings(max_examples=60, deadline=None)
@given(ue_count=st.integers(1, 6), traffic=_TRAFFIC, queue=st.integers(1, 100),
       window=st.integers(1, 8), app_start=_ON_OR_OFF_THE_SLOT_GRID,
       app_for=st.one_of(st.none(), st.floats(0.02, 0.3)),
       duration=st.floats(0.1, 0.45), drain=st.sampled_from([0.0, 0.05]),
       speed=st.sampled_from([0.0, 30.0, 120.0]),
       tx_power=st.sampled_from([None, -4.0, 0.0]),
       seed=st.integers(1, 10_000))
# One UE with a queue of one and a PF window of 1, and a packet every
# 1.46 ms: the state repeats after 2 or 3 subframes while the arrivals do
# not, so some recorded periods do not close and are dropped, and replays
# break and resume by full state.  Its rates change at every refresh.
@example(ue_count=1, traffic=(8.192, 1500), queue=1, window=1, app_start=0.0,
         app_for=None, duration=0.25, drain=0.0, speed=120.0, tx_power=-4.0,
         seed=1)
def test_a_replaying_lte_run_records_what_a_traced_one_does(
        ue_count, traffic, queue, window, app_start, app_for, duration,
        drain, speed, tx_power, seed):
    # An untraced LTE run replays each subframe whose PF state repeats a
    # learned cycle's; a traced run never does.  With a *tx_power* the UEs
    # sit at the corridor's end, where a weak link leaves the rate cap, so
    # moving UEs change rate from one refresh epoch to the next.
    mbps, size = traffic
    extra = f"phy.lte.pf_window={window}\nmobility.speed_kmh={speed!r}\n"
    if app_for is not None:
        extra += f"traffic.app_stop_s={app_start + app_for!r}\n"
    if tx_power is not None:
        extra += ("mobility.placement=uniform:170,200\n"
                  f"radio.lte.tx_power_dbm={tx_power!r}\n")
    _lte_runs_agree(_small_cfg("lte", ue_count, mbps, size, duration, seed,
                               app_start, queue, drain, extra))
