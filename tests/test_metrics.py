"""Flow finalisation, replication averaging, and CSV export."""

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sitelink.metrics import (CSV_COLUMNS, FlowStats, RunResult,
                              aggregate_replications, export_csv, finalize)
from sitelink.traffic import DropCause


OVERFLOW = DropCause.QUEUE_OVERFLOW.value


def test_finalize_lossless_cbr_flow():
    # 200 pkt/s of 1250 B over 10 s, all delivered -> 2.0 Mb/s, zero loss.
    stats = FlowStats(0, 2000, 2000, 2000 * 0.01)
    throughput, loss, delay = finalize([stats], 10.0, 1250)
    assert throughput == 2_000_000.0
    assert loss == 0.0
    assert delay == pytest.approx(0.01)


def test_finalize_overload_loss_rate():
    stats = FlowStats(0, 1000, 425, 425 * 0.02, {OVERFLOW: 575})
    _, loss, _ = finalize([stats], 10.0, 1250)
    assert loss == pytest.approx(0.575)
    assert stats.conservation_holds()


def test_finalize_degenerate_flow_reports_absent_delay():
    stats = FlowStats(0, 10, 0, 0.0, {DropCause.OUT_OF_COVERAGE.value: 10})
    throughput, loss, delay = finalize([stats], 5.0, 1250)
    assert throughput == 0.0
    assert loss == 1.0
    assert delay is None


def test_loss_plus_delivery_fraction_is_one():
    stats = FlowStats(0, 168, 123, 123 * 0.01,
                      {DropCause.HARQ_EXHAUSTED.value: 45})
    _, loss, _ = finalize([stats], 1.0, 1250)
    assert loss + stats.rx_packets / stats.tx_packets == pytest.approx(1.0, abs=1e-15)


def test_finalize_pools_packets_over_flows():
    fast = FlowStats(0, 300, 300, 300 * 0.01)
    slow = FlowStats(1, 200, 100, 100 * 0.05, {OVERFLOW: 100})
    throughput, loss, delay = finalize([fast, slow], 2.0, 1250)
    assert throughput == 400 * 1250 * 8.0 / 2.0
    assert finalize([fast, slow], 2.0, 1)[0] == 400 * 8.0 / 2.0
    assert loss == pytest.approx(100 / 500)
    assert delay == pytest.approx((300 * 0.01 + 100 * 0.05) / 400)
    assert finalize([], 1.0, 1250) == (0.0, 0.0, None)


def _result(rep: int, thr: float, loss: float = 0.0, delay=0.002,
            sweep_value: float = 8.0) -> RunResult:
    return RunResult(scenario="scenario1", rat="lte", sweep_variable="ue_count",
                     sweep_value=sweep_value, ue_count=int(sweep_value),
                     offered_mbps_per_ue=2.0, speed_kmh=None,
                     throughput_bps=thr, loss_rate=loss, mean_delay_s=delay,
                     seed=rep + 1, rep_index=rep)


def test_aggregate_identical_replications():
    agg = aggregate_replications([_result(0, 16e6), _result(1, 16e6)])
    assert agg.throughput_bps == 16e6
    assert agg.delay_stddev_s == 0.0
    assert agg.replications == 2


def test_aggregate_mean_of_two_throughputs():
    agg = aggregate_replications([_result(0, 16e6), _result(1, 18e6)])
    assert agg.throughput_bps == pytest.approx(17e6)


@st.composite
def _replications_in_any_order(draw):
    n = draw(st.integers(1, 7))
    thr = draw(st.lists(st.floats(0.0, 5e7), min_size=n, max_size=n))
    delays = draw(st.lists(st.none() | st.floats(1e-4, 1.0),
                           min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    reps = [_result(i, thr[i], delay=delays[i]) for i in range(n)]
    return reps, [reps[i] for i in order]


@settings(max_examples=200, deadline=None)
@given(_replications_in_any_order())
def test_aggregate_is_permutation_invariant_bit_exact(case):
    # Some replications deliver nothing (delay None); the order the results
    # arrive in must not change a single bit of the aggregate.
    reps, shuffled = case
    assert aggregate_replications(shuffled) == aggregate_replications(reps)


@pytest.mark.parametrize("n", range(2, 8))
def test_aggregate_matches_numpy_bit_for_bit_below_eight_replications(n):
    # The CSV bytes were first produced with numpy's mean and std(ddof=1);
    # below 8 values numpy sums left to right, as aggregation does now.
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(n)
    for _ in range(200):
        thr = rng.uniform(0.0, 5e7, n).tolist()
        delays = (rng.uniform(0.0, 1.0, n) * rng.uniform(1e-4, 1.0)).tolist()
        agg = aggregate_replications(
            [_result(i, thr[i], delay=delays[i]) for i in range(n)])
        assert agg.throughput_bps == float(np.mean(thr))
        assert agg.mean_delay_s == float(np.mean(delays))
        assert agg.delay_stddev_s == float(np.std(delays, ddof=1))


def test_aggregate_rejects_mixed_sweep_points():
    with pytest.raises(ValueError, match="mixed sweep"):
        aggregate_replications([_result(0, 1e6), _result(1, 1e6, sweep_value=10.0)])


def test_aggregate_single_replication_keeps_value_without_stddev():
    agg = aggregate_replications([_result(0, 5e6)])
    assert agg.replications == 1
    assert agg.delay_stddev_s is None


def test_export_csv_rows_columns_and_order(tmp_path):
    results = []
    for rat in ("nr", "lte"):
        for sweep in (4.0, 2.0):
            results.append(RunResult(
                scenario="scenario1", rat=rat, sweep_variable="ue_count",
                sweep_value=sweep, ue_count=int(sweep), offered_mbps_per_ue=2.0,
                speed_kmh=None, throughput_bps=sweep * 2e6, loss_rate=0.0,
                mean_delay_s=0.0025, seed=1, replications=5,
                delay_stddev_s=0.0001))
    path = tmp_path / "out.csv"
    export_csv(results, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert [(r[1], r[2]) for r in rows[1:]] == [
        ("lte", "2"), ("lte", "4"), ("nr", "2"), ("nr", "4")]
    lte2 = rows[1]
    assert lte2[3] == "2"            # offered per UE
    assert lte2[4] == ""             # static scenario: speed dimension empty
    assert lte2[6] == "4.000000"     # throughput in Mb/s
    assert lte2[8] == "2.500000"     # delay in ms
    assert lte2[10] == "1"


def test_export_csv_empty_results_error_and_no_file(tmp_path):
    path = tmp_path / "never.csv"
    with pytest.raises(ValueError):
        export_csv([], str(path))
    assert not path.exists()


def test_export_csv_unwritable_path_reports_context(tmp_path):
    results = [_result(0, 1e6)]
    with pytest.raises(OSError, match="cannot write results"):
        export_csv(results, str(tmp_path / "no" / "such" / "dir.csv"))
