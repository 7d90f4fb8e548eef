"""Flow statistics, replication averaging, and CSV export.

Each flow's ledger counts only the packets created after warm-up, and
throughput, loss rate and mean delay are computed over a run's ledgers;
replications of one sweep point are averaged arithmetically with the sample
std-dev of the delay retained.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

CSV_COLUMNS = (
    "scenario", "rat", "ue_count", "offered_mbps_per_ue", "speed_kmh",
    "replications", "throughput_mbps", "loss_rate", "mean_delay_ms",
    "delay_stddev_ms", "seed_base",
)


@dataclass
class FlowStats:
    """One flow's ledger over the measured window; loss and delay metrics
    derive from it.  The runner builds it once per run: the window's
    packets created, delivered, their delay sum, and the drops by cause
    (only causes that dropped a packet)."""

    flow_id: int
    tx_packets: int
    rx_packets: int
    delay_sum_s: float
    drops_by_cause: dict = field(default_factory=dict)

    @property
    def dropped_packets(self) -> int:
        return sum(self.drops_by_cause.values())

    def conservation_holds(self) -> bool:
        return self.tx_packets == self.rx_packets + self.dropped_packets


def finalize(flows: Iterable[FlowStats], duration_s: float, packet_bytes: int):
    """(throughput_bps, loss_rate, mean_delay_s or None) over drained flows.

    Throughput is the aggregate of all flows at *packet_bytes* per delivered
    packet; loss and delay are pooled over every packet of every flow.
    """
    tx = rx = 0
    delay_sum = 0.0
    for stats in flows:
        tx += stats.tx_packets
        rx += stats.rx_packets
        delay_sum += stats.delay_sum_s
    throughput = rx * packet_bytes * 8.0 / duration_s
    loss = 0.0 if tx == 0 else 1.0 - rx / tx
    delay = None if rx == 0 else delay_sum / rx
    return throughput, loss, delay


@dataclass
class RunResult:
    """Metrics of one run (or of averaged replications of one sweep point)."""

    scenario: str
    rat: str
    sweep_variable: str
    sweep_value: float
    ue_count: int
    offered_mbps_per_ue: float
    speed_kmh: Optional[float]
    throughput_bps: float
    loss_rate: float
    mean_delay_s: Optional[float]
    seed: int
    rep_index: Optional[int] = None
    replications: int = 1
    delay_stddev_s: Optional[float] = None
    flows: list[FlowStats] = field(default_factory=list)


def _mean(values: Sequence[float]) -> float:
    # Plain left-to-right sum: the order of the float additions is part of
    # the CSV bytes.
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def _sample_stddev(values: Sequence[float]) -> float:
    m = _mean(values)
    squares = 0.0
    for v in values:
        squares += (v - m) * (v - m)
    return math.sqrt(squares / (len(values) - 1))


def _sweep_key(r: RunResult):
    return (r.scenario, r.rat, r.sweep_variable, r.sweep_value,
            r.ue_count, r.offered_mbps_per_ue, r.speed_kmh)


def aggregate_replications(results: Sequence[RunResult],
                           seed_base: Optional[int] = None) -> RunResult:
    """Average replications of one sweep point; order of inputs is irrelevant."""
    if not results:
        raise ValueError("nothing to aggregate")
    keys = {_sweep_key(r) for r in results}
    if len(keys) > 1:
        raise ValueError(f"mixed sweep points in aggregation: {sorted(keys)}")
    ordered = sorted(results, key=lambda r: (r.rep_index if r.rep_index is not None else 0))
    first = ordered[0]
    throughput = _mean([r.throughput_bps for r in ordered])
    loss = _mean([r.loss_rate for r in ordered])
    delays = [r.mean_delay_s for r in ordered if r.mean_delay_s is not None]
    mean_delay = _mean(delays) if delays else None
    stddev = _sample_stddev(delays) if len(delays) >= 2 else None
    return RunResult(
        scenario=first.scenario, rat=first.rat,
        sweep_variable=first.sweep_variable, sweep_value=first.sweep_value,
        ue_count=first.ue_count, offered_mbps_per_ue=first.offered_mbps_per_ue,
        speed_kmh=first.speed_kmh, throughput_bps=throughput, loss_rate=loss,
        mean_delay_s=mean_delay,
        seed=seed_base if seed_base is not None else first.seed,
        replications=len(ordered), delay_stddev_s=stddev)


def sweep_label(value: Optional[float]) -> str:
    """Text of a dimension value in CSV cells and trace names: the shortest
    repr minus a trailing ".0", so 2.0 reads "2" and distinct values never
    share a label; -0.0, which equals 0.0, reads "0" too.  None, a dimension
    the study does not exercise, is ""."""
    if value is None:
        return ""
    text = repr(float(value) or 0.0)
    return text[:-2] if text.endswith(".0") else text


def _fmt(value, scale: float = 1.0) -> str:
    return "" if value is None else format(value * scale, ".6f")


def _start_distance(r: RunResult) -> Optional[float]:
    return r.sweep_value if r.sweep_variable == "start_distance" else None


def result_row(r: RunResult, distance_column: bool = False) -> list[str]:
    row = [r.scenario, r.rat, str(r.ue_count),
           sweep_label(r.offered_mbps_per_ue), sweep_label(r.speed_kmh),
           str(r.replications), _fmt(r.throughput_bps / 1e6),
           _fmt(r.loss_rate), _fmt(r.mean_delay_s, 1e3),
           _fmt(r.delay_stddev_s, 1e3), str(r.seed)]
    if distance_column:
        row.append(sweep_label(_start_distance(r)))
    return row


def export_csv(results: Iterable[RunResult], path: str) -> None:
    """Write one row per (sweep point, rat), ordered by (rat, sweep value).

    A start-distance study gets one trailing column, ``start_distance_m``.
    """
    rows = sorted(results, key=lambda r: (r.rat, r.sweep_value))
    if not rows:
        raise ValueError("no results to export")
    distance_column = any(_start_distance(r) is not None for r in rows)
    columns = CSV_COLUMNS + (("start_distance_m",) if distance_column else ())
    try:
        out = open(path, "w", newline="")
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc
    with out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow(result_row(r, distance_column))
