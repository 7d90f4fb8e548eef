"""The benchmark's workloads and how each one runs through sitelink's public API.

Only host time, memory and failures can tell two versions of sitelink apart:
the simulated outputs are deterministic.  Each workload therefore runs a
fixed study, and its output digest is pinned at DEFAULT_SEED so that a
change which alters behaviour shows up as a failed repetition.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from time import perf_counter

DEFAULT_SEED = 1


class OutputError(AssertionError):
    """A workload produced output that cannot be right, whatever the seed."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # sitelink config text without seed_base; the benchmark seed is appended.
    config: str
    # True: the whole sweep through run_scenario plus export_csv, digesting
    # the CSV.  False: one run_single per replication, digesting the
    # per-run (throughput, loss, delay) results.
    study: bool
    # Pool size for run_scenario in untraced repetitions.
    workers: int
    # Output digest at DEFAULT_SEED.
    pin: str

    def config_text(self, seed: int) -> str:
        return f"{self.config}seed_base={seed}\n"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="lte_crowd",
        why="saturated LTE cell, 20 static UEs: pf_schedule every 1 ms and "
            "drop-tail rejects on most offers; no NR slots",
        config="preset=scenario1\nrats=lte\nsweep=20\nreplications=2\n",
        study=False, workers=1,
        pin="37053bf9fe9c533301d07c9f7374e30b4595b961f6c871a36787ee5d392b083a"),
    Workload(
        name="nr_flood",
        why="8 static UEs at 8 Mb/s on NR: highest event rate and largest "
            "Sink, first-attempt HARQ, no PF calls and no queue rejects",
        config="preset=scenario2\nrats=nr\nsweep=8\nreplications=1\n",
        study=False, workers=1,
        pin="9f1a7eccf6adfe901b3b6fb9e4c6c8690e6eab8be417322f808d81cf7b2891d5"),
    Workload(
        name="speed_sweep",
        why="whole scenario3 speed sweep on both RATs through a 2-worker "
            "pool plus CSV export: mobility, outage, HARQ retries",
        config="preset=scenario3\nrats=lte,nr\nreplications=1\nduration_s=5\n",
        study=True, workers=2,
        pin="4085e609e44036303b1ca999bd7561062efa29ebe92eedb2b41813952aed9178"),
)}


def _packets_simulated(sitelink, cfg, results) -> int:
    """CBR packets the results' runs created, warm-up included."""
    tr = cfg.traffic
    per_ue = {}
    total = 0
    for r in results:
        rate = r.offered_mbps_per_ue
        if rate not in per_ue:
            stream = sitelink.VideoStream(
                0, rate * 1e6, tr.packet_size_bytes, tr.app_start_s,
                cfg.app_stop_effective_s())
            per_ue[rate] = len(sitelink.cbr_emit_times(stream))
        total += r.ue_count * r.replications * per_ue[rate]
    return total


def _check_plausible(cfg, results) -> None:
    core_s = cfg.traffic.core_latency_ms * 1e-3
    for r in results:
        offered_bps = r.ue_count * r.offered_mbps_per_ue * 1e6
        if not 0.0 <= r.loss_rate <= 1.0:
            raise OutputError(f"{r.rat} {r.sweep_value:g}: loss {r.loss_rate}")
        if not 0.0 <= r.throughput_bps <= 1.01 * offered_bps:
            raise OutputError(f"{r.rat} {r.sweep_value:g}: throughput "
                              f"{r.throughput_bps} over offered {offered_bps}")
        if r.mean_delay_s is not None and r.mean_delay_s < core_s:
            raise OutputError(f"{r.rat} {r.sweep_value:g}: delay "
                              f"{r.mean_delay_s} below core latency")


def _summary(results) -> dict:
    """Mean simulated throughput, loss and delay per RAT (model outputs)."""
    out = {}
    for rat in sorted({r.rat for r in results}):
        rows = [r for r in results if r.rat == rat]
        delays = [r.mean_delay_s for r in rows if r.mean_delay_s is not None]
        out[rat] = {
            "throughput_mbps": sum(r.throughput_bps for r in rows) / len(rows) / 1e6,
            "loss_rate": sum(r.loss_rate for r in rows) / len(rows),
            "mean_delay_ms": (sum(delays) / len(delays) * 1e3) if delays else None,
        }
    return out


def execute(w: Workload, sitelink, cfg, workers: int, out_dir: str) -> dict:
    """Run the workload once; returns timings, digest and model outputs.

    Calls go through module attributes (``sitelink.runner.run_single`` and
    so on) so that the traced run's wrappers see them.
    """
    runner = sitelink.runner
    t_start = perf_counter()
    if w.study:
        sim_start = perf_counter()
        results = runner.run_scenario(cfg, workers=workers)
        sim_s = perf_counter() - sim_start
        path = os.path.join(out_dir, f"{w.name}-{os.getpid()}.csv")
        sitelink.metrics.export_csv(results, path)
        wall_s = perf_counter() - t_start
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        os.remove(path)
    else:
        results = []
        sim_s = 0.0
        for rat in cfg.rats:
            for rep in range(cfg.replications):
                sim_start = perf_counter()
                results.append(runner.run_single(cfg, rat, 0, rep))
                sim_s += perf_counter() - sim_start
        wall_s = perf_counter() - t_start
        lines = [f"{r.rat},{r.sweep_value!r},{r.rep_index},"
                 f"{r.throughput_bps!r},{r.loss_rate!r},{r.mean_delay_s!r}"
                 for r in results]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    _check_plausible(cfg, results)
    return {
        "wall_s": wall_s,
        "sim_s": sim_s,
        "packets": _packets_simulated(sitelink, cfg, results),
        "digest": digest,
        "model_outputs": _summary(results),
    }
