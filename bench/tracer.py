"""Span tracing from outside the program: wrap sitelink's public callables.

Each wrapped boundary records, per (boundary, parent boundary), the call
count, the total time and the self time (total minus the time of wrapped
calls made inside it).  Everything stays in memory; the harness writes the
aggregate out once, after timing ends.  A few boundaries also feed counters
from their return values, so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter


def _harq(counters, outcome):
    counters["harq_attempts"] += outcome.attempts
    counters["harq_exhausted"] += not outcome.delivered


def _nr_pick(counters, pick):
    counters["nr_idle"] += pick is None


def _events(counters, processed):
    counters["events"] += processed


def _offer(counters, accepted):
    counters["offer_rejects"] += not accepted


class SpanTracer:
    """Aggregated spans keyed by (boundary, parent boundary)."""

    def __init__(self):
        self.spans: dict[tuple, list] = {}   # key -> [count, total_s, self_s]
        self.counters: Counter = Counter()
        self.samples: dict[str, list] = {}   # boundary -> per-call seconds
        self._stack: list[list] = []          # [boundary, child seconds]

    def wrap(self, owner, attr: str, name: str, observe=None,
             keep_samples: bool = False) -> None:
        original = getattr(owner, attr)
        stack = self._stack
        spans = self.spans
        counters = self.counters
        samples = self.samples.setdefault(name, []) if keep_samples else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if samples is not None:
                    samples.append(elapsed)
            if observe is not None:
                observe(counters, result)
            return result

        setattr(owner, attr, traced)

    def install(self, sitelink) -> None:
        """Wrap every boundary the benchmark reports, as the runner binds it."""
        runner = sitelink.runner
        sim, queue, sink = sitelink.Simulator, sitelink.FlowQueue, sitelink.Sink
        self.wrap(sitelink.config, "parse_config", "config.parse_config")
        self.wrap(runner, "run_scenario", "runner.run_scenario")
        self.wrap(runner, "run_single", "runner.run_single", keep_samples=True)
        self.wrap(runner, "aggregate_replications",
                  "metrics.aggregate_replications")
        self.wrap(sitelink.metrics, "export_csv", "metrics.export_csv")
        self.wrap(sim, "run", "engine.Simulator.run", _events)
        self.wrap(sim, "schedule", "engine.Simulator.schedule")
        self.wrap(runner, "pf_schedule", "phymac.pf_schedule")
        self.wrap(runner, "nr_slot_schedule", "phymac.nr_slot_schedule",
                  _nr_pick)
        self.wrap(runner, "harq_transmit", "phymac.harq_transmit", _harq)
        self.wrap(runner, "achievable_rate_bps", "phymac.achievable_rate_bps")
        self.wrap(runner, "snr_db", "channel.snr_db")
        self.wrap(runner, "position_at", "mobility.position_at")
        self.wrap(queue, "offer", "traffic.FlowQueue.offer", _offer)
        self.wrap(queue, "pop", "traffic.FlowQueue.pop")
        self.wrap(sink, "receive", "traffic.Sink.receive")

    def export(self) -> dict:
        return {
            "spans": [[name, parent, count, total, self_s]
                      for (name, parent), (count, total, self_s)
                      in self.spans.items()],
            "counters": dict(self.counters),
            "samples": self.samples,
        }
