"""Sweep orchestration: build one cell per run, replicate, aggregate, export.

Each run owns a fresh :class:`~sitelink.engine.Simulator` plus named RNG
substreams, so a run is a pure function of (config, rat, sweep point, seed)
and sweep points may execute in parallel worker processes without changing
any output byte.

Three event chains drive a run: channel refresh, CBR arrivals and slots.
Each handler takes its event's time and returns its chain's next instant,
or None to end the chain; only the construction (the three starts) and
``_wake_slots`` (a sleeping slot chain) schedule events.  A chain serves
its own next instants strictly before the run's horizon, the next queued
event, and the engine queues every successor: one slot event serves a
burst of slots, one scheduler call each, and an arrival event each CBR
instant up to the horizon; an NR arrival may replay slots under the same
rule, and an LTE subframe may replay a learned one (see below).  A traced
run's horizon is -inf and it learns nothing (the traced-run rule, in
``_Run.__init__``).

Repeating NR instants
---------------------
An NR instant is *clean* when its arrival finds every queue empty and the
slot chain asleep.  Two clean instants in one refresh epoch with the same
round-robin pointer open in the same state, up to the seq, so the slot
loop would make the same grants at both.  ``_Run._replay`` notes the
earlier instant's grants again for the later one, with each slot end
recomputed from its slot index, and so on for every next grid instant
before the horizon, all in one call that writes the record once: a replay
calls no scheduler and offers no packet, and a refresh is a queued event,
so each of those instants is clean with the same pointer in the same
epoch.  An instant is replayed only if every slot it takes comes strictly
before the horizon and its next arrival and not past the drain window; the
first that does not fit takes the offer path and wakes the slot chain, so
the round-robin and credit rules stay in ``_slot`` alone.

Repeating LTE subframes
-----------------------
What ``pf_schedule`` and the pop loop read of an LTE subframe, besides the
epoch's rates, is its *state*: the PF averages, every UE's queue length and
every UE's carried credit.  Two subframes in the same state, under rates of
equal value, make the same grants (UE, packet count) and leave the same
averages and credits; which seqs the pops take does not matter, and arrival
and refresh events stay live, so no time is compared.  Under periodic
arrivals the averages converge and the state cycles exactly (with a window
of 100 subframes after about 3,650 of them).  ``_PfCycle`` finds the period
by Brent's method: a copy of the state at every power-of-two distance, up
to ``PF_PERIOD_MAX``, and one early-exit compare per subframe.  On a match
at lag p it records the next p subframes as the scheduler makes them (per
subframe its queue lengths, grants and the averages and credits left), and
keeps them if the last one leaves the state the first started from.  From
then on the k-th subframe served after the recording tries snapshot k mod
p: it is replayed, with real pops, if its queue lengths equal the
snapshot's and either the subframe before it replayed the snapshot before,
or its averages and credits equal those that snapshot left.  Any other
subframe goes to ``pf_schedule``.  Rates of a new value drop the period
(``_Run._open_epoch``), and the search starts again.

A run's state is numbers.  A UE is its index into the run's per-UE columns
(queue, carried credit, start radius) and into each refresh epoch's notes
(rates, first-attempt failure probabilities and SNRs), which
``_Run._open_epoch``, the one link-state function, writes.  Every UE shares
the run's speed and shadowing spread, so static links are a fact of the
run, computed at epoch 0 and noted again.
A packet is its seq, the index of its instant on the cell's one CBR grid,
whose time the schedule notes once per instant.

Schedule pass, then outcome pass
--------------------------------
A run has two parts.  Its *schedule* is which packets each grant serves, in
which slot and in which channel-refresh epoch, with each epoch's rates:
``_Run._slot`` pops and charges each grant's packets and notes them in the
run's ``_Schedule``.  Its *outcomes* are the ``outage`` draw per NR grant
and the ``harq`` draw per served packet, with each packet's delivery or
drop.  Nothing flows back from the outcomes to the schedule, so every run
first simulates its schedule (arrivals, queues, schedulers, shadowing) and
then draws all its outcomes in one pass, ``_Run._outcomes``, in grant order
and at each grant's epoch link state.  Each random stream sees the draws a
single interleaved pass would make, in the same order.

The outcome pass decides a refresh epoch at a time.  It takes the epoch's
outage draws, one per NR grant, and its packets' first HARQ draws, one per
packet, ahead, each stream through a C iterator over its own ``random``,
which draws exactly the values taken.  The epoch is *clean* when no outage
draw falls below ``p_out`` and no HARQ draw below the largest first-attempt
failure probability among the epoch's served UEs: then ``harq_transmit``
would deliver every packet at its first draw, which is all it would draw,
and the epoch's deliveries are found without a call per packet.  Any other
epoch goes, whole, to the per-packet loop, which reads the outage draws
taken and a view of the HARQ stream that yields the draws taken and then
the rest; after an outage, no HARQ draw is taken ahead.  Every packet takes
at least one draw, so each stream ends where a per-packet pass leaves it.
That loop alone builds HARQ tables, each at its first use in the epoch; it
counts the lost packets and lists the deliveries.  One loop then applies
the delivery rule to either kind of epoch's deliveries: slot end plus HARQ
delay plus core latency, the sink check and the window sums.  A finer
fallback, bulk up to the first packet that is not a first-attempt delivery,
measured slower on the scenario3 NR speed sweep and no faster on an 8-UE NR
flood.  The bulk path restates phymac's own ``harq_transmit``, so a run
whose module binds another callable there, such as a tracing wrapper or a
test spy, hands that callable every packet, each grant's outage drawn just
before its packets, as in one interleaved pass.

An untraced full run's schedule becomes the process's record.  A later
run whose schedule key matches the record's (RAT, UE count, traffic
without the core latency, duration, warm-up and drain windows, the
scheduler's slot, RB count and PF window, and the refresh period) skips
the schedule pass: it recomputes its link state at every recorded refresh
epoch, every UE's rate (from its position, its own shadowing draw in UE
order, and SNR).  Equal rates mean equal schedules.
On the first mismatch the run is dropped, before it draws any outcome, and
runs in full from fresh streams.  If every rate equals the record's, the
outcome pass runs over the record, exactly as it runs after a schedule
pass, reading each packet's creation time from the record's instants: the
key pins the traffic grid, so they are this run's own.  What the key leaves
out (mobility, radio, link adaptation, HARQ, core latency, speed) reaches
the schedule only through the rates, which the check compares, or touches
only the outcomes.  A traced run neither reads nor writes the record, so
``--trace`` writes one full trace per replication.

Model notes
-----------
* The serving rate of a UE comes from the slow link state (path loss,
  shadowing, deterministic LTE mobility ramp).  The mmWave beam-tracking
  outage is drawn per served slot and applies only to the HARQ error
  process: the transmitter keeps pushing at its selected rate and the slot's
  transmissions are lost, which is what imperfect beam tracking does.
* Every UE stays inside its corridor, and a config that runs NR keeps the
  corridor inside the mmWave range, so no run meets a dead link (SNR -inf):
  a rate of 0 only means a live link below the SNR floor, which is never
  served.
* Only the measured window counts.  The run's construction is the one
  place that compares a time with the warm-up instant: the grid's instants
  never decrease, so the window's packets are exactly the seqs from the
  record's ``first_seq`` on, which is how a full queue's rejects, the drain
  write-off and the outcome pass tell them apart.
* Packets are accounted at their computed delivery time the moment they are
  served; queued residue after the drain phase is written off as
  out-of-coverage loss.  The outcome pass builds each flow's ledger once,
  from these tallies and its own sums, and checks that per-flow
  conservation is exact.
"""

from __future__ import annotations

import dataclasses
import math
import os
from array import array
from itertools import chain, islice, repeat, starmap, takewhile
from operator import mul
from types import SimpleNamespace
from typing import Optional

from .channel import nr_outage_probability, snr_db
from .config import LTE_REFRESH_S, ScenarioConfig, render_config
from .engine import Simulator, rng_stream
from .metrics import (FlowStats, RunResult, aggregate_replications, finalize,
                      sweep_label)
from .mobility import position_at
from .phymac import (PfState, RrState, achievable_rate_bps,
                     first_draws_deliver, harq_transmit, nr_slot_schedule,
                     pf_schedule)
from .traffic import DropCause, FlowQueue, Sink, VideoStream, cbr_grid

# The attempt rule whose first draw the outcome pass may decide in bulk.
_PHYMAC_TRANSMIT = harq_transmit

# Sweep points sit this far apart in seed space; within a sweep point the
# replication seeds are seed_base + replication index.
SWEEP_SEED_STRIDE = 1_000_003

# The longest period of PF scheduler state an LTE run learns (see the module
# notes).  A learned period keeps one snapshot per subframe, about 1.4 KB at
# 20 UEs, so a run holds at most about 3 MB of them.
PF_PERIOD_MAX = 2048


class SimulationError(RuntimeError):
    """A run violated an internal invariant (e.g. packet conservation)."""


def derive_run_seed(seed_base: int, sweep_index: int, rep_index: int) -> int:
    return seed_base + rep_index + SWEEP_SEED_STRIDE * sweep_index


class _Schedule:
    """One run's schedule (see the module notes).

    Per CBR instant: its time, so a packet is its seq, the instant's grid
    index (one grid drives every flow).  Per refresh epoch, in columns: its
    instant, every UE's rate and the grant offset where the epoch ends.
    The rates are all of the link state that the schedule reads: the
    corridor rule keeps every link live, so no dead flag is kept.  Per
    grant: the UE, the slot end and the number of packets served; the
    served seqs sit in one list, in grant order.  An LTE grant serves at
    least one packet; an NR grant may serve none, as it draws its outage
    either way.  The small-int columns are lists, which append fastest; the
    times sit in float arrays, which keep no float object alive.  Per run:
    the packets each flow created in the measured window, the seq of the
    window's first packet and, per UE, the window packets that no outcome
    decides: those its full queue rejected (``overflow``) and those left
    queued at drain time (``stranded``).
    """

    __slots__ = ("key", "instants", "epoch_t", "epoch_end", "rates",
                 "grant_ue", "grant_end", "grant_n", "served", "created",
                 "first_seq", "overflow", "stranded")

    def __init__(self, key: tuple, n_ues: int):
        self.key = key
        self.instants = array("d")
        self.epoch_t = array("d")
        self.epoch_end = array("l")
        self.rates: list[tuple[float, ...]] = []
        self.grant_ue: list[int] = []
        self.grant_end = array("d")
        self.grant_n: list[int] = []
        self.served: list[int] = []
        self.created = 0
        self.first_seq = 0
        self.overflow = [0] * n_ues
        self.stranded = [0] * n_ues


class _PfCycle:
    """An untraced LTE run's search for a cycle of PF scheduler state, and
    the period it found (see the module notes).  *avg* and *credits* are the
    run's PF averages and carried credits, which a replay sets."""

    def __init__(self, avg: list[float], credits: list[float]):
        self.avg, self.credits = avg, credits
        self.forget()

    def forget(self) -> None:
        """Drop the period, if any, and search afresh."""
        self.mark: Optional[tuple] = None   # the checkpoint state
        self.lag = self.power = 1
        self.length = 0     # the period's, once found
        # Per subframe of the period: its queue lengths, its grants (UE,
        # packets) and the averages and credits it leaves.
        self.period: list[tuple] = []
        self.next = 0       # the snapshot the next subframe tries
        self.chained = False    # the last subframe replayed the one before

    def take(self, lens: list[int]) -> Optional[list[tuple[int, int]]]:
        """The grants of the subframe whose queue lengths are *lens* if its
        state is a snapshot's, which then sets the averages and credits it
        leaves; None if the subframe is to be scheduled."""
        avg, credits, period = self.avg, self.credits, self.period
        if not self.length:     # Brent's search
            if self.mark == (lens, avg, credits):
                self.length = self.lag
            elif self.lag == self.power:
                self.mark = (lens, avg[:], credits[:])
                self.lag, self.power = 0, min(2 * self.power, PF_PERIOD_MAX)
            self.lag += 1
            return None
        if len(period) < self.length:   # recording
            return None
        s = self.next
        self.next = s + 1 if s + 1 < self.length else 0
        pre_lens, counts, post_avg, post_credits = period[s]
        if lens == pre_lens and (self.chained or (
                avg == period[s - 1][2] and credits == period[s - 1][3])):
            avg[:], credits[:] = post_avg, post_credits
            self.chained = True
            return counts
        self.chained = False
        return None

    def note(self, lens: list[int], counts: list[tuple[int, int]]) -> None:
        """Record a scheduled subframe while the period is being recorded:
        its queue lengths *lens* and grants *counts*."""
        period = self.period
        if len(period) < self.length:
            period.append((lens, counts, self.avg[:], self.credits[:]))
            if len(period) == self.length:
                # The period closes if it leaves the state it started from.
                self.chained = self.mark[1:] == (self.avg, self.credits)
                if not self.chained:
                    self.forget()


class _Run:
    """One (rat, sweep point, replication) simulation of
    ``cfg.at(sweep_value)``; *trace_sink* is an optional text stream."""

    def __init__(self, cfg: ScenarioConfig, rat: str, sweep_value: float,
                 rep_index: int, seed: int, trace_sink=None):
        cfg = cfg.at(sweep_value)
        self.cfg = cfg
        self.rat = rat
        self.is_nr = rat == "nr"
        self.sweep_value = sweep_value
        self.rep_index = rep_index
        self.seed = seed
        speed = cfg.mobility.speed_kmh

        phy = cfg.phy_nr if self.is_nr else cfg.phy_lte
        self.radio = cfg.radio_nr if self.is_nr else cfg.radio_lte
        self.la = phy.la
        self.harq = phy.harq
        self.slot_s = phy.slot_s

        self.duration = cfg.duration_s
        self.stop_time = cfg.duration_s + cfg.drain_max_s
        self.core_s = cfg.traffic.core_latency_ms * 1e-3
        self.packet_bytes = cfg.traffic.packet_size_bytes
        self.packet_bits = self.packet_bytes * 8.0

        nr = cfg.radio_nr
        self.refresh_s = nr.beam_refresh_s if self.is_nr else LTE_REFRESH_S
        self.p_out = nr_outage_probability(speed, nr) if self.is_nr else 0.0
        self.outage_penalty_db = nr.outage_penalty_db
        self.lte_penalty_db = (0.0 if self.is_nr
                               else cfg.radio_lte.velocity_db_per_kmh * speed)
        self.shadow_sigma = nr.mmwave.sigma_db if self.is_nr else 0.0
        self.static_links = not (speed or self.shadow_sigma)

        # The schedule this run records, keyed by everything the schedule
        # reads besides the link state, and per refresh epoch every UE's
        # first-attempt failure probability and link-adaptation SNR, from
        # which the outcome pass builds the HARQ tables it needs.
        self.schedule = _Schedule(
            (rat, cfg.ue_count,
             dataclasses.replace(cfg.traffic, core_latency_ms=0.0),
             cfg.duration_s, cfg.warmup_s, cfg.drain_max_s, self.refresh_s,
             self.slot_s, None if self.is_nr else (phy.rb_count,
                                                   phy.pf_window)),
            cfg.ue_count)
        self.links: list[tuple[tuple[float, ...], tuple[float, ...]]] = []

        self.harq_rng = rng_stream("harq", seed)
        self.shadow_rng = rng_stream("shadowing", seed)
        self.outage_rng = rng_stream("outage", seed)

        self.sim = Simulator(trace=trace_sink)
        self.sched = RrState() if self.is_nr else PfState(phy, cfg.ue_count)
        self.backlog_pkts = 0
        self.slot_index = 0
        self.slot_running = False
        # At the last arrival, if it was a clean NR one: the round-robin
        # pointer, the epoch count and the grant offset.
        self.note: Optional[tuple[int, int, int]] = None

        # A UE is its index into these columns; round robin takes the
        # queues themselves, since an empty FlowQueue is falsy.
        self.mobility = cfg.mobility
        n_ues = cfg.ue_count
        self.r0 = cfg.mobility.radii(n_ues)
        self.queues = [FlowQueue(cfg.traffic.queue_capacity_pkts)
                       for _ in range(n_ues)]
        self.credit_bits = [0.0] * n_ues
        # The traced-run rule: -inf keeps every instant's event and trace
        # line, and no LTE subframe is replayed.
        if trace_sink is None:
            self.horizon = self.sim.horizon
            self.cycle = (None if self.is_nr else
                          _PfCycle(self.sched.avg_bps, self.credit_bits))
        else:
            self.horizon, self.cycle = (lambda: -math.inf), None

        # Every UE streams the same CBR grid, so one stream drives the cell:
        # the packet created at grid index k is seq k of every flow.
        self.stream = VideoStream(
            flow_id=0, rate_bps=cfg.traffic.data_volume_mbps * 1e6,
            packet_size_bytes=self.packet_bytes,
            start_s=cfg.traffic.app_start_s, stop_s=cfg.app_stop_effective_s())
        self.grid = cbr_grid(self.stream)
        # The one warm-up test.  The grid's instants never decrease, so the
        # measured window's packets are the seqs from the first instant at
        # or after the warm-up instant on.
        self.schedule.first_seq = sum(1 for _ in takewhile(
            lambda t: t < cfg.warmup_s, cbr_grid(self.stream)))

        # Channel state first, then the slot chain, then the source, so that
        # simultaneous events resolve in that order.  One refresh event and
        # one arrival event serve every UE, in UE order.
        self._open_epoch(0.0)
        self.sim.schedule(self.refresh_s, self._refresh, "refresh")
        if not self.is_nr:
            # LTE subframes tick through the measured window even when
            # every queue is empty; NR slots run only while data waits.
            self.slot_running = True
            self.sim.schedule(0.0, self._slot, "slot", self.rat)
        t_first = next(self.grid, None)
        if t_first is not None:
            self.sim.schedule(t_first, self._arrival, "arrival")

    # -- channel ------------------------------------------------------------

    def _continues(self, nxt: float, idle: bool) -> bool:
        """Whether a periodic chain schedules its next instant *nxt*.

        Nothing runs past the drain window.  Before it, a chain goes on while
        any packet is queued; an *idle* chain (LTE subframes, channel refresh)
        also goes on to the end of the measured window.
        """
        return nxt <= self.stop_time and (
            self.backlog_pkts > 0 or (idle and nxt <= self.duration))

    def _open_epoch(self, t: float) -> None:
        """Compute every UE's link state at refresh instant *t*, in UE order
        with one shadowing draw each, and note the epoch: its rates go to the
        schedule, its first-attempt failure probabilities and SNRs to this
        run.  Static links (all UEs share the run's speed and spread), once
        epoch 0 computed them, are the last epoch's notes, noted again."""
        record = self.schedule
        if self.static_links and self.links:
            rates, links = record.rates[-1], self.links[-1]
        else:
            rates, snrs = [], []
            for r0 in self.r0:
                d = position_at(r0, self.mobility, t)
                shadow = (self.shadow_rng.gauss(0.0, self.shadow_sigma)
                          if self.shadow_sigma else 0.0)
                snr = snr_db(self.radio, d, penalties_db=self.lte_penalty_db,
                             shadow_db=shadow)
                snrs.append(snr)
                rates.append(achievable_rate_bps(snr, self.radio, self.la))
            rates = tuple(rates)
            links = (tuple(map(self.harq.first_fail_prob, snrs)), tuple(snrs))
            if self.cycle and record.rates and rates != record.rates[-1]:
                self.cycle.forget()     # the rates changed value
        record.epoch_t.append(t)
        record.rates.append(rates)
        self.links.append(links)

    def _close_epoch(self) -> None:
        self.schedule.epoch_end.append(len(self.schedule.grant_ue))

    def _refresh(self, t: float) -> Optional[float]:
        self._close_epoch()
        self._open_epoch(t)
        nxt = t + self.refresh_s
        return nxt if self._continues(nxt, True) else None

    # -- traffic ------------------------------------------------------------

    def _arrival(self, t: float) -> Optional[float]:
        """Serve CBR instant *t* and each next one strictly before the
        horizon, which a wake-up moves; return the first instant left to the
        queue, or None.  The grid ends before the drain window starts."""
        record, horizon = self.schedule, self.horizon
        overflow, instants = record.overflow, record.instants
        first = record.first_seq
        while True:
            nxt = next(self.grid, None)
            # A clean NR instant finds every queue empty and the slot chain
            # asleep (see the module notes).
            note, self.note = self.note, None
            if self.is_nr and not (self.backlog_pkts or self.slot_running):
                self.note = (self.sched.rr_pos, len(record.epoch_t),
                             len(record.grant_ue))
                if note and note[:2] == self.note[:2]:
                    t, nxt = self._replay(t, nxt, note[2])
                    if t is None:
                        return nxt
            seq = len(instants)     # the instant's index on the grid
            instants.append(t)
            measured = seq >= first
            accepted = 0
            for i, queue in enumerate(self.queues):
                if queue.offer(seq):
                    accepted += 1
                elif measured:
                    overflow[i] += 1
            self.backlog_pkts += accepted
            if self.backlog_pkts and not self.slot_running:
                self._wake_slots(t)
            if nxt is None or not nxt < horizon():
                return nxt
            t = nxt

    def _first_slot(self, t: float) -> tuple[int, float]:
        """The index and start of the slot a wake-up at *t* serves first: on
        the slot grid, but never the slot just served, whose instant an
        arrival can share."""
        k = max(math.ceil(t / self.slot_s - 1e-9), self.slot_index)
        # Grid arithmetic can land an ulp before the clock; same-instant is fine.
        return k, max(k * self.slot_s, t)

    def _wake_slots(self, t: float) -> None:
        # The slot chain sleeps when idle; wake it on the slot grid.
        self.slot_running = True
        self.slot_index, s0 = self._first_slot(t)
        self.sim.schedule(s0, self._slot, "slot", self.rat)

    def _replay(self, t: float, nxt: Optional[float],
                start: int) -> tuple[Optional[float], Optional[float]]:
        """Replay clean instant *t*, whose next arrival is *nxt*, and each
        next grid instant strictly before the horizon: note again for each,
        in one write of the record, the grants made since offset *start*,
        where the last clean instant's began, as the slot loop would make
        them.  Stop at the first instant that takes a slot at or after the
        horizon or its next arrival, or past the drain window, and return it
        and its next arrival for the offer path; or return None and the
        first instant left to the queue."""
        record, slot_s, grid = self.schedule, self.slot_s, self.grid
        first_slot, add_instant = self._first_slot, record.instants.append
        end = len(record.grant_ue)
        m = end - start
        horizon, stop = self.horizon(), self.stop_time
        seq = len(record.instants)
        firsts = []     # per replayed instant, its first slot's index and start
        while True:
            k, s0 = first_slot(t)
            last = max((k + m - 1) * slot_s, s0)
            if not (m and last < horizon and last <= stop
                    and (nxt is None or last < nxt)):
                break
            self.slot_index = k + m
            firsts.append((k, s0))
            add_instant(t)
            if nxt is None or not nxt < horizon:
                t = None
                break
            t, nxt = nxt, next(grid, None)
        r = len(firsts)
        burst = record.grant_n[start:end]
        packets = range(sum(burst))
        record.grant_ue += record.grant_ue[start:end] * r
        record.grant_n += burst * r
        record.served += [s for s in range(seq, seq + r) for _ in packets]
        record.grant_end.extend([j * slot_s + slot_s if j > k else s0 + slot_s
                                 for k, s0 in firsts for j in range(k, k + m)])
        # The note of the instant left to the offer path.  At the horizon
        # nothing is left: the horizon is a refresh, whose new epoch no
        # note matches, or the chain's end.
        self.note = (None if t is None
                     else self.note[:2] + (len(record.grant_ue),))
        return t, nxt

    # -- serving ------------------------------------------------------------

    def _slot(self, t: float) -> Optional[float]:
        """Serve slot *t* and each next slot while the chain continues and
        that slot comes strictly before every queued event, which no slot
        can add to; return the first slot left to the queue, or None."""
        horizon, sched = self.horizon(), self.sched
        slot_s, bits = self.slot_s, self.packet_bits
        size, record = self.packet_bytes, self.schedule
        queues, credits, cycle = self.queues, self.credit_bits, self.cycle
        rates = record.rates[-1]    # no refresh falls inside one slot event
        add_packet, add_ue = record.served.append, record.grant_ue.append
        add_end, add_n = record.grant_end.append, record.grant_n.append
        share = None if self.is_nr else slot_s / sched.rb_count
        backlog, k = self.backlog_pkts, self.slot_index
        while True:
            counts = None   # per grant: its UE and the packets it serves
            if share is None:
                # A packet waits, so the round robin picks a UE; a link below
                # the SNR floor (rate 0) idles its slot.
                pick = nr_slot_schedule(sched, queues)
                rate = rates[pick]
                grants = ((pick, rate * slot_s),) if rate > 0.0 else ()
            else:
                lens = list(map(len, queues))
                if cycle is not None:
                    counts = cycle.take(lens)
                if counts is None:
                    alloc = pf_schedule(sched, rates, [n * size for n in lens])
                    grants = [(i, rates[i] * share * rbs)
                              for i, rbs in enumerate(alloc) if rbs]
            if counts is None:
                counts = []
                for i, capacity in grants:
                    credit, left, n = credits[i] + capacity, len(queues[i]), 0
                    while n < left and credit >= bits:
                        credit -= bits
                        n += 1
                    # Idle airtime: no bank.
                    credits[i] = credit if n < left else 0.0
                    if n or share is None:  # an NR grant draws an outage
                        counts.append((i, n))
                if cycle is not None:
                    cycle.note(lens, counts)
            slot_end = t + slot_s
            for i, n in counts:
                pop = queues[i].pop
                for _ in range(n):
                    add_packet(pop())
                backlog -= n
                add_ue(i)
                add_end(slot_end)
                add_n(n)
            k += 1
            t = k * slot_s
            self.backlog_pkts, self.slot_index = backlog, k
            if not self._continues(t, not self.is_nr):
                self.slot_running = False
                return None
            if not t < horizon:
                return t

    # -- lifecycle ----------------------------------------------------------

    def execute(self) -> RunResult:
        """Simulate the run in full: the schedule pass, then the outcome
        pass."""
        self.sim.run(self.stop_time)
        schedule = self.schedule
        # The arrival chain has served the whole grid.
        first = schedule.first_seq
        schedule.created = len(schedule.instants) - first
        # Whatever is still queued could not be served within the drain
        # window: the link never carried it, so it counts as coverage loss.
        schedule.stranded = [sum(seq >= first for seq in queue)
                             for queue in self.queues]
        self._close_epoch()
        return self._outcomes(schedule)

    def reuse(self, schedule: _Schedule) -> Optional[RunResult]:
        """This run's result drawn over *schedule*, a record with this run's
        key; None if this run's rates differ from the record's at one of its
        refresh instants, found before any outcome is drawn.  The run is
        spent either way."""
        for e, (t, rates) in enumerate(zip(schedule.epoch_t, schedule.rates)):
            if e:   # the construction opened epoch 0
                self._open_epoch(t)
            if self.schedule.rates[-1] != rates:
                return None
        return self._outcomes(schedule)

    def _outcomes(self, schedule: _Schedule) -> RunResult:
        """Every outcome of *schedule*, in grant order, a refresh epoch at a
        time (see the module notes): an NR grant draws its outage, then each
        packet its HARQ result, with the HARQ table at its UE's SNR in the
        epoch, or in an outage at that SNR less the outage penalty; a packet
        is delivered (to its flow's sink, in seq order) or dropped.  Each
        flow's ledger is built once, from the schedule's tallies and the
        window packets' sums, added in grant order."""
        n_ues = len(self.queues)
        last_seq = [-1] * n_ues
        rx = [0] * n_ues
        delay = [0.0] * n_ues
        lost = [0] * n_ues
        # The bulk path restates phymac's attempt rule, so only with phymac's
        # own harq_transmit; another callable bound here (a wrapper or a
        # spy) is handed every packet.
        transmit = harq_transmit
        bulk = transmit is _PHYMAC_TRANSMIT
        harq, is_nr = self.harq, self.is_nr
        core_s, first = self.core_s, schedule.first_seq
        p_out, fail_probs = self.p_out, harq.fail_probs
        penalty = self.outage_penalty_db
        at_once = harq.outcomes[0].added_delay_s
        # Each stream through a C iterator over its own ``random``: it draws
        # exactly the values taken, in order.
        outages = starmap(self.outage_rng.random, repeat(()))
        draws = starmap(self.harq_rng.random, repeat(()))
        grant_ue, grant_end = schedule.grant_ue, schedule.grant_end
        grant_n, served = schedule.grant_n, schedule.served
        instants = schedule.instants

        start = at = 0      # the epoch's first grant and first packet
        for (fail_first, snrs), end in zip(self.links, schedule.epoch_end):
            ues, ends, counts = (grant_ue[start:end], grant_end[start:end],
                                 grant_n[start:end])
            packets = sum(counts)
            seqs = served[at:at + packets]
            start, at = end, at + packets
            # An LTE grant draws no outage: a draw of p_out never hits.
            # Without the bulk path, each outage is drawn as its grant comes.
            hits = ((list(islice(outages, len(ues))) if bulk else outages)
                    if is_nr else repeat(p_out))
            # An outage sends the epoch packet by packet before any HARQ
            # draw is taken.
            ahead = (list(islice(draws, packets)) if bulk and (
                not is_nr or min(hits, default=p_out) >= p_out) else None)
            if ahead is not None and first_draws_deliver(
                    ahead, max(map(fail_first.__getitem__, set(ues)),
                               default=0.0)):
                # The epoch is clean: every packet is a first-attempt
                # delivery, at its grant's UE and slot end.  Repeating those
                # per packet adds about half to a clean NR epoch's time, so
                # it is done only where a grant does not serve one packet.
                if packets != len(ues) or 0 in counts:
                    ues = chain.from_iterable(map(mul, zip(ues), counts))
                    ends = chain.from_iterable(map(mul, zip(ends), counts))
                deliveries = zip(ues, ends, seqs, repeat(at_once))
            else:
                # The stream as the packets see it: the draws taken ahead,
                # if any, then the rest.  Every packet takes at least one
                # draw, so the epoch uses up the draws taken ahead.
                rng = (self.harq_rng if ahead is None else
                       SimpleNamespace(random=chain(ahead, draws).__next__))
                next_seq = iter(seqs).__next__
                deliveries = []
                # Per UE i, its table at index i and its table in an outage
                # at index ~i, from the end; each built at its first use.
                tables = [None] * (2 * n_ues)
                for i, slot_end, n, u in zip(ues, ends, counts, hits):
                    key = ~i if u < p_out else i
                    probs = tables[key]
                    if probs is None:
                        probs = tables[key] = fail_probs(
                            snrs[i] - penalty if key < 0 else snrs[i])
                    while n:
                        n -= 1
                        seq = next_seq()
                        outcome = transmit(probs, harq, rng)
                        if outcome.delivered:
                            deliveries.append(
                                (i, slot_end, seq, outcome.added_delay_s))
                        elif seq >= first:
                            lost[i] += 1
            # The delivery rule: each delivery at its slot end, HARQ delay
            # and core latency, to its flow's sink, in seq order.
            for i, slot_end, seq, extra in deliveries:
                created = instants[seq]
                t_rx = slot_end + extra + core_s
                if t_rx < created or seq <= last_seq[i]:
                    # The delivery breaks the sink rule: this raises.
                    Sink(i, last_seq[i]).receive(seq, created, t_rx)
                last_seq[i] = seq
                if seq >= first:
                    rx[i] += 1
                    delay[i] += t_rx - created
        flows = []
        for i in range(n_ues):
            drops = {cause.value: n for cause, n in (
                (DropCause.QUEUE_OVERFLOW, schedule.overflow[i]),
                (DropCause.HARQ_EXHAUSTED, lost[i]),
                (DropCause.OUT_OF_COVERAGE, schedule.stranded[i])) if n}
            stats = FlowStats(i, schedule.created, rx[i], delay[i], drops)
            if not stats.conservation_holds():
                raise SimulationError(
                    f"flow {i}: created {stats.tx_packets} != delivered "
                    f"{stats.rx_packets} + dropped {stats.dropped_packets}")
            flows.append(stats)
        cfg = self.cfg
        throughput, loss, mean_delay = finalize(
            flows, cfg.duration_s - cfg.warmup_s, self.packet_bytes)
        speed = cfg.mobility.speed_kmh
        if speed == 0 and cfg.sweep_variable != "speed_kmh":
            speed = None    # no UE of the study moves
        return RunResult(
            scenario=cfg.preset, rat=self.rat,
            sweep_variable=cfg.sweep_variable, sweep_value=self.sweep_value,
            ue_count=cfg.ue_count,
            offered_mbps_per_ue=cfg.traffic.data_volume_mbps,
            speed_kmh=speed, throughput_bps=throughput, loss_rate=loss,
            mean_delay_s=mean_delay, seed=self.seed, rep_index=self.rep_index,
            flows=flows)


# This process's schedule record: the last untraced full run's.
_schedule: Optional[_Schedule] = None


def run_single(cfg: ScenarioConfig, rat: str, sweep_index: int,
               rep_index: int, trace_dir: Optional[str] = None) -> RunResult:
    """Execute one replication of one sweep point, or draw its outcomes
    over this process's schedule record when that is exact (see the module
    notes)."""
    global _schedule
    seed = derive_run_seed(cfg.seed_base, sweep_index, rep_index)
    sweep_value = cfg.sweep[sweep_index]
    label = sweep_label(sweep_value)
    try:
        if trace_dir is not None:
            name = f"{cfg.preset}_{rat}_{label}_{rep_index}.trace"
            with open(os.path.join(trace_dir, name), "w") as trace:
                return _Run(cfg, rat, sweep_value, rep_index, seed,
                            trace).execute()
        run = _Run(cfg, rat, sweep_value, rep_index, seed)
        if _schedule is not None and _schedule.key == run.schedule.key:
            result = run.reuse(_schedule)
            if result is not None:
                return result
            run = _Run(cfg, rat, sweep_value, rep_index, seed)
        result = run.execute()
        _schedule = run.schedule
        return result
    except SimulationError as exc:
        raise SimulationError(
            f"run failed at rat={rat} {cfg.sweep_variable}={label} "
            f"replication={rep_index}: {exc}") from exc


def run_point(cfg: ScenarioConfig, rat: str, sweep_index: int,
              trace_dir: Optional[str] = None) -> RunResult:
    """Every replication of one sweep point, averaged.  The replications run
    in turn in this process, so they share its schedule record."""
    return aggregate_replications(
        [run_single(cfg, rat, sweep_index, rep, trace_dir)
         for rep in range(cfg.replications)], seed_base=cfg.seed_base)


def run_scenario(cfg: ScenarioConfig, workers: int = 1,
                 trace_dir: Optional[str] = None) -> list[RunResult]:
    """Run the full sweep and return one averaged RunResult per (rat, point),
    in CSV order: by RAT, then by sweep value.

    ``workers > 1`` fans sweep points out to worker processes, at most one
    per CPU and per point; a point's replications stay in one job.  Jobs are
    handed out one at a time, so a worker that finishes early takes the next
    job instead of idling while another works through a pre-assigned chunk.
    ``starmap`` returns results in job order, and a run's result does not
    depend on the record its process holds, so the parallelism degree never
    changes the output.  A ScenarioConfig is valid once built, so *cfg* is
    not checked again.
    """
    points = sorted(range(len(cfg.sweep)), key=cfg.sweep.__getitem__)
    jobs = [(cfg, rat, si, trace_dir)
            for rat in sorted(cfg.rats)
            for si in points]
    processes = min(workers, len(jobs), os.cpu_count() or 1)
    if processes > 1:
        import multiprocessing
        with multiprocessing.Pool(processes=processes) as pool:
            return pool.starmap(run_point, jobs, chunksize=1)
    return [run_point(*job) for job in jobs]


_METADATA_NOTES = (
    "# sitelink run metadata: every effective parameter, defaults included.",
    "# Modelling assumptions baked into these results:",
    "#   - mmWave MAC grants whole slots round-robin (TDMA).",
    "#   - data_volume_mbps is the offered rate per UE; throughput is the",
    "#     aggregate over all flows.",
    "#   - transmit powers, antenna gains and noise figures are calibration",
    "#     defaults, not measured values.",
    "#   - mobility degradation is an empirical beam-tracking outage model;",
    "#     UEs patrol the corridor radially at the configured speed.",
    "#   - UEs start at the placement radii; at speed 0 they stay there.",
)


def run_metadata(cfg: ScenarioConfig) -> str:
    """Effective configuration echo plus modelling notes, itself parseable."""
    return "\n".join(_METADATA_NOTES) + "\n" + render_config(cfg)
