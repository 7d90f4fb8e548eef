"""Golden output pins: sha256 of the CSV per preset and of an event trace per RAT.

The determinism tests elsewhere compare runs with each other, so a change
that shifted every number consistently would pass them.  These digests pin
the bytes themselves.  Each config is a shortened version of its preset
study on both RATs; scenario1 averages three replications, which pins the
summation order of the replication mean and the delay std-dev.  One small
config is traced on each RAT, which pins the event order of both slot
chains.  Two full-length LTE studies pin the replay of repeating LTE
subframes, which the short configs never reach.

A refactor must leave every digest unchanged.  A change that alters output
on purpose updates the digests in the same commit and says why.  The
digests depend on the platform's libm (exp, log10, log2), so they are
checked on CPython on x86-64 Linux.
"""

import hashlib

import pytest

from sitelink.config import parse_config
from sitelink.metrics import export_csv
from sitelink.runner import run_scenario, run_single

SHORT = "rats=lte,nr\nduration_s=1.5\nwarmup_s=0.5\ndrain_max_s=1\n"

GOLDEN_CSV = {
    "scenario1": (
        "preset=scenario1\nsweep=4,16\nreplications=3\n",
        "320e7449a9ce438db803221fc8369980d1e66d087077d36579c486404558347d"),
    "scenario2": (
        "preset=scenario2\nsweep=1,6\nreplications=2\n",
        "285d4ef902dace06f4164030d8a59dcfd2b608075a19a30321317813f3986cb8"),
    "scenario3": (
        "preset=scenario3\nsweep=0,45,60\nreplications=2\n",
        "b1a2579e2ecbbd90e1ee7976d05e739671aafc015b10eaf8e735d3021fa20010"),
}

# Full-length LTE studies.  The short runs above end long before the PF
# averages settle, while these reach a cycle of PF scheduler state (period
# 320 subframes at 20 UEs, 70 at 8 UEs, 1,380 at 1 Mb/s and 640 at 4 Mb/s),
# which untraced runs replay.
GOLDEN_LTE_CYCLE_CSV = {
    "scenario1": (
        "preset=scenario1\nrats=lte\nsweep=8,20\nreplications=2\n",
        "194160405ba2c3ee6d06056f5e595f03b7edd40b571de89c44a682e4f0bad0c2"),
    "scenario2": (
        "preset=scenario2\nrats=lte\nsweep=1,4\nreplications=2\n",
        "c89a07811a15b2dcfc7cd59ee5a0381746caa350af59797cc4125cc2f4b6c9c6"),
}

TRACE_CONFIG = ("preset=custom\nsweep_variable=speed_kmh\nsweep=50\n"
                "ue_count=3\nduration_s=0.6\nwarmup_s=0.1\ndrain_max_s=0.5\n"
                "replications=1\nseed_base=7\n")
GOLDEN_TRACE = (
    "custom_nr_50_0.trace",
    "78b1984a5c9d4b2e1f2dfcd82f1b6c9bc0c816b08f8b57428853124cf99b4d5a")
GOLDEN_LTE_TRACE = (
    "custom_lte_50_0.trace",
    "2c45d118f1b17abb0ac955a1e3ea0465106e8cec9e548406111a5137cf997209")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("preset", sorted(GOLDEN_CSV))
def test_preset_csv_digest(preset, tmp_path):
    text, digest = GOLDEN_CSV[preset]
    cfg = parse_config(text + SHORT)
    path = tmp_path / f"{preset}.csv"
    export_csv(run_scenario(cfg), str(path))
    assert _sha256(path) == digest, path.read_text()


@pytest.mark.parametrize("preset", sorted(GOLDEN_LTE_CYCLE_CSV))
def test_full_length_lte_csv_digest(preset, tmp_path):
    text, digest = GOLDEN_LTE_CYCLE_CSV[preset]
    path = tmp_path / f"{preset}_lte.csv"
    export_csv(run_scenario(parse_config(text)), str(path))
    assert _sha256(path) == digest, path.read_text()


def test_trace_digest(tmp_path):
    name, digest = GOLDEN_TRACE
    run_single(parse_config(TRACE_CONFIG), "nr", 0, 0, trace_dir=str(tmp_path))
    assert _sha256(tmp_path / name) == digest


def test_lte_trace_digest(tmp_path):
    name, digest = GOLDEN_LTE_TRACE
    run_single(parse_config(TRACE_CONFIG), "lte", 0, 0,
               trace_dir=str(tmp_path))
    assert _sha256(tmp_path / name) == digest


def test_nr_beam_refresh_leaves_the_lte_trace_alone(tmp_path):
    # The LTE refresh period is the runner's own constant; the NR key must
    # still move the NR trace.
    cfg = parse_config(TRACE_CONFIG + "radio.nr.beam_refresh_s=0.05\n")
    for rat, (name, digest), same in (("lte", GOLDEN_LTE_TRACE, True),
                                      ("nr", GOLDEN_TRACE, False)):
        run_single(cfg, rat, 0, 0, trace_dir=str(tmp_path))
        assert (_sha256(tmp_path / name) == digest) == same, rat
