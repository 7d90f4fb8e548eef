"""The installed package needs nothing outside the standard library, parses
at the oldest Python it supports, and keeps every name the benchmark's
tracer wraps."""

import ast
import glob
import os
import re
import shutil
import subprocess
import sys

import pytest

import sitelink

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _probe(code: str, *args: str, python: str = sys.executable) -> str:
    """Run *code* with *args* in a fresh *python* that imports sitelink from
    src/ and writes no bytecode (so nothing lands in bench/)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sitelink.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([python, "-B", "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout


def test_import_pulls_in_no_numpy():
    probe = "import sys, sitelink; print('numpy' in sys.modules)"
    assert _probe(probe).strip() == "False"


def test_single_process_run_loads_no_pool_machinery():
    # Only run_scenario with workers > 1 needs multiprocessing; importing it
    # costs every fresh interpreter (CLI, benchmark rep) its pickle, socket,
    # selectors and signal modules.
    probe = ("import sys, sitelink\n"
             "cfg = sitelink.parse_config('sweep=2\\nduration_s=0.3\\n"
             "warmup_s=0.1\\ndrain_max_s=0.1\\nreplications=1')\n"
             "sitelink.run_single(cfg, 'lte', 0, 0)\n"
             "print('multiprocessing' in sys.modules)")
    assert _probe(probe).strip() == "False"


def test_bench_tracer_installs_on_every_wrapped_name():
    # bench/tracer.py wraps sitelink's callables by name; a rename must fail
    # here, not only in the benchmark's own suite.
    bench = os.path.join(ROOT, "bench")
    probe = (f"import sys; sys.path.insert(0, {bench!r}); import sitelink; "
             "from tracer import SpanTracer; SpanTracer().install(sitelink); "
             "print('installed')")
    assert _probe(probe).strip() == "installed"


def test_bench_builds_video_streams_positionally():
    # bench/workloads.py counts a workload's packets this way.
    probe = ("import sitelink; s = sitelink.VideoStream(0, 2e6, 1250, 0.5, "
             "1.5); t = sitelink.cbr_emit_times(s); print(len(t), t[0], t[-1])")
    assert _probe(probe).split() == ["200", "0.5", "1.495"]


# The per-layer boundaries whose counts the benchmark reports, as the tracer
# names them; each must be a module-level call that the runner makes.
_RUN_BOUNDARIES = ("phymac.pf_schedule", "phymac.nr_slot_schedule",
                   "phymac.harq_transmit", "phymac.achievable_rate_bps",
                   "channel.snr_db", "mobility.position_at")


def test_bench_tracer_sees_every_run_boundary_called():
    # A boundary the runner stops calling through its module attribute (for
    # instance because it became a method) would read 0 calls in the
    # benchmark instead of failing.
    bench = os.path.join(ROOT, "bench")
    probe = (
        f"import sys; sys.path.insert(0, {bench!r}); import sitelink\n"
        "from tracer import SpanTracer\n"
        "tracer = SpanTracer(); tracer.install(sitelink)\n"
        "cfg = sitelink.parse_config('sweep=2\\nduration_s=0.3\\n"
        "warmup_s=0.1\\ndrain_max_s=0.1\\nreplications=1')\n"
        "for rat in ('lte', 'nr'):\n"
        "    sitelink.runner.run_single(cfg, rat, 0, 0)\n"
        "calls = {}\n"
        "for (name, _), (count, _, _) in tracer.spans.items():\n"
        "    calls[name] = calls.get(name, 0) + count\n"
        f"print(*(calls.get(name, 0) for name in {_RUN_BOUNDARIES!r}))\n")
    counts = [int(c) for c in _probe(probe).split()]
    assert len(counts) == len(_RUN_BOUNDARIES)
    missed = [name for name, c in zip(_RUN_BOUNDARIES, counts) if c < 1]
    assert missed == []


def _oldest_python() -> tuple[int, int]:
    # A regex, not tomllib, which is new in 3.11.
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', fh.read(),
                          re.MULTILINE)
    assert found is not None
    return int(found[1]), int(found[2])


def test_sources_parse_at_the_oldest_supported_python():
    # Only one interpreter runs the suite here; this catches syntax newer
    # than requires-python before a CI leg on that version does.
    version = _oldest_python()
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "sitelink", "*.py"))
                   + glob.glob(os.path.join(ROOT, "tests", "*.py")))
    assert len(paths) > 20
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), path, feature_version=version)
    # The guard bites: except* is new in 3.11.
    if version < (3, 11):
        with pytest.raises(SyntaxError):
            ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                      feature_version=version)


def _other_pythons() -> list[str]:
    """Every python3.1x on PATH but the running version's that starts; a
    pyenv shim for a version it does not have exits non-zero."""
    found = []
    for minor in range(10, 20):
        path = shutil.which(f"python3.{minor}")
        if path and (3, minor) != sys.version_info[:2] and subprocess.run(
                [path, "-c", ""], capture_output=True,
                timeout=60).returncode == 0:
            found.append(path)
    return found


# A short study on both RATs, written as CSV and digested, then the work
# bound's error for a run that could not finish.
_STUDY = (
    "import hashlib, sys, sitelink\n"
    "cfg = sitelink.parse_config('preset=scenario3\\nrats=lte,nr\\n"
    "sweep=0,45\\nduration_s=2\\nreplications=2')\n"
    "sitelink.export_csv(sitelink.run_scenario(cfg), sys.argv[1])\n"
    "with open(sys.argv[1], 'rb') as fh:\n"
    "    print(hashlib.sha256(fh.read()).hexdigest())\n"
    "try:\n"
    "    sitelink.parse_config('traffic.data_volume_mbps=1e12')\n"
    "except sitelink.ConfigError as exc:\n"
    "    print(exc.errors)\n")


def test_every_installed_python_gives_the_same_results(tmp_path):
    # CI runs the suite on each supported version; this runs the package on
    # each one installed here, which needs no pytest, before CI does.
    others = _other_pythons()
    if not others:
        pytest.skip("no other python3.1x on PATH starts")
    here = _probe(_STUDY, str(tmp_path / "here.csv"))
    assert "work budget" in here
    for python in others:
        assert _probe(_STUDY, str(tmp_path / "there.csv"),
                      python=python) == here, python
