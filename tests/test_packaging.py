"""The installed package needs nothing outside the standard library, and
keeps every name the benchmark's tracer wraps."""

import os
import subprocess
import sys

import sitelink

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _probe(code: str) -> str:
    """Run *code* in a fresh interpreter that imports sitelink from src/
    and writes no bytecode (so nothing lands in bench/)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sitelink.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-B", "-c", code], env=env,
                          check=True, capture_output=True, text=True).stdout


def test_import_pulls_in_no_numpy():
    probe = "import sys, sitelink; print('numpy' in sys.modules)"
    assert _probe(probe).strip() == "False"


def test_bench_tracer_installs_on_every_wrapped_name():
    # bench/tracer.py wraps sitelink's callables by name; a rename must fail
    # here, not only in the benchmark's own suite.
    bench = os.path.join(ROOT, "bench")
    probe = (f"import sys; sys.path.insert(0, {bench!r}); import sitelink; "
             "from tracer import SpanTracer; SpanTracer().install(sitelink); "
             "print('installed')")
    assert _probe(probe).strip() == "installed"
