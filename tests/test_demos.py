"""Smoke test: the narrative demos run to completion against the package.

Demos 01-03 call the channel, link-adaptation, HARQ and scheduler functions
directly, so a signature change that forgets them fails here.  Demo 04 only
calls parse_config and run_scenario, which the runner tests cover, and takes
about 9 s, so it is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_link_budget.py", "02_link_adaptation_and_harq.py",
         "03_schedulers.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
