"""The installed package needs nothing outside the standard library."""

import os
import subprocess
import sys

import sitelink


def test_import_pulls_in_no_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sitelink.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = "import sys, sitelink; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
