"""The benchmark's tracer still finds every library name it wraps or reads.

``perfbench/tracer.py`` replaces functions of the lumps modules by name and
reads ``classify.p_ij.cache_info()``; a renamed or deleted entry point makes
``Tracer.install`` raise.  The tracer runs in a fresh interpreter, as in the
benchmark, so its wrappers never reach this test session.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_and_reads_the_cache():
    code = ("from tracer import Tracer; Tracer('t').install(); "
            "from lumps import classify; print(classify.p_ij.cache_info().currsize)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
