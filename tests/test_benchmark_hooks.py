"""The benchmark's tracer still finds every library name it wraps or reads.

``perfbench/tracer.py`` replaces functions of the lumps modules by name and
reads ``classify.p_ij.cache_info()``; a renamed or deleted entry point makes
``Tracer.install`` raise.  The tracer runs in a fresh interpreter, as in the
benchmark, so its wrappers never reach this test session.
"""

import json
from pathlib import Path

from conftest import fresh_python

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter after ``Tracer.install``."""
    proc = fresh_python(
        "-c", "from tracer import Tracer; t = Tracer('t'); t.install()\n" + code,
        paths=[PERFBENCH])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracer_installs_and_reads_the_cache():
    out = _traced("from lumps import classify; print(classify.p_ij.cache_info().currsize)")
    assert out.split() == ["0"]


def test_chain_routes_are_traced():
    # perfbench/selftest.py requires these counts on obstruction-scan; a chain
    # entry point that stops calling through the wrapped names, or a J route
    # that stops reading p_ij, would zero them.  scan(12) reads p_ij 47 times
    # (gamma_table never does), so a J route reading it more or less often fails
    out = _traced(
        "import json, time\n"
        "from lumps import classify\n"
        "t0 = time.perf_counter()\n"
        "classify.scan(12)\n"
        "classify.gamma_table(6)\n"
        "m = t.summary(t0, time.perf_counter())\n"
        "print(json.dumps(m))\n")
    m = json.loads(out)
    for layer in ("classify.j_route", "classify.sigma_route", "classify.gamma_route"):
        assert m[layer + ".self_s"] > 0, layer
    assert m["classify.p_ij.misses"] == 47
    assert m["classify.p_ij.entries"] == 0


def test_energy_is_traced_with_its_grid():
    # the tracer binds energy's half_width and step by name to count the
    # grid points; a renamed parameter makes the traced call raise
    out = _traced(
        "import json, time\n"
        "from lumps import catalog\n"
        "t0 = time.perf_counter()\n"
        "catalog.energy(catalog.get_record('lump2-bnew'), half_width=5.0, step=0.25)\n"
        "m = t.summary(t0, time.perf_counter())\n"
        "print(json.dumps(m))\n")
    m = json.loads(out)
    assert m["catalog.energy.calls"] == 1
    assert m["catalog.energy.points"] == 20 * 20
    assert m["catalog.energy.points_per_s"] > 0


def test_cm_check_is_traced_through_the_wrapped_names():
    # perfbench reads these per-layer metrics on quadrature; a cm-check that
    # stops calling through the wrapped entry points would zero them
    out = _traced(
        "import contextlib, io, json, time\n"
        "from lumps import cli\n"
        "t0 = time.perf_counter()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['cm-check', '--tau', 'pelin6', '--y=0,1/2'])\n"
        "m = t.summary(t0, time.perf_counter())\n"
        "print(json.dumps([code, m]))\n")
    code, m = json.loads(out)
    assert code == 0
    assert m["cm.poles.calls"] == 2
    assert m["cm.poles.count"] == 12
    assert m["cm.roots.self_s"] > 0
    assert m["cm.residual.self_s"] > 0
