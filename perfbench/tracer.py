"""Spans and exact counts around calls into the lumps modules.

Tracing is done entirely from the benchmark's side: ``Tracer.install``
replaces public functions and methods of ``lumps.polyring``, ``hirota``,
``classify``, ``catalog``, ``cm``, ``lax`` and ``cli`` with wrappers that
record one span per call.  Nothing under ``src/`` is edited.  The wrappers
are installed once, in a child interpreter that is thrown away afterwards.

A span is ``(span_id, parent_id, layer, start, end, item)``.  Spans stay in
memory until the repetition ends; ``write_spans`` then stores them as a
gzipped CSV tagged with the run id.  A layer's self time is the sum over
its spans of the span's duration minus the durations of its direct
children.

Counts that depend only on the inputs (term pairs, output terms, chain bit
lengths, grid points, pole counts) are accumulated outside the timed
interval of the span they belong to, so they repeat exactly.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict

#: the seven modules whose self time is reported as a share of wall_s
MODULES = ("polyring", "hirota", "classify", "catalog", "cm", "lax", "cli")

#: counts that must repeat exactly for the same inputs; "max" counts keep
#: the largest value seen instead of a sum
EXACT_COUNTS = {
    "polyring.mul.term_pairs": "sum",
    "hirota.residual.out_terms": "sum",
    "classify.chain.max_bits": "max",
    "classify.p_ij.misses": "sum",
    "catalog.energy.points": "sum",
    "cm.poles.count": "sum",
}


def _chain_bits(values) -> int:
    """Largest numerator or denominator bit length in a list of Fractions."""
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for v in values), default=0)


class Tracer:
    """Span recorder for one repetition; ``item`` tags spans with the item running."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(int)
        self.item = None
        self._stack = [0]
        self._next_id = 1

    # -- recording ----------------------------------------------------

    def wrap(self, layer, fn, before=None, after=None):
        """Return fn wrapped in a span named ``layer``.

        ``before(args, kwargs)`` runs ahead of the span and its return value
        is handed to ``after(token, args, kwargs, result)``, which runs once
        the span has ended; both update counts.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, layer, start, end, self.item))
            if after is not None:
                after(token, args, kwargs, result)
            return result

        return wrapper

    def begin_item(self, name: str) -> None:
        """Tag later spans with ``name`` and start its per-item counts."""
        from lumps import classify
        self.item = name
        self._item_start = dict(self.counts)
        self._item_start["classify.p_ij.misses"] = classify.p_ij.cache_info().misses
        for count, kind in EXACT_COUNTS.items():
            if kind == "max":
                self.counts[count] = 0

    def end_item(self) -> dict:
        """Exact counts of the item begun last."""
        from lumps import classify
        self.counts["classify.p_ij.misses"] = classify.p_ij.cache_info().misses
        out = {}
        for count, kind in EXACT_COUNTS.items():
            if kind == "sum":
                out[count] = self.counts[count] - self._item_start.get(count, 0)
            else:
                out[count] = self.counts[count]
                self.counts[count] = max(out[count], self._item_start.get(count, 0))
        self.item = None
        return out

    def _add(self, name, value) -> None:
        self.counts[name] += value

    def _max(self, name, value) -> None:
        if value > self.counts[name]:
            self.counts[name] = value

    def install(self) -> None:
        """Wrap the public entry points of every lumps layer."""
        from lumps import catalog, classify, cli, cm, hirota, lax
        from lumps.hirota import BilinearForm
        from lumps.polyring import ExactPoly

        add, mx, wrap = self._add, self._max, self.wrap

        def term_pairs(args, kwargs):
            add("polyring.mul.term_pairs", args[0].num_terms() * args[1].num_terms())

        for name in ("to_xy", "to_zzbar"):
            setattr(ExactPoly, name, wrap("polyring.convert", getattr(ExactPoly, name)))
        ExactPoly.__mul__ = wrap("polyring.mul", ExactPoly.__mul__, before=term_pairs)
        ExactPoly.__add__ = wrap("polyring.add", ExactPoly.__add__)
        ExactPoly.diff = wrap("polyring.diff", ExactPoly.diff)
        ExactPoly.divide_exact = wrap("polyring.divide", ExactPoly.divide_exact)

        BilinearForm.residual = wrap(
            "hirota.residual", BilinearForm.residual,
            after=lambda t, a, k, r: add("hirota.residual.out_terms", r.num_terms()))
        hirota.hirota_d = wrap("hirota.hirota_d", hirota.hirota_d)
        for name in ("hirota_monomial_zz", "hirota_dx4_zz_coeff"):
            setattr(hirota, name, wrap("hirota.coeff", getattr(hirota, name)))

        def chain_bits(token, args, kwargs, result):
            mx("classify.chain.max_bits", _chain_bits(result))

        for layer, names in (("classify.j_route", ("j_obstruction", "a_seq")),
                             ("classify.sigma_route", ("sigma_seq",)),
                             ("classify.gamma_route", ("beta_seq",)),
                             ("classify.definitional",
                              ("d_ij_definitional", "p_ij_definitional"))):
            for name in names:
                after = chain_bits if name.endswith("_seq") else None
                setattr(classify, name, wrap(layer, getattr(classify, name), after=after))

        catalog.build_catalog = wrap("catalog.build", catalog.build_catalog)
        catalog.verify_tau = wrap("catalog.verify", catalog.verify_tau)
        energy_sig = inspect.signature(catalog.energy)

        def grid_points(args, kwargs):
            bound = energy_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            m = int(round(bound.arguments["half_width"] / bound.arguments["step"]))
            add("catalog.energy.points", m * m)

        catalog.energy = wrap("catalog.energy", catalog.energy, before=grid_points)

        cm.poles_from_tau = wrap(
            "cm.poles", cm.poles_from_tau,
            after=lambda t, a, k, r: add("cm.poles.count", r.n))
        cm.roots_exact_poly = wrap("cm.roots", cm.roots_exact_poly)
        for name in ("locus_residual", "tangent_residual", "cm_rhs"):
            setattr(cm, name, wrap("cm.residual", getattr(cm, name)))

        lax.compare_phase_tables = wrap("lax.table", lax.compare_phase_tables)
        lax.removable_probe = wrap("lax.probe", lax.removable_probe)

        def stream_of(args, kwargs):
            stream = args[1] if len(args) > 1 else kwargs.get("stream")
            return stream if stream is not None else sys.stdout

        cli.main = wrap("cli.main", cli.main)
        cli.RunReport.emit = wrap(
            "cli.emit", cli.RunReport.emit,
            before=lambda a, k: stream_of(a, k).tell(),
            after=lambda t, a, k, r: add("cli.emit.bytes", stream_of(a, k).tell() - t))

    # -- reporting ----------------------------------------------------

    def summary(self, t_setup: float, t_end: float) -> dict:
        """Per-layer metrics of this repetition.

        Calls, self time and counts cover the whole child (set-up included,
        so the catalog build shows); ``share.<module>`` is the module's self
        time after set-up divided by this repetition's wall_s.
        """
        from lumps import classify
        children = defaultdict(float)
        for span_id, parent, layer, start, end, item in self.spans:
            children[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        inclusive = defaultdict(float)
        module_wall = defaultdict(float)
        for span_id, parent, layer, start, end, item in self.spans:
            own = (end - start) - children[span_id]
            calls[layer] += 1
            self_s[layer] += own
            inclusive[layer] += end - start
            if start >= t_setup:
                module_wall[layer.split(".")[0]] += own

        wall = t_end - t_setup
        m = {}
        for layer in ("polyring.mul", "polyring.add", "polyring.convert",
                      "hirota.residual", "hirota.hirota_d", "hirota.coeff",
                      "catalog.verify", "catalog.energy", "cm.poles"):
            m[layer + ".calls"] = calls[layer]
        for layer in ("polyring.mul", "polyring.add", "polyring.diff",
                      "polyring.convert", "polyring.divide", "hirota.residual",
                      "hirota.hirota_d", "hirota.coeff", "classify.j_route",
                      "classify.sigma_route", "classify.gamma_route",
                      "classify.definitional", "catalog.verify", "catalog.energy",
                      "cm.poles", "cm.roots", "cm.residual", "lax.table",
                      "lax.probe", "cli.main", "cli.emit"):
            m[layer + ".self_s"] = self_s[layer]
        for name in EXACT_COUNTS:
            m[name] = self.counts[name]
        info = classify.p_ij.cache_info()
        m["classify.p_ij.hits"] = info.hits
        m["classify.p_ij.misses"] = info.misses
        m["classify.p_ij.entries"] = info.currsize
        lookups = info.hits + info.misses
        m["classify.p_ij.hit_ratio"] = info.hits / lookups if lookups else 0.0
        m["cli.emit.bytes"] = self.counts["cli.emit.bytes"]
        m["catalog.build_s"] = inclusive["catalog.build"]
        energy_s = inclusive["catalog.energy"]
        m["catalog.energy.points_per_s"] = (
            self.counts["catalog.energy.points"] / energy_s if energy_s else 0.0)
        for module in MODULES:
            m["share." + module] = module_wall[module] / wall
        m["share.other"] = 1.0 - sum(module_wall[mod] for mod in MODULES) / wall
        return m

    def write_spans(self, path) -> None:
        """Store every span as gzipped CSV: run_id, item, span_id, parent_id, layer, start, end."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "item", "span_id", "parent_id", "layer", "start", "end"])
            for span_id, parent, layer, start, end, item in self.spans:
                writer.writerow([self.run_id, item, span_id, parent, layer,
                                 repr(start), repr(end)])
