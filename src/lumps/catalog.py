"""Catalog of explicit tau polynomials with their PDE scalings.

Each record carries the polynomial (possibly with free rational parameters),
the constant c of the reconstruction u = c * dxx log tau, and the bilinear
form the record is expected to annihilate.  Verification is an exact
polynomial-identity check; nothing numeric decides solution-hood.

The catalog deliberately pins each record to its own scaling: the degree-6
Pelinovskii entry uses c = 12 with the standard form, the two-parameter
degree-6 family uses c = 2 with its own transverse scaling, and every
"-bnew" variant is the y -> sqrt(3) y rescaling with c = 3/2 that the
pole-dynamics and energy checks assume.

Two documented errata travel with the catalog (see NOTES on the records):

* the degree-6 family is printed next to an equation whose transverse term
  has the wrong sign; the printed polynomials exactly annihilate
  Dx^4 - 3 Dx^2 - 3 Dy^2 (preset ``yang-elliptic``) and fail the
  ``yang`` preset Dx^4 - 3 Dx^2 + 3 Dy^2 that the printed equation implies;

* the printed degree-12 polynomial fails the standard form by a residual
  supported on 27 monomials; changing the coefficient of z^2 + zbar^2 from
  38390275 to -35277550/3 gives the exact (and, by the gamma certificate at
  n = 6, unique) even solution, shipped as ``pelin12-corrected``.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import signal
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import hirota
from .hirota import BNEW, STANDARD, YANG_ELLIPTIC, BilinearForm
from .polyring import Basis, ExactPoly, _reduced, poly_xy, poly_zz, r_squared

ParamMonomial = Tuple[Tuple[str, int], ...]


class ParameterBindingError(ValueError):
    """A free parameter was left unbound (or bound without being declared)."""


@dataclass(frozen=True)
class TauRecord:
    """A catalog entry: tau (with optional free parameters) and its scaling."""

    id: str
    components: Tuple[Tuple[ParamMonomial, ExactPoly], ...]
    scale_c: Fraction
    form: BilinearForm
    params: Tuple[str, ...] = ()
    notes: str = ""

    @classmethod
    def plain(cls, id: str, poly: ExactPoly, c: "int | Fraction",
              form: BilinearForm, notes: str = "") -> "TauRecord":
        """A parameter-free record of one polynomial."""
        return cls(id, (((), poly),), Fraction(c), form, (), notes)

    def bind(self, bindings: Optional[Dict[str, Fraction]] = None) -> ExactPoly:
        """Assemble the concrete polynomial at exact parameter values."""
        bindings = dict(bindings or {})
        for name in bindings:
            if name not in self.params:
                raise ParameterBindingError(
                    f"record {self.id!r} has no parameter {name!r}")
        missing = [p for p in self.params if p not in bindings]
        if missing:
            raise ParameterBindingError(
                f"record {self.id!r}: unbound parameter {missing[0]!r}")
        total = ExactPoly.zero(Basis.XY)
        for monomial, poly in self.components:
            factor = Fraction(1)
            for name, exp in monomial:
                factor *= Fraction(bindings[name]) ** exp
            total = total + poly.scale(factor)
        return total

    def tau(self) -> ExactPoly:
        """The polynomial of a parameter-free record, bound on the first call."""
        if self.params:
            raise ParameterBindingError(
                f"record {self.id!r} has free parameters {self.params}; "
                "bind them first")
        return self._bound

    @cached_property
    def _bound(self) -> ExactPoly:
        return self.bind({})

    def require_bnew(self, caller: str) -> None:
        """ValueError unless c = 3/2, the scaling of the "-bnew" records that
        the energy and the pole dynamics assume."""
        if self.scale_c != Fraction(3, 2):
            raise ValueError(
                f"{caller} expects the (3/2) dxx log tau normalization; record "
                f"{self.id!r} has c = {self.scale_c} (use its -bnew variant)")


def verify_tau(rec: TauRecord, bindings: Optional[Dict[str, Fraction]] = None,
               form: Optional[BilinearForm] = None) -> ExactPoly:
    """Exact residual of a bilinear form, the record's own unless given, on
    the bound polynomial: tau solves the form exactly when it is zero."""
    return (form or rec.form).residual(rec.bind(bindings))


# ---------------------------------------------------------------------------
# energy


#: largest half_width/step accepted by ``energy``: 10^12 evaluations already
#: take hours, and a larger window would fail to allocate its node arrays
MAX_ENERGY_CELLS = 10**6

#: widest column tile of an ``energy`` row: at 16,000 nodes OpenBLAS threads
#: the row products, and those threads oversubscribe the CPUs the row bands
#: already use
ENERGY_TILE = 4096

#: fewest grid rows in an ``energy`` band: on 2 vCPUs a forked worker cost
#: more than it saved at m = 1500 rows (19-20 -> 23-25 ms for pelin6-bnew)
#: and won at m = 2000 in two sessions of three (35-41 -> 24 ms)
ENERGY_MIN_BAND_ROWS = 1000

#: grid rows per numpy call in ``energy``: a block of four rows makes about
#: as many calls as one row did
ENERGY_BLOCK_ROWS = 4


def energy(rec: TauRecord, half_width: float = 200.0, step: float = 0.05
           ) -> float:
    """Quadrature estimate of H(q) for a record in the q = (3/2) dxx log tau scaling.

    H(q) = int [ (3/2)|q_x|^2 + 4 q^3 - (3/2) q^2 - |dx^{-1} dy q|^2 ],
    with the antiderivative term evaluated in closed form as
    dx^{-1} dy q = (3/2) dx dy log tau (exact for this ansatz).

    Midpoint rule on [-R, R]^2; the record's polynomial must be even in x
    and in y, which folds the grid onto one quadrant.

    The derivatives of log tau are quotients of exact numerators, built
    once per call (``_energy_numerators``):

        qh = dxx log tau = N2 / tau^2,     N2 = tau tau_xx - tau_x^2,
        qh_x = dxxx log tau = N3 / tau^3,  N3 = tau dx N2 - 2 tau_x N2,
        vh = dxy log tau = NV / tau^2,     NV = tau tau_xy - tau_x tau_y,

    with q = (3/2) qh, q_x = (3/2) qh_x and dx^{-1} dy q = (3/2) vh, so the
    integrand is 3.375 qh_x^2 + 13.5 qh^3 - 3.375 qh^2 - 2.25 vh^2.  N2 and
    NV are the Hirota derivatives (1/2) Dx^2 tau.tau and (1/2) Dx Dy tau.tau,
    so ``hirota.hirota_d`` forms them in one pass over the pairs of terms of
    tau, and the cancellation between tau tau_xx and tau_x^2 (and in N3
    and NV) happens in exact arithmetic rather than at every node.

    Evenness fixes the parity of each numerator: tau and N2 are even, N3
    is x times an even polynomial and NV is xy times one.  Each is divided
    by that monomial and stored as a float table in X = x^2, Y = y^2: the
    even parts (tau, N2) in one table and the odd parts (N3, NV) in
    another, part-major and each as wide as its own highest X power.  The
    rows go in blocks of ENERGY_BLOCK_ROWS, each numpy call serving a
    whole block: (Y powers) @ table per parity, then one matrix product
    per parity, the even parts against the X powers and the odd parts
    against x times the X powers, which restores their x factor (the y
    factor of NV joins the row sum as y^2).  Per node the block then takes
    seven elementwise passes, s = 1/tau, u = s^2 (over tau), qh = N2 u,
    qh_x = N3 u s (two), vh = NV u and w = qh^2 (over s), and two
    ``np.vecdot`` calls give each row's sums of qh^2, qh_x^2, vh^2, w qh.
    (One broadcast call for (N2, N3, NV) u measured no faster.)

    The numerators reach degree 3d - 3 for a tau of degree d, so a node
    overflows once |x| or |y| nears 10^(308/(3d-3)) (about 2e9 for d = 12);
    such a window raises the ArithmeticError below.

    The m rows of the quadrant are cut into contiguous bands of whole
    blocks, one per usable CPU (``os.sched_getaffinity``), with at least
    ENERGY_MIN_BAND_ROWS rows per band and a single band where the
    platform has no ``os.fork``.  The caller computes the first band and
    forked workers the others; each band writes one integrand sum per row
    into an anonymous shared mmap (see ``_in_bands`` for the workers'
    lifecycle).  Two threads measured slower than one: the loop is a chain
    of short numpy calls.  A block is evaluated in column tiles of at most
    ENERGY_TILE nodes, with in-place ufuncs in five tile-sized buffers
    allocated once per band; the tiles keep each numpy call below the size
    at which OpenBLAS starts threads of its own, which would compete with
    the workers for the same CPUs.  The total is 4 h^2 times the exactly
    rounded ``math.fsum`` of the row sums, so it has the same bits for any
    number of workers.  On Python 3.12 and later ``os.fork`` emits a
    DeprecationWarning when the process already runs other threads.

    Raises ValueError for a window with no grid cell, more than
    MAX_ENERGY_CELLS cells per side or an R/h that is not a whole number
    (to relative 1e-9), or a record outside the (3/2) normalization or not
    even, and ArithmeticError when the sum is not finite (tau vanishes, or
    overflows, at a grid node).
    """
    for name, value in (("half_width", half_width), ("step", step)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    cells = half_width / step
    if not (math.isfinite(cells) and round(cells) >= 1):
        raise ValueError(
            f"half_width/step = {cells} leaves no grid cell in [0, R]")
    m = round(cells)
    if m > MAX_ENERGY_CELLS:
        raise ValueError(
            f"half_width/step = {cells} exceeds {MAX_ENERGY_CELLS} grid cells "
            "per side")
    if abs(cells - m) > 1e-9 * m:  # else [-R, R]^2 is not the window integrated
        raise ValueError(
            f"half_width/step = {cells} is not a whole number of grid cells")
    rec.require_bnew("energy")
    tau = rec.tau()
    if any(i % 2 or j % 2 for (i, j) in tau.numerators()[1]):
        raise ValueError("energy quadrature assumes tau even in x and y")

    n2, n3, nv = _energy_numerators(tau)
    # the x-even parts, then the x-odd ones, in the row order used below;
    # i // 2 and j // 2 drop the parity monomials x, y of the odd exponents
    parities = ((tau, n2), (n3, nv))
    ny = max(p.degree_in(1) for parts in parities for p in parts) // 2 + 1
    tables = []
    for parts in parities:
        nx = max(p.degree_in(0) for p in parts) // 2 + 1
        table = np.zeros((len(parts), ny, nx))
        for k, p in enumerate(parts):
            den, num = p.numerators()
            for (i, j), (r, _) in num.items():
                table[k, j // 2, i // 2] = r / den
        tables.append(table)

    xs = (np.arange(m) + 0.5) * step
    row_sums = np.frombuffer(mmap.mmap(-1, 8 * m))  # shared with the workers
    # bands are cut on blocks of rows, so that every block holds the same
    # rows, and has the same bits, for any number of workers
    b = ENERGY_BLOCK_ROWS
    _in_bands(lambda lo, hi: _energy_rows(tables, xs, lo * b, min(hi * b, m),
                                          row_sums), -(-m // b), _workers(m))
    total = math.inf
    if np.isfinite(row_sums).all():  # fsum raises ValueError on inf - inf
        with contextlib.suppress(OverflowError):
            total = 4.0 * math.fsum(row_sums) * step * step
    if not math.isfinite(total):
        raise ArithmeticError(
            f"energy sum of {rec.id!r} is not finite: tau vanishes (or "
            f"overflows) on the quadrature grid")
    return total


def _energy_numerators(tau: ExactPoly) -> Tuple[ExactPoly, ExactPoly, ExactPoly]:
    """N2 = tau tau_xx - tau_x^2, N3 = tau^2 tau_xxx - 3 tau tau_x tau_xx
    + 2 tau_x^3 and NV = tau tau_xy - tau_x tau_y, exactly: dxx log tau =
    N2/tau^2, dxxx log tau = N3/tau^3 and dxy log tau = NV/tau^2."""
    half = Fraction(1, 2)
    n2 = hirota.hirota_d(2, 0, tau, tau).scale(half)
    nv = hirota.hirota_d(1, 1, tau, tau).scale(half)
    n3 = tau * n2.diff(0, 1) - (tau.diff(0, 1) * n2).scale(2)
    return n2, n3, nv


def _energy_rows(tables: List[np.ndarray], xs: np.ndarray, lo: int, hi: int,
                 out: np.ndarray) -> None:
    """The integrand sums of quadrant rows lo..hi-1 of ``energy``, into out."""
    even, odd = tables
    nxe, nxo = even.shape[2], odd.shape[2]
    rows, width = ENERGY_BLOCK_ROWS, min(ENERGY_TILE, len(xs))
    flat, s_buf = np.empty(4 * rows * width), np.empty(rows * width)
    # per row: sum qh^2, sum qh_x^2, sum (vh/y)^2 and sum qh^3
    sums = np.zeros((4, hi - lo))
    # a huge window overflows the power tables: that is the ArithmeticError
    # of ``energy``, so the tables are built inside the guard too
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ys = xs[lo:hi]
        ypows = np.vander(ys * ys, even.shape[1], increasing=True)
        tiles = []
        for start in range(0, len(xs), width):
            x = xs[start:start + width]
            # contiguous (nx, n): a transposed view makes every row product
            # strided
            xpow = np.ascontiguousarray(
                np.vander(x * x, max(nxe, nxo), increasing=True).T)
            tiles.append((xpow[:nxe], xpow[:nxo] * x))
        for r in range(0, hi - lo, rows):
            ypow = ypows[r:r + rows]
            b = len(ypow)
            # (part, row, X power): x-coefficients of the block's rows
            ce, co = np.matmul(ypow, even), np.matmul(ypow, odd)
            # the odd parts carry their x factor from xo; v lacks its y
            for xe, xo in tiles:
                n = xe.shape[1]
                blk = flat[:4 * b * n].reshape(4, b, n)
                t, q, qx, v = blk
                s = s_buf[:b * n].reshape(b, n)
                np.matmul(ce, xe, out=blk[0:2])
                np.matmul(co, xo, out=blk[2:4])
                np.divide(1.0, t, out=s)
                np.multiply(s, s, out=t)     # u = 1/tau^2 replaces tau
                q *= t                       # qh = N2 / tau^2
                qx *= t
                qx *= s                      # qh_x = N3 / tau^3
                v *= t                       # vh / y
                np.multiply(q, q, out=s)     # w = qh^2 replaces s
                sums[:3, r:r + b] += np.vecdot(blk[1:], blk[1:])
                sums[3, r:r + b] += np.vecdot(s, q)
        sq, sqx, sv, sq3 = sums
        out[lo:hi] = 3.375 * sqx + 13.5 * sq3 - 3.375 * sq - 2.25 * ys * ys * sv


def _workers(rows: int) -> int:
    """How many processes share the rows of ``energy``: the CPUs this process
    may run on, at most one per ENERGY_MIN_BAND_ROWS rows, and 1 where there
    is no ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(cpus, rows // ENERGY_MIN_BAND_ROWS))


def _in_bands(band: Callable[[int, int], None], rows: int, workers: int
              ) -> None:
    """Call band(lo, hi) on contiguous bands that cover range(rows).

    The caller computes the first band and a forked worker each of the
    others, so band must leave its results in memory shared across fork.
    A worker leaves only through ``os._exit`` (status 1 when its band
    raised): it never flushes the stdio buffers it inherited, runs atexit
    handlers or returns into the caller's stack.  Every worker is reaped
    before this returns or raises; when the caller's own band raises, the
    workers are killed first.  A band whose worker could not be forked or
    exited nonzero is computed again in the caller.
    """
    cuts = [rows * k // workers for k in range(workers + 1)]
    pids: Dict[int, int] = {}
    redo: List[int] = []
    try:
        for k in range(1, workers):
            try:
                pid = os.fork()
            except OSError:
                redo.append(k)
                continue
            if pid == 0:
                status = 1
                try:
                    band(cuts[k], cuts[k + 1])
                    status = 0
                finally:
                    os._exit(status)
            pids[pid] = k
        band(cuts[0], cuts[1])
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, k in pids.items():
            if os.waitpid(pid, 0)[1] != 0:
                redo.append(k)
    for k in redo:
        band(cuts[k], cuts[k + 1])


# ---------------------------------------------------------------------------
# the catalog itself


def _sqrt3_y_rescale(p: ExactPoly) -> ExactPoly:
    """tau(x, sqrt(3) y): exact for polynomials even in y (y^2 -> 3 y^2)."""
    den, num = p.numerators()
    if any(j % 2 for (_, j) in num):
        raise ValueError("sqrt(3)-rescale needs a polynomial even in y")
    return _reduced({(i, j): (r * 3 ** (j // 2), m * 3 ** (j // 2))
                     for (i, j), (r, m) in num.items()}, den, Basis.XY)


def _lump2() -> ExactPoly:
    return poly_xy({(2, 0): 1, (0, 2): 1, (0, 0): 3})


def _pelin6() -> ExactPoly:
    return r_squared() ** 3 + poly_xy({
        (4, 0): 25, (2, 2): 90, (0, 4): 17,
        (2, 0): -125, (0, 2): 475, (0, 0): 1875})


def _pelin12_zz_terms(corrected: bool) -> dict:
    F = Fraction
    t = {
        (6, 6): F(1),
        (7, 3): F(-15), (6, 4): F(10), (5, 5): F(108),
        (4, 6): F(10), (3, 7): F(-15),
        (8, 0): F(-45), (7, 1): F(150), (6, 2): F(-875), (5, 3): F(-1050),
        (4, 4): F(4375), (3, 5): F(-1050), (2, 6): F(-875), (1, 7): F(150),
        (0, 8): F(-45),
        (6, 0): F(-22330, 3), (5, 1): F(20895), (4, 2): F(-52850),
        (3, 3): F(103950), (2, 4): F(-52850), (1, 5): F(20895),
        (0, 6): F(-22330, 3),
        (4, 0): F(594125, 3), (3, 1): F(-1798300), (2, 2): F(1471225),
        (1, 3): F(-1798300), (0, 4): F(594125, 3),
        (2, 0): F(38390275), (1, 1): F(76780550), (0, 2): F(38390275),
        (0, 0): F(878826025, 9),
    }
    if corrected:
        t[(2, 0)] = t[(0, 2)] = F(-35277550, 3)
    return t


def _pelin12(corrected: bool = False) -> ExactPoly:
    return poly_zz(_pelin12_zz_terms(corrected)).to_xy()


def _yang6_components():
    base = poly_xy({
        (6, 0): 1, (0, 6): 1, (4, 2): 3, (2, 4): 3, (5, 0): 14, (1, 4): 14,
        (3, 2): 28, (4, 0): 90, (2, 2): 128, (0, 4): 22, (3, 0): 324,
        (1, 2): 316, (2, 0): 648, (0, 2): 360, (1, 0): 648, (0, 0): 324})
    lin_a = poly_xy({(3, 0): 1, (1, 2): -3, (2, 0): 7, (0, 2): -7,
                     (1, 0): 16, (0, 0): 8}).scale(2)
    lin_b = poly_xy({(0, 3): 1, (2, 1): -3, (1, 1): -14, (0, 1): -18}).scale(2)
    one = ExactPoly.constant(1)
    return (
        ((), base),
        ((("a", 1),), lin_a),
        ((("b", 1),), lin_b),
        ((("a", 2),), one),
        ((("b", 2),), one),
    )


def build_catalog() -> Dict[str, TauRecord]:
    F = Fraction
    recs: List[TauRecord] = []

    recs.append(TauRecord.plain(
        "lump2", _lump2(), 2, STANDARD,
        "classical lump; u = 2 dxx log tau"))
    recs.append(TauRecord.plain(
        "pelin6", _pelin6(), 12, STANDARD,
        "degree-6 even solution; u = 12 dxx log tau"))
    recs.append(TauRecord(
        "yang6", _yang6_components(), F(2), YANG_ELLIPTIC, ("a", "b"),
        "two-parameter degree-6 family; satisfies Dx^4-3Dx^2-3Dy^2 exactly. "
        "The transverse sign printed with the family ('+3 u_yy', preset "
        "'yang') is an erratum: the printed polynomials fail that form."))
    recs.append(TauRecord.plain(
        "pelin12", _pelin12(corrected=False), 2, STANDARD,
        "degree-12 entry exactly as printed; fails the standard form with a "
        "27-monomial residual (documented transcription erratum in the "
        "z^2+zbar^2 coefficient)."))
    recs.append(TauRecord.plain(
        "pelin12-corrected", _pelin12(corrected=True), 2, STANDARD,
        "degree-12 entry with the z^2+zbar^2 coefficient replaced by "
        "-35277550/3; exact solution, unique by the n=6 gamma certificate."))

    for rid in ("lump2", "pelin6", "pelin12-corrected"):
        src = next(r for r in recs if r.id == rid)
        recs.append(TauRecord.plain(
            rid + "-bnew", _sqrt3_y_rescale(src.tau()), F(3, 2), BNEW,
            f"y -> sqrt(3) y rescaling of {rid}; q = (3/2) dxx log tau"))

    return {r.id: r for r in recs}


@cache  # built once, through the module name build_catalog (perfbench wraps it)
def catalog() -> Dict[str, TauRecord]:
    return build_catalog()


def get_record(rec_id: str) -> TauRecord:
    cat = catalog()
    try:
        return cat[rec_id]
    except KeyError:
        raise KeyError(
            f"unknown tau id {rec_id!r}; known: {sorted(cat)}") from None
