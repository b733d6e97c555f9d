"""Exact sparse bivariate polynomial arithmetic over the Gaussian rationals.

A polynomial is stored as Gaussian-integer numerators over one denominator:
a dictionary mapping exponent pairs ``(i, j)`` to nonzero pairs ``(re, im)``
of ints, and a positive int ``den``, with gcd(den, every re, every im) = 1.
That form is unique, so equality and hashing are structural.  ``QQi``
(complex numbers with ``Fraction`` real and imaginary parts) is the type at
the edge: coefficients given to the constructor, ``terms``, ``coeff``, the
interchange format and ``repr``.
Every polynomial carries a basis tag: either the real coordinates ``(x, y)``
or the complex coordinates ``(z, zbar)`` with ``z = x + iy``.  All arithmetic
is exact; nothing in this module touches floating point.

The tag is checked on every binary operation.  Mixing bases silently is the
most dangerous bug this representation admits, so it is a hard error.

Conversion between the two bases is the exact linear substitution

    x = (z + zbar)/2,   y = (z - zbar)/(2i)

and its inverse ``z = x + iy``, ``zbar = x - iy``; round trips are identities.

Every operation reads and writes numerators: sums over the lcm of the two
denominators, products and the Hirota kernel over their product, and each
result is reduced once by ``_reduced``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Mapping, Union

Rat = Union[int, Fraction]

#: The largest decimal exponent ``parse_rational`` accepts: CPython's default
#: int-string limit, which Fraction already applies to the digits before it.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\Z", re.IGNORECASE)


def parse_rational(value) -> Fraction:
    """The rational that ``str(value)`` writes, stripped: an integer, ``p/q``
    or a decimal.  ValueError on anything else, on a zero denominator, and on
    a decimal exponent above MAX_EXPONENT in magnitude, refused before
    Fraction would build 10**exponent (``1e10000000`` takes seconds)."""
    text = str(value).strip()
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1].replace("_", ""))) > MAX_EXPONENT:
        raise ValueError(f"decimal exponent above {MAX_EXPONENT} in magnitude: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class BasisMismatchError(ValueError):
    """Raised when a binary operation mixes (x,y)- and (z,zbar)-polynomials."""


class ExactDivisionError(ArithmeticError):
    """Raised when divide_exact is asked for a quotient that does not exist.

    Carries the nonzero remainder so callers can report the failure precisely.
    """

    def __init__(self, message: str, remainder: "ExactPoly"):
        super().__init__(message)
        self.remainder = remainder


@dataclass(frozen=True)
class QQi:
    """A Gaussian rational: ``re + im*i`` with exact Fraction components.

    Fractions keep denominators positive and in lowest terms, so equality
    of QQi values is exact structural equality.  QQi is a parse/print value
    with no arithmetic: every computation reads ``ExactPoly.numerators()``.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(value: "QQi | Rat") -> "QQi":
        """Coerce an int, Fraction or QQi to QQi; TypeError for any other type."""
        if isinstance(value, QQi):
            return value
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"exact coefficient expected, got {value!r}")
        return QQi(Fraction(value))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        return f"({self.re})+({self.im})i"

    def to_json(self) -> "str | dict":
        """Serialize: bare "p/q" string for real values, {re, im} otherwise."""
        if self.im == 0:
            return str(self.re)
        return {"re": str(self.re), "im": str(self.im)}

    @staticmethod
    def from_json(obj: "str | int | dict") -> "QQi":
        if isinstance(obj, dict):
            if not obj.keys() <= {"re", "im"}:
                raise ValueError(f"coefficient keys must be re, im; got {sorted(obj)}")
            return QQi(parse_rational(obj["re"]), parse_rational(obj.get("im", 0)))
        return QQi(parse_rational(obj))


ONE = QQi(Fraction(1))


class Basis(Enum):
    XY = "xy"
    ZZBAR = "zzbar"

    @property
    def axes(self) -> tuple:
        return ("x", "y") if self is Basis.XY else ("z", "zbar")


def grlex(key: tuple) -> tuple:
    """Sort key of exponent pairs in descending graded order: the highest
    total degree first, and within a degree the highest x (or z) power."""
    return (-(key[0] + key[1]), -key[0])


class ExactPoly:
    """Immutable sparse bivariate polynomial over the Gaussian rationals.

    ``_num`` maps exponent pairs to nonzero Gaussian-integer numerators
    ``(re, im)`` over the one denominator ``_den``, in the canonical form of
    the module docstring; the zero polynomial has an empty map and den 1.
    ``terms`` gives the QQi coefficients, in the stored order.  Instances are
    value-like: share them freely, never mutate them.
    """

    __slots__ = ("basis", "_den", "_num")

    def __init__(self, terms: Mapping[tuple, "QQi | Rat"], basis: Basis = Basis.XY):
        keys, coeffs = [], []
        for (i, j), c in terms.items():
            key = (int(i), int(j))
            if key != (i, j):
                raise ValueError(f"non-integral exponent in term ({i},{j})")
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term ({i},{j})")
            keys.append(key)
            coeffs.append(c if isinstance(c, (int, Fraction, QQi)) else QQi.of(c))
        den, scaled = _scaled(coeffs)
        self.basis = basis
        self._den = den  # the lcm of reduced denominators: gcd(den, nums) = 1
        self._num = {k: c for k, c in zip(keys, scaled) if c[0] or c[1]}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(basis: Basis = Basis.XY) -> "ExactPoly":
        return ExactPoly({}, basis)

    @staticmethod
    def constant(c: "QQi | Rat", basis: Basis = Basis.XY) -> "ExactPoly":
        return ExactPoly({(0, 0): QQi.of(c)}, basis)

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> dict:
        den = self._den
        return {key: QQi(Fraction(r, den), Fraction(m, den))
                for key, (r, m) in self._num.items()}

    def coeff(self, i: int, j: int) -> QQi:
        r, m = self._num.get((i, j), (0, 0))
        return QQi(Fraction(r, self._den), Fraction(m, self._den))

    def numerators(self) -> tuple:
        """(den, {(i, j): (re, im)}): the stored form, for the exact kernels;
        the map is shared and must not be mutated."""
        return self._den, self._num

    def is_zero(self) -> bool:
        return not self._num

    def total_degree(self) -> int:
        """Max of i+j over stored terms; the zero polynomial has degree 0."""
        if not self._num:
            return 0
        return max(i + j for (i, j) in self._num)

    def degree_in(self, axis: int) -> int:
        if not self._num:
            return 0
        return max(key[axis] for key in self._num)

    def num_terms(self) -> int:
        return len(self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return (self.basis is other.basis and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self.basis, self._den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        if not self._num:
            return f"ExactPoly(0, {self.basis.value})"
        vx, vy = self.basis.axes
        parts = []
        for (i, j) in sorted(self._num, key=grlex):
            mon = "".join(
                f"*{v}^{e}" for v, e in ((vx, i), (vy, j)) if e)
            parts.append(f"({self.coeff(i, j)}){mon}")
        return " + ".join(parts)

    # -- ring operations ----------------------------------------------

    def _require_same_basis(self, other: "ExactPoly", op: str) -> None:
        if self.basis is not other.basis:
            raise BasisMismatchError(
                f"cannot {op} a {self.basis.value}-polynomial and a "
                f"{other.basis.value}-polynomial; convert explicitly first")

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        self._require_same_basis(other, "add")
        den = lcm(self._den, other._den)
        ka, kb = den // self._den, den // other._den
        out = {key: (r * ka, m * ka) for key, (r, m) in self._num.items()}
        for key, (r, m) in other._num.items():
            ar, am = out.get(key, (0, 0))
            out[key] = (ar + r * kb, am + m * kb)
        return _reduced(out, den, self.basis)

    def __sub__(self, other: "ExactPoly") -> "ExactPoly":
        return self + (-other)

    def __neg__(self) -> "ExactPoly":
        return _reduced({k: (-r, -m) for k, (r, m) in self._num.items()},
                        self._den, self.basis)

    def __mul__(self, other: "ExactPoly") -> "ExactPoly":
        self._require_same_basis(other, "multiply")
        b = other._num.items()
        re: dict = {}
        im: dict = {}
        for (i1, j1), (r1, m1) in self._num.items():
            for (i2, j2), (r2, m2) in b:
                key = (i1 + i2, j1 + j2)
                re[key] = re.get(key, 0) + r1 * r2 - m1 * m2
                im[key] = im.get(key, 0) + r1 * m2 + m1 * r2
        return _reduced({key: (r, im[key]) for key, r in re.items()},
                        self._den * other._den, self.basis)

    def scale(self, c: "QQi | Rat") -> "ExactPoly":
        den_c, ((cr, cm),) = _scaled((QQi.of(c),))
        return _reduced({k: (r * cr - m * cm, r * cm + m * cr)
                         for k, (r, m) in self._num.items()},
                        self._den * den_c, self.basis)

    def __pow__(self, n: int) -> "ExactPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ExactPoly.constant(1, self.basis)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus -----------------------------------------------------

    def diff(self, axis: int, order: int = 1) -> "ExactPoly":
        """Exact partial derivative in the basis's variable 0 or 1."""
        if axis not in (0, 1):
            raise ValueError(f"axis index must be 0 or 1, got {axis!r}")
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        num = self._num
        for _ in range(order):
            out = {}
            for (i, j), (r, m) in num.items():
                e = (i, j)[axis]
                if e:
                    out[(i - 1, j) if axis == 0 else (i, j - 1)] = (r * e, m * e)
            num = out
        return _reduced(num, self._den, self.basis)

    # -- exact division -----------------------------------------------

    def divide_exact(self, divisor: "ExactPoly") -> "ExactPoly":
        """Return q with q * divisor == self, exactly.

        Division proceeds by leading-term elimination in graded-lex order.
        If the division leaves a nonzero remainder, ExactDivisionError is
        raised carrying that remainder.

        The remainder, the quotient and the stuck terms are held as
        numerators over one den; the divisor's leading coefficient is g0/den_g
        with N = |g0|^2.  Each step rescales all three by N, so the quotient
        term is R conj(g0) den_g for the remainder's leading numerator R, and
        the divisor's other numerators times R conj(g0) are subtracted as
        integers.  For a unit g0 (N = 1, as for every power of x^2 + y^2) the
        rescaling is skipped.
        """
        self._require_same_basis(divisor, "divide")
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        lead_g = min(divisor._num, key=grlex)
        gr0, gm0 = divisor._num[lead_g]
        norm, den_g = gr0 * gr0 + gm0 * gm0, divisor._den
        tail = [(key, g) for key, g in divisor._num.items() if key != lead_g]
        den = self._den
        rem = dict(self._num)
        quot: dict = {}
        stuck: dict = {}
        while rem:
            lead_r = min(rem, key=grlex)
            rr, rm = rem.pop(lead_r)
            di, dj = lead_r[0] - lead_g[0], lead_r[1] - lead_g[1]
            if di < 0 or dj < 0:
                stuck[lead_r] = (rr, rm)
                continue
            if norm != 1:
                rem, quot, stuck = (
                    {key: (r * norm, m * norm) for key, (r, m) in part.items()}
                    for part in (rem, quot, stuck))
                den *= norm
            fr, fm = rr * gr0 + rm * gm0, rm * gr0 - rr * gm0  # R conj(g0)
            quot[(di, dj)] = (fr * den_g, fm * den_g)
            # the leading term cancels by construction; subtract the rest
            for (gi, gj), (gr, gm) in tail:
                key = (gi + di, gj + dj)
                r, m = rem.get(key, (0, 0))
                r, m = r - (fr * gr - fm * gm), m - (fr * gm + fm * gr)
                if r or m:
                    rem[key] = (r, m)
                else:
                    rem.pop(key, None)
        if stuck:
            remainder = _reduced(stuck, den, self.basis)
            raise ExactDivisionError(
                f"polynomial division is not exact; remainder has "
                f"{remainder.num_terms()} term(s)", remainder)
        return _reduced(quot, den, self.basis)

    # -- basis conversion ---------------------------------------------

    def to_zzbar(self) -> "ExactPoly":
        """Substitute x = (z+zbar)/2, y = (z-zbar)/(2i); exact."""
        if self.basis is not Basis.XY:
            raise BasisMismatchError("to_zzbar expects an (x,y)-polynomial")
        # 2x -> z + zbar ; 2y -> -i z + i zbar
        return self._substitute(((1, 0), (1, 0)), ((0, -1), (0, 1)), 2, Basis.ZZBAR)

    def to_xy(self) -> "ExactPoly":
        """Substitute z = x + iy, zbar = x - iy; exact."""
        if self.basis is not Basis.ZZBAR:
            raise BasisMismatchError("to_xy expects a (z,zbar)-polynomial")
        return self._substitute(((1, 0), (0, 1)), ((1, 0), (0, -1)), 1, Basis.XY)

    def _substitute(self, first: tuple, second: tuple, den: int,
                    target: Basis) -> "ExactPoly":
        """self with its variables replaced by the linear forms first/den and
        second/den of the target's variables.

        A form holds the Gaussian integers (re, im) multiplying the target's
        two variables; its n-th power is a list indexed by the exponent of
        the second one.  Term (i, j) contributes c first^i second^j /
        den^(i+j), a Gaussian integer over D den^T (D the common denominator
        of self's coefficients, T the total degree).  Terms are added in
        sorted order and a sum that cancels is dropped, which makes the order
        of the result's monomials deterministic.  No float result depends on
        that order: the energy tables are filled by index and the pole
        evaluation sums exact integers.
        """
        def powers(form, n):
            (pr, pm), (qr, qm) = form
            table = [[(1, 0)]]
            for _ in range(n):
                prev = table[-1]
                nxt = [(0, 0)] * (len(prev) + 1)
                for s, (r, m) in enumerate(prev):
                    ar, am = nxt[s]
                    nxt[s] = (ar + r * pr - m * pm, am + r * pm + m * pr)
                    ar, am = nxt[s + 1]
                    nxt[s + 1] = (ar + r * qr - m * qm, am + r * qm + m * qr)
                table.append(nxt)
            return table

        total = self.total_degree()
        pow_first = powers(first, self.degree_in(0))
        pow_second = powers(second, self.degree_in(1))
        re: dict = {}
        im: dict = {}
        for (i, j) in sorted(self._num):
            k = den ** (total - i - j)
            cr, cm = self._num[(i, j)]
            cr, cm = cr * k, cm * k
            pr, pm = {}, {}  # first^i second^j, by exponent of the second variable
            for a, (ar, am) in enumerate(pow_first[i]):
                for b, (br, bm) in enumerate(pow_second[j]):
                    pr[a + b] = pr.get(a + b, 0) + ar * br - am * bm
                    pm[a + b] = pm.get(a + b, 0) + ar * bm + am * br
            for s, lr in pr.items():
                lm = pm[s]
                if not (lr or lm):
                    continue
                key = (i + j - s, s)
                r = re.get(key, 0) + cr * lr - cm * lm
                m = im.get(key, 0) + cr * lm + cm * lr
                if r or m:
                    re[key], im[key] = r, m
                else:
                    re.pop(key, None)
                    im.pop(key, None)
        return _reduced({key: (r, im[key]) for key, r in re.items()},
                        self._den * den ** total, target)

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = [[i, j, self.coeff(i, j).to_json()] for (i, j) in sorted(self._num)]
        return {"basis": self.basis.value, "terms": terms}

    @staticmethod
    def from_json_dict(obj: dict) -> "ExactPoly":
        """Parse the interchange form; ValueError on an exponent that is not a
        JSON integer (a float, string or boolean) or a repeated monomial."""
        basis = Basis(obj["basis"])
        terms = {}
        for entry in obj["terms"]:
            i, j, coeff = entry
            if type(i) is not int or type(j) is not int:
                raise ValueError(f"exponents must be integers, got {i!r}, {j!r}")
            if (i, j) in terms:
                raise ValueError(f"repeated monomial ({i},{j})")
            terms[(i, j)] = QQi.from_json(coeff)
        return ExactPoly(terms, basis)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1)

    @staticmethod
    def loads(text: str) -> "ExactPoly":
        """Parse an interchange file; ValueError on a repeated object key,
        which ``json.loads`` would otherwise settle by keeping the last."""
        return ExactPoly.from_json_dict(json.loads(text, object_pairs_hook=_unique_keys))


def _unique_keys(pairs) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError(f"repeated key in {[k for k, _ in pairs]}")
    return obj


def _scaled(coeffs) -> tuple:
    """(den, [(re, im), ...]): each coefficient (a QQi, int or Fraction) as the
    Gaussian integer re + im*i over one common denominator den > 0, the lcm
    of theirs."""
    parts = [(c.re, c.im) if isinstance(c, QQi) else (c, 0) for c in coeffs]
    den = 1
    for re, im in parts:
        den = lcm(den, re.denominator, im.denominator)
    return den, [(re.numerator * (den // re.denominator),
                  im.numerator * (den // im.denominator)) for re, im in parts]


def _reduced(num: dict, den: int, basis: Basis) -> ExactPoly:
    """The polynomial with coefficients num[key] / den in canonical form: the
    zero entries dropped and gcd(den, every numerator) divided out."""
    num = {key: c for key, c in num.items() if c[0] or c[1]}
    if den != 1:
        g = gcd(den, *chain.from_iterable(num.values()))
        if g != 1:
            den //= g
            num = {key: (r // g, m // g) for key, (r, m) in num.items()}
    poly = object.__new__(ExactPoly)
    poly.basis, poly._den, poly._num = basis, den, num
    return poly


# -- convenience builders used throughout the test-suite and catalog ----

def poly_xy(mapping: Mapping[tuple, "QQi | Rat"]) -> ExactPoly:
    return ExactPoly(mapping, Basis.XY)


def poly_zz(mapping: Mapping[tuple, "QQi | Rat"]) -> ExactPoly:
    return ExactPoly(mapping, Basis.ZZBAR)


def r_squared(basis: Basis = Basis.XY) -> ExactPoly:
    """x^2 + y^2 (or its (z,zbar) avatar z*zbar)."""
    if basis is Basis.XY:
        return ExactPoly({(2, 0): ONE, (0, 2): ONE}, Basis.XY)
    return ExactPoly({(1, 1): ONE}, Basis.ZZBAR)
