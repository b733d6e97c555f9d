"""Exact sparse bivariate polynomial arithmetic over the Gaussian rationals.

A polynomial is a dictionary mapping exponent pairs ``(i, j)`` to ``QQi``
coefficients (complex numbers with ``Fraction`` real and imaginary parts).
Every polynomial carries a basis tag: either the real coordinates ``(x, y)``
or the complex coordinates ``(z, zbar)`` with ``z = x + iy``.  All arithmetic
is exact; nothing in this module touches floating point.

The tag is checked on every binary operation.  Mixing bases silently is the
most dangerous bug this representation admits, so it is a hard error.

Conversion between the two bases is the exact linear substitution

    x = (z + zbar)/2,   y = (z - zbar)/(2i)

and its inverse ``z = x + iy``, ``zbar = x - iy``; round trips are identities.

Products, basis conversion, exact division and the square substitution run
on integer-scaled coefficients: the QQi coefficients are brought to one
common denominator, the inner loops work on Gaussian-integer numerators,
and the result is divided back once.  QQi stays the coefficient type of
every polynomial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Mapping, Union

Rat = Union[int, Fraction]


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
    of QQi values is exact structural equality.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(value: "QQi | Rat") -> "QQi":
        """Coerce an int, Fraction or QQi to QQi."""
        if isinstance(value, QQi):
            return value
        return QQi(Fraction(value))

    def __add__(self, other: "QQi | Rat") -> "QQi":
        o = QQi.of(other)
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: "QQi | Rat") -> "QQi":
        o = QQi.of(other)
        return QQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: "QQi | Rat") -> "QQi":
        return QQi.of(other) - self

    def __mul__(self, other: "QQi | Rat") -> "QQi":
        o = QQi.of(other)
        return QQi(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other: "QQi | Rat") -> "QQi":
        o = QQi.of(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi((self.re * o.re + self.im * o.im) / d,
                   (self.im * o.re - self.re * o.im) / d)

    def __neg__(self) -> "QQi":
        return QQi(-self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

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
            return QQi(Fraction(str(obj["re"])), Fraction(str(obj.get("im", 0))))
        return QQi(Fraction(str(obj)))


ZERO = QQi()
ONE = QQi(Fraction(1))


class Basis(Enum):
    XY = "xy"
    ZZBAR = "zzbar"

    @property
    def axes(self) -> tuple:
        return ("x", "y") if self is Basis.XY else ("z", "zbar")


def _axis_index(basis: Basis, var: "int | str") -> int:
    if isinstance(var, int):
        if var in (0, 1):
            return var
        raise ValueError(f"axis index must be 0 or 1, got {var}")
    names = basis.axes
    if var in names:
        return names.index(var)
    raise ValueError(f"unknown axis {var!r} for basis {basis.value}")


class ExactPoly:
    """Immutable sparse bivariate polynomial with QQi coefficients.

    ``terms`` maps exponent pairs to nonzero coefficients; the zero
    polynomial has an empty term map.  Instances are value-like: share
    them freely, never mutate them.
    """

    __slots__ = ("basis", "_terms")

    def __init__(self, terms: Mapping[tuple, "QQi | Rat"], basis: Basis = Basis.XY):
        clean = {}
        for (i, j), c in terms.items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term ({i},{j})")
            q = QQi.of(c)
            if not q.is_zero():
                clean[(int(i), int(j))] = q
        self.basis = basis
        self._terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(basis: Basis = Basis.XY) -> "ExactPoly":
        return ExactPoly({}, basis)

    @staticmethod
    def constant(c: "QQi | Rat", basis: Basis = Basis.XY) -> "ExactPoly":
        return ExactPoly({(0, 0): QQi.of(c)}, basis)

    @staticmethod
    def monomial(i: int, j: int, c: "QQi | Rat" = 1, basis: Basis = Basis.XY) -> "ExactPoly":
        return ExactPoly({(i, j): QQi.of(c)}, basis)

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def coeff(self, i: int, j: int) -> QQi:
        return self._terms.get((i, j), ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Max of i+j over stored terms; the zero polynomial has degree 0."""
        if not self._terms:
            return 0
        return max(i + j for (i, j) in self._terms)

    def degree_in(self, axis: int) -> int:
        if not self._terms:
            return 0
        return max(key[axis] for key in self._terms)

    def num_terms(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self.basis is other.basis and self._terms == other._terms

    def __hash__(self):
        return hash((self.basis, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
            return f"ExactPoly(0, {self.basis.value})"
        vx, vy = self.basis.axes
        parts = []
        for (i, j) in sorted(self._terms, key=lambda k: (-(k[0] + k[1]), -k[0])):
            c = self._terms[(i, j)]
            mon = "".join(
                f"*{v}^{e}" for v, e in ((vx, i), (vy, j)) if e)
            parts.append(f"({c}){mon}")
        return " + ".join(parts)

    # -- ring operations ----------------------------------------------

    def _require_same_basis(self, other: "ExactPoly", op: str) -> None:
        if self.basis is not other.basis:
            raise BasisMismatchError(
                f"cannot {op} a {self.basis.value}-polynomial and a "
                f"{other.basis.value}-polynomial; convert explicitly first")

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        self._require_same_basis(other, "add")
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, ZERO) + c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return ExactPoly(out, self.basis)

    def __sub__(self, other: "ExactPoly") -> "ExactPoly":
        return self + (-other)

    def __neg__(self) -> "ExactPoly":
        return ExactPoly({k: -c for k, c in self._terms.items()}, self.basis)

    def __mul__(self, other: "ExactPoly") -> "ExactPoly":
        self._require_same_basis(other, "multiply")
        den_a, a = _scaled(self._terms.values())
        den_b, b = _scaled(other._terms.values())
        re: dict = {}
        im: dict = {}
        for (i1, j1), (r1, m1) in zip(self._terms, a):
            for (i2, j2), (r2, m2) in zip(other._terms, b):
                key = (i1 + i2, j1 + j2)
                re[key] = re.get(key, 0) + r1 * r2 - m1 * m2
                im[key] = im.get(key, 0) + r1 * m2 + m1 * r2
        return _from_scaled(re, im, den_a * den_b, self.basis)

    def scale(self, c: "QQi | Rat") -> "ExactPoly":
        q = QQi.of(c)
        if q.is_zero():
            return ExactPoly.zero(self.basis)
        return ExactPoly({k: v * q for k, v in self._terms.items()}, self.basis)

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

    def diff(self, var: "int | str", order: int = 1) -> "ExactPoly":
        """Exact partial derivative in the basis's own variables."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        axis = _axis_index(self.basis, var)
        poly = self
        for _ in range(order):
            out = {}
            for (i, j), c in poly._terms.items():
                e = (i, j)[axis]
                if e == 0:
                    continue
                key = (i - 1, j) if axis == 0 else (i, j - 1)
                out[key] = out.get(key, ZERO) + c * e
            poly = ExactPoly(out, self.basis)
            if poly.is_zero():
                break
        return poly

    # -- evaluation ---------------------------------------------------

    def eval_complex(self, a: complex, b: complex) -> complex:
        total = 0j
        for (i, j), c in self._terms.items():
            total += complex(c) * (a ** i) * (b ** j)
        return total

    # -- exact division -----------------------------------------------

    def divide_exact(self, divisor: "ExactPoly") -> "ExactPoly":
        """Return q with q * divisor == self, exactly.

        Division proceeds by leading-term elimination in graded-lex order.
        If the division leaves a nonzero remainder, ExactDivisionError is
        raised carrying that remainder.

        The remainder is held as Gaussian-integer numerators over one
        denominator.  Each step forms one QQi quotient of the leading terms;
        when its denominator times the divisor's does not divide the
        remainder's, the remainder is rescaled to their lcm (never for a
        monic divisor with integer coefficients).
        """
        self._require_same_basis(divisor, "divide")
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")

        def order_key(key):
            return (key[0] + key[1], key[0])

        lead_g = max(divisor._terms, key=order_key)
        cg = divisor._terms[lead_g]
        den_g, gs = _scaled(divisor._terms.values())
        tail = [(key, g) for key, g in zip(divisor._terms, gs) if key != lead_g]
        den, scaled = _scaled(self._terms.values())
        re = dict(zip(self._terms, (r for r, _ in scaled)))
        im = dict(zip(self._terms, (m for _, m in scaled)))
        quot: dict = {}
        stuck: dict = {}
        while re:
            lead_r = max(re, key=order_key)
            cr = QQi(Fraction(re.pop(lead_r), den), Fraction(im.pop(lead_r), den))
            di, dj = lead_r[0] - lead_g[0], lead_r[1] - lead_g[1]
            if di < 0 or dj < 0:
                stuck[lead_r] = cr
                continue
            factor = cr / cg
            quot[(di, dj)] = factor
            den_f, ((fr, fm),) = _scaled((factor,))
            step = den_f * den_g
            if den % step:
                new = lcm(den, step)
                k = new // den
                re = {key: r * k for key, r in re.items()}
                im = {key: m * k for key, m in im.items()}
                den = new
            k = den // step
            fr, fm = fr * k, fm * k
            # the leading term cancels by construction; subtract the rest
            for (gi, gj), (gr, gm) in tail:
                key = (gi + di, gj + dj)
                r = re.get(key, 0) - (fr * gr - fm * gm)
                m = im.get(key, 0) - (fr * gm + fm * gr)
                if r or m:
                    re[key], im[key] = r, m
                else:
                    re.pop(key, None)
                    im.pop(key, None)
        if stuck:
            remainder = ExactPoly(stuck, self.basis)
            raise ExactDivisionError(
                f"polynomial division is not exact; remainder has "
                f"{remainder.num_terms()} term(s)", remainder)
        return ExactPoly(quot, self.basis)

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
        sorted order and a sum that cancels is dropped, which fixes the order
        of the result's monomials: float code that walks them (the energy
        tables, pole evaluation) sums in that order.
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
        den_c, scaled = _scaled(self._terms.values())
        coeffs = dict(zip(self._terms, scaled))
        re: dict = {}
        im: dict = {}
        for (i, j) in sorted(coeffs):
            k = den ** (total - i - j)
            cr, cm = coeffs[(i, j)]
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
        return _from_scaled(re, im, den_c * den ** total, target)

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = [[i, j, self._terms[(i, j)].to_json()]
                 for (i, j) in sorted(self._terms)]
        return {"basis": self.basis.value, "terms": terms}

    @staticmethod
    def from_json_dict(obj: dict) -> "ExactPoly":
        basis = Basis(obj["basis"])
        terms = {}
        for entry in obj["terms"]:
            i, j, coeff = entry
            terms[(int(i), int(j))] = QQi.from_json(coeff)
        return ExactPoly(terms, basis)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1)

    @staticmethod
    def loads(text: str) -> "ExactPoly":
        return ExactPoly.from_json_dict(json.loads(text))


def _scaled(coeffs) -> tuple:
    """(den, [(re, im), ...]): each QQi of coeffs as the Gaussian integer
    re + im*i over one common denominator den > 0."""
    coeffs = list(coeffs)
    den = 1
    for c in coeffs:
        den = lcm(den, c.re.denominator, c.im.denominator)
    return den, [(c.re.numerator * (den // c.re.denominator),
                  c.im.numerator * (den // c.im.denominator)) for c in coeffs]


def _from_scaled(re: dict, im: dict, den: int, basis: Basis) -> ExactPoly:
    """The polynomial with coefficients (re[k] + im[k]*i) / den; zeros dropped."""
    out = {}
    for key, r in re.items():
        m = im[key]
        if r or m:
            out[key] = QQi(Fraction(r, den), Fraction(m, den))
    return ExactPoly(out, basis)


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
