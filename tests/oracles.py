"""Independent brute-force oracles kept deliberately separate from the library.

The Hirota oracle uses the shift-variable definition: expand
f(x+h1, y+h2) * g(x-h1, y-h2) as a polynomial in four variables and read
off the (h1^a h2^b) coefficient times a! b!.  It never touches the
library's term-pair closed form, its axis coefficients or its
integer-scaled coefficient path.

The product oracle multiplies two polynomials term by term on a plain dict
of QQi coefficients, with no common-denominator scaling.

The energy oracle sums the midpoint rule row by row over the whole square
[-R, R]^2, with the textbook quotient formulas for q, q_x and v on the full
derivatives of tau.  It uses no parity fold, no even-power table and no
ratio form, and differentiates with numpy rather than the library.

The substitution oracle converts between the (x, y) and (z, zbar) bases by
the explicit binomial expansion of each monomial, on (re, im) pairs of plain
Fractions: no power tables, no common denominators, no QQi arithmetic.

The squares oracle evaluates x^2 -> x2, y^2 -> y2 term by term with
repeated QQi multiplication.

The division oracle is the leading-term elimination in graded-lex order on a
plain dict of QQi coefficients, one QQi operation per term and step.

The chain oracle runs the a/J, sigma and beta recursions exactly as the
classify docstrings state them, step by step in plain Fraction arithmetic
(no common denominators), with every structure constant taken from its own
falling-factorial axis sum; it imports neither classify nor hirota.
"""

from fractions import Fraction
from math import comb, factorial

import numpy as np

from lumps.polyring import Basis, ExactPoly, QQi

# four-variable sparse polynomial: (ix, iy, ih1, ih2) -> QQi


def _shift_expand(poly: ExactPoly, sign: int) -> dict:
    """f(x + s*h1, y + s*h2) as a 4-variable dict, s = +/-1."""
    out = {}
    for (i, j), c in poly.terms.items():
        for p in range(i + 1):
            for q in range(j + 1):
                w = comb(i, p) * comb(j, q) * sign ** (p + q)
                key = (i - p, j - q, p, q)
                cur = out.get(key, QQi())
                out[key] = cur + c * Fraction(w)
    return {k: v for k, v in out.items() if not v.is_zero()}


def _mul4(a: dict, b: dict) -> dict:
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            cur = out.get(key, QQi())
            out[key] = cur + ca * cb
    return {k: v for k, v in out.items() if not v.is_zero()}


def hirota_oracle(a: int, b: int, f: ExactPoly, g: ExactPoly) -> ExactPoly:
    """D1^a D2^b f.g via the shift-variable definition."""
    assert f.basis is g.basis
    product = _mul4(_shift_expand(f, +1), _shift_expand(g, -1))
    terms = {}
    for (ix, iy, ih1, ih2), c in product.items():
        if ih1 == a and ih2 == b:
            terms[(ix, iy)] = terms.get((ix, iy), QQi()) + c
    scale = Fraction(factorial(a) * factorial(b))
    return ExactPoly({k: v * scale for k, v in terms.items()}, f.basis)


def product_oracle(f: ExactPoly, g: ExactPoly) -> ExactPoly:
    """f * g by the schoolbook sum over term pairs, in QQi arithmetic."""
    assert f.basis is g.basis
    out = {}
    for (i1, j1), c1 in f.terms.items():
        for (i2, j2), c2 in g.terms.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, QQi()) + c1 * c2
    return ExactPoly(out, f.basis)


def _i_power(re: Fraction, im: Fraction, k: int) -> tuple:
    """(re + im i) * i^k as an (re, im) pair."""
    for _ in range(k % 4):
        re, im = -im, re
    return re, im


def substitute_oracle(poly: ExactPoly) -> ExactPoly:
    """poly in the other basis, one monomial at a time by the binomial theorem.

    x^i y^j = ((z+zbar)/2)^i (-i(z-zbar)/2)^j
            = sum_{p,q} C(i,p) C(j,q) (-1)^(j-q) (-i)^j / 2^(i+j)
                        z^(p+q) zbar^(i+j-p-q),
    z^a zbar^b = (x+iy)^a (x-iy)^b
               = sum_{p,q} C(a,p) C(b,q) i^p (-i)^q x^(a+b-p-q) y^(p+q).
    """
    to_zz = poly.basis is Basis.XY
    out = {}
    for (i, j), c in poly.terms.items():
        for p in range(i + 1):
            for q in range(j + 1):
                if to_zz:
                    w = Fraction(comb(i, p) * comb(j, q) * (-1) ** (j - q), 2 ** (i + j))
                    key, turn = (p + q, i + j - p - q), 3 * j
                else:
                    w = Fraction(comb(i, p) * comb(j, q))
                    key, turn = (i + j - p - q, p + q), p + 3 * q
                re, im = _i_power(c.re * w, c.im * w, turn)
                acc = out.setdefault(key, [Fraction(0), Fraction(0)])
                acc[0] += re
                acc[1] += im
    return ExactPoly({k: QQi(re, im) for k, (re, im) in out.items()},
                     Basis.ZZBAR if to_zz else Basis.XY)


def division_oracle(f: ExactPoly, g: ExactPoly) -> tuple:
    """(quotient, remainder) of f by g: leading-term elimination in graded-lex
    order, on QQi coefficients; a leading term g's cannot divide moves to the
    remainder."""
    assert f.basis is g.basis and not g.is_zero()

    def order_key(key):
        return (key[0] + key[1], key[0])

    gt = g.terms
    lead_g = max(gt, key=order_key)
    cg = gt[lead_g]
    rem = f.terms
    quot, stuck = {}, {}
    while rem:
        lead_r = max(rem, key=order_key)
        cr = rem.pop(lead_r)
        di, dj = lead_r[0] - lead_g[0], lead_r[1] - lead_g[1]
        if di < 0 or dj < 0:
            stuck[lead_r] = cr
            continue
        factor = cr / cg
        quot[(di, dj)] = quot.get((di, dj), QQi()) + factor
        for (gi, gj), gc in gt.items():
            key = (gi + di, gj + dj)
            s = rem.get(key, QQi()) - factor * gc
            if s.is_zero():
                rem.pop(key, None)
            else:
                rem[key] = s
        rem.pop(lead_r, None)
    return ExactPoly(quot, f.basis), ExactPoly(stuck, f.basis)


def squares_oracle(poly: ExactPoly, x2: QQi, y2: QQi) -> QQi:
    """sum c x2^(i/2) y2^(j/2) over the terms c x^i y^j, by repeated QQi
    multiplication."""
    total = QQi()
    for (i, j), c in poly.terms.items():
        for _ in range(i // 2):
            c = c * x2
        for _ in range(j // 2):
            c = c * y2
        total = total + c
    return total


def energy_oracle(tau: ExactPoly, half_width: float, step: float) -> float:
    """H(q), q = (3/2) dxx log tau, by the midpoint rule on [-R, R]^2.

    Each row evaluates the derivatives of tau on every node and forms

      q   = (3/2) (tau tau_xx - tau_x^2) / tau^2,
      q_x = (3/2) (tau^2 tau_xxx - 3 tau tau_x tau_xx + 2 tau_x^3) / tau^3,
      v   = (3/2) (tau tau_xy - tau_x tau_y) / tau^2,

    with integrand (3/2) q_x^2 + 4 q^3 - (3/2) q^2 - v^2.
    """
    P = np.polynomial.polynomial
    c = np.zeros((tau.degree_in(0) + 1, tau.degree_in(1) + 1))
    for (i, j), coeff in tau.terms.items():
        c[i, j] = float(coeff.re)
    derivs = (c, P.polyder(c, 1, axis=0), P.polyder(c, 1, axis=1),
              P.polyder(c, 2, axis=0), P.polyder(c, 3, axis=0),
              P.polyder(P.polyder(c, 1, axis=0), 1, axis=1))
    m = round(half_width / step)
    nodes = (np.arange(-m, m) + 0.5) * step
    total = 0.0
    for y in nodes:
        # collapse y first: d.T lists the x-coefficient vectors by power of y
        t, tx, ty, txx, txxx, txy = (P.polyval(nodes, P.polyval(y, d.T))
                                     for d in derivs)
        q = 1.5 * (t * txx - tx ** 2) / t ** 2
        qx = 1.5 * (t ** 2 * txxx - 3 * t * tx * txx + 2 * tx ** 3) / t ** 3
        v = 1.5 * (t * txy - tx * ty) / t ** 2
        total += float(np.sum(1.5 * qx ** 2 + 4 * q ** 3 - 1.5 * q ** 2 - v ** 2))
    return total * step * step


def _falling(a: int, s: int) -> int:
    out = 1
    for t in range(s):
        out *= a - t
    return out


def _axis(order: int, u: int, v: int) -> int:
    """D^order (t^u).(t^v) = this integer times t^{u+v-order}."""
    return sum((-1) ** r * comb(order, r) * _falling(u, order - r) * _falling(v, r)
               for r in range(order + 1))


def _zz(a: int, b: int, c: int, d: int) -> int:
    """Dz Dzbar (z^a zbar^b).(z^c zbar^d), coefficient of z^{a+c-1} zbar^{b+d-1}."""
    return _axis(1, a, c) * _axis(1, b, d)


def _pairs(total: int, ordered: bool):
    return [(i, total - i) for i in range(total + 1) if ordered or i <= total - i]


def chain_oracle(n: int, ordered: bool = True, gammas: bool = False) -> dict:
    """a_0..a_cap and J_n (cap = n // 3), sigma_0..sigma_{cap+1}, and gamma_q
    for q = 1..n // 2 when ``gammas`` is set.

    g_i = (x^2+y^2)^{n-3i} x^{2i} y^{2i} = (-1/16)^i (z zbar)^{n-3i}
    (z^2 - zbar^2)^{2i}.  Dividing D g_i.g_j by the power of z zbar = x^2+y^2
    and setting x^2 = -1, y^2 = 1 (z = 2i, zbar = 0) keeps only the lowest
    zbar power, so p(n, i, j) = 16 (-1)^{i+j} A(4, n-3i, n-3j) for Dx^4 and
    d(i, j) = 4 (-1)^{i+j} A(1, n+i, n+j) A(1, n-3i, n-3j) for Dx^2 + Dy^2.
    a_m solves sum_{i+j=m-1} a_i a_j p = sum_{i+j=m} a_i a_j d, the unknown
    sitting in the pairs that contain m; J_n = sum_{i+j=cap+1, i,j<=cap}
    a_i a_j d - sum_{i+j=cap} a_i a_j p.  The sigma and beta steps are the
    ones in the sigma_seq and beta_seq docstrings, with C4 = A(4, ., .) and
    every eigenfactor and eigenvalue a Dz Dzbar coefficient.
    """
    def p(i, j):
        return 16 * (-1) ** (i + j) * _axis(4, n - 3 * i, n - 3 * j)

    def d(i, j):
        return 4 * (-1) ** (i + j) * _zz(n + i, n - 3 * i, n + j, n - 3 * j)

    cap = n // 3
    a = [Fraction(1)]
    for m in range(1, cap + 1):
        rhs = sum((a[i] * a[j] * p(i, j) for i, j in _pairs(m - 1, ordered)),
                  Fraction(0))
        known = sum((a[i] * a[j] * d(i, j) for i, j in _pairs(m, ordered)
                     if m not in (i, j)), Fraction(0))
        unknown = sum(d(i, j) for i, j in _pairs(m, ordered) if m in (i, j))
        a.append((rhs - known) / unknown)
    J = (sum((a[i] * a[j] * d(i, j) for i, j in _pairs(cap + 1, ordered)
              if i <= cap and j <= cap), Fraction(0))
         - sum((a[i] * a[j] * p(i, j) for i, j in _pairs(cap, ordered)),
               Fraction(0)))

    sigma = [Fraction(1)]
    for j in range(1, cap + 2):
        rhs = Fraction(0)
        for k in range(j):
            m = j - 1 - k
            rhs += sigma[k] * sigma[m] * _axis(4, n - 3 * k, n - 3 * m)
        for k in range(1, j):
            m = j - k
            rhs -= 4 * sigma[k] * sigma[m] * _zz(n + k, n - 3 * k, n + m, n - 3 * m)
        sigma.append(rhs / (8 * _zz(n, n, n + j, n - 3 * j)))

    gamma = {}
    for q in range(1, n // 2 + 1 if gammas else 1):
        beta = [Fraction(1)]
        for j in range(1, (n - 2 * q) // 3 + 2):
            rhs = Fraction(0)
            for k in range(j):
                m = j - 1 - k
                rhs += sigma[k] * beta[m] * _axis(4, n - 3 * k, n - 2 * q - 3 * m)
            for k in range(1, j):
                m = j - k
                rhs -= 4 * sigma[k] * beta[m] * _zz(
                    n + k, n - 3 * k, n + m, n - 2 * q - 3 * m)
            beta.append(rhs / (4 * _zz(n, n, n + j, n - 2 * q - 3 * j)))
        gamma[q] = beta[-1]
    return {"a": a, "J": J, "sigma": sigma, "gamma": gamma}
