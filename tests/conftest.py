import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from lumps.polyring import Basis, ExactPoly, QQi

# bounded rationals keep hypothesis shrinking fast and arithmetic cheap
rationals = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6)


@st.composite
def gaussian_rationals(draw):
    return QQi(draw(rationals), draw(rationals))


@st.composite
def exact_polys(draw, basis=Basis.XY, max_degree=4, max_terms=5,
                real_only=False):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        i = draw(st.integers(0, max_degree))
        j = draw(st.integers(0, max_degree - i))
        coeff = QQi(draw(rationals)) if real_only else draw(gaussian_rationals())
        terms[(i, j)] = coeff
    return ExactPoly(terms, basis)


# Gaussian rationals far beyond one machine word, for the exact kernels
wide_rationals = st.builds(Fraction, st.integers(-10**40, 10**40),
                           st.integers(1, 10**30))


@st.composite
def wide_polys(draw, basis=Basis.XY, max_degree=4, max_terms=4):
    """Nonzero polynomials whose first term has a nonzero imaginary part."""
    n_terms = draw(st.integers(1, max_terms))
    terms = {}
    for n in range(n_terms):
        i = draw(st.integers(0, max_degree))
        j = draw(st.integers(0, max_degree - i))
        im = wide_rationals.filter(bool) if n == 0 else wide_rationals
        terms.setdefault((i, j), QQi(draw(wide_rationals), draw(im)))
    return ExactPoly(terms, basis)


def random_poly(rng: random.Random, basis=Basis.XY, max_degree=5,
                max_terms=6, real_only=True) -> ExactPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        im = Fraction(0) if real_only else Fraction(rng.randint(-9, 9),
                                                    rng.randint(1, 6))
        terms[(i, j)] = QQi(re, im)
    return ExactPoly(terms, basis)


@pytest.fixture
def rng():
    return random.Random(20240817)


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance pass/fail lines after capture is released."""
    try:
        from test_acceptance import SUMMARY_LINES
    except ImportError:
        return
    if SUMMARY_LINES:
        terminalreporter.section("acceptance criteria")
        for line in SUMMARY_LINES:
            terminalreporter.write_line(line)
