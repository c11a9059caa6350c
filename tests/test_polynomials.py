import random
from fractions import Fraction

import pytest
import sympy

from lieindex.polynomials import Poly, bareiss_rank

SYMS = sympy.symbols("y0:8")


def random_poly(rng, nvars=3, max_terms=3, max_deg=2):
    p = Poly.zero()
    for _ in range(rng.randint(0, max_terms)):
        t = Poly.constant(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(0, max_deg)):
            t = t * Poly.variable(rng.randrange(nvars))
        p = p + t
    return p


def to_sympy(p):
    expr = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in mono:
            term *= SYMS[v] ** e
        expr += term
    return expr


class TestArithmetic:
    def test_constructors(self):
        assert Poly.zero().is_zero
        assert Poly.constant(0).is_zero
        assert Poly.constant(3).terms == {(): Fraction(3)}
        assert Poly.variable(2).terms == {((2, 1),): Fraction(1)}
        assert Poly.linear_form({0: 2, 1: 0, 3: -1}).terms == {
            ((0, 1),): Fraction(2),
            ((3, 1),): Fraction(-1),
        }

    def test_ring_identities(self):
        rng = random.Random(11)
        for _ in range(40):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a + b == b + a
            assert a * b == b * a
            assert (a - a).is_zero
            assert (a * b) * c == a * (b * c)
            assert a + Poly.zero() == a

    def test_cancellation(self):
        x, y = Poly.variable(0), Poly.variable(1)
        assert ((x + y) * (x - y)) == x * x - y * y
        assert (x * y - y * x).is_zero

    def test_leading_term(self):
        x, y = Poly.variable(0), Poly.variable(1)
        p = x * y + y + Poly.constant(5)
        mono, coeff = p.leading()
        assert mono == ((0, 1), (1, 1)) and coeff == Fraction(1)
        with pytest.raises(ValueError):
            Poly.zero().leading()

    def test_equality_and_hash(self):
        x = Poly.variable(0)
        assert x + x == Poly.linear_form({0: 2})
        assert hash(x * x) == hash(Poly.variable(0) * Poly.variable(0))


class TestExactDiv:
    def test_round_trip(self):
        rng = random.Random(22)
        done = 0
        while done < 30:
            a = random_poly(rng)
            b = random_poly(rng)
            if b.is_zero:
                continue
            done += 1
            assert (a * b).exact_div(b) == a

    def test_multi_term_divisor(self):
        x, y = Poly.variable(0), Poly.variable(1)
        product = (x + y) * (x - y + Poly.constant(2))
        assert product.exact_div(x + y) == x - y + Poly.constant(2)

    def test_inexact_raises(self):
        x, y = Poly.variable(0), Poly.variable(1)
        with pytest.raises(ArithmeticError):
            (x * x + y).exact_div(x)
        with pytest.raises(ZeroDivisionError):
            x.exact_div(Poly.zero())

    def test_zero_dividend(self):
        assert Poly.zero().exact_div(Poly.variable(1)).is_zero


class TestBareissRank:
    def test_constant_matrices_match_rational_rank(self):
        rng = random.Random(33)
        for _ in range(20):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 5)
            m = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
            pm = [[Poly.constant(x) for x in row] for row in m]
            assert bareiss_rank(pm) == sympy.Matrix(m).rank()

    def test_against_sympy_symbolic_rank(self):
        rng = random.Random(44)
        for _ in range(15):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 4)
            pm = [
                [random_poly(rng, nvars=3, max_terms=2, max_deg=1) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            sm = sympy.Matrix(nrows, ncols, [to_sympy(p) for row in pm for p in row])
            assert bareiss_rank(pm) == sm.rank()

    def test_skew_linear_matrices(self):
        # The shape that actually occurs: skew matrices of linear forms have
        # even generic rank.
        rng = random.Random(55)
        for _ in range(10):
            n = rng.randint(2, 5)
            pm = [[Poly.zero() for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    f = Poly.linear_form(
                        {v: rng.randint(-2, 2) for v in range(n) if rng.random() < 0.6}
                    )
                    pm[i][j] = f
                    pm[j][i] = -f
            r = bareiss_rank(pm)
            assert r % 2 == 0
            sm = sympy.Matrix(n, n, [to_sympy(p) for row in pm for p in row])
            assert r == sm.rank()

    def test_zero_and_empty(self):
        assert bareiss_rank([]) == 0
        assert bareiss_rank([[Poly.zero()]]) == 0
