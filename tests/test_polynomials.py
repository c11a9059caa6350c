import random
from fractions import Fraction

import pytest
import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

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


def sympy_generic_rank(pm, ncols=None):
    """Exact rank over Q(y) of a matrix of Polys, by sympy's DomainMatrix over
    the fraction field of the variables that occur."""
    ncols = len(pm[0]) if ncols is None else ncols
    m = sympy.Matrix(len(pm), ncols, [to_sympy(p) for row in pm for p in row])
    gens = sorted(m.free_symbols, key=SYMS.index)
    return DomainMatrix.from_Matrix(m).convert_to(QQ.frac_field(*gens) if gens else QQ).rank()


def sparse_linear_matrix(rng, nrows, ncols, density, nvars=4):
    """Linear forms with small integer coefficients, most entries zero."""
    return [
        [
            Poly.linear_form({v: rng.randint(-3, 3) for v in range(nvars) if rng.random() < 0.5})
            if rng.random() < density
            else Poly.zero()
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def skew(rng, n, nvars, coeff):
    pm = [[Poly.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            f = Poly.linear_form({v: coeff(rng) for v in range(nvars) if rng.random() < 0.6})
            pm[i][j] = f
            pm[j][i] = -f
    return pm


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
        with pytest.raises(ArithmeticError):
            (x * x + y).exact_div(x + y)
        with pytest.raises(ArithmeticError):
            (Poly.linear_form({0: 4, 1: 2}) * Poly.linear_form({2: 3}) + y).exact_div(
                Poly.linear_form({0: 2, 1: 1})
            )
        with pytest.raises(ZeroDivisionError):
            x.exact_div(Poly.zero())

    def test_integral_quotient_stays_int(self):
        a = Poly.linear_form({0: 6, 1: -4, 2: 9})
        for d in (Poly.linear_form({2: 3}), Poly.linear_form({0: 3, 1: -1}), a):
            q = (a * d).exact_div(d)
            assert q == a
            assert all(type(c) is int for c in q.terms.values())

    def test_non_integral_quotient_is_an_exact_fraction(self):
        a = Poly.linear_form({0: 3, 1: 1})
        q = a.exact_div(Poly.linear_form({0: 2, 1: Fraction(2, 3)}))
        assert q.terms == {(): Fraction(3, 2)} and type(q.terms[()]) is Fraction
        q = (a * Poly.variable(1)).exact_div(Poly.linear_form({1: 2}))
        assert q.terms == {((0, 1),): Fraction(3, 2), ((1, 1),): Fraction(1, 2)}
        assert q * Poly.linear_form({1: 2}) == a * Poly.variable(1)

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
            assert bareiss_rank(pm) == sympy_generic_rank(pm)

    def test_skew_linear_matrices(self):
        # The shape that actually occurs: skew matrices of linear forms have
        # even generic rank.
        rng = random.Random(55)
        for _ in range(10):
            n = rng.randint(2, 5)
            pm = skew(rng, n, n, lambda rng: rng.randint(-2, 2))
            r = bareiss_rank(pm)
            assert r % 2 == 0
            assert r == sympy_generic_rank(pm)

    def test_sparse_rectangular_matrices(self):
        # Sparse entries: most rows have no entry in the pivot column, and
        # zero rows and columns occur; tall, wide and square up to 10 x 10.
        rng = random.Random(66)
        zero_rows = zero_cols = 0
        for _ in range(40):
            nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
            pm = sparse_linear_matrix(rng, nrows, ncols, rng.choice((0.15, 0.3, 0.5)))
            zero_rows += any(all(p.is_zero for p in row) for row in pm)
            zero_cols += any(all(row[j].is_zero for row in pm) for j in range(ncols))
            assert bareiss_rank(pm) == sympy_generic_rank(pm)
        assert zero_rows and zero_cols

    def test_larger_skew_matrices(self):
        # Sparse forms in three variables: sympy's rank stays fast up to n = 12.
        rng = random.Random(77)
        for n in (6, 7, 8, 9, 10, 12):
            pm = skew(rng, n, 3, lambda rng: rng.randint(-3, 3) if rng.random() < 0.3 else 0)
            r = bareiss_rank(pm)
            assert r % 2 == 0
            assert r == sympy_generic_rank(pm)

    def test_block_diagonal(self):
        # After a pivot in one block, the rows of the other have no entry in
        # its column and are only scaled; the ranks of the blocks add up.
        x, y, z = (Poly.variable(v) for v in range(3))
        o = Poly.zero()
        assert bareiss_rank([[x, o], [o, y]]) == 2
        pm = [
            [x, y, o, o, o],
            [y, x, o, o, o],
            [o, o, o, o, o],
            [o, o, z, o, x + z],
            [o, o, x, o, x * Poly.constant(2)],
            [o, o, x + z, o, x * Poly.constant(3) + z],
        ]
        assert bareiss_rank(pm) == sympy_generic_rank(pm) == 4

    def test_integer_and_fraction_scaled_copies_agree(self):
        # Scaling rows or the whole matrix by nonzero rationals keeps the rank;
        # the integer copy runs over Z[y], the scaled copies over Q[y].
        rng = random.Random(88)
        for _ in range(20):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            pm = sparse_linear_matrix(rng, nrows, ncols, 0.4)
            r = bareiss_rank(pm)
            c = Poly.constant(Fraction(rng.randint(1, 9), rng.randint(2, 9)))
            assert bareiss_rank([[p * c for p in row] for row in pm]) == r
            scales = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 7)) for _ in pm]
            assert bareiss_rank([[p * Poly.constant(f) for p in row] for row, f in zip(pm, scales)]) == r

    def test_input_is_left_unchanged(self):
        rng = random.Random(99)
        pm = sparse_linear_matrix(rng, 6, 6, 0.5)
        before = [[Poly(dict(p.terms)) for p in row] for row in pm]
        bareiss_rank(pm)
        assert pm == before

    def test_zero_and_empty(self):
        assert bareiss_rank([]) == 0
        assert bareiss_rank([[Poly.zero()]]) == 0
        assert bareiss_rank([[], []]) == 0
