import copy
import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from families import catalogue_algebras
from lieindex import polynomials
from lieindex.free_nilpotent import build_free_nilpotent, build_metabelian
from lieindex.graphs import SimpleGraph, build_graph_algebra
from lieindex.index import certified_generic_rank
from lieindex.polynomials import _exact_div, _mul, bareiss_rank

SYMS = sympy.symbols("y0:8")


def random_poly(rng, max_terms=4, max_exp=6):
    """A polynomial in Z[t] as {exponent: nonzero int}."""
    p = {}
    for _ in range(rng.randint(0, max_terms)):
        c = rng.randint(-4, 4)
        if c:
            p[rng.randint(0, max_exp)] = c
    return p


def add(a, b):
    return _mul(b, {0: 1}, dict(a))


def random_monomial(rng, max_exp=6):
    return {rng.randint(0, max_exp): rng.choice((-1, 1)) * rng.randint(1, 9)}


def sympy_generic_rank(rows, ncols):
    """Exact rank over Q(y) of sparse rows of linear forms, by sympy's
    DomainMatrix over the fraction field of the variables that occur."""
    m = sympy.zeros(len(rows), ncols)
    for i, row in enumerate(rows):
        for j, form in row.items():
            m[i, j] = sum((c * SYMS[v] for v, c in form.items()), sympy.Integer(0))
    gens = sorted(m.free_symbols, key=SYMS.index)
    return DomainMatrix.from_Matrix(m).convert_to(QQ.frac_field(*gens) if gens else QQ).rank()


def sparse_linear_rows(rng, nrows, ncols, density, nvars=4):
    """Linear forms with small integer coefficients, most entries absent; a
    present form may still be zero."""
    return [
        {
            j: {v: rng.randint(-3, 3) for v in range(nvars) if rng.random() < 0.5}
            for j in range(ncols)
            if rng.random() < density
        }
        for _ in range(nrows)
    ]


def is_zero(form):
    return not any(form.values())


def skew(rng, n, nvars, coeff):
    rows = [{} for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            f = {v: coeff(rng) for v in range(nvars) if rng.random() < 0.6}
            rows[i][j] = f
            rows[j][i] = {v: -c for v, c in f.items()}
    return rows


class TestArithmetic:
    # _mul is the product in Z[t], accumulated into its third argument.

    def test_ring_identities(self):
        rng = random.Random(11)
        for _ in range(40):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert _mul(add(a, b), c) == add(_mul(a, c), _mul(b, c))
            assert add(a, b) == add(b, a)
            assert _mul(a, b) == _mul(b, a)
            assert _mul(_mul(a, b), c) == _mul(a, _mul(b, c))
            assert add(a, {}) == a and _mul(a, {}) == {}
            assert _mul(a, b, _mul(a, b)) == _mul(a, _mul(b, {0: 2}))

    def test_monomial_product_matches_general(self):
        # A one-term left factor without an accumulator is shifted and scaled;
        # with an (empty) accumulator the same product takes the convolution.
        rng = random.Random(13)
        for _ in range(200):
            a, b = random_monomial(rng), random_poly(rng)
            p = _mul(a, b)
            assert p == _mul(a, b, {})
            assert len(p) == len(b) and all(type(c) is int and c for c in p.values())

    def test_cancellation(self):
        x, one = {1: 1}, {0: 1}
        assert _mul(add(x, one), add(x, {0: -1})) == {2: 1, 0: -1}
        a = {3: 2, 1: -5, 0: 7}
        assert _mul(a, {0: -1}, dict(a)) == {}


class TestExactDiv:
    def test_round_trip(self):
        rng = random.Random(22)
        done = 0
        while done < 30:
            a = random_poly(rng)
            b = random_poly(rng)
            if not b:
                continue
            done += 1
            assert _exact_div(_mul(a, b), b) == a

    def test_multi_term_divisor(self):
        # (t^2 + t)(t^2 - t + 2) / (t^2 + t): the remainder's terms are
        # produced out of order and some cancel.
        d, q = {2: 1, 1: 1}, {2: 1, 1: -1, 0: 2}
        assert _exact_div(_mul(d, q), d) == q
        assert _exact_div(_mul(d, d), d) == d

    def test_inexact_raises(self):
        with pytest.raises(ArithmeticError):
            _exact_div({2: 1, 0: 1}, {1: 1})  # t^2 + 1 by t
        with pytest.raises(ArithmeticError):
            _exact_div({2: 1, 0: 1}, {1: 1, 0: 1})  # t^2 + 1 by t + 1
        with pytest.raises(ArithmeticError):
            _exact_div({1: 3}, {1: 2})  # 3t by 2t: not over Z
        with pytest.raises(ArithmeticError):
            _exact_div(add(_mul({1: 4, 0: 2}, {2: 3}), {1: 1}), {1: 2, 0: 1})

    def test_monomial_divisor(self):
        # A one-term divisor divides term by term: 6t^5 - 4t^3 + 10t^2 by 2t^2.
        assert _exact_div({5: 6, 3: -4, 2: 10}, {2: 2}) == {3: 3, 1: -2, 0: 5}
        assert _exact_div({4: -9, 1: 3}, {0: -3}) == {4: 3, 1: -1}
        rng = random.Random(24)
        for _ in range(100):
            a, d = random_poly(rng), random_monomial(rng)
            assert _exact_div(_mul(a, d), d) == a
        with pytest.raises(ArithmeticError):
            _exact_div({3: 4, 2: 3}, {1: 2})  # 4t^3 + 3t^2 by 2t: 2 does not divide 3
        with pytest.raises(ArithmeticError):
            _exact_div({3: 4, 0: 2}, {1: 2})  # 4t^3 + 2 by 2t: t^-1 is no term of Z[t]

    def test_integral_quotient_stays_int(self):
        a = {5: 6, 3: -4, 0: 9}
        for d in ({0: 3}, {4: 3, 1: -1}, a):
            q = _exact_div(_mul(a, d), d)
            assert q == a
            assert all(type(c) is int for c in q.values())

    def test_zero_dividend(self):
        assert _exact_div({}, {1: 1}) == {}
        assert _exact_div({}, {1: 1, 0: 2}) == {}


class TestBareissRank:
    def test_constant_matrices_match_rational_rank(self):
        # Constants as forms in one variable: rank over Q(y0) is the rank over Q.
        rng = random.Random(33)
        for _ in range(20):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 5)
            m = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
            rows = [{j: {0: x} for j, x in enumerate(row)} for row in m]
            assert bareiss_rank(rows) == sympy.Matrix(m).rank()

    def test_against_sympy_symbolic_rank(self):
        # Dense forms in three variables, every entry present.
        rng = random.Random(44)
        for _ in range(15):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 4)
            rows = sparse_linear_rows(rng, nrows, ncols, 1.0, nvars=3)
            assert bareiss_rank(rows) == sympy_generic_rank(rows, ncols)

    def test_skew_linear_matrices(self):
        # The shape that actually occurs: skew matrices of linear forms have
        # even generic rank.
        rng = random.Random(55)
        for _ in range(10):
            n = rng.randint(2, 5)
            rows = skew(rng, n, n, lambda rng: rng.randint(-2, 2))
            r = bareiss_rank(rows)
            assert r % 2 == 0
            assert r == sympy_generic_rank(rows, n)

    def test_sparse_rectangular_matrices(self):
        # Sparse entries: most rows have no entry in the pivot column, and
        # zero rows and columns occur; tall, wide and square up to 10 x 10.
        rng = random.Random(66)
        zero_rows = zero_cols = 0
        for _ in range(40):
            nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
            rows = sparse_linear_rows(rng, nrows, ncols, rng.choice((0.15, 0.3, 0.5)))
            zero_rows += any(all(is_zero(f) for f in row.values()) for row in rows)
            zero_cols += any(all(is_zero(row.get(j, {})) for row in rows) for j in range(ncols))
            assert bareiss_rank(rows) == sympy_generic_rank(rows, ncols)
        assert zero_rows and zero_cols

    def test_larger_skew_matrices(self):
        # Sparse forms in three variables: sympy's rank stays fast up to n = 12.
        rng = random.Random(77)
        for n in (6, 7, 8, 9, 10, 12):
            rows = skew(rng, n, 3, lambda rng: rng.randint(-3, 3) if rng.random() < 0.3 else 0)
            r = bareiss_rank(rows)
            assert r % 2 == 0
            assert r == sympy_generic_rank(rows, n)

    def test_block_diagonal(self):
        # After a pivot in one block, the rows of the other have no entry in
        # its column and are only scaled; the ranks of the blocks add up.
        x, y, z = ({v: 1} for v in range(3))
        assert bareiss_rank([{0: x}, {1: y}]) == 2
        rows = [
            {0: x, 1: y},
            {0: y, 1: x},
            {},
            {2: z, 4: {0: 1, 2: 1}},
            {2: x, 4: {0: 2}},
            {2: {0: 1, 2: 1}, 4: {0: 3, 2: 1}},
        ]
        assert bareiss_rank(rows) == sympy_generic_rank(rows, 5) == 4

    def test_minor_reaches_the_exponent_bound(self):
        # y0 on the diagonal, forms in y1 and y2 elsewhere: the determinant
        # has the term y0^n, n the number of nonzero rows, one below the base
        # of the substitution, so a packed exponent uses its top digit.
        rng = random.Random(12)
        for n in (1, 2, 3, 4, 5):
            for _ in range(4):
                rows = [
                    {j: {0: 1} if i == j else {v: rng.randint(-2, 2) for v in (1, 2)} for j in range(n)}
                    for i in range(n)
                ]
                assert bareiss_rank(rows) == sympy_generic_rank(rows, n) == n
            assert bareiss_rank([{j: {0: 1} if i == j else {1: 1} for j in range(n)} for i in range(n)]) == n
            # y1 on the diagonal, y0 above it, s*y2 in the corner: one sign s
            # makes the determinant y1^n - y0^(n-1) y2, whose terms a base of
            # n - 1 would merge, and the rank would drop.
            for s in (1, -1):
                rows = [{i: {1: 1}, i + 1: {0: 1}} for i in range(n - 1)] + [{0: {2: s}, n - 1: {1: 1}}]
                assert bareiss_rank(rows) == n

    def test_monomial_branches_keep_the_ranks(self, monkeypatch):
        # Bareiss with every product through the convolution and every division
        # through the heap gives the same ranks as with the term-by-term branches.
        # Dividing a (t + 1) by d (t + 1) is a / d, and exact just when a / d is:
        # Z[t] is a domain and t + 1 is monic.  d (t + 1) has two terms or more.
        algebras = [g for _, g in catalogue_algebras() if g.dim <= 20] + [
            build_free_nilpotent(2, 6).algebra,
            build_free_nilpotent(3, 4).algebra,
            build_metabelian(3, 4).algebra,
            build_metabelian(2, 7).algebra,
            build_graph_algebra(SimpleGraph(7, tuple(combinations(range(7), 2)))),
        ]
        ranks = [certified_generic_rank(g) for g in algebras]
        mul, div, t1 = polynomials._mul, polynomials._exact_div, {1: 1, 0: 1}
        monkeypatch.setattr(polynomials, "_mul", lambda a, b, out=None: mul(a, b, {} if out is None else out))
        monkeypatch.setattr(polynomials, "_exact_div", lambda a, d: div(mul(a, t1, {}), mul(d, t1, {})))
        assert [certified_generic_rank(g) for g in algebras] == ranks

    def test_integer_scaled_copies_agree(self):
        # Scaling rows or the whole matrix by nonzero integers keeps the rank.
        rng = random.Random(88)
        for _ in range(20):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            rows = sparse_linear_rows(rng, nrows, ncols, 0.4)
            r = bareiss_rank(rows)
            c = rng.randint(2, 9)
            assert bareiss_rank([{j: {v: c * a for v, a in f.items()} for j, f in row.items()} for row in rows]) == r
            scales = [rng.choice((-1, 1)) * rng.randint(1, 5) for _ in rows]
            assert bareiss_rank(
                [{j: {v: s * a for v, a in f.items()} for j, f in row.items()} for row, s in zip(rows, scales)]
            ) == r

    def test_input_is_left_unchanged(self):
        rng = random.Random(99)
        rows = sparse_linear_rows(rng, 6, 6, 0.5)
        before = copy.deepcopy(rows)
        bareiss_rank(rows)
        assert rows == before

    def test_rejects_non_int_coefficients(self):
        # Floor division would mis-divide Fractions; integral ones are refused too.
        for c in (Fraction(1, 2), Fraction(2), 1.0):
            with pytest.raises(TypeError):
                bareiss_rank([{0: {0: 1}}, {1: {1: c}}])

    def test_zero_and_empty(self):
        assert bareiss_rank([]) == 0
        assert bareiss_rank([{0: {}}]) == 0
        assert bareiss_rank([{0: {1: 0}, 2: {}}]) == 0
        assert bareiss_rank([{}, {}]) == 0

