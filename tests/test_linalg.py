import random
from fractions import Fraction

import pytest
import sympy

from lieindex.linalg import (
    DEFAULT_PRIME,
    SparseEchelon,
    invert,
    is_probable_prime,
    mat_vec,
    nullspace,
    rank,
    rank_mod_p,
    rref,
    transpose,
)


def random_matrix(rng, nrows, ncols, fractions=False):
    def entry():
        num = rng.randint(-9, 9)
        if fractions and rng.random() < 0.4:
            return Fraction(num, rng.randint(1, 7))
        return Fraction(num)

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


class TestRank:
    def test_frozen_examples(self):
        assert rank([]) == 0
        assert rank([[0, 0], [0, 0]]) == 0
        assert rank([[1, 0], [0, 1]]) == 2
        assert rank([[1, 2], [2, 4]]) == 1
        assert rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
        assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]) == 1

    def test_against_sympy(self):
        rng = random.Random(101)
        for trial in range(60):
            nrows = rng.randint(1, 7)
            ncols = rng.randint(1, 7)
            m = random_matrix(rng, nrows, ncols, fractions=(trial % 2 == 0))
            expected = sympy.Matrix(nrows, ncols, [sympy.Rational(x) for row in m for x in row]).rank()
            assert rank(m) == expected

    def test_low_rank_products(self):
        # u v^T + w z^T has rank at most 2; sympy confirms the exact value.
        rng = random.Random(202)
        for _ in range(20):
            n = rng.randint(2, 8)
            u, v, w, z = ([rng.randint(-5, 5) for _ in range(n)] for _ in range(4))
            m = [[u[i] * v[j] + w[i] * z[j] for j in range(n)] for i in range(n)]
            r = rank(m)
            assert r <= 2
            assert r == sympy.Matrix(m).rank()

    def test_matches_modular_rank(self):
        rng = random.Random(303)
        for _ in range(30):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            m = [[rng.randint(-20, 20) for _ in range(ncols)] for _ in range(nrows)]
            assert rank(m) == rank_mod_p(m, DEFAULT_PRIME)

    def test_modular_rank_can_drop(self):
        assert rank([[DEFAULT_PRIME]]) == 1
        assert rank_mod_p([[DEFAULT_PRIME]], DEFAULT_PRIME) == 0


class TestRref:
    def test_canonical_form(self):
        rows, pivots = rref([[2, 4, 6], [1, 2, 4]])
        assert pivots == [0, 2]
        assert rows == [
            [Fraction(1), Fraction(2), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1)],
        ]

    def test_idempotent_and_pivot_columns(self):
        rng = random.Random(404)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), fractions=True)
            rows, pivots = rref(m)
            assert pivots == sorted(pivots)
            assert len(rows) == len(pivots) == rank(m)
            for r, p in enumerate(pivots):
                col = [row[p] for row in rows]
                assert col == [Fraction(int(i == r)) for i in range(len(rows))]
            again, again_pivots = rref(rows)
            assert again == rows and again_pivots == pivots

    def test_preserves_row_space(self):
        rng = random.Random(505)
        for _ in range(15):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            rows, _ = rref(m)
            stacked = [list(r) for r in m] + [list(r) for r in rows]
            assert rank(stacked) == rank(m)


class TestNullspace:
    def test_dimension_and_membership(self):
        rng = random.Random(606)
        for _ in range(25):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            m = random_matrix(rng, nrows, ncols, fractions=True)
            kernel = nullspace(m, ncols)
            assert len(kernel) == ncols - rank(m)
            for v in kernel:
                assert mat_vec(m, v) == [Fraction(0)] * nrows
            if kernel:
                assert rank(kernel) == len(kernel)

    def test_zero_matrix(self):
        kernel = nullspace([], 3)
        assert len(kernel) == 3
        assert rank(kernel) == 3


class TestSparseEchelon:
    def test_complement_and_membership_match_rref(self):
        # Non-pivot columns are the greedy lexicographically first complement,
        # and reduce() is empty exactly on the span; rref is the reference.
        rng = random.Random(808)
        for _ in range(40):
            ncols = rng.randint(1, 6)
            m = [[x if rng.random() < 0.5 else Fraction(0) for x in row]
                 for row in random_matrix(rng, rng.randint(1, 5), ncols, fractions=True)]
            ech = SparseEchelon({c: x for c, x in enumerate(row) if x} for row in m)

            def dim(rows):
                return len(rref(rows, ncols)[0])

            grown = list(m)
            for j in range(ncols):
                e = [Fraction(int(c == j)) for c in range(ncols)]
                assert (j not in ech.rows) == (dim(grown + [e]) > dim(grown))
                if j not in ech.rows:
                    grown.append(e)
                assert (not ech.reduce({j: 1})) == (dim(m + [e]) == dim(m))
            assert len(ech.rows) == dim(m)


class TestInvert:
    def test_round_trip(self):
        rng = random.Random(707)
        produced = 0
        while produced < 15:
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n, fractions=True)
            if rank(m) < n:
                continue
            produced += 1
            inv = invert(m)
            prod = [mat_vec(m, col) for col in transpose(inv)]
            ident = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
            assert prod == ident

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            invert([[1, 2], [2, 4]])


class TestPrimality:
    def test_known_values(self):
        assert is_probable_prime(2)
        assert is_probable_prime(DEFAULT_PRIME)
        assert not is_probable_prime(1)
        assert not is_probable_prime(0)
        assert not is_probable_prime(-7)
        assert not is_probable_prime(561)  # Carmichael number
        assert not is_probable_prime(DEFAULT_PRIME - 2)

    def test_against_sympy(self):
        for n in range(2, 500):
            assert is_probable_prime(n) == sympy.isprime(n)


def test_transpose_shape():
    assert transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]
