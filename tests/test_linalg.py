import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
import sympy
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from lieindex import linalg
from lieindex.algebra import Subspace, center, centralizer
from lieindex.free_nilpotent import build_free_nilpotent, build_metabelian
from lieindex.index import _check_prime, _form_ranks, index
from lieindex.linalg import (
    DEFAULT_PRIME,
    SparseEchelon,
    is_probable_prime,
    rank,
    rank_mod_p,
)

from families import assert_exact, change_basis, form_matrix, index_module, shifted_basis, unitriangular_basis


def random_matrix(rng, nrows, ncols, fractions=False):
    def entry():
        num = rng.randint(-9, 9)
        if fractions and rng.random() < 0.4:
            return Fraction(num, rng.randint(1, 7))
        return Fraction(num)

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def sparse_rows(m):
    return [{c: x for c, x in enumerate(row) if x} for row in m]


def sympy_matrix(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(x) for row in rows for x in row])


def sympy_rref(rows, ncols):
    """Nonzero rows of sympy's reduced row-echelon form, as Fraction tuples."""
    red, pivots = sympy_matrix(rows, ncols).rref()
    return tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in red.row(r)) for r in range(len(pivots))
    )


def echelon_rank(m):
    """Rank over Q as the package computes it: the pivot count of SparseEchelon."""
    return len(SparseEchelon(sparse_rows(m)).rows)


def sympy_rank(m, ncols):
    return sympy_matrix(m, ncols).rank()


class TestRank:
    def test_frozen_examples(self):
        assert echelon_rank([]) == 0
        assert echelon_rank([[0, 0], [0, 0]]) == 0
        assert echelon_rank([[1, 0], [0, 1]]) == 2
        assert echelon_rank([[1, 2], [2, 4]]) == 1
        assert echelon_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
        assert echelon_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]) == 1

    def test_against_sympy(self):
        rng = random.Random(101)
        for trial in range(60):
            nrows = rng.randint(1, 7)
            ncols = rng.randint(1, 7)
            m = random_matrix(rng, nrows, ncols, fractions=(trial % 2 == 0))
            assert echelon_rank(m) == sympy_rank(m, ncols)

    def test_low_rank_products(self):
        # u v^T + w z^T has rank at most 2; sympy confirms the exact value.
        rng = random.Random(202)
        for _ in range(20):
            n = rng.randint(2, 8)
            u, v, w, z = ([rng.randint(-5, 5) for _ in range(n)] for _ in range(4))
            m = [[u[i] * v[j] + w[i] * z[j] for j in range(n)] for i in range(n)]
            r = echelon_rank(m)
            assert r <= 2
            assert r == sympy.Matrix(m).rank()

    def test_matches_modular_rank(self):
        # Entries stay below 21 in absolute value after reduction, so every
        # minor is far below p (Hadamard) and the rank over Q is the exact
        # reference.  Rows are sparse, some empty; entries are negative or
        # shifted by multiples of p; shapes run from wide to tall.
        p = DEFAULT_PRIME
        rng = random.Random(303)
        shapes = [(1, 1), (1, 9), (2, 9), (3, 12), (9, 2), (12, 3), (6, 6), (8, 5)]
        for trial in range(60):
            nrows, ncols = shapes[trial % len(shapes)]
            m = [[rng.randint(-20, 20) if rng.random() < 0.5 else 0 for _ in range(ncols)]
                 for _ in range(nrows)]
            if trial % 3 == 0:
                m[rng.randrange(nrows)] = [0] * ncols
            rows = [{c: x + p * rng.randint(-2, 2) for c, x in row.items()} for row in sparse_rows(m)]
            rows += [{c: p * rng.randint(1, 3)} for c in range(ncols) if rng.random() < 0.3]
            assert rank_mod_p(rows, p) == sympy_rank(m, ncols)
        assert rank_mod_p([], p) == 0
        assert rank_mod_p([{}, {}, {3: 0}], p) == 0

    def test_integer_rank_against_sympy(self):
        # Entries of both signs up to 2^64 and beyond, some rows scaled by a
        # common factor, zero and empty rows, wide and tall shapes.  Half the
        # matrices are products of narrow factors, so their rank is below the
        # shape's and the elimination must cancel big entries exactly.
        rng = random.Random(707)
        shapes = [(1, 1), (1, 9), (2, 9), (3, 12), (9, 2), (12, 3), (6, 6), (8, 5), (10, 10)]
        for trial in range(72):
            nrows, ncols = shapes[trial % len(shapes)]
            bits = (4, 32, 64)[trial % 3]

            def entries(r, c):
                return [[rng.randint(-(1 << bits), 1 << bits) if rng.random() < 0.6 else 0
                         for _ in range(c)] for _ in range(r)]

            if trial % 2:
                k = rng.randint(1, min(nrows, ncols))
                a, b = entries(nrows, k), entries(k, ncols)
                m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
            else:
                m = entries(nrows, ncols)
            f = rng.randint(2, 1 << 20)
            m[rng.randrange(nrows)] = [f * x for x in m[rng.randrange(nrows)]]
            if trial % 4 == 0:
                m[rng.randrange(nrows)] = [0] * ncols
            assert rank(sparse_rows(m) + [{}]) == sympy_rank(m, ncols), trial
        assert rank([]) == 0
        assert rank([{}, {}, {3: 0}]) == 0

    def test_modular_rank_can_drop(self):
        assert echelon_rank([[DEFAULT_PRIME]]) == 1
        assert rank([{0: DEFAULT_PRIME}]) == 1
        assert rank_mod_p([{0: DEFAULT_PRIME}], DEFAULT_PRIME) == 0


class TestFormRankDifferential:
    # linalg.rank through _form_ranks against sympy's exact rank of the same
    # form, at the 61-bit best trial points of index(), where Hadamard's bound
    # on the cleared rows is 850-1,900 bits.
    def test_integer_rank_matches_sympy(self):
        f34 = build_free_nilpotent(3, 4).algebra
        for g in (f34, build_metabelian(3, 4).algebra, change_basis(f34, unitriangular_basis(32, Fraction(3, 7)))):
            rep = index(g, want_witness=True)
            [r] = _form_ranks(g, [rep.witness.coords])
            reference = DomainMatrix.from_Matrix(form_matrix(g, rep.witness)).rank()
            assert r == reference == rep.generic_rank


def ascending_rows(rng, nrows, ncols, entry):
    """Rows with distinct, increasing leading (last nonzero) columns, the
    other entries drawn below the lead: entered in order, each brings a new
    pivot at once, so the echelon stores every row as it stands."""
    rows = []
    for lead in sorted(rng.sample(range(ncols), nrows)):
        row = {c: x for c in range(lead) if rng.random() < 0.6 and (x := entry())}
        row[lead] = entry() or 1
        rows.append(row)
    return rows


def mixed_entry(rng):
    # ints, Fractions with denominator 1 and proper Fractions, of both signs.
    num = rng.randint(-9, 9)
    kind = rng.randrange(3)
    return num if kind == 0 else Fraction(num) if kind == 1 else Fraction(num, rng.randint(2, 7))


def dense(rows, ncols):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def densify(rows, ncols):
    """Sparse rows (a kernel basis) as dense Fraction tuples, sympy_rref's format."""
    return tuple(tuple(Fraction(row.get(c, 0)) for c in range(ncols)) for row in rows)


def gf_rank(m, q):
    return DomainMatrix.from_Matrix(sympy.Matrix(m)).convert_to(GF(q)).rank()


class TestUnreducedEchelon:
    # Stored rows are never reduced against later pivots, so reduce, kernel
    # and Subspace.span must finish the elimination themselves.
    def test_rows_are_stored_unreduced(self):
        rng = random.Random(1111)
        rows = ascending_rows(rng, 5, 8, lambda: mixed_entry(rng))
        ech = SparseEchelon(rows)
        for row in rows:
            stored = ech.rows[max(row)]
            assert set(stored) == {c for c, x in row.items() if x}
            assert all(type(x) is int for x in stored.values())
            lead = max(row)
            assert all(stored[c] * row[lead] == row[c] * stored[lead] for c in stored)

    def test_reduce_against_sympy(self):
        # reduce(u) is zero on every pivot and differs from u by an element of
        # the span; the two properties fix it uniquely.
        rng = random.Random(1212)
        for _ in range(40):
            ncols = rng.randint(2, 9)
            rows = ascending_rows(rng, rng.randint(1, ncols), ncols, lambda: mixed_entry(rng))
            ech = SparseEchelon(rows)
            m = dense(rows, ncols)
            for _ in range(4):
                u = {c: x for c in range(ncols) if (x := mixed_entry(rng))}
                if rng.random() < 0.3:  # a vector of the span
                    u = {c: x for c in range(ncols)
                         if (x := sum(rng.randint(-3, 3) * r[c] for r in m))}
                r = ech.reduce(u)
                assert not set(r) & set(ech.rows)
                diff = [u.get(c, 0) - r.get(c, 0) for c in range(ncols)]
                assert sympy_rank(m + [diff], ncols) == sympy_rank(m, ncols)
                in_span = sympy_rank(m + [[u.get(c, 0) for c in range(ncols)]], ncols) == len(ech.rows)
                assert (not r) == in_span
                assert_exact(r.values())

    def test_kernel_against_sympy(self):
        rng = random.Random(1313)
        for _ in range(40):
            ncols = rng.randint(1, 9)
            rows = ascending_rows(rng, rng.randint(1, ncols), ncols, lambda: mixed_entry(rng))
            m = dense(rows, ncols)
            kernel = SparseEchelon(rows).kernel(ncols)
            reference = [list(v) for v in sympy_matrix(m, ncols).nullspace()]
            assert densify(kernel, ncols) == sympy_rref(reference, ncols)
            assert_exact(x for v in kernel for x in v.values())

    def test_span_against_sympy(self):
        # Subspace.span pivots on the first nonzero column, so rows whose
        # first nonzero columns decrease are the ones it stores unreduced.
        rng = random.Random(1414)
        for _ in range(40):
            ncols = rng.randint(1, 9)
            rows = [{ncols - 1 - c: x for c, x in row.items()}
                    for row in ascending_rows(rng, rng.randint(1, ncols), ncols, lambda: mixed_entry(rng))]
            basis = Subspace.span(ncols, rows).basis
            assert basis == sympy_rref(dense(rows, ncols), ncols)
            assert all(type(x) is Fraction for v in basis for x in v)


class TestEchelonModP:
    PRIMES = (2, 3, 5, 7, 13)

    @staticmethod
    def residues(rng, q, nrows, ncols):
        # Negative residues and residues >= q, some rows vanishing mod q.
        m = [[rng.randint(-3 * q, 3 * q) if rng.random() < 0.5 else 0 for _ in range(ncols)]
             for _ in range(nrows)]
        if rng.random() < 0.3:
            m[rng.randrange(nrows)] = [q * rng.randint(-2, 2) for _ in range(ncols)]
        return m

    def test_rank_against_sympy_gf(self):
        rng = random.Random(1515)
        for trial in range(100):
            q = self.PRIMES[trial % len(self.PRIMES)]
            ncols = rng.randint(1, 8)
            m = self.residues(rng, q, rng.randint(1, 8), ncols)
            assert rank_mod_p(sparse_rows(m), q) == gf_rank(m, q), (trial, q)

    @staticmethod
    def led_by_one(row, q):
        # The row times the inverse of its pivot entry mod q.
        inv = pow(row[max(row)], -1, q)
        return {c: r for c, x in row.items() if (r := x * inv % q)}

    @staticmethod
    def assert_residue_rows(ech, q):
        # Each stored row's last key is its pivot, and every value lies in (0, q).
        for c, row in ech.rows.items():
            assert max(row) == c and all(0 < x < q for x in row.values())

    def test_unreduced_rows_rank(self):
        # Rows that bring a new pivot at once are stored as their residues, unscaled;
        # led by 1, they are the rows an eager elimination stores.
        rng = random.Random(1616)
        for trial in range(60):
            q = self.PRIMES[trial % len(self.PRIMES)]
            ncols = rng.randint(1, 8)
            rows = ascending_rows(rng, rng.randint(1, ncols), ncols,
                                  lambda: rng.choice([0, rng.randint(-3 * q, 3 * q)]))
            rows = [row for row in rows if row[max(row)] % q]  # leads stay leads mod q
            ech = SparseEchelon(rows, q)
            assert len(ech.rows) == gf_rank(dense(rows, ncols), q) == len(rows)
            self.assert_residue_rows(ech, q)
            for row in rows:
                assert ech.rows[max(row)] == {c: r for c, x in row.items() if (r := x % q)}
                assert self.led_by_one(ech.rows[max(row)], q) == self.led_by_one(row, q)

    # At the modulus index() uses, 2^61 - 1, the working row holds lazy residues:
    # integers congruent to them, reduced only where the leading one is read.

    @staticmethod
    def wide_entry(rng, q):
        # Entries >= q^2, negative entries, multiples of q, small entries and zeros.
        kind = rng.randrange(5)
        if kind == 0:
            return rng.randint(q * q, q**3)
        if kind == 1:
            return -rng.randint(1, q**3)
        if kind == 2:
            return q * rng.randint(-q, q)
        return rng.randint(-9, 9) if kind == 3 else 0

    def test_rank_at_the_real_modulus(self, monkeypatch):
        class Watched(dict):  # the working row, its largest |entry| recorded
            def __setitem__(self, k, x):
                widest[0] = max(widest[0], abs(x))
                super().__setitem__(k, x)

        entry = linalg._entry
        monkeypatch.setattr(linalg, "_entry", lambda v, p: (Watched(entry(v, p)[0]), 1))
        q = DEFAULT_PRIME
        rng = random.Random(1717)
        for trial in range(80):
            ncols = rng.randint(1, 10)
            m = [[self.wide_entry(rng, q) for _ in range(ncols)] for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(0, 4)):  # congruent mod q to a combination of earlier rows
                fs = [rng.randint(-3, 3) for _ in m]
                m.append([sum(f * row[c] for f, row in zip(fs, m)) + q * rng.randint(-q, q) * rng.randint(0, 1)
                          for c in range(ncols)])
            rng.shuffle(m)
            widest = [0]
            ech = SparseEchelon(sparse_rows(m), q)
            assert len(ech.rows) == rank_mod_p(sparse_rows(m), q) == gf_rank(m, q), trial
            assert widest[0] < (ncols + 1) * q * q
            self.assert_residue_rows(ech, q)

    def test_leading_residue_cancels_partway(self):
        # With 2h = q + 1, the step b - h*a leaves 1 - 2h = -q at column 1: a
        # multiple of q, deleted unread, and the reduction goes on at column 0.
        q = DEFAULT_PRIME
        h = (q + 1) // 2
        a = {2: 1, 1: 2, 0: 2}
        ech = SparseEchelon([a, {2: h, 1: 1, 0: 8}], q)
        assert ech.rows == {2: a, 0: {0: 7}}  # 8 - 2h = 7 - q
        assert self.led_by_one(ech.rows[0], q) == {0: 1}
        # Here the whole of b - h*a is -q*(x_1 + x_0): 0 mod q, though not over Q.
        b = {2: h, 1: 1, 0: 1}
        assert rank_mod_p([a, b], q) == gf_rank(dense([a, b], 3), q) == 1
        assert rank([a, b]) == 2
        # Entries >= q^2, negative ones and multiples of q enter as their residues.
        c = {1: 1, 0: 2}
        ech = SparseEchelon([a, c, {2: -q, 1: 4 - 2 * q, 0: 3 * q * q - 8}], q)
        assert ech.rows == {2: a, 1: c, 0: {0: q - 16}}  # 3q^2 - 8 - 4*2
        assert self.led_by_one(ech.rows[0], q) == {0: 1}
        self.assert_residue_rows(ech, q)


class TestRref:
    # The package's reduced row-echelon form is Subspace.from_vectors; sympy is the reference.
    def test_canonical_form(self):
        s = Subspace.from_vectors(3, [[2, 4, 6], [1, 2, 4]])
        assert s.basis == (
            (Fraction(1), Fraction(2), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        )

    def test_idempotent_and_pivot_columns(self):
        rng = random.Random(404)
        for _ in range(25):
            ncols = rng.randint(1, 6)
            m = random_matrix(rng, rng.randint(1, 6), ncols, fractions=True)
            s = Subspace.from_vectors(ncols, m)
            assert s.basis == sympy_rref(m, ncols)
            assert s.dim == sympy_rank(m, ncols)
            assert Subspace.from_vectors(ncols, s.basis) == s

    def test_preserves_row_space(self):
        rng = random.Random(505)
        for _ in range(15):
            ncols = rng.randint(1, 5)
            m = random_matrix(rng, rng.randint(1, 5), ncols)
            stacked = [list(r) for r in m] + [list(r) for r in Subspace.from_vectors(ncols, m).basis]
            assert sympy_rank(stacked, ncols) == sympy_rank(m, ncols)

    def test_zero_duplicate_and_missing_rows(self):
        rng = random.Random(909)
        for _ in range(25):
            ncols = rng.randint(1, 6)
            m = random_matrix(rng, rng.randint(1, 4), ncols, fractions=True)
            m = m + [m[0], [Fraction(0)] * ncols, [2 * x for x in m[-1]]]
            rng.shuffle(m)
            assert Subspace.from_vectors(ncols, m).basis == sympy_rref(m, ncols)
        assert Subspace.from_vectors(4, []) == Subspace.zero(4)
        assert Subspace.from_vectors(3, [[0, 0, 0], [0, 0, 0]]).basis == ()
        assert Subspace.from_vectors(0, []).basis == ()


class TestNullspace:
    def test_dimension_and_membership(self):
        rng = random.Random(606)
        for _ in range(25):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            m = random_matrix(rng, nrows, ncols, fractions=True)
            kernel = densify(SparseEchelon(sparse_rows(m)).kernel(ncols), ncols)
            assert len(kernel) == ncols - sympy_rank(m, ncols)
            for v in kernel:
                assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
            if kernel:
                assert sympy_rank(kernel, ncols) == len(kernel)

    def test_zero_matrix(self):
        kernel = densify(SparseEchelon().kernel(3), 3)
        assert len(kernel) == 3
        assert sympy_rank(kernel, 3) == 3

    def test_kernel_is_its_own_rref(self):
        # center, centralizer and stabilizer use the kernel basis as a
        # Subspace basis as it stands, so it must already be the canonical RREF.
        rng = random.Random(1010)
        for _ in range(40):
            ncols = rng.randint(1, 8)
            m = [[x if rng.random() < 0.4 else Fraction(0) for x in row]
                 for row in random_matrix(rng, rng.randint(1, 7), ncols, fractions=True)]
            kernel = densify(SparseEchelon(sparse_rows(m)).kernel(ncols), ncols)
            assert kernel == sympy_rref(kernel, ncols)
            reference = [list(v) for v in sympy_matrix(m, ncols).nullspace()]
            assert kernel == sympy_rref(reference, ncols)


class TestSparseEchelon:
    def test_complement_and_membership_match_rref(self):
        # Non-pivot columns are the greedy lexicographically first complement,
        # and reduce() is empty exactly on the span; sympy's rank is the reference.
        rng = random.Random(808)
        for _ in range(40):
            ncols = rng.randint(1, 6)
            m = [[x if rng.random() < 0.5 else Fraction(0) for x in row]
                 for row in random_matrix(rng, rng.randint(1, 5), ncols, fractions=True)]
            ech = SparseEchelon(sparse_rows(m))

            def dim(rows):
                return sympy_matrix(rows, ncols).rank()

            grown = list(m)
            for j in range(ncols):
                e = [Fraction(int(c == j)) for c in range(ncols)]
                assert (j not in ech.rows) == (dim(grown + [e]) > dim(grown))
                if j not in ech.rows:
                    grown.append(e)
                assert (not ech.reduce({j: 1})) == (dim(m + [e]) == dim(m))
            assert len(ech.rows) == dim(m)


class TestSupportStop:
    # The constructor skips a row that lies below its least non-pivot column,
    # and stops once every column in the rows' keys is a pivot; rref and kernel
    # shortcut when every row lies on the pivots.  Each rank is checked against
    # sympy's DomainMatrix over QQ or GF(q), the rref, kernel and reduce over
    # QQ, and the skips through the rows the constructor reads (`_entry`).
    FIELDS = (0, 2, 3, 5, 7, 13)

    @staticmethod
    def domain(q):
        return QQ if q == 0 else GF(q)

    @staticmethod
    def to_domain(x, q):
        x = Fraction(x)
        return QQ(x.numerator, x.denominator) if q == 0 else GF(q)(int(x))

    @staticmethod
    def from_domain(x):
        return Fraction(int(x.numerator), int(x.denominator))

    @classmethod
    def matrix(cls, rows, ncols, q):
        dom = cls.domain(q)
        return DomainMatrix(
            [[cls.to_domain(row.get(c, 0), q) for c in range(ncols)] for row in rows],
            (len(rows), ncols), dom,
        )

    @classmethod
    def reference_rref(cls, rows, ncols):
        """{pivot: row} over Q with pivots on the last nonzero column, as SparseEchelon
        keeps them: sympy's rref of the column-reversed matrix, reversed back."""
        flipped = [{ncols - 1 - c: x for c, x in row.items()} for row in rows]
        red, pivots = cls.matrix(flipped, ncols, 0).rref()
        red = red.to_list()
        return {
            ncols - 1 - p: {ncols - 1 - c: cls.from_domain(x) for c, x in enumerate(red[r]) if x}
            for r, p in enumerate(pivots)
        }

    @classmethod
    def reference_kernel(cls, rows, ncols):
        null = cls.matrix(rows, ncols, 0).nullspace()
        if null.shape[0] == 0:
            return ()
        red, pivots = null.rref()
        return tuple(tuple(cls.from_domain(x) for x in row) for row in red.to_list()[: len(pivots)])

    @staticmethod
    def entry(rng, q):
        if q:
            return rng.choice([r for r in range(-3 * q, 3 * q) if r % q])
        return mixed_entry(rng) or 1

    @classmethod
    def spanning(cls, rng, q, ncols):
        """Rows triangular on a random support, then combinations of them;
        and the rows the constructor reads, the triangular ones."""
        support = sorted(rng.sample(range(ncols), rng.randint(1, ncols)))
        rows = []
        for t, lead in enumerate(support):
            row = {c: cls.entry(rng, q) for c in support[:t] if rng.random() < 0.5}
            row[lead] = cls.entry(rng, q)
            rows.append(row)
        rng.shuffle(rows)
        extra = []
        for _ in range(rng.randint(1, 4)):
            v = {}
            for row in rows:
                f = rng.randint(-2, 2)
                for c, x in row.items():
                    v[c] = v.get(c, 0) + f * x
            extra.append({c: x for c, x in v.items() if (x % q if q else x)} or {support[0]: 1})
        return rows + extra, len(support)

    @classmethod
    def with_dead_keys(cls, rng, q, ncols):
        """Spanning rows plus a key, absent from the other rows, whose value is
        0 (or a multiple of q): the true support is spanned, the keys are not."""
        rows, _ = cls.spanning(rng, q, ncols - 1)
        row = dict(rng.choice(rows))
        row[ncols - 1] = q * rng.randint(-2, 2)
        return rows + [row], len(rows) + 1

    @classmethod
    def short(cls, rng, q, ncols):
        """Fewer rows than their support has columns: never spanning."""
        support = rng.sample(range(ncols), rng.randint(2, ncols))
        rows = [{} for _ in range(rng.randint(1, len(support) - 1))]
        for c in support:
            rng.choice(rows)[c] = cls.entry(rng, q)
            for row in rows:
                if rng.random() < 0.3:
                    row[c] = cls.entry(rng, q)
        rows = [row for row in rows if row]
        return rows, len(rows)

    @classmethod
    def check(cls, rows, ncols, q, rng):
        ech = SparseEchelon(rows, q)
        rk = cls.matrix(rows, ncols, q).rank()
        assert len(ech.rows) == (rank_mod_p(rows, q) if q else rank(rows)) == rk
        if q:  # rref, kernel and reduce work over Q only
            return
        red = ech.rref()
        assert red == cls.reference_rref(rows, ncols)
        assert_exact(x for row in red.values() for x in row.values())
        assert densify(ech.kernel(ncols), ncols) == cls.reference_kernel(rows, ncols)
        for _ in range(3):
            u = {c: x for c in range(ncols) if rng.random() < 0.6 and (x := cls.entry(rng, q))}
            want = {c: Fraction(x) for c, x in u.items()}
            for c, row in red.items():
                f = want.get(c, 0)
                for k, x in row.items():
                    want[k] = want.get(k, 0) - f * x
            assert ech.reduce(u) == {c: x for c, x in want.items() if x}

    @staticmethod
    def watch_reads(monkeypatch) -> list:
        """The list of rows the constructor reads from here on."""
        entered = []

        def counted(v, p):
            entered.append(v)
            return entry(v, p)

        entry = linalg._entry
        monkeypatch.setattr(linalg, "_entry", counted)
        return entered

    @pytest.mark.parametrize("q", FIELDS, ids=["Q", "F2", "F3", "F5", "F7", "F13"])
    def test_against_domain_matrix(self, q, monkeypatch):
        entered = self.watch_reads(monkeypatch)
        rng = random.Random(1700 + q)
        for _ in range(25):
            ncols = rng.randint(2, 9)
            for make in (self.spanning, self.with_dead_keys, self.short):
                rows, triangular = make(rng, q, ncols)
                entered.clear()
                SparseEchelon(rows, q)
                if make == self.spanning:
                    # The triangular rows come first: each is read and fills a column.
                    assert len(entered) == triangular < len(rows)
                assert len({id(v) for v in entered}) == len(entered)
                # Every row not read lies in the span of the rows read: they have full rank.
                assert self.matrix(entered, ncols, q).rank() == self.matrix(rows, ncols, q).rank()
                self.check(rows, ncols, q, rng)

    @staticmethod
    def watch_inverses(monkeypatch) -> list:
        """The (x, p) of each modular inverse the constructor takes from here on."""
        inverses = []

        def counted(x, e, p):
            if e == -1:
                inverses.append((x, p))
            return pow(x, e, p)

        monkeypatch.setattr(linalg, "pow", counted, raising=False)
        return inverses

    @pytest.mark.parametrize(
        "build, rk, nonzero, inverses",
        [
            (lambda: build_free_nilpotent(4, 4).algebra, 14, 30, 11),
            (lambda: build_free_nilpotent(3, 5).algebra, 12, 32, 9),
            (lambda: build_metabelian(3, 5).algebra, 6, 29, 4),
        ],
        ids=["F(4,4)", "F(3,5)", "M(3,5)"],
    )
    def test_trial_reads_only_its_pivots(self, build, rk, nonzero, inverses, monkeypatch):
        # index()'s first seed-1 trial reaches the ceiling, and every row it reads is a
        # pivot.  A pivot's inverse is taken only when a later row steps on it, once.
        g = build()
        rows_at = partial(index_module._form_rows, g)
        entered = self.watch_reads(monkeypatch)
        taken = self.watch_inverses(monkeypatch)
        r, point = index_module._trial_rank(rows_at, g.dim, rk, trials=1, seed=1)
        assert r == len(entered) == rk
        assert len(taken) == len(set(taken)) == inverses < rk
        assert all(q == DEFAULT_PRIME for _, q in taken)
        assert sum(map(bool, index_module._form_rows(g, point))) == nonzero

    def test_new_pivots_without_a_step_take_no_inverse(self, monkeypatch):
        taken = self.watch_inverses(monkeypatch)
        # Distinct leading columns: each row is a new pivot as it comes.
        assert rank_mod_p([{0: 5}, {0: 3, 1: 7}, {1: 2, 2: 9}], DEFAULT_PRIME) == 3
        assert taken == []
        # Column 0 stays free, so no row is skipped.  The fourth row (the third minus
        # the second) steps on pivot 3, then on pivot 2: one inverse each.  The fifth
        # (twice the third) steps on pivot 3 with the inverse already taken.
        rows = [{1: 5}, {2: 3}, {2: 4, 3: 6}, {2: 1, 3: 6}, {2: 8, 3: 12}, {0: 2, 4: 1}]
        assert rank_mod_p(rows, DEFAULT_PRIME) == gf_rank(dense(rows, 5), DEFAULT_PRIME) == 4
        assert taken == [(6, DEFAULT_PRIME), (3, DEFAULT_PRIME)]

    def test_center_reads_30_of_333_rows(self, monkeypatch):
        g = build_free_nilpotent(4, 4).algebra
        # center() keeps one row per (basis index, coordinate) pair a bracket touches.
        assert len({(x, k) for pair, cs in g.brackets.items() for x in pair for k in cs}) == 333
        entered = self.watch_reads(monkeypatch)
        assert center(g).dim == 60
        assert len(entered) == 30

    @pytest.mark.parametrize(
        "build",
        [lambda: build_free_nilpotent(3, 4).algebra, lambda: build_metabelian(3, 4).algebra],
        ids=["F(3,4)", "M(3,4)"],
    )
    def test_center_and_centralizer_on_a_shifted_basis(self, build):
        # On the basis e'_j = e_j + e_{j-1} the center is no coordinate subspace.
        g = build()
        g = change_basis(g, shifted_basis(g.dim))
        n = g.dim

        def bracket(i, j):
            if i < j:
                return g.brackets.get((i, j), {})
            return {k: -c for k, c in g.brackets.get((j, i), {}).items()}

        def reference(vectors):
            rows = [{i: c for i in range(n) if (c := sum(x * bracket(i, j).get(k, 0)
                                                         for j, x in v.items()))}
                    for v in vectors for k in range(n)]
            return self.reference_kernel(rows, n)

        z = center(g)
        assert z.basis == reference([{j: 1} for j in range(n)])
        assert any(sum(map(bool, v)) > 1 for v in z.basis)  # not coordinate
        rng = random.Random(1800)
        vectors = [{j: rng.randint(-3, 3) for j in rng.sample(range(n), 3)} for _ in range(2)]
        s = Subspace.span(n, vectors)
        assert centralizer(g, s).basis == reference(vectors)


class TestPrimality:
    def test_known_values(self):
        assert is_probable_prime(2)
        assert is_probable_prime(DEFAULT_PRIME)
        assert not is_probable_prime(1)
        assert not is_probable_prime(0)
        assert not is_probable_prime(-7)
        assert not is_probable_prime(561)  # Carmichael number
        assert not is_probable_prime(DEFAULT_PRIME - 2)

    def test_refuses_non_ints(self):
        # 7.0 was once taken as prime and True as 1; _check_prime converts first.
        for n in (7.0, True, Fraction(7)):
            with pytest.raises(ValueError, match="must be an int"):
                is_probable_prime(n)
        assert _check_prime(np.int64(DEFAULT_PRIME)) == DEFAULT_PRIME

    def test_against_sympy(self):
        for n in range(2, 500):
            assert is_probable_prime(n) == sympy.isprime(n)

    @pytest.mark.parametrize("n", [41 * 43, 3215031751, ((1 << 61) - 1) * ((1 << 31) - 1)],
                             ids=["41*43", "spsp-2-3-5-7", "two-mersenne-primes"])
    def test_composites_past_the_trial_divisions(self, n):
        # No factor <= 37, so the trial divisions by the bases pass them on and a
        # Miller-Rabin round must refuse them.
        assert min(sympy.factorint(n)) > 37
        assert not is_probable_prime(n)
        with pytest.raises(ValueError, match="modulus must be a prime"):
            _check_prime(n)

    def test_strong_pseudoprime_needs_a_later_base(self, monkeypatch):
        assert not is_probable_prime(3215031751)
        monkeypatch.setattr(linalg, "_MR_BASES", (2, 3, 5, 7))
        assert is_probable_prime(3215031751)

    def test_against_sympy_past_the_bases(self):
        # The composites here without a factor <= 37 (41^2 = 1681 the first) reach the rounds.
        for n in range(1369, 20000):
            assert is_probable_prime(n) == sympy.isprime(n), n
        rng = random.Random(5)
        for _ in range(300):
            n = rng.getrandbits(64) | (1 << 63) | 1
            assert is_probable_prime(n) == sympy.isprime(n), n
