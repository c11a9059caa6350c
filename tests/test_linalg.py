import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix
from test_index import form_matrix, shifted

from lieindex import linalg
from lieindex.algebra import LieAlgebra, Subspace, center, centralizer
from lieindex.free_nilpotent import build_free_nilpotent, build_metabelian
from lieindex.index import _form_ranks, index
from lieindex.linalg import (
    DEFAULT_PRIME,
    SparseEchelon,
    is_probable_prime,
    rank,
    rank_mod_p,
)


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


def unitriangular_copy(g, q):
    """g on the basis e'_a = e_a + q*e_(a+1); the inverse change has entries (-q)^m."""
    n = g.dim
    cols = [[Fraction(int(i == a)) + (q if i == a + 1 else 0) for i in range(n)] for a in range(n)]
    brackets = {}
    for a, b in combinations(range(n), 2):
        w = g.bracket(cols[a], cols[b])
        coeffs = {r: c for r in range(n) if (c := sum((-q) ** (r - k) * w[k] for k in range(r + 1)))}
        if coeffs:
            brackets[(a, b)] = coeffs
    return LieAlgebra(n, None, brackets)


class TestFormRankDifferential:
    # linalg.rank through _form_ranks against sympy's exact rank of the same
    # form, at the 61-bit best trial points of index(), where Hadamard's bound
    # on the cleared rows is 850-1,900 bits.
    def test_integer_rank_matches_sympy(self):
        f34 = build_free_nilpotent(3, 4).algebra
        for g in (f34, build_metabelian(3, 4).algebra, unitriangular_copy(f34, Fraction(3, 7))):
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
                assert all(type(x) is Fraction for x in r.values())

    def test_kernel_against_sympy(self):
        rng = random.Random(1313)
        for _ in range(40):
            ncols = rng.randint(1, 9)
            rows = ascending_rows(rng, rng.randint(1, ncols), ncols, lambda: mixed_entry(rng))
            m = dense(rows, ncols)
            kernel = SparseEchelon(rows).kernel(ncols)
            reference = [list(v) for v in sympy_matrix(m, ncols).nullspace()]
            assert kernel == sympy_rref(reference, ncols)
            assert all(type(x) is Fraction for v in kernel for x in v)

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

    def test_unreduced_rows_kernel_and_reduce(self):
        rng = random.Random(1616)
        for trial in range(60):
            q = self.PRIMES[trial % len(self.PRIMES)]
            ncols = rng.randint(1, 8)
            rows = ascending_rows(rng, rng.randint(1, ncols), ncols,
                                  lambda: rng.choice([0, rng.randint(-3 * q, 3 * q)]))
            rows = [row for row in rows if row[max(row)] % q]  # leads stay leads mod q
            ech = SparseEchelon(rows, q)
            m = dense(rows, ncols)
            assert len(ech.rows) == gf_rank(m, q) == len(rows)
            kernel = ech.kernel(ncols)
            assert len(kernel) == ncols - len(rows)
            assert all(sum(a * b for a, b in zip(row, v)) % q == 0 for row in m for v in kernel)
            assert all(0 <= x < q for v in kernel for x in v)
            u = {c: rng.randint(-3 * q, 3 * q) for c in range(ncols)}
            r = ech.reduce(u)
            assert not set(r) & set(ech.rows) and all(0 < x < q for x in r.values())
            diff = [u[c] - r.get(c, 0) for c in range(ncols)]
            assert gf_rank(m + [diff], q) == len(rows)


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
            kernel = SparseEchelon(sparse_rows(m)).kernel(ncols)
            assert len(kernel) == ncols - sympy_rank(m, ncols)
            for v in kernel:
                assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
            if kernel:
                assert sympy_rank(kernel, ncols) == len(kernel)

    def test_zero_matrix(self):
        kernel = SparseEchelon().kernel(3)
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
            kernel = SparseEchelon(sparse_rows(m)).kernel(ncols)
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
    # The constructor stops once its pivots number the columns in the rows'
    # keys; rref and kernel shortcut when every row lies on the pivots.  Each
    # case is checked against sympy's DomainMatrix over QQ or GF(q), and the
    # stop is watched through the rows the constructor reads (`_entry`).
    FIELDS = (0, 2, 3, 5, 7, 13)

    @staticmethod
    def domain(q):
        return QQ if q == 0 else GF(q)

    @staticmethod
    def to_domain(x, q):
        x = Fraction(x)
        return QQ(x.numerator, x.denominator) if q == 0 else GF(q)(int(x))

    @staticmethod
    def from_domain(x, q):
        return Fraction(int(x.numerator), int(x.denominator)) if q == 0 else int(x) % q

    @classmethod
    def matrix(cls, rows, ncols, q):
        dom = cls.domain(q)
        return DomainMatrix(
            [[cls.to_domain(row.get(c, 0), q) for c in range(ncols)] for row in rows],
            (len(rows), ncols), dom,
        )

    @classmethod
    def reference_rref(cls, rows, ncols, q):
        """{pivot: row} with pivots on the last nonzero column, as SparseEchelon keeps them:
        sympy's rref of the column-reversed matrix, reversed back."""
        flipped = [{ncols - 1 - c: x for c, x in row.items()} for row in rows]
        red, pivots = cls.matrix(flipped, ncols, q).rref()
        red = red.to_list()
        return {
            ncols - 1 - p: {ncols - 1 - c: cls.from_domain(x, q) for c, x in enumerate(red[r]) if x}
            for r, p in enumerate(pivots)
        }

    @classmethod
    def reference_kernel(cls, rows, ncols, q):
        null = cls.matrix(rows, ncols, q).nullspace()
        if null.shape[0] == 0:
            return ()
        red, pivots = null.rref()
        return tuple(tuple(cls.from_domain(x, q) for x in row) for row in red.to_list()[: len(pivots)])

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
        red = ech.rref()
        assert red == cls.reference_rref(rows, ncols, q)
        assert all(type(x) is (int if q else Fraction) for row in red.values() for x in row.values())
        assert ech.kernel(ncols) == cls.reference_kernel(rows, ncols, q)
        for _ in range(3):
            u = {c: x for c in range(ncols) if rng.random() < 0.6 and (x := cls.entry(rng, q))}
            want = {c: Fraction(x) if not q else x % q for c, x in u.items()}
            for c, row in red.items():
                f = want.get(c, 0)
                for k, x in row.items():
                    want[k] = want.get(k, 0) - f * x
            want = {c: x % q if q else x for c, x in want.items()}
            assert ech.reduce(u) == {c: x for c, x in want.items() if x}

    @pytest.mark.parametrize("q", FIELDS, ids=["Q", "F2", "F3", "F5", "F7", "F13"])
    def test_against_domain_matrix(self, q, monkeypatch):
        entered = []

        def counted(v, p):
            entered.append(v)
            return entry(v, p)

        entry = linalg._entry
        monkeypatch.setattr(linalg, "_entry", counted)
        rng = random.Random(1700 + q)
        for _ in range(25):
            ncols = rng.randint(2, 9)
            for make, stops in ((self.spanning, True), (self.with_dead_keys, False), (self.short, False)):
                rows, read = make(rng, q, ncols)
                entered.clear()
                SparseEchelon(rows, q)
                assert len(entered) == read
                assert (read < len(rows)) == stops
                self.check(rows, ncols, q, rng)

    @pytest.mark.parametrize(
        "build",
        [lambda: build_free_nilpotent(3, 4).algebra, lambda: build_metabelian(3, 4).algebra],
        ids=["F(3,4)", "M(3,4)"],
    )
    def test_center_and_centralizer_on_a_shifted_basis(self, build):
        # On the basis e'_j = e_j + e_{j-1} the center is no coordinate subspace.
        g = shifted(build())
        n = g.dim

        def bracket(i, j):
            if i < j:
                return g.brackets.get((i, j), {})
            return {k: -c for k, c in g.brackets.get((j, i), {}).items()}

        def reference(vectors):
            rows = [{i: c for i in range(n) if (c := sum(x * bracket(i, j).get(k, 0)
                                                         for j, x in v.items()))}
                    for v in vectors for k in range(n)]
            return self.reference_kernel(rows, n, 0)

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

    def test_against_sympy(self):
        for n in range(2, 500):
            assert is_probable_prime(n) == sympy.isprime(n)

