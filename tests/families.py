"""Algebras, basis changes and oracles shared by the test modules.

Not a test module itself (no test_ prefix), so pytest does not collect it;
test modules import their shared helpers from here and from no other test
module.  The bracket oracles read a LieAlgebra only through its stored upper
triangle `brackets`, one pass per vector, independently of its lookups and
adjoint table; linear algebra on their output is sympy's.
"""

import importlib
from fractions import Fraction
from itertools import combinations, product

import sympy

from lieindex import verify
from lieindex.algebra import LieAlgebra, Subspace, center
from lieindex.index import _rank_ceiling

index_module = importlib.import_module("lieindex.index")  # lieindex.index is the function


# ------------------------------------------------------------------ algebras

def heisenberg():
    return LieAlgebra(3, None, {(0, 1): {2: 1}})


def catalogue_algebras():
    """(name, algebra) for every construction the catalogue checks."""
    c = verify._CORPUS
    families = {"F": c.free, "F-explicit": c.explicit, "M": c.meta, "graph-": c.graphs, "filiform-": c.filiform}
    return [(f"{fam}{key}", e.algebra) for fam, entries in families.items() for key, e in entries.items()]


def borel_nilradical(kind: str, N: int) -> LieAlgebra:
    """Strictly upper-triangular matrices in gl_N, or in sp_N / so_N for the
    antidiagonal form J[a][N-1-a] = eps[a], with matrix commutators as brackets.

    An isometry X (X^T J + J X = 0) has X[b', c'] = sign * eps[c'] * eps[b] * X[c, b],
    a' = N-1-a, sign = +1 for sp and -1 for so.  So the elements are fixed by their
    entries on or above the antidiagonal, c + b <= N - 1: those are the coordinates.
    """
    sign = {"gl": 0, "sp": 1, "so": -1}[kind]
    eps = [-1 if kind == "sp" and a >= N // 2 else 1 for a in range(N)]
    elems = []  # (coordinate entry, {entry: value})
    for c, b in combinations(range(N), 2):
        mirror = (N - 1 - b, N - 1 - c)
        if kind == "gl" or c + b == N - 1 and sign == 1:
            elems.append(((c, b), {(c, b): 1}))
        elif c + b < N - 1:
            elems.append(((c, b), {(c, b): 1, mirror: sign * eps[mirror[1]] * eps[b]}))

    def commutator(x, y):
        out = {}
        for (i, j), u in x.items():
            for (k, l), v in y.items():
                if j == k:
                    out[i, l] = out.get((i, l), 0) + u * v
                if l == i:
                    out[k, j] = out.get((k, j), 0) - u * v
        return {e: x for e, x in out.items() if x}

    brackets = {}
    for s, t in combinations(range(len(elems)), 2):
        w = commutator(elems[s][1], elems[t][1])
        coeffs = {r: w[e] for r, (e, _) in enumerate(elems) if e in w}
        span = {}
        for r, x in coeffs.items():
            for e, y in elems[r][1].items():
                span[e] = span.get(e, 0) + x * y
        assert {e: x for e, x in span.items() if x} == w  # closed under the bracket
        if coeffs:
            brackets[s, t] = coeffs
    return LieAlgebra(len(elems), None, brackets)


# ------------------------------------------------------------ basis changes

def change_basis(g, p):
    """g on the basis e'_a = sum_i p[i][a] e_i, for an invertible matrix p of
    ints and Fractions.  Each [e'_a, e'_b] is bracketed off the stored upper
    triangle and solved for its new coordinates with sympy's exact inverse."""
    n = g.dim
    inv = sympy.Matrix(p).inv()
    cols = [{i: p[i][a] for i in range(n) if p[i][a]} for a in range(n)]
    # e_k on the new basis: column k of the inverse.
    olds = [{r: Fraction(int(x.p), int(x.q)) for r, x in enumerate(inv.col(k)) if x} for k in range(n)]
    brackets = {}
    for a, b in combinations(range(n), 2):
        out = brackets[a, b] = {}
        for (i, x), (j, y) in product(cols[a].items(), cols[b].items()):
            sign, key = (1, (i, j)) if i < j else (-1, (j, i))
            for k, c in g.brackets.get(key, {}).items():
                for r, z in olds[k].items():
                    out[r] = out.get(r, 0) + sign * x * y * c * z
    return LieAlgebra(n, None, brackets)


def shifted_basis(n):
    """e'_0 = e_0, e'_j = e_j + e_{j-1}: integer constants and a denser bracket
    graph, whose matching bound is often loose."""
    return [[int(a in (i, i + 1)) for a in range(n)] for i in range(n)]


def rescaled_basis(n):
    """e'_a = d_a e_a with rational d_a: rational constants."""
    return [[Fraction(a + 2, 2 * a + 3) if a == i else 0 for a in range(n)] for i in range(n)]


def unitriangular_basis(n, q):
    """e'_a = e_a + q e_(a+1); the inverse change has entries (-q)^m."""
    return [[1 if a == i else q if a == i - 1 else 0 for a in range(n)] for i in range(n)]


def rational_basis_change(n):
    # Upper bidiagonal with non-integer diagonal: dense inverse, rational constants.
    return [
        [Fraction(2 * i + 3, i + 2) if j == i else Fraction(-1) if j == i + 1 else Fraction(0)
         for j in range(n)]
        for i in range(n)
    ]


# ------------------------------------------------------------------ oracles

def ad_table(g, v):
    """[x_i, v] for every i, as sparse dicts, from one pass over the stored upper triangle."""
    out = [{} for _ in range(g.dim)]
    for (i, j), coeffs in g.brackets.items():
        a, b = v.get(j, 0), v.get(i, 0)
        for k, c in coeffs.items():
            if a:
                out[i][k] = out[i].get(k, 0) + a * c
            if b:
                out[j][k] = out[j].get(k, 0) - b * c
    return [{k: x for k, x in w.items() if x} for w in out]


def bracket_oracle(g, u, v):
    """[u, v] = sum_i u_i [x_i, v] for sparse u and v."""
    images, out = ad_table(g, v), {}
    for i, c in u.items():
        for k, x in images[i].items():
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


def centralizer_oracle(g, vectors):
    # Stacked ad-constraint rows: coordinate m of [x, v] for every sparse v and every m.
    rows = []
    for v in vectors:
        images = ad_table(g, v)
        for m in range(g.dim):
            row = [w.get(m, 0) for w in images]
            if any(row):
                rows.append(row)
    kernel = sympy.Matrix(len(rows), g.dim, [sympy.Rational(x) for row in rows for x in row]).nullspace()
    return Subspace.from_vectors(g.dim, [list(v) for v in kernel])


def center_oracle(g):
    return centralizer_oracle(g, [{j: 1} for j in range(g.dim)])


def jacobi_oracle(g):
    # Every triple, in lexicographic order; the residual as a sparse {m: c}.
    ad = [ad_table(g, {m: 1}) for m in range(g.dim)]  # ad[m][i] = [x_i, x_m]
    for i, j, k in combinations(range(g.dim), 3):
        res = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in ad[c][b].items():  # [x_a, [x_b, x_c]] = sum_m x [x_a, x_m]
                for r, y in ad[m][a].items():
                    res[r] = res.get(r, 0) + x * y
        if res := {r: y for r, y in res.items() if y}:
            return (i, j, k), res
    return None


def form_matrix(g, ell):
    """The skew form (x_i, x_j) -> ell([x_i, x_j]) as a dense sympy matrix,
    read straight off g.structure_coeffs, independently of index.py."""

    def entry(i, j):
        v = Fraction(sum(Fraction(c) * ell.coords[k] for k, c in g.structure_coeffs(i, j).items()))
        return sympy.Rational(v.numerator, v.denominator)

    return sympy.Matrix(g.dim, g.dim, entry)


def ceiling(g):
    return _rank_ceiling(g, center(g).dim)


# ---------------------------------------------------------------- checks

def assert_exact(values, zeros=False):
    """Each value as the package hands it back: an int, or a Fraction that is not
    an integer.  Never a float, and never 0 unless zeros (dense coordinates) may be."""
    bad = [x for x in values if not (type(x) is int and (zeros or x) or type(x) is Fraction and x.denominator > 1)]
    assert not bad, f"values not in exact form: {bad}"


def calls_to(monkeypatch, owner, name):
    """The argument tuples of each call to owner.name from here on."""
    calls, original = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or original(*args))
    return calls
