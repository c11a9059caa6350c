"""Nilradicals of Borel subalgebras: a natural family whose index is known in
closed form (the size of Kostant's cascade; Joseph, J. Algebra 48, 1977) and
whose rank ceiling is loose in types B and D, so the exact check below the
ceiling runs on them."""

from itertools import combinations

import pytest

from lieindex.algebra import LieAlgebra, center, check_jacobi, nilpotency_class
from lieindex.index import _rank_ceiling, certified_generic_rank, index


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


def expected(kind, N):
    """(dim, index, nilpotency class): the positive roots of A_{N-1}, C_m, B_m or D_m,
    N = 2m or 2m + 1; so_{2m} has index m - (m odd) and class 2m - 3."""
    m = N // 2
    if kind == "gl":
        return N * (N - 1) // 2, m, N - 1
    if kind == "sp":
        return m * m, m, 2 * m - 1
    dim = (N * (N - 1) // 2 - m) // 2
    return (dim, m, 2 * m - 1) if N % 2 else (dim, m - m % 2, 2 * m - 3)


CASES = (
    [("gl", N) for N in range(3, 17)]
    + [("sp", N) for N in range(4, 17, 2)]
    + [("so", N) for N in range(7, 17)]
)


@pytest.mark.parametrize("kind, N", CASES, ids=[f"{k}{N}" for k, N in CASES])
def test_index_center_and_class(kind, N):
    g = borel_nilradical(kind, N)
    dim, chi, cls = expected(kind, N)
    assert g.dim == dim
    assert check_jacobi(g) is None
    assert center(g).dim == 1
    assert nilpotency_class(g) == cls
    rep = index(g)
    assert rep.index == chi
    if kind == "so":  # the ceiling is loose: the exact check below it runs
        assert rep.generic_rank < _rank_ceiling(g.dim, g.brackets, rep.center_dim)


@pytest.mark.parametrize("N", range(7, 12))
def test_certified_rank_agrees(N):
    g = borel_nilradical("so", N)
    assert certified_generic_rank(g) == g.dim - expected("so", N)[1]
