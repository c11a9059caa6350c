"""Finite-dimensional Lie algebras over Q, given by structure constants.

A LieAlgebra's public `brackets` is a dict keyed by basis index pairs (i, j)
with i < j; values are sparse coefficient dicts {k: c} meaning
[x_i, x_j] = sum_k c * x_k.  Zero coefficients are never stored.  Each c is
an int when it is integral and an exact Fraction otherwise; LieAlgebra is
the one place that decides, so builders pass plain integers.  No floats.
A private adjoint table holds every nonzero [x_i, x_j] in both orders, so
bracket lookups, ad x_i and the images {a: [x_a, v]} read it without an
order branch.

Beyond the algebra itself, the module computes the invariants that back the
index: center, centralizers, the lower central series, the derived pair and
abelian witnesses.  Nothing here assumes nilpotency; the constructions elsewhere in the package
produce nilpotent algebras, and check_jacobi is the validity gate for any
externally supplied structure constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import SparseEchelon, _sparse, _subtract, rank

Coeffs = dict[int, int | Fraction]  # exact values: int when integral


def _flip(n: int, v: Coeffs) -> Coeffs:
    """v with its n coordinates in reverse order (an involution).

    SparseEchelon pivots on a row's last nonzero column; on flipped vectors
    that is the leading column, the pivot of the reduced row-echelon form.
    """
    return {n - 1 - c: x for c, x in v.items()}


class NotAbelianError(ValueError):
    """Raised when an operation requires an abelian subspace."""

    def __init__(self, u, v):
        self.witness = (u, v)
        super().__init__("subspace is not abelian: a basis pair has nonzero bracket")


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n, basis kept in reduced row-echelon form.

    The RREF basis is canonical, so equality of subspaces is equality of the
    dataclass fields.
    """

    ambient_dim: int
    basis: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        return cls.span(ambient_dim, map(_sparse, vecs))

    @classmethod
    def span(cls, ambient_dim: int, vectors) -> "Subspace":
        """Span of sparse vectors {coordinate: value}, with its canonical basis."""
        red = SparseEchelon(_flip(ambient_dim, v) for v in vectors).rref()
        return cls(ambient_dim, tuple(
            tuple(red[p].get(ambient_dim - 1 - c, Fraction(0)) for c in range(ambient_dim))
            for p in sorted(red, reverse=True)
        ))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        basis = tuple(
            tuple(Fraction(int(i == j)) for j in range(ambient_dim))
            for i in range(ambient_dim)
        )
        return cls(ambient_dim, basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_vector(self, v) -> bool:
        return self._contains_all((v,))

    def contains(self, other: "Subspace") -> bool:
        return self._contains_all(other.basis)

    def _contains_all(self, vectors) -> bool:
        n = self.ambient_dim
        # Flipped, the basis already is a SparseEchelon: adding it eliminates nothing.
        ech = SparseEchelon(_flip(n, _sparse(row)) for row in self.basis)
        return not any(ech.reduce(_flip(n, _sparse(v))) for v in vectors)

    def sum_with(self, other: "Subspace") -> "Subspace":
        return Subspace.from_vectors(self.ambient_dim, list(self.basis) + list(other.basis))


class LieAlgebra:
    """Structure-constant Lie algebra over Q on basis x_0 .. x_{n-1}."""

    def __init__(self, dim: int, labels=None, brackets: dict | None = None):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        self.dim = dim
        if labels is None:
            labels = tuple(f"x{i + 1}" for i in range(dim))
        labels = tuple(str(s) for s in labels)
        if len(labels) != dim:
            raise ValueError("label count does not match dimension")
        if len(set(labels)) != dim:
            raise ValueError("labels must be distinct")
        self.labels = labels
        clean: dict[tuple[int, int], Coeffs] = {}
        for (i, j), coeffs in (brackets or {}).items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            cc = {}
            for k, c in coeffs.items():
                if not 0 <= int(k) < dim:
                    raise ValueError(f"coefficient index {k} out of range")
                c = c if type(c) is int else Fraction(c)
                if c:
                    cc[int(k)] = c.numerator if c.denominator == 1 else c
            if cc:
                clean[(i, j)] = cc
        self.brackets = clean
        self._ad: dict[int, dict[int, Coeffs]] = {}  # _ad[i][j] = [x_i, x_j] != 0
        for (i, j), cc in clean.items():
            self._ad.setdefault(i, {})[j] = cc
            self._ad.setdefault(j, {})[i] = {k: -c for k, c in cc.items()}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieAlgebra)
            and self.dim == other.dim
            and self.labels == other.labels
            and self.brackets == other.brackets
        )

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, nonzero_pairs={len(self.brackets)})"

    def structure_coeffs(self, i: int, j: int) -> Coeffs:
        """[x_i, x_j] as a sparse coefficient dict (any i, j order)."""
        return self._ad.get(i, {}).get(j, {})

    def basis_vector(self, i: int) -> list[Fraction]:
        v = [Fraction(0)] * self.dim
        v[i] = Fraction(1)
        return v

    def bracket(self, x, y) -> list[Fraction]:
        """[x, y] for coordinate vectors x, y of length dim."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match algebra dimension")
        out = [Fraction(0)] * self.dim
        xs = {i: Fraction(c) for i, c in enumerate(x) if c}
        ys = {j: Fraction(c) for j, c in enumerate(y) if c}
        for k, c in self.sparse_bracket(xs, ys).items():
            out[k] = c
        return out

    def ad_vector(self, i: int, coeffs: Coeffs) -> Coeffs:
        """[x_i, v] for sparse v, as a sparse dict."""
        out: Coeffs = {}
        row = self._ad.get(i, {})
        for m, c in coeffs.items():
            if m in row:
                _subtract(out, -c, row[m])
        return out

    def sparse_bracket(self, u: Coeffs, v: Coeffs) -> Coeffs:
        """[u, v] for sparse u, v, as a sparse dict."""
        out: Coeffs = {}
        for i, c in u.items():
            _subtract(out, -c, self.ad_vector(i, v))
        return out

    def ad_images(self, v: Coeffs) -> dict[int, Coeffs]:
        """{a: [x_a, v]} over the a with a nonzero image, for sparse v."""
        out: dict[int, Coeffs] = {}
        for m, c in v.items():
            for a, w in self._ad.get(m, {}).items():
                _subtract(out.setdefault(a, {}), c, w)  # w = [x_m, x_a] = -[x_a, x_m]
        return {a: w for a, w in out.items() if w}


def check_jacobi(g: LieAlgebra):
    """None if the Jacobi identity holds, else ((i,j,k), residual vector).

    The residual of i < j < k sums [x_a, [x_b, x_c]] over the cyclic orders
    (a, b, c) of (i, j, k).  It is built by walking bracket chains: for each
    x_m term of a nonzero [x_b, x_c] (b < c) and each a outside {b, c} with
    [x_a, x_m] != 0, that term times [x_a, x_m] goes to the residual of
    sorted((a, b, c)), negated when b < a < c.  Triples on no chain have zero
    residual.  The returned triple is the lexicographically first violation.
    """
    res: dict[tuple[int, int, int], Coeffs] = {}
    for (b, c), inner in g.brackets.items():
        for m, cm in inner.items():
            for a, w in g._ad.get(m, {}).items():  # w = [x_m, x_a] = -[x_a, x_m]
                if a != b and a != c:
                    _subtract(res.setdefault(tuple(sorted((a, b, c))), {}), -cm if b < a < c else cm, w)
    triple = min((t for t, r in res.items() if r), default=None)
    if triple is None:
        return None
    vec = [0] * g.dim
    for m, cm in res[triple].items():
        vec[m] = cm
    return triple, vec


def _basis_rows(g: LieAlgebra, s: Subspace) -> list[Coeffs]:
    """The basis of s as sparse vectors; s must be a subspace of g."""
    if s.ambient_dim != g.dim:
        raise ValueError(f"subspace of Q^{s.ambient_dim} is not in an algebra of dimension {g.dim}")
    return [_sparse(v) for v in s.basis]


def centralizer(g: LieAlgebra, s: Subspace) -> Subspace:
    """{x : [x, v] = 0 for every v in s}: the kernel of one sparse row per
    (basis vector v of s, coordinate k), the form x -> coordinate k of [x, v].
    """
    rows: dict[tuple[int, int], Coeffs] = {}
    for t, v in enumerate(_basis_rows(g, s)):
        for i, w in g.ad_images(v).items():
            for k, c in w.items():
                rows.setdefault((t, k), {})[i] = c
    return Subspace(g.dim, SparseEchelon(rows.values()).kernel(g.dim))


def center(g: LieAlgebra) -> Subspace:
    """The centralizer of g, its constraint rows read straight off the brackets."""
    rows: dict[tuple[int, int], Coeffs] = {}
    for (i, j), coeffs in g.brackets.items():
        for k, c in coeffs.items():
            rows.setdefault((j, k), {})[i] = c
            rows.setdefault((i, k), {})[j] = -c
    return Subspace(g.dim, SparseEchelon(rows.values()).kernel(g.dim))


def _center_dim(g: LieAlgebra) -> int:
    """dim z(g), z(g) = ker(ad): n minus the rank of the rows ad x_i, {j*n + k: c}."""
    n = g.dim
    return n - rank({j * n + k: c for j, w in row.items() for k, c in w.items()}
                    for row in g._ad.values())


def lower_central_series(g: LieAlgebra) -> list[Subspace]:
    """[g^1, g^2, ...] with g^{k+1} = [g, g^k], computed until stabilization."""
    series = [Subspace.full(g.dim)]
    while True:
        vs = [_sparse(v) for v in series[-1].basis]
        series.append(Subspace.span(g.dim, (w for v in vs for w in g.ad_images(v).values())))
        if series[-1].dim in (0, series[-2].dim):
            return series


def nilpotency_class(g: LieAlgebra) -> int:
    """c with g^c != 0 = g^{c+1}; 0 for the zero algebra; raises if not nilpotent."""
    if g.dim == 0:
        return 0
    series = lower_central_series(g)
    if series[-1].dim != 0:
        raise ValueError("algebra is not nilpotent")
    return len(series) - 1


def derived_subalgebra_pair(g: LieAlgebra) -> tuple[Subspace, Subspace]:
    """([g, g], [d, d]): d is spanned by the [x_i, x_j], [d, d] by brackets of basis pairs."""
    d1 = Subspace.span(g.dim, g.brackets.values())
    vs = [_sparse(v) for v in d1.basis]
    d2 = Subspace.span(g.dim, (g.sparse_bracket(u, vs[t]) for s, u in enumerate(vs) for t in range(s)))
    return d1, d2


def abelian_witness(g: LieAlgebra, s: Subspace):
    """None if s is abelian, else a basis pair (u, v) with [u, v] != 0."""
    vs = _basis_rows(g, s)
    for p in range(len(vs)):
        for q in range(p + 1, len(vs)):
            if g.sparse_bracket(vs[p], vs[q]):
                return s.basis[p], s.basis[q]
    return None
