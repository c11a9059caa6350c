"""Exact linear algebra over the rationals and over prime fields.

Every elimination works on sparse rows {column: value}, since the matrices
built from structure constants are sparse; no dense matrix is eliminated.
No floating point anywhere.  SparseEchelon, on `fractions.Fraction` rows
(ints are promoted), carries kernels, spans and coordinates over Q.  The
rank of integer rows, over Q (`rank`) or over F_p (`rank_mod_p`), is one
fraction-free loop, exact over Q without a prime count.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# Default modulus for randomized rank: the 61-bit Mersenne prime.  Minors of
# the matrices we specialize have degree <= n <= 500 (the dimension ceiling),
# so the per-trial Schwartz-Zippel failure bound n/p is below 2^-52.
DEFAULT_PRIME = (1 << 61) - 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for n < 3.3 * 10^24 with the fixed bases."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sparse(v) -> dict:
    return {c: x for c, x in enumerate(v) if x}


def _subtract(target: dict, f: Fraction, row: dict) -> None:
    """target -= f * row for sparse vectors, in place, dropping zeros."""
    for c, x in row.items():
        y = target.get(c, 0) - f * x
        if y:
            target[c] = y
        else:
            target.pop(c, None)


class SparseEchelon:
    """Reduced echelon form of sparse rational rows {column: Fraction}.

    Each row's pivot is its last nonzero column, scaled to 1, and every
    pivot column is zero in all other rows.  The non-pivot columns are then
    the lexicographically first coordinate vectors completing the span.
    """

    def __init__(self, rows=()):
        self.rows: dict[int, dict[int, Fraction]] = {}  # pivot -> row
        for row in rows:
            self.add(row)

    def reduce(self, v) -> dict[int, Fraction]:
        """v minus an element of the span, zero on every pivot; empty iff v is in the span."""
        out = {c: Fraction(x) for c, x in v.items() if x}
        # Rows vanish on each other's pivots, so one pass over v's pivots suffices.
        for p in [c for c in out if c in self.rows]:
            _subtract(out, out[p], self.rows[p])
        return out

    def add(self, v) -> dict[int, Fraction] | None:
        """Insert v; returns its row (later insertions reduce it in place), or
        None if v was already in the span."""
        w = self.reduce(v)
        if not w:
            return None
        p = max(w)
        inv = w[p]
        if inv != 1:
            w = {c: x / inv for c, x in w.items()}
        for row in self.rows.values():
            if p in row:
                _subtract(row, row[p], w)
        self.rows[p] = w
        return w

    def kernel(self, ncols: int) -> tuple[tuple[Fraction, ...], ...]:
        """Basis of {x : row . x = 0 for every row}: e_f minus the rows' column f, per free f.

        A row holds f only if f precedes its pivot, so each vector's leading
        entry is the 1 on its own free column, and that column is zero in the
        others: in order of f, the basis is already the reduced row-echelon
        form of the kernel.
        """
        basis = []
        for f in range(ncols):
            if f not in self.rows:
                v = [Fraction(0)] * ncols
                v[f] = Fraction(1)
                for p, row in self.rows.items():
                    if f in row:
                        v[p] = -row[f]
                basis.append(tuple(v))
        return tuple(basis)


def _rank(rows, p: int) -> int:
    """Rank of sparse integer rows {column: int} over F_p, or over Q if p == 0.

    Each row w is reduced on its leading (largest) column by the pivot row
    there, w <- a*w - b*prow with a, b their leading entries over their gcd,
    until it vanishes or brings a new pivot; pivots never meet later rows.
    Over F_p a pivot is scaled to leading entry 1, so a = 1; over Q each
    reduced row is divided by the gcd of its entries.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        w = {c: r for c, x in row.items() if (r := x % p if p else x)}
        while w:
            lead = max(w)
            prow = pivots.get(lead)
            if prow is None:
                if p:
                    inv = pow(w[lead], -1, p)
                    w = {c: x * inv % p for c, x in w.items()}
                pivots[lead] = w
                break
            a, b = prow[lead], w[lead]
            if not p:
                d = gcd(a, b)
                a, b = a // d, b // d
                if a != 1:
                    w = {c: a * x for c, x in w.items()}
            for c, x in prow.items():
                y = w.get(c, 0) - b * x
                if p:
                    y %= p
                if y:
                    w[c] = y
                else:
                    w.pop(c, None)
            if not p and (d := gcd(*w.values())) > 1:
                w = {c: x // d for c, x in w.items()}
    return len(pivots)


def rank(rows) -> int:
    """Rank over Q of sparse integer rows {column: int}.

    Exact and polynomial in size: a reduced row lies in the span of m input
    rows and vanishes on m - 1 columns (the pivot leads behind it) where they
    have rank m - 1, so by Cramer's rule it is proportional to m x m minors
    of the input, and its primitive part, the one kept, obeys Hadamard's
    bound, as an elimination over Fraction does.
    """
    return _rank(rows, 0)


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of sparse integer rows {column: int} (any residues)."""
    return _rank(rows, p)
