"""Exact linear algebra over the rationals and over prime fields.

Every elimination works on sparse rows {column: value}, since the matrices
built from structure constants are sparse; no dense matrix is eliminated.
No floats: each value out is an int when integral, else a Fraction (`_ratio`).
One fraction-free echelon, SparseEchelon, on integer rows over Q (Fraction denominators
cleared on entry) or lazy residues mod p (pivots inverted when read), gives ranks over both
(`rank`, `rank_mod_p`); over Q only it also gives membership and coordinates
(`reduce`) and the canonical bases of kernels and spans (`rref`, `kernel`, as
sparse rows).  It never reads a row that its pivots already span: see SparseEchelon.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# Default modulus for randomized rank: the 61-bit Mersenne prime.  Minors of
# the matrices we specialize have degree <= n <= 500 (the dimension ceiling),
# so the per-trial Schwartz-Zippel failure bound n/p is below 2^-52.
DEFAULT_PRIME = (1 << 61) - 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for n < 3.3 * 10^24 with the fixed bases."""
    if type(n) is not int:  # a bool or float would be tested as a number
        raise ValueError(f"n must be an int, got {n!r}")
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


def _subtract(target: dict, f, row: dict) -> None:
    """target -= f * row for sparse vectors, in place, dropping zeros."""
    for c, x in row.items():
        y = target.get(c, 0) - f * x
        if y:
            target[c] = y
        else:
            target.pop(c, None)


def _entry(v, p: int) -> tuple[dict[int, int], int]:
    """(w, d) with w = d*v an integer row over Q (p == 0), or w = v mod p and d = 1."""
    if p:
        return {c: r for c, x in v.items() if (r := x % p)}, 1
    w = dict(v)
    if 0 in w.values():
        w = {c: x for c, x in w.items() if x}
    if Fraction not in map(type, w.values()):
        return w, 1
    return _clear_denominators(w)


def _ratio(num: int, den: int) -> int | Fraction:
    """num/den exactly: an int when den divides num, else a Fraction."""
    return Fraction(num, den) if num % den else num // den


def _clear_denominators(w: dict) -> tuple[dict, int]:
    """(d*w, d) for d the lcm of the denominators of the rational values of w."""
    d = lcm(*(x.denominator for x in w.values()))
    return {c: x.numerator * (d // x.denominator) for c, x in w.items()}, d


def _step(w: dict, prow: dict, c: int):
    """(w', a, d): d*w' = a*w - b*prow with b/a = w[c]/prow[c], zero at column c,
    for integer rows over Q: a > 0 and d is the content."""
    a, b = prow[c], w[c]
    g = gcd(a, b) if a > 0 else -gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        w = {k: a * x for k, x in w.items()}
    _subtract(w, b, prow)
    d = 1
    if w and (d := gcd(*w.values())) > 1:
        w = {k: x // d for k, x in w.items()}
    return w, a, d


class SparseEchelon:
    """Echelon form of sparse rows {column: value} over Q (p == 0) or F_p.

    A new row is reduced on its leading (last nonzero) column until it vanishes or
    becomes the pivot row there; stored rows never change.  The non-pivot columns
    complete the span lexicographically first.  Only the pivot count is read over
    F_p (`rank_mod_p`); `reduce`, `rref` and `kernel` work over Q.

    The constructor skips a row whose columns all lie below `low`, the least of the
    columns the rows' keys name that is no pivot.  Each pivot row's last key is its
    pivot, so the pivot rows on the columns below low are triangular there, with
    nonzero leading entries: they span every vector on those columns, over Q and
    over F_p alike, and the row would have reduced to zero.  Once every column is a
    pivot every row is skipped, so the loop ends.  The stored rows, and so every
    result, are those of reading every row.  A zero value only adds a column, which
    can make low smaller, never larger.  low is recomputed only when a pivot lands
    on it, at most once per pivot; a sorted column list costs more on the many
    matrices where nothing is skipped.

    A step over Q is `_step`.  Over F_p, here alone, w holds lazy residues: integers
    congruent to an eager reduction's residues (zeros dropped), plus keys of residue 0.
    A step takes b = w[c] % p at c = max(w), deletes c if b = 0, else sets w[k] -= f*x
    over the pivot row, f = b*inv % p, unreduced, and deletes c.  A new pivot row is its
    residues {k: x % p} without zeros, unscaled; inv, the inverse of its leading residue,
    is taken when a step first reads that pivot.  By induction w stays congruent to the
    eager row, and max(w) past the deleted zero residues is its leading column, so
    residues and pivots are the eager ones, and a stored row is the eager one (led by 1)
    times its leading residue.  Entries enter in [0, p) and a step adds f*x with
    0 <= f, x < p, so after s steps |w[k]| < (s + 1)*p^2.
    """

    def __init__(self, rows=(), p: int = 0):
        self.rows: dict[int, dict[int, int]] = {}  # pivot -> row
        rows = [v for v in rows if v]
        free = set().union(*rows)  # the columns that are no pivot
        low = min(free, default=0)  # the least of them
        invs = {}  # F_p: pivot -> inverse of its row's leading residue, once a step reads it
        for v in rows:
            if not free:
                break
            if (c := max(v)) < low:
                continue
            w = _entry(v, p)[0]
            while w:
                if c not in w:  # first c = max(v), unless _entry dropped a zero there
                    c = max(w)
                if p and not (b := w[c] % p):
                    del w[c]
                elif (prow := self.rows.get(c)) is None:
                    if p:
                        w = {k: r for k, x in w.items() if (r := x % p)}
                    self.rows[c] = w
                    free.discard(c)
                    if c == low:
                        low = min(free, default=0)
                    break
                elif p:
                    f = b * (invs.get(c) or invs.setdefault(c, pow(prow[c], -1, p))) % p
                    for k, x in prow.items():
                        w[k] = w.get(k, 0) - f * x
                    del w[c]
                else:
                    w = _step(w, prow, c)[0]

    def reduce(self, v) -> dict:
        """v minus an element of the span, zero on every pivot; empty iff v is in the span.
        Columns are cleared in descending order, each pivot by its row, which lies below it."""
        return self._reduce(*_entry(v, 0))

    def _reduce(self, w: dict, den: int) -> dict:
        """reduce(w / den) for an integer row w, which it consumes; den != 0."""
        num, out = 1, {}
        while w:
            c = max(w)
            if c in self.rows:
                w, a, d = _step(w, self.rows[c], c)
                num, den = num * d, den * a
            else:
                out[c] = _ratio(w.pop(c) * num, den)
        return out

    def rref(self) -> dict[int, dict]:
        """{pivot: row} of the reduced row-echelon form: leading entry 1 at the
        pivot, zero on every other pivot.  When every row lies on the pivots these are
        the unit rows: triangular there, the rows span those coordinates."""
        if all(k in self.rows for row in self.rows.values() for k in row):
            return {c: {c: 1} for c in self.rows}
        return {c: {c: 1, **self._reduce({k: x for k, x in row.items() if k != c}, row[c])}
                for c, row in self.rows.items()}

    def kernel(self, ncols: int) -> tuple[dict, ...]:
        """Basis of {x : row . x = 0 for every row} as sparse rows: per free column f,
        e_f minus the rref rows' column f.  Rows hold f only before their pivot, so
        in ascending f the basis is in rref (led by the first nonzero column)."""
        red = self.rref()
        basis = {f: {f: 1} for f in range(ncols) if f not in red}
        for c, row in red.items():
            for f, x in row.items():
                if f != c:
                    basis[f][c] = -x
        return tuple(basis.values())


def rank(rows) -> int:
    """Rank over Q of sparse rows {column: int or Fraction}.

    Exact and polynomial in size: a reduced row lies in the span of m input
    rows and vanishes on m - 1 columns where they have rank m - 1, so by
    Cramer's rule it is proportional to m x m minors of the (cleared) input,
    and its primitive part, the one kept, obeys Hadamard's bound.
    """
    echelon = SparseEchelon(rows)
    return len(echelon.rows)


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of sparse integer rows {column: int} (any residues)."""
    echelon = SparseEchelon(rows, p)
    return len(echelon.rows)
