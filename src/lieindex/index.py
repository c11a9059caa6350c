"""The index of a nilpotent Lie algebra and everything that certifies it.

The index is codim of a generic coadjoint stabilizer, computed as
dim g - generic rank of the structure matrix M(g) whose (i, j) entry is the
linear form sum_k c_ijk * y_k.  Generic rank is obtained either by seeded
random specialization over a large prime field (the rank can only be
underestimated, never overestimated, so the maximum over trials is a sound
lower bound that is correct with overwhelming probability) or by certified
sparse fraction-free elimination on the entries, as integer linear forms
(polynomials.bareiss_rank).

LieAlgebra scales the structure constants to integers once, by the lcm of
their denominators, and every rank here reads that table (_form_rows).  The
trials rank the integer rows mod p; the exact rank over Q at one point (the
check of every randomized index and Ooms criterion at its best trial point,
sampling) is linalg.rank of the same rows.

No rank of M(g) at a point passes min(2 nu, n - dim z(g) rounded down to
even), nu the matching number of the bracket graph B (an edge {i, j} per
nonzero [x_i, x_j]): a nonzero principal r x r minor of a skew matrix is a
squared Pfaffian, a signed sum over the perfect matchings in B of its rows
(Tutte 1947; Lovasz 1979), and z(g) lies in the kernel of every form.  As
rank mod p <= exact rank at the point <= generic rank <= ceiling, a trial
at the ceiling ends the trials, and the exact check at its point is skipped.
index() reads dim z(g) as n - rank(ad), the rank being the count of nonzero
rows ad x_i when their leads are distinct; center() builds the basis, once
per algebra.  nu is LieAlgebra's too, one blossom search per algebra, so
index() and index_by_sampling on one algebra share it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from numbers import Integral

from .algebra import (
    LieAlgebra,
    NotAbelianError,
    Subspace,
    _center_dim,
    _exact,
    _integer,
    abelian_witness,
    center,
)
from .linalg import DEFAULT_PRIME, SparseEchelon, _clear_denominators
from .linalg import is_probable_prime, rank, rank_mod_p
from .polynomials import bareiss_rank

DEFAULT_TRIALS = 3
DEFAULT_SEED = 0
CERTIFY_DIM_LIMIT = 40


class CertifySizeError(ValueError):
    """Certified rank was requested above the dimension gate CERTIFY_DIM_LIMIT."""


def _check_prime(prime: int | None) -> int:
    if prime is None:
        return DEFAULT_PRIME
    if (prime := _integer(prime, "modulus")).bit_length() < 61 or not is_probable_prime(prime):
        raise ValueError("modulus must be a prime of at least 61 bits")
    return prime


def _check_trials(trials: int) -> int:
    # Zero trials would report index = dim with a "bound" of 1, negative counts one above 1.
    if (trials := _integer(trials, "trials")) < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return trials


def _check_seed(seed: int) -> int:
    # random.Random seeds with |seed|: a negative seed would repeat a positive one's draws.
    if (seed := _integer(seed, "seed")) < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return seed


def _trial_rng(seed: int, trial: int) -> random.Random:
    # A substream per (seed, trial): reproducible in any order of the trials.
    return random.Random(1_000_003 * seed + trial)


def _draws(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """[rng.randint(lo, hi) for _ in range(n)] without randint's per-call checks: CPython's
    draw, getrandbits(size.bit_length()) until below the size, so the same values and state."""
    if not isinstance(size := hi - lo + 1, Integral) or size < 1:
        raise ValueError(f"range [{lo}, {hi}] must be of ints and not empty")
    bits, k, out = rng.getrandbits, int(size).bit_length(), []
    for _ in range(n):
        while (r := bits(k)) >= size:
            pass
        out.append(lo + r)
    return out


def _form_rows(g: LieAlgebra, point) -> list[dict]:
    """Sparse rows {j: ell([x_i, x_j])} of M(g) at the point ell, on the constants
    LieAlgebra scaled to integers: the same rank over Q, and over F_p when p does
    not divide the scale."""
    rows = [{} for _ in range(g.dim)]
    for (i, j), coeffs in g._scaled.items():
        val = 0
        for k, c in coeffs.items():  # mostly one term: a loop, not a generator
            val += c * point[k]
        if val:
            rows[i][j] = val
            rows[j][i] = -val
    return rows


def _trial_rank(rows_at, n, ceiling, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED, p=DEFAULT_PRIME):
    """(max rank over trials, the first trial point attaining it) of the integer rows
    rows_at(point), each point n values randrange(p) (drawn by _draws).  The trials stop
    at the ceiling, which no rank passes.  Below it, the exact rank over Q at the best
    point refuses a bad modulus: with integer rows a nonzero minor mod p lifts to Q."""
    best = None
    for trial in range(trials):
        point = _draws(_trial_rng(seed, trial), n, 0, p - 1)
        r = rank_mod_p(rows_at(point), p)
        if best is None or r > best[0]:
            best = r, point
        if r == ceiling:
            return best
    r, point = best
    if (exact := rank(rows_at(point))) != r:
        raise RuntimeError(f"exact rank {exact} at the best trial point exceeds the modular "
                           f"rank {r}; the modulus is bad for this input")
    return best


def _rank_ceiling(g: LieAlgebra, z: int) -> int:
    """The rank ceiling of the module docstring, z = dim z(g)."""
    return min(2 * g._matching_number, (g.dim - z) & ~1)


def certified_generic_rank(g: LieAlgebra) -> int:
    if g.dim > CERTIFY_DIM_LIMIT:
        raise CertifySizeError(
            f"certified rank gated at dimension {CERTIFY_DIM_LIMIT}; this algebra has {g.dim}"
        )
    # M(g) on the scaled constants: the same rank, over Z[y].
    rows = [{} for _ in range(g.dim)]
    for (i, j), coeffs in g._scaled.items():
        rows[i][j] = coeffs
        rows[j][i] = {k: -c for k, c in coeffs.items()}
    return bareiss_rank(rows)


@dataclass(frozen=True)
class LinearFunctional:
    coords: tuple[int | Fraction, ...]

    def __post_init__(self):  # a tuple, each value an int when integral, else a Fraction
        coords = tuple(self.coords)
        if not {int}.issuperset(map(type, coords)):
            coords = tuple(v if type(v) is int else _exact(v, f"coordinate {i}") for i, v in enumerate(coords))
        object.__setattr__(self, "coords", coords)

    @classmethod
    def of(cls, values) -> "LinearFunctional":
        return cls(tuple(values))


def _form_ranks(g: LieAlgebra, points):
    """Ranks over Q of the skew forms (x, y) -> ell([x, y]) of g at points ell."""
    for point in points:
        yield rank(_form_rows(g, point))


def stabilizer(g: LieAlgebra, ell: LinearFunctional) -> Subspace:
    """The stabilizer {x : ell([x, y]) = 0 for all y} of ell, exactly, as a Subspace of g."""
    if len(ell.coords) != g.dim:
        raise ValueError("functional length does not match algebra dimension")
    # The echelon clears each row's denominators on entry: the same kernel.
    sub = Subspace(g.dim, SparseEchelon(_form_rows(g, ell.coords)).kernel(g.dim))
    if (g.dim - sub.dim) % 2:
        raise RuntimeError("skew form has odd rank; this is a bug")
    return sub


@dataclass(frozen=True)
class IndexReport:
    dim: int
    index: int
    generic_rank: int
    method: dict
    witness: LinearFunctional | None
    center_dim: int


def index(
    g: LieAlgebra,
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    prime: int | None = None,
    certify: bool = False,
    want_witness: bool = False,
) -> IndexReport:
    trials, seed, p = _check_trials(trials), _check_seed(seed), _check_prime(prime)
    n = g.dim
    z = _center_dim(g)
    if certify:
        r = certified_generic_rank(g)
        method = {"mode": "certified", "dim_limit": CERTIFY_DIM_LIMIT}
    else:
        r = _rank_ceiling(g, z)
        method = {
            "mode": "randomized",
            "trials": trials,
            "seed": seed,
            "prime": p,
            "failure_bound": format((n / p) ** trials, ".3e") if n else "0",
        }
    point = None
    # The trials rank up to r: the ceiling, or the certified rank for a witness.
    if not certify or want_witness and n:
        top, point = _trial_rank(partial(_form_rows, g), n, r, trials, seed, p)
        if certify and top < r:
            raise RuntimeError("randomized search did not reach the certified rank; raise trials to find a witness")
        r = top
    witness = LinearFunctional.of(point) if want_witness and n else None
    chi = n - r
    if r % 2:
        raise RuntimeError("generic rank of a skew matrix came out odd; this is a bug")
    if not z <= chi <= n:
        raise RuntimeError(
            f"index {chi} is not between center dimension {z} and dim {n}; this is a bug"
        )
    return IndexReport(n, chi, r, method, witness, z)


def index_by_sampling(
    g: LieAlgebra, samples: int = 50, seed: int = DEFAULT_SEED, bound: int = 9
) -> int:
    """Minimum stabilizer dimension over seeded small-integer functionals.

    An upper-bound oracle for the index that is independent of the
    structure-matrix path; with enough samples it is exact.  No form rank
    passes min(2 nu(B(g)), n - dim z(g) rounded down to even), the ceiling
    of the module docstring (nu(B(g)) the bracket graph's matching number).
    So sampling stops at the first rank at it, with the full-sample minimum.
    Its dim z(g) comes from center(), a route independent of index()'s; the
    basis and nu are the algebra's, each computed on first use.  A negative
    seed is refused: random.Random would draw what its absolute value draws.
    """
    if (samples := _integer(samples, "samples")) < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    rng, bound = random.Random(_check_seed(seed)), _integer(bound, "bound")
    ceiling = _rank_ceiling(g, center(g).dim)
    points = (_draws(rng, g.dim, -bound, bound) for _ in range(samples))
    best = 0
    for r in _form_ranks(g, points):
        if (best := max(best, r)) == ceiling:
            break
    return g.dim - best


@dataclass(frozen=True)
class OomsResult:
    rect_rank: int
    claimed_index: int | None  # 2 dim h - dim g when rect_rank is dim g - dim h, else None


def ooms_criterion(g: LieAlgebra, h: Subspace) -> OomsResult:
    """Abelian-subalgebra index criterion.

    For abelian h <= g, the index equals 2 dim h - dim g exactly when the
    rectangular matrix ([x_i, h_j]) of linear forms has generic rank
    dim g - dim h.  Raises NotAbelianError (with witness pair) otherwise.
    That rank is also the trials' ceiling: h is abelian, so every vector of h
    lies in the left kernel of the matrix at every point, and no rank passes
    dim g - dim h.
    """
    w = abelian_witness(g, h)
    if w is not None:
        raise NotAbelianError(*w)
    n = g.dim
    # At ell the matrix is M(ell) H^T: (i, t) -> sum_m M_im h_t[m] = ell([x_i, h_t]).
    # Clearing each h_t of denominators scales a column: the same rank over Q.
    hs = [_clear_denominators(hv)[0] for hv in h.rows]

    def rect_rows(point):
        return [{t: v for t, hv in enumerate(hs) if (v := sum(x * row[m] for m, x in hv.items() if m in row))}
                for row in _form_rows(g, point)]

    r, _ = _trial_rank(rect_rows, n, n - h.dim)
    return OomsResult(r, 2 * h.dim - n if r == n - h.dim else None)


def alpha_sandwich(g: LieAlgebra, candidate: Subspace, *, chi: int) -> int | None:
    """The maximal abelian subalgebra dimension alpha, when the squeeze certifies it.

    dim candidate <= alpha <= (chi + dim g) // 2 for an abelian candidate and
    chi the index of g.  When the two agree, alpha is that value (over any
    field extension, since the upper bound is field-independent and the
    candidate is rational); else None.
    """
    chi = _integer(chi, "chi")
    w = abelian_witness(g, candidate)
    if w is not None:
        raise NotAbelianError(*w)
    return candidate.dim if candidate.dim == (chi + g.dim) // 2 else None
