"""The index of a nilpotent Lie algebra and everything that certifies it.

The index is codim of a generic coadjoint stabilizer, computed as
dim g - generic rank of the structure matrix M(g) whose (i, j) entry is the
linear form sum_k c_ijk * y_k.  Generic rank is obtained either by seeded
random specialization over a large prime field (the rank can only be
underestimated, never overestimated, so the maximum over trials is a sound
lower bound that is correct with overwhelming probability) or by certified
sparse fraction-free elimination on the entries, as integer linear forms
(polynomials.bareiss_rank).

The structure constants are scaled to integers by the lcm of their
denominators.  The trials rank the integer rows mod p; the exact rank over Q
at one point (the check of every randomized index and Ooms criterion at its
best trial point, sampling, matchings) is linalg.rank of the same rows.

No rank of M(g) at a point passes min(2 nu, n - dim z(g) rounded down to
even), nu the matching number of the bracket graph B (an edge {i, j} per
nonzero [x_i, x_j]): a nonzero principal r x r minor of a skew matrix is a
squared Pfaffian, a signed sum over the perfect matchings in B of its rows
(Tutte 1947; Lovasz 1979), and z(g) lies in the kernel of every form.  As
rank mod p <= exact rank at the point <= generic rank <= ceiling, a trial
at the ceiling ends the trials, and the exact check at its point is skipped.
index() reads dim z(g) as n - rank(ad); center() still builds the basis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import (
    LieAlgebra,
    NotAbelianError,
    Subspace,
    _center_dim,
    _exact,
    abelian_witness,
    center,
)
from .matching import blossom_matching
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
    if prime.bit_length() < 61 or not is_probable_prime(prime):
        raise ValueError("modulus must be a prime of at least 61 bits")
    return prime


def _check_trials(trials: int) -> None:
    # Zero trials would report rank 0 (index = dim) with a "bound" of 1, and
    # negative counts a bound above 1.
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def _trial_rng(seed: int, trial: int) -> random.Random:
    # Substream derivation keyed on (seed, trial): reproducible regardless of
    # execution order of the trials.
    return random.Random(1_000_003 * seed + trial)


def _bracket_entries(g: LieAlgebra):
    return ((i, j, coeffs.items()) for (i, j), coeffs in g.brackets.items())


def _integer_entries(entries) -> list:
    """Entries (i, j, ((k, c), ...)) times the lcm d of all denominators, which
    keeps every rank over Q, and over F_p when p does not divide d.  All-int
    entries come back as they are; an integral Fraction becomes an int."""
    entries = [(i, j, list(coeffs)) for i, j, coeffs in entries]
    if all(type(c) is int for _, _, coeffs in entries for _, c in coeffs):
        return entries
    d = lcm(*(c.denominator for _, _, coeffs in entries for _, c in coeffs))
    return [(i, j, [(k, c.numerator * (d // c.denominator)) for k, c in coeffs])
            for i, j, coeffs in entries]


def _form_rows(entries, point, n: int, skew: bool) -> list[dict]:
    """Sparse rows {j: sum_k c_k * point[k]} of the matrix of linear forms
    with entries (i, j, ((k, c_k), ...)) at a point; skew also sets (j, i) to
    the negated value."""
    rows = [{} for _ in range(n)]
    for i, j, coeffs in entries:
        val = sum(c * point[k] for k, c in coeffs)
        if val:
            rows[i][j] = val
            if skew:
                rows[j][i] = -val
    return rows


def _trial_rank(entries, n, skew, ceiling, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED, p=DEFAULT_PRIME):
    """(max rank over trials, the first trial point attaining it); integer
    entries.  The trials stop at a rank equal to the ceiling, which no rank
    passes.  Below it, the exact rank over Q at the best point refuses a bad
    modulus: with an integral point and constants a nonzero minor mod p lifts
    to Q."""
    best = None
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        point = [rng.randrange(p) for _ in range(n)]
        r = rank_mod_p(_form_rows(entries, point, n, skew), p)
        if best is None or r > best[0]:
            best = r, point
        if r == ceiling:
            return best
    r, point = best
    exact = rank(_form_rows(entries, point, n, skew))
    if exact != r:
        raise RuntimeError(
            f"exact rank {exact} at the best trial point exceeds the modular "
            f"rank {r}; the modulus is bad for this input"
        )
    return best


def _rank_ceiling(n: int, pairs, z: int) -> int:
    """The rank ceiling of the module docstring, B the graph of the edges pairs."""
    return min(2 * len(blossom_matching(n, pairs)), (n - z) & ~1)


def certified_generic_rank(g: LieAlgebra) -> int:
    if g.dim > CERTIFY_DIM_LIMIT:
        raise CertifySizeError(
            f"certified rank gated at dimension {CERTIFY_DIM_LIMIT}; this algebra has {g.dim}"
        )
    # M(g) times the lcm of the denominators: the same rank, over Z[y].
    rows = [{} for _ in range(g.dim)]
    for i, j, coeffs in _integer_entries(_bracket_entries(g)):
        rows[i][j] = dict(coeffs)
        rows[j][i] = {k: -c for k, c in coeffs}
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
    entries = _integer_entries(_bracket_entries(g))
    for point in points:
        yield rank(_form_rows(entries, point, g.dim, skew=True))


@dataclass(frozen=True)
class StabilizerResult:
    functional: LinearFunctional
    stabilizer: Subspace

    @property
    def dim(self) -> int:
        return self.stabilizer.dim


def stabilizer(g: LieAlgebra, ell: LinearFunctional) -> StabilizerResult:
    if len(ell.coords) != g.dim:
        raise ValueError("functional length does not match algebra dimension")
    # Integer rows {j: ell([x_i, x_j])}, the constants and ell cleared of
    # denominators: the same kernel.
    point = ell.coords if all(type(x) is int for x in ell.coords) else (
        _clear_denominators(dict(enumerate(ell.coords)))[0])
    rows = _form_rows(_integer_entries(_bracket_entries(g)), point, g.dim, skew=True)
    sub = Subspace(g.dim, SparseEchelon(rows).kernel(g.dim))
    if (g.dim - sub.dim) % 2:
        raise RuntimeError("skew form has odd rank; this is a bug")
    return StabilizerResult(ell, sub)


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
    _check_trials(trials)
    p = _check_prime(prime)
    n = g.dim
    z = _center_dim(g)
    if certify:
        r = certified_generic_rank(g)
        method = {"mode": "certified", "dim_limit": CERTIFY_DIM_LIMIT}
    else:
        r = _rank_ceiling(n, g.brackets, z)
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
        entries = _integer_entries(_bracket_entries(g))
        top, point = _trial_rank(entries, n, True, r, trials, seed, p)
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
    Its dim z(g) comes from center(), a route independent of index()'s.
    """
    ceiling = _rank_ceiling(g.dim, g.brackets, center(g).dim)
    rng = random.Random(seed)
    points = ([rng.randint(-bound, bound) for _ in range(g.dim)] for _ in range(samples))
    best = 0
    for r in _form_ranks(g, points):
        if (best := max(best, r)) == ceiling:
            break
    return g.dim - best


@dataclass(frozen=True)
class OomsResult:
    holds: bool
    rect_rank: int
    required_rank: int
    claimed_index: int | None


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
    entries = _integer_entries(
        (i, t, w.items())
        for t, hv in enumerate(h.rows)
        for i, w in g.ad_images(hv).items()
    )
    required = n - h.dim
    r, _ = _trial_rank(entries, n, False, required)
    holds = r == required
    return OomsResult(holds, r, required, 2 * h.dim - n if holds else None)


@dataclass(frozen=True)
class AlphaSandwich:
    lower: int
    upper: int
    certified: bool
    alpha: int | None


def alpha_sandwich(
    g: LieAlgebra,
    candidate: Subspace,
    *,
    chi: int | None = None,
) -> AlphaSandwich:
    """Bounds for the maximal abelian subalgebra dimension.

    lower = dim of the supplied abelian candidate, upper = (index + dim)/2
    rounded down.  When they agree the maximum is certified (over any field
    extension, since the upper bound is field-independent and the candidate
    is rational).
    """
    w = abelian_witness(g, candidate)
    if w is not None:
        raise NotAbelianError(*w)
    if chi is None:
        chi = index(g).index
    lower = candidate.dim
    upper = (chi + g.dim) // 2
    certified = lower == upper
    return AlphaSandwich(lower, upper, certified, lower if certified else None)
