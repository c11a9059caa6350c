import hashlib
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import lieindex.filiform as filiform
from lieindex.algebra import (
    LieAlgebra,
    Subspace,
    check_jacobi,
    lower_central_series,
)
from lieindex.filiform import (
    IndexOneResult,
    achievable_indices,
    adapted_violation,
    build_G,
    build_L,
    build_Q,
    index_one_criterion,
    lower_bound,
    make_filiform,
    random_adapted_deformation,
)
from lieindex.free_nilpotent import build_free_nilpotent
from lieindex.index import LinearFunctional, index, stabilizer
from lieindex.serialize import algebra_to_dict, dumps
from lieindex.verify import _CORPUS


def alphas(f):
    """alpha_i, the e_n coefficient of [e_i, e_{n-i}], for i = 1 .. n-1."""
    n = f.n
    return tuple(f.algebra.structure_coeffs(i - 1, n - i - 1).get(n - 1, 0) for i in range(1, n))


class TestBuilders:
    def test_chain_family(self):
        f = build_L(4)
        assert f.family == "L" and f.n == 4 and f.k is None
        assert f.algebra.labels == ("e1", "e2", "e3", "e4")
        assert f.algebra.brackets == {
            (0, 1): {2: Fraction(1)},
            (0, 2): {3: Fraction(1)},
        }
        assert alphas(f) == (Fraction(1), Fraction(0), Fraction(-1))

    def test_q_family(self):
        f = build_Q(6)
        assert (f.family, f.k) == ("Q", None)
        assert f.algebra.brackets == {
            (0, 1): {2: Fraction(1)},
            (0, 2): {3: Fraction(1)},
            (0, 3): {4: Fraction(1)},
            (0, 4): {5: Fraction(1)},
            (1, 4): {5: Fraction(1)},
            (2, 3): {5: Fraction(-1)},
        }
        assert alphas(f) == (Fraction(1), 0, 0, 0, Fraction(-1))

    def test_g_family(self):
        f = build_G(7, 5)
        assert (f.family, f.k) == ("G", 5)
        assert f.algebra.structure_coeffs(1, 2) == {6: Fraction(1)}  # [e2,e3] = e7
        assert f.algebra.structure_coeffs(0, 1) == {2: Fraction(1)}

    def test_g_with_smallest_parameter_is_the_chain(self):
        for n in (3, 5, 8):
            assert build_G(n, 3).algebra.brackets == build_L(n).algebra.brackets

    def test_all_builders_satisfy_jacobi(self):
        for f in (build_L(9), build_Q(10), build_G(9, 5), build_G(11, 7), build_G(10, 9)):
            assert check_jacobi(f.algebra) is None
            assert adapted_violation(f.algebra) is None

    def test_g_family_is_pinned(self):
        # Every structure constant of G(n, k) for 3 <= n <= 40, odd k.
        payload = dumps([algebra_to_dict(build_G(n, k).algebra) for n in range(3, 41) for k in range(3, n + 1, 2)])
        assert hashlib.sha256(payload.encode()).hexdigest() == (
            "745f79e92f14f08335b8f4d57a918daed2419dd4965d7409f29a5f5aa88b68bd"
        )

    def test_l_and_q_families_are_pinned(self):
        # Every structure constant of L(n), 3 <= n <= 40, and Q(n), even 4 <= n <= 40.
        payload = dumps([algebra_to_dict(build_L(n).algebra) for n in range(3, 41)]
                        + [algebra_to_dict(build_Q(n).algebra) for n in range(4, 41, 2)])
        assert hashlib.sha256(payload.encode()).hexdigest() == (
            "74a3c7d94855b038da68d272998e837a9b3a7dc241cc0514f73bb2d15af259c6"
        )

    def test_failed_jacobi_check_raises(self, monkeypatch):
        monkeypatch.setattr(filiform, "check_jacobi", lambda alg: ((0, 1, 2), {0: 1}))
        with pytest.raises(RuntimeError, match="Jacobi"):
            build_G(7, 5)
        for build, n in ((build_L, 5), (build_Q, 6)):
            with pytest.raises(RuntimeError, match="Jacobi"):
                build(n)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_L(2)
        with pytest.raises(ValueError):
            build_Q(5)
        with pytest.raises(ValueError):
            build_Q(2)
        with pytest.raises(ValueError):
            build_G(6, 4)
        with pytest.raises(ValueError):
            build_G(5, 7)
        with pytest.raises(ValueError):
            build_G(5, 1)

    @pytest.mark.parametrize("call", [
        lambda: build_L(5.0),
        lambda: build_L(True),
        lambda: build_Q(6.0),
        lambda: build_G(9, 5.0),
        lambda: build_G(9.0, 5),
        lambda: lower_bound(build_L(5), 2.5),
        lambda: achievable_indices(5.0),
        lambda: achievable_indices(True),
    ], ids=["L-float", "L-bool", "Q-float", "G-k-float", "G-n-float", "bound-float", "indices-float", "indices-bool"])
    def test_parameters_are_ints(self, call):
        # Each float once raised a TypeError deep in a range(), and
        # achievable_indices(True) returned [].
        with pytest.raises(ValueError, match="must be an int"):
            call()

    def test_numpy_parameters_build_as_ints_do(self):
        assert build_G(np.int64(9), np.int64(5)) == build_G(9, 5)
        assert build_L(np.int64(5)).algebra.labels == build_L(5).algebra.labels
        assert lower_bound(build_L(6), np.int64(2)) == lower_bound(build_L(6), 2) == 4
        assert achievable_indices(np.int64(7)) == achievable_indices(7) == [1, 3, 5]


class TestAdaptedBasisChecks:
    def test_accepts_standard_families(self):
        assert adapted_violation(build_L(5).algebra) is None
        assert adapted_violation(build_Q(8).algebra) is None

    def test_rejects_abelian(self):
        assert adapted_violation(LieAlgebra(4)) is not None

    def test_rejects_wrong_series_shape(self):
        alg = build_free_nilpotent(2, 3).algebra  # dim 5, class 3: not filiform
        assert adapted_violation(alg) is not None
        with pytest.raises(ValueError):
            make_filiform(alg)

    def test_make_filiform_extracts_alphas(self):
        f = make_filiform(build_L(5).algebra)
        assert f.family == "adapted" and f.k is None
        assert f.algebra == build_L(5).algebra

    def test_make_filiform_checks_k(self):
        # k=True was once kept as the family parameter; build_G checks its k the same way.
        alg = build_G(9, 5).algebra
        for k in (True, 5.0):
            with pytest.raises(ValueError, match=re.escape(f"k must be an int, got {k!r}")):
                make_filiform(alg, "G", k)
        f = make_filiform(alg, "G", np.int64(5))
        assert type(f.k) is int and f == build_G(9, 5)

    def test_alphas_keep_the_constant_type(self):
        for f in (build_L(5), build_Q(8), build_G(9, 5), random_adapted_deformation(build_Q(8), 3)):
            assert {type(a) for a in alphas(f)} == {int}
        chain = {(0, i): {i + 1: 1} for i in range(1, 4)}
        f = make_filiform(LieAlgebra(5, None, {**chain, (1, 2): {4: Fraction(1, 2)}}))
        assert alphas(f) == (1, Fraction(1, 2), Fraction(-1, 2), -1)
        assert [type(a) for a in alphas(f)] == [int, Fraction, Fraction, int]
        assert index_one_criterion(f) == IndexOneResult(True, None)
        assert index(f.algebra).index == 1

    def test_shape_forces_filiform_series(self):
        # Random constants respecting the filtration, Jacobi or not.
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(3, 12)
            brackets = {(0, m): {m + 1: Fraction(1)} for m in range(1, n - 1)}
            for i in range(2, n):
                for j in range(i + 1, n + 1):
                    # span(e_{i+j} .. e_n), at most span(e_n), empty past n + 1.
                    top = range(min(i + j, n) - 1, n) if i + j <= n + 1 else ()
                    brackets[(i - 1, j - 1)] = {
                        k: Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for k in top if rng.random() < 0.5
                    }
            alg = LieAlgebra(n, None, brackets)
            assert adapted_violation(alg) is None
            assert [s.dim for s in lower_central_series(alg)] == [n] + list(range(n - 2, -1, -1))

    def test_rejects_broken_filtration(self):
        # [e2, e3] = e4 breaks the weight filtration in dim 6.
        bad = dict(build_L(6).algebra.brackets)
        bad[(1, 2)] = {3: Fraction(1)}
        alg = LieAlgebra(6, None, bad)
        assert adapted_violation(alg) is not None

    @pytest.mark.parametrize("dim, extra, reason", [
        (2, {}, "need dimension at least 3"),
        (5, {(0, 4): {1: 1}}, "[e1,en] != 0"),
        (6, {(1, 2): {3: 1}}, "[e2,e3] leaves span(e5..e6)"),
        (5, {(1, 3): {3: 1}}, "[e2,e4] leaves span(e5)"),
        (5, {(2, 3): {4: 1}}, "[e3,e4] != 0 with 3+4 > n+1"),
    ])
    def test_each_refusal_names_its_reason(self, dim, extra, reason):
        # The shape alone is checked, so the hand-made constants need not satisfy Jacobi.
        chain = {(0, i): {i + 1: 1} for i in range(1, dim - 1)}
        alg = LieAlgebra(dim, None, {**chain, **extra})
        assert adapted_violation(alg) == reason
        with pytest.raises(ValueError, match=re.escape(reason)):
            make_filiform(alg)


class TestIdeals:
    def test_chain_of_ideals(self):
        # span(e_i .. e_n) is an ideal: no bracket with e_j, j >= i, leaves it.
        g = build_L(6).algebra
        for i in range(6):
            assert all(k >= i for a in range(6) for j in range(i, 6) for k in g.structure_coeffs(a, j))

    def test_matches_lower_central_series(self):
        g = build_Q(8).algebra
        series = lower_central_series(g)
        for i in range(3, 9):
            tail = Subspace.span(8, ({j: 1} for j in range(i - 1, 8)))
            assert series[i - 2] == tail


class TestIndices:
    def test_chain_index(self):
        for n in (3, 4, 6, 9):
            assert index(build_L(n).algebra).index == n - 2

    def test_q_index_is_two(self):
        for n in (4, 6, 8, 10):
            assert index(build_Q(n).algebra).index == 2

    def test_g_index_formula(self):
        for n, k in [(5, 5), (7, 5), (9, 7), (10, 5), (11, 11)]:
            assert index(build_G(n, k).algebra).index == n - k + 1

    def test_last_coordinate_functional_attains_g_index(self):
        for n, k in [(7, 5), (9, 9), (8, 5)]:
            f = build_G(n, k)
            ell = LinearFunctional.of([0] * (n - 1) + [1])
            assert stabilizer(f.algebra, ell).dim == n - k + 1

    def test_q_last_coordinate_stabilizer(self):
        for n in (6, 8, 10):
            f = build_Q(n)
            ell = LinearFunctional.of([0] * (n - 1) + [1])
            assert stabilizer(f.algebra, ell).dim == 2


class TestIndexOneCriterion:
    def test_requires_odd_dimension(self):
        with pytest.raises(ValueError):
            index_one_criterion(build_L(6))

    def test_chain_fails_above_three(self):
        res = index_one_criterion(build_L(7))
        assert not res.is_index_one
        assert res.witness == 2  # [e2, e5] = 0

    def test_smallest_chain_passes(self):
        res = index_one_criterion(build_L(3))
        assert res.is_index_one and res.witness is None

    def test_saturated_g_family_passes(self):
        for n in (5, 7, 9, 11):
            f = build_G(n, n)
            res = index_one_criterion(f)
            assert res.is_index_one
            assert index(f.algebra).index == 1

    def test_agrees_with_computed_index(self):
        for f in (build_L(5), build_L(9), build_G(7, 5), build_G(9, 9), build_G(11, 7)):
            res = index_one_criterion(f)
            assert res.is_index_one == (index(f.algebra).index == 1)


class TestLowerBound:
    def test_chain(self):
        f = build_L(6)
        assert lower_bound(f, 2) == 4  # tail ideal is abelian, bound is sharp
        assert index(f.algebra).index == 4

    def test_nonabelian_ideal_gives_nothing(self):
        f = build_G(7, 5)
        assert lower_bound(f, 2) is None
        assert lower_bound(f, 3) == 3  # sharp: the index is n - k + 1
        assert lower_bound(f, 4) == 1

    def test_parameter_range(self):
        f = build_L(5)
        with pytest.raises(ValueError):
            lower_bound(f, 1)
        with pytest.raises(ValueError):
            lower_bound(f, 6)

    def test_bound_is_sound(self):
        for f in (build_L(7), build_Q(8), build_G(9, 5), build_G(9, 7)):
            chi = index(f.algebra).index
            for m in range(2, f.n + 1):
                b = lower_bound(f, m)
                if b is not None:
                    assert b <= chi


class TestAchievableIndices:
    def test_frozen_lists(self):
        assert achievable_indices(5) == [1, 3]
        assert achievable_indices(7) == [1, 3, 5]
        assert achievable_indices(8) == [2, 4, 6]
        assert achievable_indices(4) == [2]
        assert achievable_indices(3) == [1]

    def test_parity_and_extremes(self):
        for n in range(3, 12):
            got = achievable_indices(n)
            assert got[0] == (1 if n % 2 else 2)
            assert got[-1] == n - 2
            assert all(v % 2 == n % 2 for v in got)


class TestDeformations:
    def test_stays_adapted_and_keeps_index(self):
        base = build_L(7)
        chi = index(base.algebra).index
        for seed in range(4):
            d = random_adapted_deformation(base, seed)
            assert d.family == "deformed"
            assert adapted_violation(d.algebra) is None
            assert check_jacobi(d.algebra) is None
            assert index(d.algebra).index == chi

    def test_preserves_top_antidiagonal(self):
        for n in (6, 8):
            base = build_Q(n)
            for seed in (1, 2):
                d = random_adapted_deformation(base, seed)
                for i in range(2, n):
                    assert d.algebra.structure_coeffs(i - 1, n - i) == {
                        n - 1: Fraction((-1) ** i)
                    }
                assert index(d.algebra).index == 2

    def test_deterministic_in_the_seed(self):
        base = build_G(9, 5)
        a = random_adapted_deformation(base, 3)
        b = random_adapted_deformation(base, 3)
        assert a.algebra == b.algebra

    def test_seed_is_an_int(self):
        # seed=True once gave seed 1's deformation, and seed=2.5 was taken.
        base = build_L(5)
        for seed in (True, 2.5):
            with pytest.raises(ValueError, match=re.escape(f"seed must be an int, got {seed!r}")):
                random_adapted_deformation(base, seed)
        assert random_adapted_deformation(base, np.int64(1)).algebra == random_adapted_deformation(base, 1).algebra

    def test_catalogue_deformations_are_pinned(self):
        # The catalogue digest checks their indices, not their constants: these
        # bytes pin every structure constant of the 84 catalogue deformations.
        entries = [e for name, e in _CORPUS.filiform.items() if "+s" in name]
        assert len(entries) == 84
        payload = dumps([algebra_to_dict(e.algebra) for e in entries])
        assert hashlib.sha256(payload.encode()).hexdigest() == (
            "92f80ca172d5163e0a6a33ea991ca5528469e1b0b6f4d66bed32abf4b04d0053"
        )

    def test_failed_jacobi_check_raises(self, monkeypatch):
        # A RuntimeError rather than an assert, so the check also runs under python -O.
        # The base is built first: build_L runs the same check.
        base = build_L(5)
        monkeypatch.setattr(filiform, "check_jacobi", lambda alg: ((0, 1, 2), {0: 1}))
        with pytest.raises(RuntimeError, match="deformed brackets fail the Jacobi"):
            random_adapted_deformation(base, 1)
