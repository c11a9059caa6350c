import hashlib
import random
import re
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest
import sympy

from lieindex.algebra import (
    LieAlgebra,
    NotAbelianError,
    Subspace,
    center,
    derived_subalgebra_pair,
)
from lieindex.filiform import build_G, build_L, random_adapted_deformation
from lieindex.free_nilpotent import build_free_nilpotent, build_metabelian
from lieindex.graphs import SimpleGraph, build_graph_algebra
from lieindex.index import (
    CertifySizeError,
    IndexReport,
    LinearFunctional,
    _form_ranks,
    alpha_sandwich,
    certified_generic_rank,
    index,
    index_by_sampling,
    ooms_criterion,
    stabilizer,
)
from lieindex.linalg import DEFAULT_PRIME, SparseEchelon
from lieindex.serialize import dumps, report_to_dict

from families import (
    calls_to,
    catalogue_algebras,
    ceiling,
    change_basis,
    form_matrix,
    heisenberg,
    index_module,
    rescaled_basis,
    shifted_basis,
)


class TestStructureMatrix:
    def test_poly_matrix_keeps_rational_constants(self):
        # M(g) keeps its rational constants; only the certified rank scales
        # them to Z[y].
        g = change_basis(build_free_nilpotent(2, 4).algebra, rescaled_basis(8))
        assert all(any(c.denominator > 1 for c in cc.values()) for cc in g.brackets.values())
        assert certified_generic_rank(g) == certified_generic_rank(build_free_nilpotent(2, 4).algebra)


class TestIntegerEntries:
    # LieAlgebra scales the constants to integers once, in its constructor, into
    # the table _scaled; every rank in index.py reads that table.
    def test_int_constants_pass_through(self):
        g = LieAlgebra(3, None, {(0, 1): {2: 3}, (0, 2): {1: -2, 2: 2**70}})
        assert g._scaled is g.brackets
        assert all(type(c) is int for cc in g._scaled.values() for c in cc.values())

    def test_integral_fractions_become_int(self):
        # Subspace bases and payloads hand in Fraction(n, 1) constants; the
        # modular rank needs ints.
        g = LieAlgebra(3, None, {(0, 1): {2: Fraction(6, 2)}, (0, 2): {1: Fraction(3, 1), 2: 4}})
        assert g._scaled is g.brackets
        assert g._scaled == {(0, 1): {2: 3}, (0, 2): {1: 3, 2: 4}}
        assert all(type(c) is int for cc in g._scaled.values() for c in cc.values())

    def test_rational_constants_scaled_by_lcm(self):
        g = LieAlgebra(3, None, {(0, 1): {2: Fraction(1, 2)}, (0, 2): {1: Fraction(-2, 3), 2: 5}})
        assert g._scaled == {(0, 1): {2: 3}, (0, 2): {1: -4, 2: 30}}
        assert all(type(c) is int for cc in g._scaled.values() for c in cc.values())
        # The public constants keep their values.
        assert g.brackets == {(0, 1): {2: Fraction(1, 2)}, (0, 2): {1: Fraction(-2, 3), 2: 5}}


class TestGenericRank:
    # (builder, expected rank): free algebras from the closed-form index
    # values, checked here against both rank routes.
    CASES = [
        (lambda: heisenberg(), 2),
        (lambda: build_free_nilpotent(2, 3).algebra, 2),
        (lambda: build_free_nilpotent(3, 2).algebra, 2),
        (lambda: build_free_nilpotent(4, 2).algebra, 4),
        (lambda: build_free_nilpotent(3, 3).algebra, 6),
        (lambda: build_metabelian(2, 4).algebra, 4),
        (lambda: LieAlgebra(4), 0),
    ]

    @pytest.mark.parametrize("build,expected", CASES)
    def test_both_routes_agree(self, build, expected):
        g = build()
        assert index(g).generic_rank == expected
        assert certified_generic_rank(g) == expected

    def test_randomized_rank_is_stable_across_seeds(self):
        g = build_free_nilpotent(3, 3).algebra
        assert {index(g, seed=s).generic_rank for s in range(5)} == {6}

    def test_certify_gate(self):
        # Both sides of the gate at CERTIFY_DIM_LIMIT = 40.
        assert certified_generic_rank(LieAlgebra(40)) == 0
        with pytest.raises(CertifySizeError, match="gated at dimension 40; this algebra has 41"):
            certified_generic_rank(LieAlgebra(41))


class TestIndexReport:
    def test_heisenberg(self):
        rep = index(heisenberg())
        assert rep == IndexReport(
            dim=3,
            index=1,
            generic_rank=2,
            method=rep.method,
            witness=None,
            center_dim=1,
        )
        assert rep.method["mode"] == "randomized"
        assert rep.method["trials"] == 3
        assert rep.method["seed"] == 0
        assert rep.method["prime"] == DEFAULT_PRIME
        assert "failure_bound" in rep.method

    def test_certified_method(self):
        rep = index(heisenberg(), certify=True)
        assert rep.index == 1
        assert rep.method == {"mode": "certified", "dim_limit": 40}

    def test_witness_attains_the_rank(self):
        for g in (heisenberg(), build_free_nilpotent(3, 3).algebra):
            rep = index(g, want_witness=True)
            assert rep.witness is not None
            assert form_matrix(g, rep.witness).rank() == rep.generic_rank

    def test_witness_with_certification(self):
        alg = build_free_nilpotent(2, 4).algebra
        rep = index(alg, certify=True, want_witness=True)
        assert rep.witness is not None
        assert form_matrix(alg, rep.witness).rank() == rep.generic_rank

    def test_witness_out_of_the_trials_reach(self, monkeypatch):
        # Every trial point is zero, where the form ranks 0 over Q and mod p
        # alike: the modulus is good, and no trial reaches the certified rank 2.
        monkeypatch.setattr(index_module, "_trial_rng", lambda seed, trial: SimpleNamespace(getrandbits=lambda k: 0))
        with pytest.raises(RuntimeError, match="did not reach the certified rank"):
            index(heisenberg(), certify=True, want_witness=True)
        assert index(heisenberg(), certify=True).index == 1  # no trials without a witness

    def test_witness_report_bytes_stable(self):
        # Pins which trial point becomes the witness, not only the rank.
        golden = [
            (build_free_nilpotent(3, 4).algebra, "73ec60f6d58dcd1a197d4d9f5c3e25149802a692775636280790ec6145da2128"),
            (build_metabelian(3, 4).algebra, "6c4042d8de51943415ad46e10e46765fd37f331acdf5e3e4403814c259f635ae"),
            (build_G(11, 5).algebra, "7da71449046be4e1e51aa415d7f5794888825e2e05702330ed31b7a5065fbe10"),
            (
                build_graph_algebra(SimpleGraph(5, tuple(combinations(range(5), 2)))),
                "bb4459c3f99f7e18022e27b1b28c49d61f16e419f239f32f9cab109937d533e4",
            ),
            (build_free_nilpotent(4, 4).algebra, "56ee93aa267baa553261069b4d1186e4b47876807b9eb39c7d02e159a80468f5"),
            (build_free_nilpotent(3, 5).algebra, "07bbcc3ae63d9b589e8a056dfd15ae78fff4f3d80b34969ac436c3364e189952"),
            (build_metabelian(3, 5).algebra, "5e4a76ae3e2f1a56a695e942f498d8409369cc50ee0283a0557325a4d7dba0da"),
        ]
        for alg, digest in golden:
            payload = dumps(report_to_dict(index(alg, want_witness=True)))
            assert hashlib.sha256(payload.encode()).hexdigest() == digest, alg.dim

    def test_bad_modulus_witness_is_refused(self):
        # The constant vanishes mod the default prime, so every trial has
        # rank 0; the witness is a real trial point, whose exact rank is 2.
        alg = LieAlgebra(3, None, {(0, 1): {2: DEFAULT_PRIME}})
        with pytest.raises(RuntimeError, match="exact rank 2 .* exceeds the modular rank 0"):
            index(alg, want_witness=True)

    @pytest.mark.parametrize("c", [DEFAULT_PRIME, DEFAULT_PRIME**2], ids=["p", "p^2"])
    def test_bad_modulus_is_refused_without_a_witness(self, c):
        # Every trial ranks 0 mod p; the exact rank at the best trial point is 2.
        alg = LieAlgebra(3, None, {(0, 1): {2: c}})
        with pytest.raises(RuntimeError, match="exact rank 2 .* exceeds the modular rank 0"):
            index(alg)
        assert certified_generic_rank(alg) == 2

    @pytest.mark.parametrize(
        "c", [Fraction(1, DEFAULT_PRIME), Fraction(3, DEFAULT_PRIME**2)], ids=["1/p", "3/p^2"]
    )
    def test_denominator_at_the_modulus(self, c):
        # Scaled by the lcm of the denominators, the constant is a unit mod p.
        alg = LieAlgebra(3, None, {(0, 1): {2: c}})
        rep = index(alg)
        assert rep.index == index(alg, certify=True).index == 1
        assert rep.generic_rank == 2
        assert index(alg, want_witness=True).witness is not None
        assert certified_generic_rank(alg) == 2

    def test_denominator_that_stays_bad_is_refused(self):
        # Scaled by p, [x2, x3] = p*x4 vanishes mod p: the trials rank 2, the
        # exact rank at the best trial point is 4.
        alg = LieAlgebra(5, None, {(0, 1): {4: Fraction(1, DEFAULT_PRIME)}, (2, 3): {4: 1}})
        assert index(alg, certify=True).index == 1
        with pytest.raises(RuntimeError, match="exact rank 4 .* exceeds the modular rank 2"):
            index(alg)

    def test_abelian_witness_is_the_first_trial_point(self):
        rep = index(LieAlgebra(2), want_witness=True)
        assert rep.generic_rank == 0
        assert rep.witness is not None and any(rep.witness.coords)

    def test_zero_dim(self):
        rep = index(LieAlgebra(0))
        assert rep.dim == 0 and rep.index == 0 and rep.center_dim == 0

    def test_parity_and_bounds(self):
        for g, c in [(2, 3), (3, 2), (2, 4), (3, 3)]:
            alg = build_free_nilpotent(g, c).algebra
            rep = index(alg)
            assert rep.generic_rank % 2 == 0
            assert rep.index % 2 == rep.dim % 2
            assert rep.center_dim <= rep.index <= rep.dim

    def test_center_above_index_is_an_error(self, monkeypatch):
        # The z <= index check holds independently of the center routine, so
        # an oversized center must stop the report, also under python -O.
        monkeypatch.setattr(index_module, "_center_dim", lambda g: g.dim)
        with pytest.raises(RuntimeError, match="center dimension"):
            index(heisenberg())

    def test_trials_below_one_rejected(self):
        g = heisenberg()
        for trials in (0, -2):
            with pytest.raises(ValueError, match="trials"):
                index(g, trials=trials)
            with pytest.raises(ValueError, match="trials"):
                index(g, trials=trials, certify=True)

    def test_trial_parameters_must_be_ints(self):
        # A bool would print as true, and a float has no bit_length or exact product.
        g = heisenberg()
        bad = [("trials", True), ("trials", 2.0), ("trials", "3"), ("seed", True), ("seed", 1.0),
               ("seed", "0"), ("prime", float(DEFAULT_PRIME)), ("prime", True), ("prime", Decimal(DEFAULT_PRIME))]
        for (name, value), certify in product(bad, (False, True)):
            with pytest.raises(ValueError, match=re.escape(f"must be an int, got {value!r}")):
                index(g, certify=certify, **{name: value})

    def test_numpy_trial_parameters_print_as_ints(self):
        rep = index(heisenberg(), trials=np.int64(2), seed=np.int64(5), prime=np.int64(DEFAULT_PRIME))
        assert rep.method == index(heisenberg(), trials=2, seed=5).method
        assert {type(rep.method[k]) for k in ("trials", "seed", "prime")} == {int}
        assert dumps(report_to_dict(rep)) == dumps(report_to_dict(index(heisenberg(), trials=2, seed=5)))


class TestDraws:
    # _draws is randint's draw without its per-call checks: the same values, and
    # the generator left where randint leaves it.  Sizes: 1, 2, 19, 2^k, 2^k + 1, p.
    SIZES = (1, 2, 19, 1 << 5, (1 << 5) + 1, 1 << 61, (1 << 61) + 1, DEFAULT_PRIME)

    def test_matches_randint(self):
        for seed, size in product(range(200), self.SIZES):
            for lo in (0, -(size // 2), 7):
                ours, theirs = random.Random(seed), random.Random(seed)
                drawn = index_module._draws(ours, 6, lo, lo + size - 1)
                assert drawn == [theirs.randint(lo, lo + size - 1) for _ in range(6)], (seed, size, lo)
                assert ours.random() == theirs.random()

    def test_matches_randrange_at_the_modulus(self):
        # The trial point's draw: randrange(p) for each coordinate.
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert index_module._draws(ours, 9, 0, DEFAULT_PRIME - 1) == [theirs.randrange(DEFAULT_PRIME) for _ in range(9)]
            assert ours.random() == theirs.random()

    def test_bad_range_refused(self):
        # Refused, not drawn forever; randint refuses them too.
        for lo, hi in ((0, -1), (3, 1), (-2.5, 2.5), (0, 1.0)):
            with pytest.raises(ValueError, match="must be of ints and not empty"):
                index_module._draws(random.Random(0), 1, lo, hi)
        with pytest.raises(ValueError, match="bound must be an int"):
            index_by_sampling(LieAlgebra(2), bound=2.5)

    def test_numpy_bounds_draw_as_ints_do(self):
        ours, theirs = random.Random(3), random.Random(3)
        assert index_module._draws(ours, 5, np.int64(-9), np.int64(9)) == [theirs.randint(-9, 9) for _ in range(5)]
        assert ours.random() == theirs.random()


class TestSampling:
    def test_matches_structure_matrix_route(self):
        for g, c in [(2, 3), (3, 2), (2, 4), (3, 3)]:
            alg = build_free_nilpotent(g, c).algebra
            assert index_by_sampling(alg) == index(alg).index

    def test_few_samples_only_overestimate(self):
        alg = build_free_nilpotent(3, 3).algebra
        assert index_by_sampling(alg, samples=1) >= index(alg).index

    def test_sample_count_and_seed_are_ints(self):
        # True once ran one sample, -3 returned dim with no sample, and seed 1.5 was taken.
        g = heisenberg()
        for name, value in (("samples", True), ("samples", 2.0), ("samples", "5"),
                            ("seed", True), ("seed", 1.5), ("seed", "0")):
            with pytest.raises(ValueError, match=re.escape(f"{name} must be an int, got {value!r}")):
                index_by_sampling(g, **{name: value})
        with pytest.raises(ValueError, match="samples must be nonnegative, got -3"):
            index_by_sampling(g, samples=-3)
        assert index_by_sampling(g, samples=np.int64(5), seed=np.int64(2)) == index_by_sampling(g, 5, 2) == 1

    def test_bound_is_an_int(self):
        # bound=True once drew every coordinate from [-1, 1], as bound=1 does.
        g = heisenberg()
        for value in (True, 2.5, "9"):
            with pytest.raises(ValueError, match=re.escape(f"bound must be an int, got {value!r}")):
                index_by_sampling(g, bound=value)
        assert index_by_sampling(g, 5, 2, bound=np.int64(3)) == index_by_sampling(g, 5, 2, 3) == 1

    # Sampling stops at the rank ceiling min(2 nu(B(g)), n - dim z(g) rounded
    # down to even).  Every algebra but the shifted L5 reaches it (shifted L4:
    # 2 nu = 4, n - dim z = 3, rank 2, so it needs the rounding).  The shifted
    # L5 misses both bounds: rank 2, 2 nu = n - dim z = 4.
    CEILING_CASES = {
        "heisenberg": heisenberg,
        "L4": lambda: build_L(4).algebra,
        "L4-shifted": lambda: change_basis(build_L(4).algebra, shifted_basis(4)),
        "F(2,3)": lambda: build_free_nilpotent(2, 3).algebra,
        "F(3,3)": lambda: build_free_nilpotent(3, 3).algebra,
        "S4": lambda: build_graph_algebra(SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])),
        "L6": lambda: build_L(6).algebra,
        "M(2,5)": lambda: build_metabelian(2, 5).algebra,
        "L5-shifted": lambda: change_basis(build_L(5).algebra, shifted_basis(5)),
        "abelian": lambda: LieAlgebra(4),
        "zero": lambda: LieAlgebra(0),
    }

    @pytest.mark.parametrize("name", CEILING_CASES)
    def test_early_stop_keeps_the_full_sample_minimum(self, name):
        g = self.CEILING_CASES[name]()
        # bound=1 gives many degenerate samples, so a rank below the maximum
        # often follows it.
        for samples, seed, bound in product((0, 1, 5, 50), (0, 1, 7), (1, 9)):
            rng = random.Random(seed)
            points = [[rng.randint(-bound, bound) for _ in range(g.dim)] for _ in range(samples)]
            full = g.dim - max(_form_ranks(g, points), default=0)
            assert index_by_sampling(g, samples, seed, bound) == full

    @pytest.mark.parametrize(
        "name, calls",
        [("heisenberg", 1), ("L4", 1), ("L4-shifted", 1), ("S4", 1), ("L5-shifted", 10)],
    )
    def test_rank_calls_stop_at_the_ceiling(self, name, calls, monkeypatch):
        ranked = calls_to(monkeypatch, index_module, "rank")
        g = self.CEILING_CASES[name]()
        index_by_sampling(g, samples=10)
        assert len(ranked) == calls


class TestRankCeiling:
    # No rank of M(g) passes min(2 nu(B(g)), n - dim z(g) rounded down to
    # even); the randomized trials stop there.

    def test_catalogue_ceiling_is_the_certified_rank(self):
        # Equality on every catalogue algebra of dim <= 40 and F(2,6), so a
        # regression in the matching or in a builder shows up.
        small = [(name, g) for name, g in catalogue_algebras() if g.dim <= 40]
        small.append(("F(2,6)", build_free_nilpotent(2, 6).algebra))
        assert len(small) == 216
        for name, g in small:
            assert certified_generic_rank(g) == ceiling(g), name

    @staticmethod
    def _two_step(rng):
        a, b = rng.randint(2, 4), rng.randint(1, 3)
        brackets = {
            (i, j): {a + k: rng.randint(-2, 2) for k in range(b) if rng.random() < 0.5}
            for i, j in combinations(range(a), 2)
            if rng.random() < 0.6
        }
        return LieAlgebra(a + b, None, brackets)

    def test_ceiling_bounds_random_algebras(self):
        rng = random.Random(5)
        algebras = [
            random_adapted_deformation(build_L(n) if s % 2 else build_G(n, 3), 4200 + s).algebra
            for s, n in enumerate((5, 6, 7) * 2)
        ]
        algebras += [self._two_step(rng) for _ in range(12)]
        loose = 0
        for g in algebras + [change_basis(g, shifted_basis(g.dim)) for g in algebras]:
            r, c = certified_generic_rank(g), ceiling(g)
            assert r <= c
            loose += r < c
        assert loose >= 5

    @pytest.mark.parametrize(
        "build, rank",
        [
            (lambda: build_L(5).algebra, 2),
            (lambda: build_G(11, 5).algebra, 4),
            (lambda: build_free_nilpotent(2, 6).algebra, 8),
            (lambda: build_metabelian(3, 4).algebra, 6),
            (lambda: build_free_nilpotent(3, 4).algebra, 8),
        ],
        ids=["L5", "G(11,5)", "F(2,6)", "M(3,4)", "F(3,4)"],
    )
    def test_shifted_copies_stay_below_a_loose_ceiling(self, build, rank):
        # Exact ranks over Q at integer points bound the generic rank from
        # below; Bareiss is too slow on these dense copies.
        g = build()
        g = change_basis(g, shifted_basis(g.dim))
        rng = random.Random(3)
        points = [[rng.randint(-9, 9) for _ in range(g.dim)] for _ in range(3)]
        assert max(_form_ranks(g, points)) == rank < ceiling(g)

    @staticmethod
    def _reports(algebras):
        return [dumps(report_to_dict(index(g, want_witness=True))) for g in algebras]

    @staticmethod
    def _first_trial_degenerate():
        # [x0, x1] = a x2 + b x3 vanishes at the first trial point of seed 0:
        # that trial ranks 0 and the second reaches the ceiling 2.
        rng = index_module._trial_rng(0, 0)
        y = [rng.randrange(DEFAULT_PRIME) for _ in range(4)]
        return LieAlgebra(4, None, {(0, 1): {2: y[3], 3: -y[2]}})

    def test_early_stop_changes_nothing_but_the_work(self, monkeypatch):
        degenerate = self._first_trial_degenerate()
        assert index(degenerate).index == 2
        algebras = [g for _, g in catalogue_algebras()] + [degenerate]
        stopped = self._reports(algebras)
        monkeypatch.setattr(index_module, "_rank_ceiling", lambda n, pairs, z: n + 1)
        assert self._reports(algebras) == stopped

    def test_bad_moduli_miss_the_ceiling(self, monkeypatch):
        # Every trial of p*x2 and p^2*x2 ranks 0 mod p, below the ceiling 2,
        # so the exact check still runs, with or without the early stop.
        def outcome():
            for c in (DEFAULT_PRIME, DEFAULT_PRIME**2):
                with pytest.raises(RuntimeError, match="exact rank 2 .* exceeds the modular rank 0"):
                    index(LieAlgebra(3, None, {(0, 1): {2: c}}), want_witness=True)
            rep = index(LieAlgebra(3, None, {(0, 1): {2: Fraction(1, DEFAULT_PRIME)}}), want_witness=True)
            assert rep.index == 1
            return dumps(report_to_dict(rep))

        stopped = outcome()
        monkeypatch.setattr(index_module, "_rank_ceiling", lambda n, pairs, z: n + 1)
        assert outcome() == stopped

    def test_one_trial_and_no_exact_rank_at_the_ceiling(self, monkeypatch):
        mod_p, exact = (calls_to(monkeypatch, index_module, name) for name in ("rank_mod_p", "rank"))
        index(build_free_nilpotent(3, 3).algebra)
        assert (len(mod_p), len(exact)) == (1, 0)


    def test_no_center_basis_is_built(self, monkeypatch):
        # index() reads dim z(g) as n - rank(ad): no kernel is eliminated.
        kernels = calls_to(monkeypatch, SparseEchelon, "kernel")
        index(build_free_nilpotent(3, 3).algebra)
        assert kernels == []


class TestFormRank:
    # _form_ranks clears denominators and takes linalg.rank of the integer
    # rows, with entries from a few bits to far beyond the default prime.

    @staticmethod
    def _scalar(rng, size, rational):
        num = rng.randint(-size, size)
        return Fraction(num, rng.randint(1, size)) if rational else num

    def test_matches_sympy_on_random_forms(self, monkeypatch):
        ranked = calls_to(monkeypatch, index_module, "rank")
        rng = random.Random(11)
        forms = 0
        for size in (9, 1 << 20, 1 << 40):
            for rational in (False, True):
                for _ in range(8):
                    dim = rng.randint(2, 8)
                    brackets = {
                        (i, j): {k: self._scalar(rng, size, rational) for k in rng.sample(range(dim), 2)}
                        for i, j in combinations(range(dim), 2)
                        if rng.random() < 0.5
                    }
                    alg = LieAlgebra(dim, None, brackets)
                    for point_rational in (False, True):
                        ell = LinearFunctional.of(
                            [self._scalar(rng, size, point_rational) for _ in range(dim)]
                        )
                        [r] = _form_ranks(alg, [ell.coords])
                        assert r == form_matrix(alg, ell).rank()
                        forms += 1
        assert len(ranked) == forms == 96

    @pytest.mark.parametrize(
        "c", [DEFAULT_PRIME, DEFAULT_PRIME**2, Fraction(1, DEFAULT_PRIME)], ids=["p", "p^2", "1/p"]
    )
    def test_constants_at_the_modulus(self, c):
        # Mod p the first two forms vanish; over Q each has rank 2.
        alg = LieAlgebra(3, None, {(0, 1): {2: c}})
        ell = LinearFunctional.of([0, 0, 1])
        [r] = _form_ranks(alg, [ell.coords])
        assert r == form_matrix(alg, ell).rank() == 2


class TestStabilizer:
    def test_heisenberg_center_functional(self):
        g = heisenberg()
        ell = LinearFunctional.of([0, 0, 1])
        res = stabilizer(g, ell)
        assert res.dim == 1
        assert res.contains(Subspace.span(3, [{2: 1}]))
        assert form_matrix(g, ell)[0, 1] == 1

    def test_zero_functional(self):
        g = heisenberg()
        res = stabilizer(g, LinearFunctional.of([0, 0, 0]))
        assert res.dim == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            stabilizer(heisenberg(), LinearFunctional.of([1, 2]))

    def test_integer_rows_keep_the_kernel(self):
        # The constants and ell are scaled to integers; the stabilizer is the
        # kernel of the true rational form all the same.
        g = change_basis(build_free_nilpotent(2, 4).algebra, rescaled_basis(8))
        rng = random.Random(5)
        for _ in range(6):
            ell = LinearFunctional.of(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(g.dim)]
            )
            null = form_matrix(g, ell).nullspace()
            expected = Subspace.from_vectors(g.dim, [[Fraction(int(x.p), int(x.q)) for x in v] for v in null])
            assert stabilizer(g, ell) == expected

    def test_codim_is_even_on_random_functionals(self):
        rng = random.Random(7)
        for g, c in [(2, 3), (3, 3)]:
            alg = build_free_nilpotent(g, c).algebra
            for _ in range(10):
                ell = LinearFunctional.of([rng.randint(-5, 5) for _ in range(alg.dim)])
                res = stabilizer(alg, ell)
                assert (alg.dim - res.dim) % 2 == 0


class TestLinearFunctional:
    @pytest.mark.parametrize("values, position", [
        ([0.5], 0), ([1, 2.0], 1), ([1, 0, True], 2), ([False], 0),
        pytest.param([1, "0.1"], 1, id="str"), pytest.param([1, Decimal("0.1")], 1, id="Decimal"),
    ])
    def test_floats_and_bools_are_refused(self, values, position):
        with pytest.raises(ValueError, match=f"^coordinate {position} must be an int or Fraction, got "):
            LinearFunctional.of(values)

    @pytest.mark.parametrize("c", [0.5, True, "1", Decimal(1)], ids=["float", "bool", "str", "Decimal"])
    def test_constructor_refuses_what_of_refuses(self, c):
        # The dataclass constructor skips of(); stabilizer used to end in AttributeError.
        with pytest.raises(ValueError, match="^coordinate 2 must be an int or Fraction, got "):
            stabilizer(heisenberg(), LinearFunctional((0, 0, c)))

    def test_constructor_keeps_exact_coordinates(self):
        ell = LinearFunctional((0, 0, Fraction(1, 2)))
        assert stabilizer(heisenberg(), ell).dim == 1

    def test_list_coordinates_are_stored_as_a_tuple(self):
        ell = LinearFunctional([1, 2])
        assert ell.coords == (1, 2) and hash(ell) == hash(LinearFunctional.of([1, 2]))

    def test_integral_fraction_becomes_int(self):
        for ell in (LinearFunctional((Fraction(4, 2), Fraction(1, 3))), LinearFunctional.of([Fraction(4, 2), Fraction(1, 3)])):
            assert ell.coords == (2, Fraction(1, 3))
            assert list(map(type, ell.coords)) == [int, Fraction]

    def test_constructor_takes_numpy_integers(self):
        ell = LinearFunctional((np.int64(1), 0))
        assert ell == LinearFunctional.of([np.int64(1), 0])
        assert ell.coords == (1, 0) and type(ell.coords[0]) is int


class TestPrimeOverride:
    def test_small_or_composite_rejected(self):
        for prime, certify in product((101, (1 << 61) - 3), (False, True)):
            with pytest.raises(ValueError, match="modulus must be a prime"):
                index(heisenberg(), prime=prime, certify=certify)

    def test_alternative_prime_accepted(self):
        p = int(sympy.nextprime(1 << 61))
        rep = index(build_free_nilpotent(2, 3).algebra, prime=p)
        assert rep.index == 3
        assert rep.method["prime"] == p


class TestOoms:
    def test_metabelian_derived_subalgebra(self):
        meta = build_metabelian(2, 4)
        d1, _ = derived_subalgebra_pair(meta.algebra)
        res = ooms_criterion(meta.algebra, d1)
        assert res.rect_rank == meta.dim - d1.dim == 2
        assert res.claimed_index == 2 * d1.dim - meta.dim == 4
        assert index(meta.algebra).index == 4

    def test_criterion_can_fail(self):
        # The center of the two-step algebra on 3 generators is too small.
        alg = build_free_nilpotent(3, 2).algebra
        small = Subspace.from_vectors(6, [[0, 0, 0, 1, 0, 0]])
        res = ooms_criterion(alg, small)
        assert res.rect_rank < alg.dim - small.dim
        assert res.claimed_index is None

    def test_rejects_nonabelian(self):
        alg = build_free_nilpotent(2, 3).algebra
        with pytest.raises(NotAbelianError):
            ooms_criterion(alg, Subspace.full(5))

    @pytest.mark.parametrize("g, c", [(2, 4), (3, 5)])
    def test_rank_calls_stop_at_the_ceiling(self, g, c, monkeypatch):
        # h is abelian, so no rank of ([x_i, h_t]) passes dim g - dim h: the
        # first trial that reaches it ends the trials and skips the exact check.
        mod_p, exact = (calls_to(monkeypatch, index_module, name) for name in ("rank_mod_p", "rank"))
        alg = build_metabelian(g, c).algebra
        d1, _ = derived_subalgebra_pair(alg)
        assert ooms_criterion(alg, d1).rect_rank == alg.dim - d1.dim
        assert (len(mod_p), len(exact)) == (1, 0)

    H = Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])

    @pytest.mark.parametrize("c", [1, Fraction(1, DEFAULT_PRIME)], ids=["1", "1/p"])
    def test_holds_on_the_heisenberg_algebra(self, c):
        res = ooms_criterion(LieAlgebra(3, None, {(0, 1): {2: c}}), self.H)
        assert res.rect_rank == 3 - self.H.dim == 1
        assert res.claimed_index == 1

    @pytest.mark.parametrize("c", [DEFAULT_PRIME, DEFAULT_PRIME**2], ids=["p", "p^2"])
    def test_bad_modulus_is_refused(self, c):
        # Every trial ranks 0 mod p; over Q the rectangular matrix has rank 1.
        alg = LieAlgebra(3, None, {(0, 1): {2: c}})
        with pytest.raises(RuntimeError, match="exact rank 1 .* exceeds the modular rank 0"):
            ooms_criterion(alg, self.H)

    @pytest.mark.parametrize("case", ["derived", "line-and-center"])
    def test_rational_h_against_sympy(self, case):
        # Fraction constants, and an h whose RREF basis has non-integral entries:
        # index.py scales the constants by their lcm and each h_t by its own.
        g = change_basis(change_basis(build_metabelian(2, 4).algebra, shifted_basis(8)), rescaled_basis(8))
        if case == "derived":
            h = derived_subalgebra_pair(g)[0]
        else:
            h = Subspace.span(g.dim, [{0: 1, 1: Fraction(2, 3)}, *center(g).rows])
        assert any(type(c) is Fraction for cc in g.brackets.values() for c in cc.values())
        assert any(type(x) is Fraction for row in h.rows for x in row.values())

        rng = random.Random(5)
        points = [LinearFunctional.of([rng.randint(-9, 9) for _ in range(g.dim)]) for _ in range(4)]
        # ell([x_i, h_t]) is entry (i, t) of M(ell) H^T, H the dense basis of h.
        expected = max((form_matrix(g, ell) * sympy.Matrix(h.basis).T).rank() for ell in points)
        res = ooms_criterion(g, h)
        assert res.rect_rank == expected
        assert (res.claimed_index is not None) == (case == "derived") == (expected == g.dim - h.dim)
        if res.claimed_index is not None:
            assert res.claimed_index == index(g).index == 4


class TestAlphaSandwich:
    def test_certified_case(self):
        alg = build_free_nilpotent(3, 3).algebra
        derived, _ = derived_subalgebra_pair(alg)
        chi = index(alg).index
        assert (derived.dim, (chi + alg.dim) // 2) == (11, 11)
        assert alpha_sandwich(alg, derived, chi=chi) == alpha_sandwich(alg, derived, chi=np.int64(chi)) == 11
        for bad in (True, 8.0):  # chi=True once returned None
            with pytest.raises(ValueError, match=re.escape(f"chi must be an int, got {bad!r}")):
                alpha_sandwich(alg, derived, chi=bad)

    def test_open_case(self):
        # In the two-generator case the upper bound (index 3, dim 5) does not
        # meet the best abelian candidate, so nothing is certified.
        alg = build_free_nilpotent(2, 3).algebra
        derived, _ = derived_subalgebra_pair(alg)
        chi = index(alg).index
        assert (derived.dim, (chi + alg.dim) // 2) == (3, 4)
        assert alpha_sandwich(alg, derived, chi=chi) is None

    def test_rejects_nonabelian(self):
        alg = build_free_nilpotent(2, 3).algebra
        with pytest.raises(NotAbelianError):
            alpha_sandwich(alg, Subspace.full(5), chi=index(alg).index)
