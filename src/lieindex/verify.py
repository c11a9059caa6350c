"""Catalogue of verification cases for the built-in constructions.

Every closed-form value the package claims (dimensions, indices, ranks,
stabilizer dimensions, matching numbers) is represented as a case pairing the
expected value with a freshly computed one, each tagged with a stable id and
the section of the results catalogue it belongs to.  The CLI's verify command
and the acceptance test suite both run off this module, so nothing here may
special-case its own expected values: computed sides always go through the
public construction and index routes.  One corpus object builds each
construction, and computes each index report, once per process, however the
groups are run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

from .algebra import (
    LieAlgebra,
    Subspace,
    _integer,
    abelian_witness,
    center,
    check_jacobi,
    derived_subalgebra_pair,
)
from .filiform import (
    FiliformAlgebra,
    achievable_indices,
    build_G,
    build_L,
    build_Q,
    index_one_criterion,
    lower_bound,
    random_adapted_deformation,
)
from .free_nilpotent import (
    build_fg3_explicit_basis,
    build_free_nilpotent,
    build_metabelian,
    witt_dimension,
    witt_layer,
)
from .graphs import (
    SimpleGraph,
    build_graph_algebra,
    matching_functional,
    matching_number,
    matching_number_exhaustive,
)
from .index import (
    IndexReport,
    LinearFunctional,
    _draws,
    alpha_sandwich,
    certified_generic_rank,
    index,
    index_by_sampling,
    ooms_criterion,
    stabilizer,
)


@dataclass(frozen=True)
class VerificationCase:
    id: str
    section: int
    expected: object
    computed: object
    method: str

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


_Row = tuple[str, object, object, str]  # (id, expected, computed, method)


# ------------------------------------------------------------------ corpus

_WITT_COMBOS = [(g, c) for g in (2, 3, 4) for c in (2, 3, 4)] + [(3, 5)]
_META_COMBOS = [(3, 3), (3, 4), (4, 3), (3, 5)]


@dataclass
class _Entry:
    """What a builder returned, its algebra, and the algebra's index report."""

    built: object
    algebra: LieAlgebra

    @cached_property
    def report(self) -> IndexReport:
        return index(self.algebra)

    @cached_property
    def matching(self) -> tuple[int, tuple]:
        """(matching number, a maximum matching) of built, a graph."""
        return matching_number(self.built)


def _entry(built) -> _Entry:
    return _Entry(built, built.algebra)


class _Corpus:
    """Every construction the catalogue checks, each family built on first use."""

    @cached_property
    def free(self) -> dict[tuple[int, int], _Entry]:
        # Criteria 2 and 4 also use F(5..7, 2) and F(5, 3); criterion 14 does not.
        keys = _WITT_COMBOS + [(g, 2) for g in range(5, 8)] + [(5, 3)]
        return {k: _entry(build_free_nilpotent(*k)) for k in keys}

    @cached_property
    def explicit(self) -> dict[int, _Entry]:
        return {g: _entry(build_fg3_explicit_basis(g)) for g in (3, 4, 5)}

    @cached_property
    def meta(self) -> dict[tuple[int, int], _Entry]:
        keys = _META_COMBOS + [(2, c) for c in range(4, 8)]
        return {k: _entry(build_metabelian(*k)) for k in keys}

    @cached_property
    def graphs(self) -> dict[str, _Entry]:
        """Named graphs plus 50 seeded random graphs on at most 10 vertices."""
        out = {f"K{n}": SimpleGraph(n, tuple(combinations(range(n), 2))) for n in range(2, 7)}
        path = {n: tuple((i, i + 1) for i in range(n - 1)) for n in range(2, 9)}
        out |= {f"P{n}": SimpleGraph(n, path[n]) for n in range(2, 9)}
        out |= {f"C{n}": SimpleGraph(n, path[n] + ((0, n - 1),)) for n in range(3, 9)}
        out |= {f"S{n}": SimpleGraph(n, tuple((0, i) for i in range(1, n))) for n in range(3, 9)}
        for t in range(50):
            rng = random.Random(777_000 + t)
            n = rng.randint(2, 10)
            edges = tuple(
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
            )
            out[f"rand{t:02d}"] = SimpleGraph(n, edges)
        return {name: _Entry(gr, build_graph_algebra(gr)) for name, gr in out.items()}

    @cached_property
    def filiform(self) -> dict[str, _Entry]:
        """All family members plus seeded adapted-basis perturbations.

        Perturbations are honest changes of adapted basis, so each one is a
        valid filiform algebra whose invariants are recomputed from scratch by
        the cases that consume it.
        """
        out = {f"L{n}": build_L(n) for n in range(3, 11)}
        out |= {f"Q{n}": build_Q(n) for n in range(4, 11, 2)}
        out |= {f"G{n},{k}": build_G(n, k) for n in range(3, 12) for k in range(3, n + 1, 2)}
        for n in (5, 7, 9):
            bases = [f"L{n}"] + [f"G{n},{k}" for k in range(3, n + 1, 2)]
            for s in range(25):
                base = bases[s % len(bases)]
                out[f"{base}+s{s:02d}"] = random_adapted_deformation(out[base], 9000 + 100 * n + s)
        for n in (6, 8, 10):
            for s in range(3):
                out[f"Q{n}+s{s:02d}"] = random_adapted_deformation(out[f"Q{n}"], 8000 + 10 * n + s)
        return {name: _entry(f) for name, f in out.items()}


# One per process: the catalogue groups run separately (by section, or one
# criterion at a time) and share every construction and report.
_CORPUS = _Corpus()


def _e_n_star(f: FiliformAlgebra) -> LinearFunctional:
    coords = [0] * f.n
    coords[f.n - 1] = 1
    return LinearFunctional.of(coords)


# ---------------------------------------------------------------- criteria


def _criterion_1() -> list[_Row]:
    cases = []
    for g, c in _WITT_COMBOS:
        total, top = witt_dimension(g, c)
        built = _CORPUS.free[g, c].built
        cases.append((
            f"prop2.5/F{g},{c}/dim", total, built.dim, "Hall basis count vs Witt formula"
        ))
        cases.append((
            f"prop2.5/F{g},{c}/top-layer",
            top,
            len(built.layer_range(c)),
            "top Hall layer count vs Witt formula",
        ))
    return cases


def _criterion_2() -> list[_Row]:
    cases = []
    for g in range(2, 8):
        expected = comb(g, 2) + (g % 2)
        cases.append((
            f"prop3.2/g={g}",
            expected,
            _CORPUS.free[g, 2].report.index,
            "randomized structure-matrix rank",
        ))
    return cases


def _criterion_3() -> list[_Row]:
    report = index(_CORPUS.free[2, 3].algebra, certify=True)
    return [
        ("ex3.3/rank", 2, report.generic_rank, "certified fraction-free elimination"),
        ("ex3.3/index", 3, report.index, "certified index"),
    ]


def _fg3_chi(g: int) -> int:
    return (2 * g**3 + 3 * g**2 - 11 * g) // 6


def _fg3_functional(g: int) -> LinearFunctional:
    built = _CORPUS.explicit[g].built
    coords = [0] * built.dim
    for pos in built.layer_range(3):
        i, (j, k) = built.trees[pos]
        coords[pos] = i + j + k + 3  # trees store 0-based generators
    return LinearFunctional.of(coords)


def _criterion_4() -> list[_Row]:
    cases = []
    for g in (3, 4, 5):
        expected = _fg3_chi(g)
        cases.append((
            f"thm3.4/g={g}",
            expected,
            _CORPUS.free[g, 3].report.index,
            "randomized structure-matrix rank on the Hall basis",
        ))
        cases.append((
            f"thm3.4/g={g}/explicit-basis",
            expected,
            _CORPUS.explicit[g].report.index,
            "randomized rank on the triple-indexed basis",
        ))
        stab = stabilizer(_CORPUS.explicit[g].algebra, _fg3_functional(g))
        cases.append((
            f"thm3.4/g={g}/witness",
            expected,
            stab.dim,
            "exact rational stabilizer of the weighted dual functional",
        ))
    return cases


def _criterion_5() -> list[_Row]:
    cases = []
    for g in (3, 4, 5):
        entry = _CORPUS.free[g, 3]
        derived, _ = derived_subalgebra_pair(entry.algebra)
        cases.append((
            f"cor3.5/g={g}",
            (2 * g**3 + 3 * g**2 - 5 * g) // 6,
            alpha_sandwich(entry.algebra, derived, chi=entry.report.index),
            "abelian derived subalgebra squeezed against the index bound",
        ))
    return cases


_REMARK_TABLE = {
    (2, 4): (8, 3, 4, 4),
    (3, 4): (32, 18, 8, 24),
    (4, 4): (90, 60, 14, 76),
    (3, 5): (80, 48, 12, 68),
}


def _criterion_6() -> list[_Row]:
    cases = []
    for (g, c), (dim_, z, r, chi) in sorted(_REMARK_TABLE.items()):
        report = _CORPUS.free[g, c].report
        got = {"dim": report.dim, "center": report.center_dim, "rank": report.generic_rank, "index": report.index}
        want = {"dim": dim_, "center": z, "rank": r, "index": chi}
        for key in ("dim", "center", "rank", "index"):
            cases.append((
                f"remark-table/F{g},{c}/{key}",
                want[key],
                got[key],
                "randomized rank, trials=3 seed=0",
            ))
    return cases


def _criterion_7() -> list[_Row]:
    cases = []
    for name, entry in _CORPUS.graphs.items():
        graph = entry.built
        nu, _witness = entry.matching
        cases.append((
            f"prop4.4/{name}",
            entry.algebra.dim - 2 * nu,
            entry.report.index,
            "matching count vs randomized structure-matrix rank",
        ))
        cases.append((
            f"lovasz/{name}",
            matching_number_exhaustive(graph),
            nu,
            "blossom matching vs exhaustive subset search",
        ))
    return cases


def _criterion_8() -> list[_Row]:
    cases = []
    for name, entry in _CORPUS.graphs.items():
        nu, witness = entry.matching
        cases.append((
            f"rem4.5/{name}",
            entry.algebra.dim - 2 * nu,
            stabilizer(entry.algebra, matching_functional(entry.built, witness)).dim,
            "exact stabilizer of the matched-edge dual sum",
        ))
    return cases


def _criterion_9() -> list[_Row]:
    cases = []
    for g, c in _META_COMBOS:
        entry = _CORPUS.meta[g, c]
        n = entry.algebra.dim
        report = entry.report
        cases.append((
            f"thm5.2/M{g},{c}",
            n - 2 * g,
            report.index,
            "randomized structure-matrix rank",
        ))
        derived, _ = derived_subalgebra_pair(entry.algebra)
        ooms = ooms_criterion(entry.algebra, derived)
        cases.append((
            f"prop5.1/M{g},{c}/rect-rank",
            g,
            ooms.rect_rank,
            "randomized rank of the generator-against-ideal matrix",
        ))
        cases.append((
            f"prop5.1/M{g},{c}/index",
            n - 2 * g,
            ooms.claimed_index,
            "abelian-subalgebra criterion",
        ))
        cases.append((
            f"cor5.3/M{g},{c}",
            n - g,
            alpha_sandwich(entry.algebra, derived, chi=report.index),
            "abelian derived subalgebra squeezed against the index bound",
        ))
    return cases


def _criterion_10() -> list[_Row]:
    cases = []
    for c in range(4, 8):
        entry = _CORPUS.meta[2, c]
        cases.append((
            f"thm5.4/c={c}/dim",
            (c * c - c + 4) // 2,
            entry.algebra.dim,
            "metabelian quotient dimension",
        ))
        cases.append((
            f"thm5.4/c={c}/index",
            (c * c - c - 4) // 2,
            entry.report.index,
            "randomized structure-matrix rank",
        ))
    return cases


def _criterion_11() -> list[_Row]:
    cases = []
    members = [(f"L{n}", n - 2) for n in range(3, 11)]
    members += [(f"Q{n}", 2) for n in range(4, 11, 2)]
    members += [
        (f"G{n},{k}", n - k + 1) for n in range(3, 12) for k in range(3, n + 1, 2)
    ]
    for name, expected in members:
        entry = _CORPUS.filiform[name]
        cases.append((
            f"prop6.7/{name}",
            expected,
            entry.report.index,
            "randomized structure-matrix rank",
        ))
        cases.append((
            f"prop6.7/{name}/witness",
            expected,
            stabilizer(entry.algebra, _e_n_star(entry.built)).dim,
            "exact stabilizer of the top dual vector",
        ))
    return cases


def _criterion_12() -> list[_Row]:
    cases = []
    for name, entry in _CORPUS.filiform.items():
        if entry.algebra.dim % 2 == 0:
            continue
        cases.append((
            f"index1/{name}",
            entry.report.index == 1,
            index_one_criterion(entry.built) is None,
            "vanishing pattern of the top bracket coefficients",
        ))
    return cases


def _criterion_13() -> list[_Row]:
    cases = []
    for name, entry in _CORPUS.filiform.items():
        f = entry.built
        holds = all(
            entry.report.index >= b
            for k in range(2, f.n + 1)
            if (b := lower_bound(f, k)) is not None
        )
        cases.append((
            f"lowerbound/{name}",
            True,
            holds,
            "index against every abelian-ideal bound",
        ))
    for n in range(3, 12):
        for k in range(3, n + 1, 2):
            cases.append((
                f"lowerbound/G{n},{k}/sharp",
                n - k + 1,
                lower_bound(_CORPUS.filiform[f"G{n},{k}"].built, (k + 1) // 2),
                "bound at the middle ideal equals the known index",
            ))
    return cases


def _first_failure(pairs) -> str:
    """'ok', or the name of the first corpus entry violating its property."""
    for name, good in pairs:
        if not good:
            return name
    return "ok"


def _criterion_14() -> list[_Row]:
    corpus = (
        [(f"F{g},{c}", _CORPUS.free[g, c]) for g, c in _WITT_COMBOS]
        + [(f"F{g},3-explicit", e) for g, e in _CORPUS.explicit.items()]
        + [(f"M{g},{c}", e) for (g, c), e in _CORPUS.meta.items()]
        + [(f"graph-{name}", e) for name, e in _CORPUS.graphs.items()]
        + [(f"filiform-{name}", e) for name, e in _CORPUS.filiform.items()]
    )
    small = [(name, e) for name, e in corpus if e.algebra.dim <= 20]
    stab_checks = [(name, *_stabilizer_checks(e.algebra, seed))
                   for seed, (name, e) in enumerate(small)]
    cases = [
        (
            "props/jacobi",
            "ok",
            _first_failure((name, check_jacobi(e.algebra) is None) for name, e in corpus),
            "Jacobi identity on every construction",
        ),
        (
            "props/generic-rank-even",
            "ok",
            _first_failure((name, e.report.generic_rank % 2 == 0) for name, e in corpus),
            "structure-matrix rank parity",
        ),
        (
            "props/center-bounds",
            "ok",
            _first_failure(
                (name, e.report.center_dim <= e.report.index <= e.report.dim)
                for name, e in corpus
            ),
            "center dim <= index <= dim",
        ),
        (
            "props/stabilizer-codim-even",
            "ok",
            _first_failure((name, even) for name, even, _ in stab_checks),
            "random functionals give even-rank forms",
        ),
        (
            "props/center-in-stabilizer",
            "ok",
            _first_failure((name, has_center) for name, _, has_center in stab_checks),
            "stabilizers contain the center",
        ),
        (
            "props/certified-matches",
            "ok",
            _first_failure(
                (name, certified_generic_rank(e.algebra) == e.report.generic_rank)
                for name, e in small
            ),
            "fraction-free elimination vs randomized rank, dim <= 20",
        ),
        (
            "props/sampling-matches",
            "ok",
            _first_failure(
                (name, index_by_sampling(e.algebra, samples=50, seed=seed) == e.report.index)
                for seed, (name, e) in enumerate(small)
            ),
            "50-sample functional search vs rank route, dim <= 20",
        ),
    ]
    return cases


def _stabilizer_checks(alg: LieAlgebra, seed: int) -> tuple[bool, bool]:
    """(every codimension is even, the first stabilizer computed contains the
    center) over three seeded functionals, one stabilizer held at a time.
    stabilizer's RuntimeError on an odd codimension counts as one; with no
    stabilizer computed, the center check passes."""
    rng = random.Random(555_000 + seed)
    even, has_center = True, None
    for _ in range(3):
        try:
            stab = stabilizer(alg, LinearFunctional.of(_draws(rng, alg.dim, -9, 9)))
        except RuntimeError:
            even = False
            continue
        even = even and (alg.dim - stab.dim) % 2 == 0
        if has_center is None:
            has_center = stab.contains(center(alg))
    return even, has_center is not False


# ------------------------------------------------------------ extra cases


def _two_step_alpha_cases() -> list[_Row]:
    """Maximal abelian dimension in the two-step free algebra.

    The computed side is dim Z + 1 once two facts are checked on the built
    algebra: the span of the center and one generator is abelian (lower
    bound), and the pair-bracket matrix on generators has full rank, so two
    basis vectors independent modulo the center never commute (upper bound).
    """
    cases = []
    for g in range(2, 7):
        alg = _CORPUS.free[g, 2].algebra
        candidate = Subspace.span(alg.dim, center(alg).rows + ({0: 1},))
        lower_ok = candidate.dim == comb(g, 2) + 1 and abelian_witness(alg, candidate) is None
        pair_matrix = [alg.structure_coeffs(i, j) for i in range(g) for j in range(i + 1, g)]
        upper_ok = Subspace.span(alg.dim, pair_matrix).dim == comb(g, 2)
        computed = candidate.dim if lower_ok and upper_ok else None
        cases.append((
            f"prop3.1/g={g}",
            comb(g, 2) + 1,
            computed,
            "abelian span plus injectivity of the pair-bracket map",
        ))
    return cases


def _center_formula_cases() -> list[_Row]:
    return [
        (
            f"prop2.5/F{g},{c}/center",
            witt_layer(g, c),
            _CORPUS.free[g, c].report.center_dim,
            "computed center dimension vs top Witt layer",
        )
        for g, c in _WITT_COMBOS
    ]


def _q_pattern_cases() -> list[_Row]:
    cases = []
    for n in (6, 8, 10):
        for s in range(3):
            name = f"Q{n}+s{s:02d}"
            entry = _CORPUS.filiform[name]
            pattern = all(
                entry.algebra.structure_coeffs(i - 1, n - i) == {n - 1: (-1) ** i}
                for i in range(2, n)
                if i - 1 != n - i
            )
            cases.append((
                f"prop6.9/{name}/pattern",
                True,
                pattern,
                "perturbed constants keep the alternating top brackets",
            ))
            cases.append((
                f"prop6.9/{name}/index",
                2,
                entry.report.index,
                "randomized structure-matrix rank",
            ))
            cases.append((
                f"prop6.9/{name}/stab",
                2,
                stabilizer(entry.algebra, _e_n_star(entry.built)).dim,
                "exact stabilizer of the top dual vector",
            ))
    return cases


def _achievable_cases() -> list[_Row]:
    cases = []
    for n in range(3, 12):
        start = 1 if n % 2 else 2
        cases.append((
            f"cor6.8/n={n}",
            list(range(start, n - 1, 2)),
            achievable_indices(n),
            "indices realized across the odd-parameter family",
        ))
    return cases


# Each group returns (id, expected, computed, method) rows; the registry
# holds each criterion's name and the section of the results catalogue that
# all of its group's rows belong to.
_CRITERIA = {
    1: ("Witt dimensions match Hall basis counts", 2, _criterion_1),
    2: ("two-step free algebra index formula", 3, _criterion_2),
    3: ("five-dimensional example: certified rank and index", 3, _criterion_3),
    4: ("three-step free algebra index formula and explicit functional", 3, _criterion_4),
    5: ("maximal abelian dimension in the three-step free algebra", 3, _criterion_5),
    6: ("numeric table for higher free algebras", 3, _criterion_6),
    7: ("graph algebra index via matchings, dual route", 4, _criterion_7),
    8: ("matching functional attains the graph index", 4, _criterion_8),
    9: ("metabelian index formula and abelian-subalgebra criterion", 5, _criterion_9),
    10: ("two-generator metabelian dimensions and indices", 5, _criterion_10),
    11: ("filiform family indices with dual-vector witness", 6, _criterion_11),
    12: ("index-one criterion on odd-dimensional filiform algebras", 6, _criterion_12),
    13: ("abelian-ideal lower bound on filiform indices", 6, _criterion_13),
    14: ("cross-cutting property suite", 2, _criterion_14),
}
CRITERION_NAMES = {num: name for num, (name, _, _) in _CRITERIA.items()}
_EXTRAS = (
    (2, _center_formula_cases),
    (3, _two_step_alpha_cases),
    (6, _q_pattern_cases),
    (6, _achievable_cases),
)
_SECTIONS = sorted({sec for _, sec, _ in _CRITERIA.values()} | {sec for sec, _ in _EXTRAS})


def _run(section: int, group) -> list[VerificationCase]:
    return [VerificationCase(id_, section, *rest) for id_, *rest in group()]


def cases_for_criterion(num: int) -> list[VerificationCase]:
    if (num := _integer(num, "criterion")) not in _CRITERIA:
        raise ValueError(f"unknown criterion {num}; the criteria are {min(_CRITERIA)}-{max(_CRITERIA)}")
    return _run(*_CRITERIA[num][1:])


def extra_cases() -> list[VerificationCase]:
    return [case for entry in _EXTRAS for case in _run(*entry)]


def all_cases(section: int | None = None) -> list[VerificationCase]:
    """Every case in catalogue order; with a section, only the groups in it run."""
    section = None if section is None else _integer(section, "section")
    groups = [_CRITERIA[num][1:] for num in sorted(_CRITERIA)] + list(_EXTRAS)
    return [
        case
        for sec, group in groups
        if section is None or sec == section
        for case in _run(sec, group)
    ]
