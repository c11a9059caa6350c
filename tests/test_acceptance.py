"""Acceptance gate: every catalogued expected value must be reproduced.

Each criterion prints one summary line so a full run reads as a checklist;
failures list the offending case ids with expected and computed values.
"""

from collections import Counter

import numpy as np
import pytest

from lieindex import algebra as algebra_module
from lieindex import graphs, verify
from lieindex.algebra import Subspace
from lieindex.filiform import build_L, build_Q
from lieindex.verify import CRITERION_NAMES, all_cases, cases_for_criterion, extra_cases

from families import calls_to


@pytest.mark.parametrize("num", sorted(CRITERION_NAMES))
def test_criterion(num, capsys):
    cases = cases_for_criterion(num)
    assert cases, "criterion produced no cases"
    failures = [c for c in cases if not c.passed]
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"criterion {num:02d} {CRITERION_NAMES[num]:<55} {status} ({len(cases)} cases)")
    detail = "; ".join(
        f"{c.id}: expected {c.expected!r}, computed {c.computed!r}" for c in failures[:5]
    )
    assert not failures, detail


def test_supplementary_cases(capsys):
    cases = extra_cases()
    failures = [c for c in cases if not c.passed]
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"supplementary {'cross-checks':<58} {status} ({len(cases)} cases)")
    detail = "; ".join(
        f"{c.id}: expected {c.expected!r}, computed {c.computed!r}" for c in failures[:5]
    )
    assert not failures, detail


def test_case_ids_are_unique():
    cases = all_cases()
    ids = [c.id for c in cases]
    assert len(ids) == len(set(ids))


def test_each_corpus_graph_is_built_once(monkeypatch):
    # The graph rows read the corpus algebras; no row builds its graph's algebra again.
    monkeypatch.setattr(verify, "_CORPUS", verify._Corpus())
    calls = [calls_to(monkeypatch, module, "build_graph_algebra") for module in (verify, graphs)]
    assert all(c.passed for c in all_cases())
    assert sum(map(len, calls)) == len(verify._CORPUS.graphs) == 74


def test_each_corpus_graph_is_matched_once(monkeypatch):
    # Criteria 7 and 8 read one maximum matching per corpus graph.
    monkeypatch.setattr(verify, "_CORPUS", verify._Corpus())
    calls = calls_to(monkeypatch, verify, "matching_number")
    assert all(c.passed for c in all_cases())
    assert len(calls) == len(verify._CORPUS.graphs) == 74


def test_each_center_and_bracket_matching_is_computed_once(monkeypatch):
    # The index reports, the sampling oracle and the stabilizer checks read the
    # algebra's kept center and matching number: one centralizer per algebra
    # that asks for its center, one bracket-graph search per algebra asking nu.
    monkeypatch.setattr(verify, "_CORPUS", verify._Corpus())
    built = calls_to(monkeypatch, algebra_module, "centralizer")
    searched = calls_to(monkeypatch, algebra_module, "blossom_matching")
    assert all(c.passed for c in all_cases())
    assert len(built) == 196
    assert all(s == Subspace.full(g.dim) for g, s in built)
    assert len(searched) == 245


def test_section_filter():
    full = all_cases()
    for section in (2, 3, 4, 5, 6):
        subset = all_cases(section)
        assert subset
        assert all(c.section == section for c in subset)
        assert [c.id for c in subset] == [c.id for c in full if c.section == section]
    assert all_cases(99) == []


def test_selectors_take_only_ints():
    # cases_for_criterion(True) once ran criterion 1, all_cases(2.0) section 2
    # and all_cases(True) nothing; a numpy integer is an int.
    for num in (True, 1.0):
        with pytest.raises(ValueError, match="criterion must be an int"):
            cases_for_criterion(num)
    for section in (True, 2.0):
        with pytest.raises(ValueError, match="section must be an int"):
            all_cases(section)
    assert cases_for_criterion(np.int64(1)) == cases_for_criterion(1)
    assert all_cases(np.int64(2)) == all_cases(2)


def test_unknown_criterion_is_refused():
    # cases_for_criterion(99) once raised a bare KeyError: 99.
    for num in (0, 99):
        with pytest.raises(ValueError, match=f"unknown criterion {num}; the criteria are 1-14"):
            cases_for_criterion(num)


class TestStabilizerProps:
    # props/stabilizer-codim-even and props/center-in-stabilizer share three
    # stabilizers per small algebra; each row must still catch a bad one.
    @pytest.fixture
    def zero_stabilizer(self, monkeypatch):
        monkeypatch.setattr(verify, "stabilizer", lambda g, ell: Subspace(g.dim, ()))

    def test_zero_stabilizer_fails_both_rows(self, zero_stabilizer):
        computed = {c.id: c.computed for c in cases_for_criterion(14)}
        assert computed["props/center-in-stabilizer"] != "ok"
        assert computed["props/stabilizer-codim-even"] != "ok"

    def test_zero_stabilizer_checks_parity_by_dimension(self, zero_stabilizer):
        # Codimension n: odd only in odd dimension, while no dimension has z = 0.
        assert verify._stabilizer_checks(build_L(5).algebra, 0) == (False, False)
        assert verify._stabilizer_checks(build_Q(6).algebra, 0) == (True, False)

    def test_refused_odd_codimension_names_the_algebra(self, monkeypatch):
        # stabilizer raises on an odd codimension; the row reports the algebra
        # instead of ending the catalogue, and no other row moves.
        before = {c.id: c.computed for c in cases_for_criterion(14)}
        target = verify._CORPUS.filiform["Q6"].algebra
        original = verify.stabilizer

        def refuse(g, ell):
            if g is target:
                raise RuntimeError("skew form has odd rank; this is a bug")
            return original(g, ell)

        monkeypatch.setattr(verify, "stabilizer", refuse)
        after = {c.id: c.computed for c in cases_for_criterion(14)}
        assert before.pop("props/stabilizer-codim-even") == "ok"
        assert after.pop("props/stabilizer-codim-even") == "filiform-Q6"
        assert after == before

    def test_three_stabilizers_per_small_algebra(self, monkeypatch):
        seen = Counter()
        original = verify.stabilizer
        monkeypatch.setattr(verify, "stabilizer", lambda g, ell: seen.update([id(g)]) or original(g, ell))
        cases = cases_for_criterion(14)
        assert all(c.passed for c in cases)
        assert set(seen.values()) == {3}
        assert sum(seen.values()) == 582
