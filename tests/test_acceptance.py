"""Acceptance gate: every catalogued expected value must be reproduced.

Each criterion prints one summary line so a full run reads as a checklist;
failures list the offending case ids with expected and computed values.
"""

from collections import Counter

import pytest

from lieindex import verify
from lieindex.algebra import Subspace
from lieindex.filiform import build_L, build_Q
from lieindex.index import StabilizerResult
from lieindex.verify import CRITERION_NAMES, all_cases, cases_for_criterion, extra_cases


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


def test_section_filter():
    full = all_cases()
    for section in (2, 3, 4, 5, 6):
        subset = all_cases(section)
        assert subset
        assert all(c.section == section for c in subset)
        assert [c.id for c in subset] == [c.id for c in full if c.section == section]
    assert all_cases(99) == []


class TestStabilizerProps:
    # props/stabilizer-codim-even and props/center-in-stabilizer share three
    # stabilizers per small algebra; each row must still catch a bad one.
    @pytest.fixture
    def zero_stabilizer(self, monkeypatch):
        monkeypatch.setattr(verify, "stabilizer", lambda g, ell: StabilizerResult(ell, Subspace.zero(g.dim)))

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
