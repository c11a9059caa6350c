"""Acceptance gate: every catalogued expected value must be reproduced.

Each criterion prints one summary line so a full run reads as a checklist;
failures list the offending case ids with expected and computed values.
"""

import pytest

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
