"""Acceptance gate: every desk-scale result at its stated tolerance.

All comparisons are exact.  One check is expected to fail: the claim
that the four unit-length suspensions of the equal-row Q(8) tables share
a single shear/quarter-turn orbit is refuted by the validated action
(they split into two disjoint orbits, sizes 10 and 30, recorded by the
companion q8-orbit-structure regression); it is kept verbatim and marked
xfail.
"""

import pytest

from onecyl import acceptance

RUNTIME_BUDGETS = {
    "pi1-table": 1.0,
    "pi1a-family": 1.0,
    "q8-": 5.0,
    "qm15-": 5.0,
    "q12-": 5.0,
    "empty-strata": 10.0,
    "q22-": 10.0,
    "bridge-": 5.0,
    "invariants-500": 3.0,
    "oplus-": 5.0,
}

KNOWN_REFUTED = {"q8-one-orbit"}


@pytest.fixture(scope="module")
def results():
    out = {res.check_id: res for res in acceptance.run_checks()}
    for res in out.values():
        print("[%s] %s (%.2fs, %s)" % (res.status.upper(), res.check_id, res.seconds, res.provenance))
    return out


def _check_ids():
    ids = [check_id for check_id, _, _ in acceptance._REGISTRY]
    return [
        pytest.param(
            check_id,
            marks=pytest.mark.xfail(
                reason="two disjoint shear/quarter-turn orbits, not one; "
                "see q8-orbit-structure and the move suite that still "
                "connects the stratum",
                strict=True,
            ),
        )
        if check_id in KNOWN_REFUTED
        else check_id
        for check_id in ids
    ]


@pytest.mark.parametrize("check_id", _check_ids())
def test_check_passes(results, check_id):
    res = results[check_id]
    assert res.status == "pass", "%s: expected %r, got %r" % (check_id, res.expected, res.actual)


def test_every_registered_check_ran(results):
    assert len(results) == len(acceptance._REGISTRY)
    assert {res.provenance for res in results.values()} <= {"PAPER", "DERIVED", "TRIVIAL"}


def test_runtime_budgets(results):
    for prefix, budget in RUNTIME_BUDGETS.items():
        total = sum(res.seconds for cid, res in results.items() if cid.startswith(prefix))
        assert total < budget, "%s checks took %.1fs (budget %.0fs)" % (prefix, total, budget)


def test_runs_do_not_share_artifacts(monkeypatch):
    """A run started inside another, as a concurrent caller's would be,
    leaves the first run's artifacts alone: one Q(-1,5) report serves
    both qm15 checks."""
    built = []
    real_report, real_vperm = acceptance.component_report, acceptance.vertical_permutation

    def report(pattern, *args):
        built.append(pattern)
        return real_report(pattern, *args)

    def vperm(*args):
        if len(built) == 1:  # between qm15-classes and qm15-connected
            acceptance.run_checks(only="fig-suspension")
        return real_vperm(*args)

    monkeypatch.setattr(acceptance, "component_report", report)
    monkeypatch.setattr(acceptance, "vertical_permutation", vperm)
    results = acceptance.run_checks(only="qm15")
    assert [res.status for res in results] == ["pass"] * 3
    assert built == [(-1, 5)]
