import json

import pytest

from onecyl import (
    CALIBRATED_SYM,
    GeneralizedPermutation,
    MoveConfig,
    bubble,
    component_report,
    enumerate_stratum,
    enumerate_type,
    excise_simple_cylinder,
    excisions,
    hyperelliptic_rep,
    irreducible_rep,
    singularity_pattern,
    smooth_marked_points,
)
from onecyl.classify import _collapse_keys, collapse_letter, insert_split_letter
from onecyl.errors import BadPattern, NoSimpleCylinderForm, NotFoundWithinBudget, SizeLimit

GP = GeneralizedPermutation.parse


def test_q8_type_counts():
    assert len(enumerate_type(5, 5, pattern=(8,))) == 4
    assert len(enumerate_type(6, 4, pattern=(8,))) == 3
    assert len(enumerate_stratum((8,))) == 7


def test_enumerate_type_2_2_regression():
    classes = [gp.render() for gp in enumerate_type(2, 2)]
    assert classes == ["1 1 / 2 2"]


def test_enumerate_guards():
    with pytest.raises(SizeLimit):
        enumerate_type(3, 4)
    with pytest.raises(SizeLimit):
        enumerate_type(10, 10, size_limit=16)
    with pytest.raises(SizeLimit):
        enumerate_stratum((16,), size_limit=16)


def test_enumerate_rejects_an_empty_pattern():
    with pytest.raises(BadPattern):
        enumerate_stratum(())
    with pytest.raises(BadPattern):
        enumerate_type(5, 5, pattern=())


def test_empty_strata():
    for pattern in ((0,), (-1, 1), (1, 3), (4,)):
        assert enumerate_stratum(pattern) == []


def test_nonempty_strata():
    for pattern in ((-1, -1, 2), (2, 2), (8,), (-1, 5), (-1, 9)):
        assert enumerate_stratum(pattern)


def test_qm15_classes_match_tables():
    classes = enumerate_stratum((-1, 5))
    assert len(classes) == 2
    table = [GP("0 0 1 2 / 1 3 2 3"), GP("0 1 0 / 2 3 2 1 3")]
    keys = {gp.canonical_key(CALIBRATED_SYM) for gp in classes}
    assert {gp.canonical_key(CALIBRATED_SYM) for gp in table} == keys


def test_component_report_q8():
    report = component_report((8,), MoveConfig())
    assert len(report.classes) == 7
    assert report.upper_bound == 1
    assert report.lower_bound == 1
    assert len(set(report.groups)) == 1


def test_component_report_q22_tags():
    report = component_report((2, 2), MoveConfig())
    assert sorted(t.label() for t in report.tags) == ["hyp:pi1(1,1)", "hyp:pi2(2,2)"]
    assert report.upper_bound == 1


def test_report_json_deterministic():
    cfg = MoveConfig()
    a = json.dumps(component_report((-1, 5), cfg).as_json(), sort_keys=True)
    b = json.dumps(component_report((-1, 5), cfg).as_json(), sort_keys=True)
    assert a == b
    assert '"schema": "1"' in a


def test_excisions_of_table_reps():
    got = {(e.angle, singularity_pattern(e.restricted).orders)
           for e in excisions(irreducible_rep("12-I")) if e.restricted_irreducible}
    assert (2, (8, 0)) in got
    restricted, s = excise_simple_cylinder(irreducible_rep("12-I"))
    assert s == 2
    q8_keys = {g.canonical_key(CALIBRATED_SYM) for g in enumerate_stratum((8,))}
    assert smooth_marked_points(restricted).canonical_key(CALIBRATED_SYM) in q8_keys

    restricted, s = excise_simple_cylinder(irreducible_rep("12-II"))
    assert s == 6
    assert singularity_pattern(restricted).orders == (4, 4)
    from onecyl.classify import _collapsible

    assert any(
        _collapsible(restricted, x)
        and collapse_letter(restricted, x) is not None
        and collapse_letter(restricted, x).canonical_key(CALIBRATED_SYM) in q8_keys
        for x in range(1, restricted.num_letters + 1)
    )

    restricted, s = excise_simple_cylinder(irreducible_rep("(-1,9)"))
    assert s == 3
    assert singularity_pattern(restricted).orders == (4, 1, -1)
    qm15_keys = {g.canonical_key(CALIBRATED_SYM) for g in enumerate_stratum((-1, 5))}
    assert any(
        collapse_letter(restricted, x) is not None
        and collapse_letter(restricted, x).canonical_key(CALIBRATED_SYM) in qm15_keys
        for x in range(1, restricted.num_letters + 1)
    )


def test_excise_requires_head_form():
    with pytest.raises(NoSimpleCylinderForm):
        excise_simple_cylinder(GP("1 1 / 2 2"))


def test_insert_split_and_collapse_inverse():
    gp = GP("5 3 5 2 4 / 1 2 1 3 4")
    variant = insert_split_letter(gp, 2, 3)
    fresh = variant.num_letters
    # the threaded letter occupies one slot per row; deleting it undoes it
    letter = next(
        x for x in range(1, fresh + 1)
        if variant.top.count(x) == 1 and variant.bottom.count(x) == 1
        and collapse_letter(variant, x) is not None
        and collapse_letter(variant, x).rows() == gp.rows()
    )
    assert letter


def test_bubble_roundtrips():
    q8_rep = enumerate_stratum((8,))[0]
    bubbled = bubble(q8_rep, 2)
    assert singularity_pattern(bubbled).orders == (12,)
    restricted, s = excise_simple_cylinder(bubbled)
    assert s == 2
    assert q8_rep.canonical_key(CALIBRATED_SYM) in _collapse_keys(restricted, CALIBRATED_SYM)

    qm15 = GP("0 0 1 2 / 1 3 2 3")
    bubbled = bubble(qm15, 3)
    assert singularity_pattern(bubbled).orders == (9, -1)
    restricted, s = excise_simple_cylinder(bubbled)
    assert s == 3
    assert qm15.canonical_key(CALIBRATED_SYM) in _collapse_keys(restricted, CALIBRATED_SYM)


def test_bubble_out_of_range():
    q8_rep = enumerate_stratum((8,))[0]
    with pytest.raises(NotFoundWithinBudget):
        bubble(q8_rep, 7)


def test_merge_edges_are_recorded():
    report = component_report((8,), MoveConfig())
    assert report.edges
    kinds = {e.kind for e in report.edges}
    assert kinds <= {"vperm", "orbit", "excise"}
    tsv = report.as_tsv()
    assert tsv.splitlines()[0] == "class\ttag\tgroup"
    assert len(tsv.splitlines()) == 8
