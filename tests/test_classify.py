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
from onecyl import classify
from onecyl.classify import (
    ORBIT_CAP,
    ComponentReport,
    MergeEdge,
    _collapse_keys,
    _UnionFind,
    collapse_letter,
    insert_split_letter,
)
from onecyl.errors import (
    BadParameters,
    BadPattern,
    BoundTooSmall,
    NoSimpleCylinderForm,
    NotFoundWithinBudget,
    NotSingleCylinder,
    SizeLimit,
)
from onecyl.genperm import SymmetryGroup
from onecyl.strata import SingularityPattern, match_component
from onecyl.suspension import (
    all_ones,
    build_cover,
    decode_one_cylinder,
    minimal_admissible,
    orbit_forms,
    sample_admissible,
    sl2z_orbit,
    vertical_permutation,
)

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


# -- oracle: the four inline merge blocks the pass loop replaced -------------
#
# Kept verbatim (renamed; the orbit cap, once a MoveConfig field, is read
# from ORBIT_CAP): each move has its own find test, union and edge append.


def reference_orbit_decode_partner(
    gp: GeneralizedPermutation,
    i: int,
    index: dict,
    merger: _UnionFind,
    sym: SymmetryGroup,
    cap: int,
) -> tuple[int, str] | None:
    """Search the shear/quarter-turn orbit for another class's suspension.

    The walk stops before a level once more than ``cap`` forms are seen.
    """
    forms = orbit_forms(build_cover(gp, minimal_admissible(gp)))
    level = 0
    for seen, (depth, _, cover, word) in enumerate(forms):
        if depth > level and seen > cap:
            return None
        level = depth
        decoded = decode_one_cylinder(cover) if word else None  # the start is gp itself
        if decoded is not None:
            j = index.get(decoded.canonical_key(sym))
            if j is not None and merger.find(j) != merger.find(i):
                return j, word
    return None


def reference_component_report(
    pattern: tuple[int, ...],
    config: MoveConfig = MoveConfig(),
    sym: SymmetryGroup = CALIBRATED_SYM,
) -> ComponentReport:
    """Enumerate a stratum and merge classes along certified moves."""
    spattern = SingularityPattern.from_orders(pattern)
    classes = enumerate_stratum(spattern.orders, sym=sym, size_limit=config.size_limit)
    # enumerated classes are canonical forms under sym: their rows are their keys
    index: dict = {gp.rows(): i for i, gp in enumerate(classes)}
    # class indices, then one slot per excision angle (below the stratum size)
    merger = _UnionFind(len(classes) + sum(k + 2 for k in spattern.orders))
    edges: list[MergeEdge] = []

    # vertical re-readings over sampled admissible vectors
    for i, gp in enumerate(classes):
        lams = []
        for seed in range(config.lambda_samples + 1):
            try:
                lams.append(sample_admissible(gp, seed=seed, bound=config.lambda_bound))
            except BoundTooSmall:
                continue
        for lam in sorted(set(lams)):
            try:
                vg, _ = vertical_permutation(gp, lam)
            except NotSingleCylinder:
                continue
            j = index.get(vg.canonical_key(sym))
            if j is not None and merger.find(i) != merger.find(j):
                merger.union(i, j)
                edges.append(MergeEdge("vperm", i, j, "lam=%s" % (lam,)))

    # one orbit of the shear / quarter-turn action per all-ones suspension
    if config.use_orbits:
        orbit_owner: dict = {}
        for i, gp in enumerate(classes):
            if len(gp.top) != len(gp.bottom):
                continue  # all-ones needs equal rows
            key = build_cover(gp, all_ones(gp)).canonical_key()
            if key in orbit_owner:
                j, word = orbit_owner[key]
                if merger.find(i) != merger.find(j):
                    merger.union(i, j)
                    edges.append(MergeEdge("orbit", i, j, "word=%s" % (word or "id")))
                continue
            result = sl2z_orbit(gp, all_ones(gp), cap=ORBIT_CAP)
            for k in result.keys:
                orbit_owner.setdefault(k, (i, result.words[k]))
            orbit_owner[key] = (i, "")

    # excisions into a connected smaller minimal stratum: label by angle
    if config.use_excisions:
        if not config.substratum_connected:
            raise SizeLimit("excision labels need a certified connected substratum")
        for i, gp in enumerate(classes):
            for exc in excisions(gp):
                if not exc.restricted_irreducible:
                    continue
                slot = len(classes) + exc.angle
                if merger.find(i) != merger.find(slot):
                    merger.union(i, slot)
                    edges.append(MergeEdge("excise", i, ("angle", exc.angle), "s=%d" % exc.angle))

    # last resort for still-isolated classes: walk the orbit of a sampled
    # suspension and decode one-cylinder presentations back to classes
    if config.orbit_decode_cap:
        sizes: dict[int, int] = {}
        for i in range(len(classes)):
            root = merger.find(i)
            sizes[root] = sizes.get(root, 0) + 1
        singletons = [i for i in range(len(classes)) if sizes[merger.find(i)] == 1]
        for i in singletons:
            hit = reference_orbit_decode_partner(classes[i], i, index, merger, sym, config.orbit_decode_cap)
            if hit is not None:
                j, word = hit
                merger.union(j, i)
                edges.append(MergeEdge("orbit", i, j, "decoded after word=%s" % word))

    roots: dict[int, int] = {}
    groups = []
    for i in range(len(classes)):
        root = merger.find(i)
        roots.setdefault(root, len(roots))
        groups.append(roots[root])
    upper = len(roots)
    lower = 1 if classes else 0
    tags = [match_component(gp, sym) for gp in classes]
    return ComponentReport(
        pattern=spattern,
        sym_label=sym.label(),
        classes=classes,
        tags=tags,
        groups=groups,
        edges=edges,
        lower_bound=lower,
        upper_bound=upper,
        citations=config.citations,
    )


def nonempty_strata(most: int) -> list[tuple[int, ...]]:
    """Non-empty strata with r + l <= most and no marked point (order 0)."""
    def orders(rest: int, top: int):
        # one singularity of order k fills k + 2 cells; parts 2 are order 0
        if rest == 0:
            yield ()
        for part in range(min(rest, top), 0, -1):
            if part != 2:
                for more in orders(rest - part, part):
                    yield (part - 2,) + more

    return [pat for total in range(2, most + 1, 2) for pat in orders(total, total) if enumerate_stratum(pat)]


FOUR_MOVES = MoveConfig(use_excisions=True, substratum_connected=True, orbit_decode_cap=3000)
Q12_MOVES = MoveConfig(
    lambda_samples=6,
    lambda_bound=8,
    use_orbits=False,
    use_excisions=True,
    substratum_connected=True,
    orbit_decode_cap=3000,
)
# one sampled vector leaves work for every later move: orbit, excise and
# decoded-orbit edges all occur over the strata below
SPARSE_MOVES = MoveConfig(lambda_samples=0, use_excisions=True, substratum_connected=True, orbit_decode_cap=3000)


def test_small_strata_are_the_fifteen_nonempty_ones():
    strata = nonempty_strata(10)
    assert len(strata) == 15
    assert (8,) in strata and (5, -1) in strata and (2, 2) in strata


@pytest.mark.parametrize(
    "config",
    [MoveConfig(), FOUR_MOVES, Q12_MOVES, SPARSE_MOVES],
    ids=["defaults", "four-moves", "q12-moves", "sparse"],
)
def test_pass_loop_matches_the_inline_blocks(config):
    kinds = set()
    for pattern in nonempty_strata(10):
        report = component_report(pattern, config)
        assert report.as_json() == reference_component_report(pattern, config).as_json(), pattern
        kinds |= {(e.kind, e.detail.split("=")[0]) for e in report.edges}
    if config is SPARSE_MOVES:
        assert kinds == {("vperm", "lam"), ("orbit", "word"), ("excise", "s"), ("orbit", "decoded after word")}


@pytest.mark.parametrize(
    "pattern, config",
    [((3, 1, 1, -1), FOUR_MOVES), ((-1, 9), MoveConfig())],
    ids=["Q(3,1,1,-1)-four-moves", "Q(-1,9)-defaults"],
)
def test_pass_loop_matches_the_inline_blocks_on_larger_strata(pattern, config):
    report = component_report(pattern, config)
    assert report.as_json() == reference_component_report(pattern, config).as_json()
    if pattern == (3, 1, 1, -1):
        details = {e.detail for e in report.edges}
        assert "s=1" in details and "decoded after word=TS" in details


def test_excisions_need_a_connected_substratum():
    # every excision of Q(8) collapses into Q(4), which is empty: no slot opens
    report = component_report((8,), MoveConfig(use_excisions=True))
    assert report.classes and not [e for e in report.edges if e.kind == "excise"]
    with pytest.raises(SizeLimit):
        reference_component_report((8,), MoveConfig(use_excisions=True))


def test_excise_premise_is_read_per_zero_order():
    # Q(-1,3,6): an order-6 handle collapses into Q(3,2,-1), an order-3 one
    # into Q(6,-1,-1) (with a marked point dropped)
    assert component_report((3, 2, -1)).upper_bound == 1
    assert component_report((6, -1, -1)).upper_bound == 2
    classes = enumerate_stratum((-1, 3, 6))
    index = {gp.rows(): i for i, gp in enumerate(classes)}
    certified = [
        (i, e.angle + e.complement, e.angle)
        for i, gp in enumerate(classes)
        for e in excisions(gp)
        if e.restricted_irreducible
    ]
    assert {k for _, k, _ in certified} == {3, 6}
    pairs = classify._excise_pairs(classes, index, FOUR_MOVES, CALIBRATED_SYM, lambda i: i)
    # the orders read (6, 3, -1), so the slots of order 6 come first
    assert {(i, j) for _, i, j, _, _ in pairs} == {(i, len(classes) + s) for i, k, s in certified if k == 6}


CLI_MOVES = MoveConfig(use_excisions=True, orbit_decode_cap=3000)  # vperm,orbit,excise,decode


@pytest.mark.parametrize(
    "pattern",
    [(-1, 9), (12,), (-1, 3, 6), (-1, 3, 3, 3)],
    ids=lambda pattern: "Q(%s)" % ",".join(map(str, pattern)),
)
def test_exceptional_strata_keep_two_groups_under_every_move(pattern):
    assert component_report(pattern, CLI_MOVES).upper_bound == 2


@pytest.mark.parametrize(
    "config",
    [
        MoveConfig(lambda_bound=0),
        MoveConfig(lambda_bound=-4),
        MoveConfig(lambda_samples=-3),
        MoveConfig(orbit_decode_cap=-5),
    ],
    ids=["bound-0", "bound-neg", "samples-neg", "decode-cap-neg"],
)
def test_component_report_rejects_bad_lambda_settings(monkeypatch, config):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the config is checked before enumeration")

    monkeypatch.setattr(classify, "enumerate_stratum", no_enumeration)
    with pytest.raises(BadParameters):
        component_report((8,), config)
