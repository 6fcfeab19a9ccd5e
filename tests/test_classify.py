import json
from dataclasses import replace

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
from onecyl.conditions import is_irreducible
from onecyl.errors import (
    BadParameters,
    BadPattern,
    BoundTooSmall,
    NoSimpleCylinderForm,
    NotFoundWithinBudget,
    NotSimple,
    NotSingleCylinder,
    SizeLimit,
)
from onecyl.genperm import SymmetryGroup
from onecyl.strata import SingularityPattern, cycles, junction_turn, match_component
from onecyl.suspension import (
    all_ones,
    build_cover,
    decode_one_cylinder,
    junction_sector_angles,
    minimal_admissible,
    orbit_forms,
    sample_admissible,
    sl2z_orbit,
    vertical_permutation,
)
from test_conditions import shuffled_perms

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
    # (1,) and (3,) fill an odd number of cells, which no pairing does
    for pattern in ((0,), (-1, 1), (1, 3), (4,), (1,), (3,)):
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
    assert any(key in q8_keys for key in _collapse_keys(restricted, CALIBRATED_SYM))

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


def test_bubble_skips_candidates_without_a_certified_head_cylinder(monkeypatch):
    # bubble builds 33 candidates and certifies none at angle 1; 8 of them
    # expose no certified head cylinder at all, and the search goes on past them
    refused = []

    def counting(gp):
        try:
            return excise_simple_cylinder(gp)
        except NoSimpleCylinderForm:
            refused.append(gp)
            raise

    monkeypatch.setattr(classify, "excise_simple_cylinder", counting)
    with pytest.raises(NotFoundWithinBudget, match=r"^no bubbled form with angle 1 within budget \(tried 33\)$"):
        bubble(GP("1 / 1 2 2"), 1)
    assert len(refused) == 8


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


CLI_MOVES = MoveConfig(use_excisions=True, orbit_decode_cap=3000)  # vperm,orbit,excise,decode
Q12_MOVES = MoveConfig(lambda_samples=6, lambda_bound=8, use_orbits=False, use_excisions=True, orbit_decode_cap=3000)
# one sampled vector leaves work for every later move: orbit, excise and
# decoded-orbit edges all occur over the strata below
SPARSE_MOVES = MoveConfig(lambda_samples=0, use_excisions=True, orbit_decode_cap=3000)


def reference_report_json(pattern: tuple[int, ...], config: MoveConfig) -> dict:
    # the reference excises only under substratum_connected; component_report
    # ignores the flag and works out the smaller stratum's connectivity itself
    return reference_component_report(pattern, replace(config, substratum_connected=True)).as_json()


def test_small_strata_are_the_fifteen_nonempty_ones():
    strata = nonempty_strata(10)
    assert len(strata) == 15
    assert (8,) in strata and (5, -1) in strata and (2, 2) in strata


@pytest.mark.parametrize(
    "config",
    [MoveConfig(), CLI_MOVES, Q12_MOVES, SPARSE_MOVES],
    ids=["defaults", "four-moves", "q12-moves", "sparse"],
)
def test_pass_loop_matches_the_inline_blocks(config):
    kinds = set()
    for pattern in nonempty_strata(10):
        report = component_report(pattern, config)
        assert report.as_json() == reference_report_json(pattern, config), pattern
        kinds |= {(e.kind, e.detail.split("=")[0]) for e in report.edges}
    if config is SPARSE_MOVES:
        assert kinds == {("vperm", "lam"), ("orbit", "word"), ("excise", "s"), ("orbit", "decoded after word")}


@pytest.mark.parametrize(
    "pattern, config",
    [
        ((3, 1, 1, -1), CLI_MOVES),
        ((-1, 9), MoveConfig()),
        ((12,), Q12_MOVES),
        ((-1, 3, 6), MoveConfig(orbit_decode_cap=10)),
        ((12,), MoveConfig(orbit_decode_cap=3)),
    ],
    ids=["Q(3,1,1,-1)-four-moves", "Q(-1,9)-defaults", "Q(12)-q12-moves", "Q(-1,3,6)-decode-cap-10", "Q(12)-decode-cap-3"],
)
def test_pass_loop_matches_the_inline_blocks_on_larger_strata(pattern, config):
    report = component_report(pattern, config)
    assert report.as_json() == reference_report_json(pattern, config)
    if pattern == (3, 1, 1, -1):
        details = {e.detail for e in report.edges}
        assert "s=1" in details and "decoded after word=TS" in details
    if config.orbit_decode_cap in (3, 10):
        # the cap stops orbit walks that would decode to another group
        uncapped = component_report(pattern, MoveConfig(orbit_decode_cap=3000))
        assert (report.upper_bound, uncapped.upper_bound) == (4, 2)


def sampling_signature(gp: GeneralizedPermutation) -> tuple:
    return gp.num_letters, gp.top_doubled(), gp.bottom_doubled()


def test_sample_admissible_reads_only_the_sampling_signature():
    groups: dict = {}
    for pattern in nonempty_strata(12):
        for gp in enumerate_stratum(pattern):
            groups.setdefault(sampling_signature(gp), []).append(gp)
    assert len(groups) < sum(map(len, groups.values()))
    for members in groups.values():
        for seed in range(9):
            for bound in (1, 2, 8, 12, 20):
                readings = set()
                for gp in members:
                    try:
                        readings.add(sample_admissible(gp, seed=seed, bound=bound))
                    except BoundTooSmall:
                        readings.add(None)
                assert len(readings) == 1, (members[0], seed, bound, readings)


@pytest.mark.parametrize(
    "pattern, config, calls",
    # Q(12): 22 signatures x 7 seeds, plus 4 x 9 for the excise move's
    # default report of Q(8); Q(-1,9): 18 signatures x 9 seeds
    [((12,), Q12_MOVES, 22 * 7 + 4 * 9), ((-1, 9), MoveConfig(), 18 * 9)],
    ids=["Q(12)-q12-moves", "Q(-1,9)-defaults"],
)
def test_vperm_pass_draws_once_per_sampling_signature(monkeypatch, pattern, config, calls):
    drawn = []

    def counting(gp, seed=0, bound=20):
        drawn.append((sampling_signature(gp), seed, bound))
        return sample_admissible(gp, seed=seed, bound=bound)

    monkeypatch.setattr(classify, "sample_admissible", counting)
    component_report(pattern, config)
    assert len(drawn) == len(set(drawn)) == calls


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
    pairs = classify._excise_pairs(classes, index, CLI_MOVES, CALIBRATED_SYM, lambda i: i)
    # the orders read (6, 3, -1), so the slots of order 6 come first
    assert {(i, j) for _, i, j, _, _ in pairs} == {(i, len(classes) + s) for i, k, s in certified if k == 6}


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


# Kept verbatim (renamed) from the eager excise pass that restricted and
# tested every head cylinder of every class before reading the merger.
def eager_excise_pairs(classes, index, config, sym, find):
    """Certified excisions into a connected smaller stratum: a class pairs
    with the slot of (k, s) for each certified excision of angle s next to
    a zero of order k = angle + complement.  Collapsing the seam lands in
    the stratum with one k replaced by k - 4 and order-0 entries dropped (a
    marked point does not change the component count).  The slot opens
    only when k - 4 >= -1, that stratum is not empty and its default report,
    which never excises, reads one group.  Sound because every component
    holds a one-cylinder surface, so one group of certified merges means a
    connected stratum, and the handle sums of a connected stratum at one
    angle lie in one component (Kontsevich-Zorich 2003, section 4)."""
    orders = list(singularity_pattern(classes[0]).orders) if classes else []
    base: dict = {}  # k -> slot of (k, 0), past the o + 2 slots of each larger order; None if not connected
    for i, gp in enumerate(classes):
        for exc in (e for e in excisions(gp) if e.restricted_irreducible):
            k = exc.angle + exc.complement
            if k not in base:
                at = orders.index(k)
                smaller = tuple(o for o in orders[:at] + [k - 4] + orders[at + 1 :] if o)
                one = k - 4 >= -1 and bool(smaller)
                one = one and component_report(smaller, MoveConfig(size_limit=config.size_limit), sym).upper_bound == 1
                base[k] = len(classes) + sum(o + 2 for o in orders[:at]) if one else None
            if base[k] is not None:
                yield "excise", i, base[k] + exc.angle, ("angle", exc.angle), "s=%d" % exc.angle


def test_lazy_excise_pass_matches_the_eager_one(monkeypatch):
    runs = [((12,), Q12_MOVES)]
    runs += [(pattern, CLI_MOVES) for pattern in [(-1, 3, 6), (-1, 3, 3, 3), (-1, 9), (3, 1, 1, -1)]]
    runs += [(pattern, SPARSE_MOVES) for pattern in nonempty_strata(12)]
    lazy = [component_report(pattern, config).as_json() for pattern, config in runs]
    monkeypatch.setattr(classify, "_excise_pairs", eager_excise_pairs)
    for (pattern, config), report in zip(runs, lazy):
        assert report == component_report(pattern, config).as_json(), pattern
    assert any(e["kind"] == "excise" for report in lazy for e in report["edges"])


@pytest.mark.parametrize(
    "pattern, config, calls",
    # the eager pass made 2,393 and 597 calls: one per simple head cylinder
    [((12,), Q12_MOVES, 378), ((-1, 3, 6), CLI_MOVES, 39)],
    ids=["Q(12)-q12-moves", "Q(-1,3,6)-cli-moves"],
)
def test_excise_pass_tests_only_cylinders_that_can_add_an_edge(monkeypatch, pattern, config, calls):
    tested = []

    def counting(gp):
        tested.append(gp)
        return is_irreducible(gp)

    monkeypatch.setattr(classify, "is_irreducible", counting)
    component_report(pattern, config)
    assert len(tested) == calls


def test_head_cylinders_match_the_rotated_presentations():
    corpus = [gp for pattern in nonempty_strata(12) for gp in enumerate_stratum(pattern)] + shuffled_perms()
    skipped = 0
    for gp in corpus:
        r, l = gp.type
        expected = []
        for a in range(r) if r > 1 and l > 1 else ():  # a one-cell row cannot be restricted
            b = gp.pairing()[a] - r
            if b < 0:
                continue
            try:
                turn = junction_turn(gp.rotated(a, b).pairing(), r)
                expected.append(((a, b), *junction_sector_angles(*cycles(turn), (0, r), (1, r + 1))))
            except NotSimple:
                skipped += 1
        assert list(classify._head_cylinders(gp)) == expected, gp.render()
    assert skipped
