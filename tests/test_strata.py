import functools
import itertools

import pytest

from onecyl import (
    CALIBRATED_SYM,
    DEFAULT_SYM,
    GeneralizedPermutation,
    SymmetryGroup,
    enumerate_type,
    hyperelliptic_rep,
    irreducible_rep,
    match_component,
    singularity_pattern,
    smooth_marked_points,
    stratum_info,
)
from onecyl.classify import insert_split_letter
from onecyl.errors import BadParameters, BadPattern, UnknownName
from onecyl.strata import IRREDUCIBLE_REPS, UNKNOWN_TAG, ComponentTag, named_tags

GP = GeneralizedPermutation.parse


def test_figure_example_pattern():
    pat = singularity_pattern(GP("1 1 2 / 3 2 3"))
    assert pat.orders == (2, -1, -1)
    assert (pat.genus, pat.dimension) == (1, 3)
    assert pat.render() == "Q(2,-1,-1)"


def test_pi1_small_cases():
    assert singularity_pattern(hyperelliptic_rep("pi1", 1, 1)).orders == (2, 2)
    assert singularity_pattern(hyperelliptic_rep("pi1", 3, 5)).orders == (10, 6)


def test_pi1_closed_form_all_parities():
    for r in range(1, 10):
        for l in range(1, 10):
            got = singularity_pattern(hyperelliptic_rep("pi1", r, l)).orders
            want = []
            for m in (r, l):
                if m % 2:
                    want.append(2 * m)
                else:
                    want.extend((m - 1, m - 1))
            assert got == tuple(sorted(want, reverse=True)), (r, l)


def test_pi2_patterns_by_corner_walk():
    assert singularity_pattern(hyperelliptic_rep("pi2", 1, 1)).orders == (-1, -1, -1, -1)
    # the corner walk puts pi2(2,2) in the same stratum as pi1(1,1)
    assert singularity_pattern(hyperelliptic_rep("pi2", 2, 2)).orders == (2, 2)


def test_pattern_corner_count_and_parity():
    import random

    rng = random.Random(5)
    for _ in range(100):
        k = rng.randint(2, 6)
        cells = [x for x in range(1, k + 1) for _ in range(2)]
        rng.shuffle(cells)
        r = rng.randint(1, 2 * k - 1)
        if not cells[:r] or not cells[r:]:
            continue
        gp = GeneralizedPermutation.from_rows(cells[:r], cells[r:])
        pat = singularity_pattern(gp)
        assert sum(x + 2 for x in pat.orders) == gp.size
        assert sum(pat.orders) % 4 == 0
        assert pat.genus >= 0


def test_stratum_info():
    assert stratum_info((8,)) == (3, 5)
    assert stratum_info((-1, -1, 2)) == (1, 3)
    assert stratum_info((2, 2)) == (2, 4)
    with pytest.raises(BadPattern):
        stratum_info((3,))
    with pytest.raises(BadPattern):
        stratum_info((-2, 2))


def test_rep_families_validation():
    with pytest.raises(BadParameters):
        hyperelliptic_rep("pi1", 0, 3)
    with pytest.raises(BadParameters):
        hyperelliptic_rep("pi1a", 3, 3, 9)
    with pytest.raises(BadParameters):
        hyperelliptic_rep("nope", 1, 1)
    with pytest.raises(UnknownName):
        irreducible_rep("Q(17)")


def literal_pi1a(r: int, l: int, a: int) -> GeneralizedPermutation:
    """The pi1a rows written out token by token, as first defined."""
    top = (
        ["0_1", "0_3"]
        + [str(i) for i in range(1, r + 1)]
        + ["0_1"]
        + [str(i) for i in range(r + 1, r + l + 1)]
    )
    bottom = (
        [str(i) for i in range(r + l, r, -1)]
        + ["0_2"]
        + [str(i) for i in range(r, a - 1, -1)]
        + ["0_3"]
        + [str(i) for i in range(a - 1, 0, -1)]
        + ["0_2"]
    )
    return GeneralizedPermutation.from_tokens(top, bottom)


def test_pi1a_is_pi1_with_a_threaded_letter():
    for r in range(1, 12):
        for l in range(1, 12):
            for a in range(2, r + 2):
                got, want = hyperelliptic_rep("pi1a", r, l, a), literal_pi1a(r, l, a)
                assert (got.top, got.bottom, got.names) == (want.top, want.bottom, want.names), (r, l, a)


def test_irreducible_rep_tables():
    assert irreducible_rep("(-1,9)").render() == "0 1 2 3 4 0 / 4 3 2 5 1 5"
    assert irreducible_rep("12-II").render() == "1 2 3 4 3 5 6 / 1 5 7 4 2 6 7"
    wanted = {
        "(-1,9)": (9, -1),
        "(-1,3,6)": (6, 3, -1),
        "(-1,3,3,3)": (3, 3, 3, -1),
        "12-I": (12,),
        "12-II": (12,),
    }
    for name, orders in wanted.items():
        assert singularity_pattern(irreducible_rep(name)).orders == orders


def test_match_component():
    rotated = hyperelliptic_rep("pi1", 3, 5).rotated(2, 4)
    tag = match_component(rotated, CALIBRATED_SYM)
    assert (tag.kind, tag.family, (tag.r, tag.l)) == ("hyperelliptic", "pi1", (3, 5))

    tag = match_component(GP("1 2 1 2 / 3 4 3 4"), CALIBRATED_SYM)
    assert (tag.kind, tag.family, (tag.r, tag.l)) == ("hyperelliptic", "pi2", (2, 2))

    assert match_component(GP("1 2 3 4 3 5 4 / 6 6 1 5 2"), CALIBRATED_SYM).kind == "unknown"

    tag = match_component(irreducible_rep("12-I").rotated(3, 2), CALIBRATED_SYM)
    assert (tag.kind, tag.name) == ("irreducible", "12-I")

    # pi1(3,1) is pi1(1,3) rotated: their shared key keeps the first member's tag
    shared = hyperelliptic_rep("pi1", 3, 1)
    assert shared.canonical_key(CALIBRATED_SYM) == hyperelliptic_rep("pi1", 1, 3).canonical_key(CALIBRATED_SYM)
    assert match_component(shared, CALIBRATED_SYM).label() == "hyp:pi1(1,3)"


# -- oracle: a per-family scan of the named representatives ------------------
#
# One tuple of (key, tag) candidates per family, a family tags with its first
# matching candidate, and a class matched by two families is an error at
# lookup time, so it checks `named_tags` without sharing its dict.

ALL_SYMS = [SymmetryGroup(*flags) for flags in itertools.product((False, True), repeat=3)]


@functools.lru_cache(maxsize=None)
def reference_named_keys(r: int, l: int, sym: SymmetryGroup):
    families = []
    if r == l and r >= 4:
        families.append(tuple(
            (hyperelliptic_rep("pi1", rr, r - 2 - rr).canonical_key(sym),
             ComponentTag("hyperelliptic", family="pi1", r=rr, l=r - 2 - rr))
            for rr in range(1, r - 2)
        ))
    if r % 2 == 0 and l % 2 == 0:
        families.append((
            (hyperelliptic_rep("pi2", r // 2, l // 2).canonical_key(sym),
             ComponentTag("hyperelliptic", family="pi2", r=r // 2, l=l // 2)),
        ))
    for name in IRREDUCIBLE_REPS:
        rep = irreducible_rep(name)
        if rep.size == r + l:
            families.append(((rep.canonical_key(sym), ComponentTag("irreducible", name=name)),))
    return tuple(families)


def reference_match_component(gp: GeneralizedPermutation, sym: SymmetryGroup) -> ComponentTag:
    key = gp.canonical_key(sym)
    matches = []
    for family in reference_named_keys(*gp.type, sym):
        tag = next((tag for rep_key, tag in family if rep_key == key), None)
        if tag is not None:
            matches.append(tag)
    if not matches:
        return UNKNOWN_TAG
    if len(matches) > 1:
        raise AssertionError("ambiguous component tags %r for %s" % (matches, gp.render()))
    return matches[0]


def test_match_component_matches_the_family_scan_on_every_class_up_to_14_cells():
    # pattern-free types cover every stratum; with row swap r >= l suffices
    classes = [gp for p in range(4, 15, 2) for r in range(p // 2, p - 1) for gp in enumerate_type(r, p - r)]
    assert len(classes) == 10268
    tags = [match_component(gp, CALIBRATED_SYM) for gp in classes]
    assert tags == [reference_match_component(gp, CALIBRATED_SYM) for gp in classes]
    assert sum(tag is not UNKNOWN_TAG for tag in tags) == 22


def test_match_component_matches_the_family_scan_on_rotated_and_swapped_reps():
    named = 0
    for a, b in [(a, b) for a in range(1, 6) for b in range(1, 7 - a)]:
        for kind in ("pi1", "pi2"):
            rep = hyperelliptic_rep(kind, a, b)
            images = [g for rot in rep.rotations() for g in (rot, rot.swap_rows())]
            for sym in ALL_SYMS:
                for gp in images:
                    tag = match_component(gp, sym)
                    assert tag == reference_match_component(gp, sym), (gp.render(), sym)
                    named += tag is not UNKNOWN_TAG
    assert named


def test_named_tags_of_every_type_up_to_26_cells():
    # building a table asserts that no key belongs to two families
    for sym in ALL_SYMS:
        for p in range(2, 27):
            for r in range(1, p):
                tags = named_tags(r, p - r, sym)
                assert UNKNOWN_TAG not in tags.values()
                for name in IRREDUCIBLE_REPS:
                    rep = irreducible_rep(name)
                    if rep.size == p:
                        assert tags[rep.canonical_key(sym)] == ComponentTag("irreducible", name=name)


def test_smooth_marked_points():
    # threading and smoothing are inverse up to class
    base = hyperelliptic_rep("pi1", 3, 3)
    threaded = hyperelliptic_rep("pi1a", 3, 3, 2)
    assert 0 in singularity_pattern(threaded).orders
    smoothed = smooth_marked_points(threaded)
    assert 0 not in singularity_pattern(smoothed).orders
    assert singularity_pattern(smoothed).orders == singularity_pattern(base).orders
    # a surface without order-zero points is left as it is
    assert smooth_marked_points(GP("1 1 2 / 2 3 3")) == GP("1 1 2 / 2 3 3")


@pytest.mark.parametrize("text", ["1 / 1", "1 2 / 1 2", "1 2 / 2 1", "1 2 3 / 1 2 3"])
def test_smoothing_a_flat_torus_keeps_one_point(text):
    # on a one-cell row both neighbours of the flat junction are one letter
    smoothed = smooth_marked_points(GP(text))
    assert smoothed.rows() == ((1,), (1,))
    assert singularity_pattern(smoothed).orders == (0,)


def test_pattern_invariant_under_restrict_prepend():
    import random

    rng = random.Random(31)
    for _ in range(30):
        k = rng.randint(2, 5)
        cells = [x for x in range(1, k + 1) for _ in range(2)]
        rng.shuffle(cells)
        r = rng.randint(1, 2 * k - 1)
        if not cells[:r] or not cells[r:]:
            continue
        gp = GeneralizedPermutation.from_rows(cells[:r], cells[r:])
        back = insert_split_letter(gp, 0, 0).restrict()
        assert singularity_pattern(back).orders == singularity_pattern(gp).orders
