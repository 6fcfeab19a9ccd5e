import contextlib
import hashlib
import itertools
import random
import sys
import threading
import tracemalloc
from bisect import bisect_right
from collections import Counter
from typing import Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onecyl import (
    CALIBRATED_SYM,
    GeneralizedPermutation,
    admissible_feasible,
    all_ones,
    build_cover,
    cylinder_decomposition,
    enumerate_stratum,
    enumerate_type,
    gamma_mult_one_evidence,
    hyperelliptic_rep,
    irreducible_rep,
    minimal_admissible,
    sample_admissible,
    separatrix_spectrum,
    simple_cylinder_angle,
    singularity_pattern,
    sl2z_orbit,
    smooth_marked_points,
    vertical_permutation,
)
from onecyl import MoveConfig, classify, component_report, strata, suspension
from onecyl.acceptance import A1_TABLE
from onecyl.classify import _UnionFind
from onecyl.errors import (
    BadParameters,
    BoundTooSmall,
    Infeasible,
    NotSimple,
    NotSingleCylinder,
    SizeLimit,
    TraceBudgetExceeded,
)
from onecyl.strata import cycles, junction_turn, vertex_cycles
from onecyl.suspension import (
    Cylinder,
    CylinderDecomposition,
    Segment,
    SeparatrixSpectrum,
    Side,
    SquareTiledCover,
    _inv,
    check_admissible,
    decode_one_cylinder,
    junction_sector_angles,
    lam_from_positions,
    orbit_forms,
)

from germ_gluing import numbered_vertex_cycles
from test_classify import Q12_MOVES

GP = GeneralizedPermutation.parse
EXAMPLE_14 = "1 2 3 4 2 5 6 / 1 4 5 7 6 7 3"


def random_gp(rng, max_letters=5):
    while True:
        k = rng.randint(2, max_letters)
        cells = [x for x in range(1, k + 1) for _ in range(2)]
        rng.shuffle(cells)
        r = rng.randint(1, 2 * k - 1)
        if not cells[:r] or not cells[r:]:
            continue
        gp = GeneralizedPermutation.from_rows(cells[:r], cells[r:])
        if admissible_feasible(gp):
            return gp


# -- admissible vectors ----------------------------------------------------


def test_feasibility():
    assert admissible_feasible(GP("1 2 / 2 1"))
    assert admissible_feasible(GP("1 1 2 / 3 2 3"))
    assert not admissible_feasible(GP("1 1 2 3 / 2 3"))
    with pytest.raises(Infeasible):
        sample_admissible(GP("1 1 2 3 / 2 3"))
    with pytest.raises(Infeasible):
        minimal_admissible(GP("1 1 2 3 / 2 3"))


def test_sample_admissible_deterministic_and_positive():
    gp = GP("1 2 3 4 3 5 4 / 6 6 1 5 2")
    lam1 = sample_admissible(gp, seed=1, bound=100)
    lam2 = sample_admissible(gp, seed=1, bound=100)
    assert lam1 == lam2
    assert all(v >= 1 for v in lam1)
    check_admissible(gp, lam1)


def test_fractional_or_text_lengths_are_rejected():
    square = GP("1 1 / 2 2")
    with pytest.raises(Infeasible):
        check_admissible(square, [1.7, 1.2])
    with pytest.raises(Infeasible):
        cylinder_decomposition(square, [2.9, 2.1])
    for lam in (["1", "1", "1"], ["a", 1, 1], [None, 1, 1], [float("nan"), 1, 1]):
        with pytest.raises(Infeasible):
            check_admissible(GP("1 1 2 / 2 3 3"), lam)
    assert check_admissible(square, [2.0, 2]) == (2, 2)


def test_all_ones_for_true_permutation_at_seed_zero():
    assert sample_admissible(GP("1 2 / 2 1"), seed=0) == (1, 1)


def test_bound_too_small():
    # one top-doubled letter against four bottom-doubled ones
    gp = GP("1 1 2 3 4 5 / 2 3 4 5 6 6 7 7 8 8 9 9")
    with pytest.raises(BoundTooSmall):
        sample_admissible(gp, seed=3, bound=1)


def test_sample_admissible_rejects_a_bound_below_one():
    gp = GP("1 1 2 3 / 2 3 4 4")
    for bound in (0, -2):
        with pytest.raises(BadParameters):
            sample_admissible(gp, seed=1, bound=bound)


# sha256 of every lambda drawn below, as random.Random.randint made them
LAMBDA_STREAM_SHA256 = "d61dcde8035ddffaff018b2679de6aef89ec793a29229d3ee0b2ac95dd1e4891"


def _lambda_stream() -> str:
    """Every lambda (or BoundTooSmall) of each class of the report strata at
    seeds 0..6 and bound 8, then 500 query-style draws at bound 20."""
    lines = []
    for pattern in ((8,), (-1, 5), (2, 2), (-1, 9), (12,)):
        for gp in enumerate_stratum(pattern):
            for seed in range(7):
                try:
                    lines.append(str(sample_admissible(gp, seed=seed, bound=8)))
                except BoundTooSmall:
                    lines.append("BoundTooSmall")
    rng = random.Random(20261018)
    queries = 0
    while queries < 500:
        k = rng.randint(4, 8)
        cells = [x for x in range(1, k + 1) for _ in range(2)]
        rng.shuffle(cells)
        r = rng.randint(1, 2 * k - 1)
        gp = GeneralizedPermutation.from_rows(cells[:r], cells[r:])
        if not admissible_feasible(gp):
            continue
        queries += 1
        try:
            lines.append(str(sample_admissible(gp, seed=rng.randrange(1, 2**31), bound=20)))
        except BoundTooSmall:
            lines.append("BoundTooSmall")
    return "\n".join(lines)


def reference_sample_admissible(gp, seed=0, bound=20):
    """The sampler before its draws were inlined: one ``randint`` per entry."""
    if not admissible_feasible(gp):
        raise Infeasible("no positive admissible vector for %s" % gp.render())
    k = gp.num_letters
    td = [x - 1 for x in gp.top_doubled()]
    bd = [x - 1 for x in gp.bottom_doubled()]
    if seed == 0 and len(td) == len(bd):
        return (1,) * k
    rng = random.Random(seed)
    for _ in range(400):
        lam = [rng.randint(1, bound) for _ in range(k)]
        diff = sum(lam[i] for i in td) - sum(lam[i] for i in bd)
        if diff == 0:
            return tuple(lam)
        fix = bd if diff > 0 else td
        rng.shuffle(fix)
        for i in fix:
            v = lam[i] + abs(diff)
            if v <= bound:
                lam[i] = v
                return tuple(lam)
    raise BoundTooSmall("could not balance within bound %d" % bound)


def test_inline_draws_match_randint_at_every_small_bound():
    # bound 1 redraws until a 0 bit, and powers of two and their neighbours sit
    # at the edges of a bit length
    gps = [GP("1 2 3 4 3 5 4 / 6 6 1 5 2"), GP("1 1 2 3 / 2 3 4 4"), GP("1 2 3 / 3 2 1")]
    for gp in gps:
        for bound in (*range(1, 18), 31, 32, 33, 64, 1000):
            for seed in range(4):
                try:
                    want = reference_sample_admissible(gp, seed=seed, bound=bound)
                except BoundTooSmall:
                    with pytest.raises(BoundTooSmall):
                        sample_admissible(gp, seed=seed, bound=bound)
                else:
                    assert sample_admissible(gp, seed=seed, bound=bound) == want, (gp, bound, seed)


def test_lambda_stream_is_frozen():
    assert hashlib.sha256(_lambda_stream().encode()).hexdigest() == LAMBDA_STREAM_SHA256


def test_lam_from_positions():
    pi2 = GP("0 1 0 / 2 3 2 1 3")
    lam = lam_from_positions(pi2, (2, 1, 2, 1, 1, 1, 1, 1))
    assert lam == (2, 1, 1, 1)
    with pytest.raises(Infeasible):
        lam_from_positions(pi2, (2, 1, 1, 1, 1, 1, 1, 1))


def test_minimal_admissible():
    gp = GP("5 2 5 3 4 2 / 1 3 1 4")  # two doubled up, one down
    lam = minimal_admissible(gp)
    assert sum(lam[x - 1] for x in gp.top) == sum(lam[x - 1] for x in gp.bottom)
    assert sorted(lam) == [1, 1, 1, 1, 2]


# -- separatrix spectrum ----------------------------------------------------


def test_gamma_always_single_crossing():
    rng = random.Random(3)
    for _ in range(40):
        gp = random_gp(rng)
        lam = sample_admissible(gp, seed=rng.randint(0, 999), bound=6)
        spec = separatrix_spectrum(gp, lam)
        (gamma,) = [s for s in spec.segments if s.is_gamma]
        assert gamma.crossings == 1


def test_figure_spectrum_frozen():
    spec = separatrix_spectrum(GP("1 1 2 / 3 2 3"), (1, 1, 1))
    assert sorted((s.crossings, s.is_gamma) for s in spec.segments) == [
        (1, False),
        (1, False),
        (1, True),
    ]
    # companion lengths relative to the seam stay in {1, 2, 1/2}
    (gamma,) = [s.crossings for s in spec.segments if s.is_gamma]
    assert all(s.crossings / gamma in (1.0, 2.0, 0.5) for s in spec.non_gamma())


def test_segment_count_is_letter_count():
    rng = random.Random(5)
    for _ in range(30):
        gp = random_gp(rng)
        lam = sample_admissible(gp, seed=rng.randint(0, 999), bound=5)
        spec = separatrix_spectrum(gp, lam)
        assert len(spec.segments) == gp.num_letters
        assert sum(s.crossings for s in spec.segments) == len(spec.singular_lines())


def test_irreducible_rep_has_good_vector():
    gp = GP("0 1 2 3 4 0 / 1 4 5 3 5 2")
    assert any(
        gamma_mult_one_evidence(gp, sample_admissible(gp, seed=seed, bound=20))
        for seed in range(20)
    )


def test_pi1_11_generic_vector_separates():
    # oracle value: this irreducible table has vectors with all
    # companions of length >= 3 (its seam is a loop at one zero)
    gp = hyperelliptic_rep("pi1", 1, 1)
    assert gamma_mult_one_evidence(gp, (1, 5, 4, 1))
    assert not gamma_mult_one_evidence(gp, (1, 1, 1, 1))


def test_red_failure_realizes_length_two():
    gp = GP("1 2 2 3 3 1 / 0 0")
    spec = separatrix_spectrum(gp, (1, 2, 5, 8))
    assert any(s.crossings == 2 for s in spec.non_gamma())
    assert not gamma_mult_one_evidence(gp, (1, 2, 5, 8))


# -- cylinders ----------------------------------------------------------------


def test_q12_rep_one_decomposition():
    gp = irreducible_rep("12-I")
    dec = cylinder_decomposition(gp, all_ones(gp))
    assert len(dec.cylinders) == 2
    assert sorted(c.simple for c in dec.cylinders) == [False, True]
    simple = next(c for c in dec.cylinders if c.simple)
    assert simple_cylinder_angle(gp, all_ones(gp), simple) == (2, 10)


def test_not_simple_raises():
    gp = irreducible_rep("12-I")
    dec = cylinder_decomposition(gp, all_ones(gp))
    other = next(c for c in dec.cylinders if not c.simple)
    with pytest.raises(NotSimple):
        simple_cylinder_angle(gp, all_ones(gp), other)


def test_simple_cylinder_angle_checks_the_lengths():
    gp = irreducible_rep("12-I")  # 1 2 3 4 2 5 6 / 1 4 5 7 6 7 3
    lam = all_ones(gp)
    simple = next(c for c in cylinder_decomposition(gp, lam).cylinders if c.simple)
    # a zero length, and letter 2 doubled on top, unbalanced; right after the reading at lam
    for bad in ((0, *lam[1:]), (1, 2, *lam[2:])):
        with pytest.raises(Infeasible):
            simple_cylinder_angle(gp, bad, simple)
    assert simple_cylinder_angle(gp, lam, simple) == (2, 10)


def test_quoted_angle_table():
    quoted = {
        "3 4 0 0 1 2 / 3 5 2 1 4 5": 1,
        "2 3 4 0 0 1 / 2 4 5 1 3 5": 2,
        "1 2 3 4 0 0 / 1 4 5 3 5 2": 4,
        "1 2 3 4 5 6 5 / 1 4 7 3 7 2 6": 4,
        "3 4 5 6 5 1 2 / 3 7 2 6 1 4 7": 1,
        "2 3 4 5 6 5 1 / 2 6 1 4 7 3 7": 5,
        "5 6 1 2 3 4 3 / 5 7 4 2 6 7 1": 3,
    }
    for text, angle in quoted.items():
        gp = GP(text)
        lam = all_ones(gp)
        dec = cylinder_decomposition(gp, lam)
        head = next(c for c in dec.cylinders if 0 in c.arcs and c.circumference == 1)
        assert simple_cylinder_angle(gp, lam, head)[0] == angle, text


def test_area_conservation():
    rng = random.Random(9)
    for _ in range(40):
        gp = random_gp(rng)
        lam = sample_admissible(gp, seed=rng.randint(0, 999), bound=5)
        w = sum(lam[x - 1] for x in gp.top)
        dec = cylinder_decomposition(gp, lam)
        assert sum(c.width * c.circumference for c in dec.cylinders) == w
        for cyl in dec.cylinders:
            assert len(cyl.sides) == 2


# -- vertical permutation ------------------------------------------------------


def test_vperm_torus_self():
    gp = GP("1 2 / 2 1")
    vg, vlam = vertical_permutation(gp, (1, 1))
    assert vg.equivalent(gp, CALIBRATED_SYM)
    assert vlam == (1, 1)


def test_vperm_connects_q8_tables():
    a1_keys = {
        GP(t).canonical_key(CALIBRATED_SYM)
        for t in (
            "5 3 5 2 4 / 1 2 1 3 4",
            "5 4 5 2 3 / 1 2 1 3 4",
            "5 4 5 3 2 / 1 2 1 3 4",
            "5 3 5 3 4 / 1 2 1 2 4",
        )
    }
    for text in ("5 2 5 3 4 2 / 1 3 1 4", "3 5 4 2 5 2 / 1 3 1 4", "5 3 2 5 4 2 / 1 3 1 4"):
        gp = GP(text)
        lam = lam_from_positions(gp, (1, 1, 1, 1, 1, 1, 2, 1, 2, 1))
        vg, _ = vertical_permutation(gp, lam)
        assert vg.canonical_key(CALIBRATED_SYM) in a1_keys


def test_vperm_qm15_move():
    pi2 = GP("0 1 0 / 2 3 2 1 3")
    lam = lam_from_positions(pi2, (2, 1, 2, 1, 1, 1, 1, 1))
    vg, _ = vertical_permutation(pi2, lam)
    assert vg.equivalent(GP("0 0 1 2 / 1 3 2 3"), CALIBRATED_SYM)


def test_vperm_preserves_pattern_or_raises():
    rng = random.Random(15)
    for _ in range(40):
        gp = random_gp(rng)
        lam = sample_admissible(gp, seed=rng.randint(0, 999), bound=5)
        try:
            vg, vlam = vertical_permutation(gp, lam)
        except NotSingleCylinder:
            continue
        assert singularity_pattern(vg).orders == singularity_pattern(gp).orders
        check_admissible(vg, vlam)


def test_vperm_requires_single_cylinder():
    gp = irreducible_rep("12-I")
    with pytest.raises(NotSingleCylinder):
        vertical_permutation(gp, all_ones(gp))


# -- covers and the shear/turn action ------------------------------------------


def test_cover_figure_genus():
    cover = build_cover(GP("1 1 2 / 3 2 3"), (1, 1, 1))
    assert cover.connected
    assert cover.genus() == 2


def test_cover_pillowcase():
    cover = build_cover(GP("1 1 / 2 2"), (1, 1))
    assert cover.n == 4
    assert cover.connected and cover.genus() == 1


def test_cover_abelian_disconnected():
    cover = build_cover(GP("1 2 / 2 1"), (1, 1))
    assert not cover.connected
    assert cover.components() == 2


def test_cover_square_bound(monkeypatch):
    # two squares per unit of circumference: (2, 2) builds 8, (3, 3) would build 12
    monkeypatch.setattr(suspension, "MAX_COVER_SQUARES", 8)
    assert build_cover(GP("1 1 / 2 2"), (2, 2)).n == 8
    with pytest.raises(SizeLimit):
        build_cover(GP("1 1 / 2 2"), (3, 3))


def test_orbit_pillowcase_fixed_point():
    result = sl2z_orbit(GP("1 1 / 2 2"), (1, 1))
    assert len(result) == 1 and not result.truncated


def test_orbit_cap_truncates():
    gp = GP("5 3 5 2 4 / 1 2 1 3 4")
    result = sl2z_orbit(gp, all_ones(gp), cap=3)
    assert result.truncated and len(result) >= 3


def test_capped_orbit_is_a_breadth_first_prefix():
    gp = GP(A1_TABLE[1])
    full = list(sl2z_orbit(gp, all_ones(gp)).words.items())
    assert len(full) == 30
    for k in range(1, len(full) + 1):
        capped = sl2z_orbit(gp, all_ones(gp), cap=k)
        assert list(capped.words.items()) == full[:k]
        assert capped.truncated == (k < len(full))
    for cap in (0, -3):
        with pytest.raises(BadParameters):
            sl2z_orbit(gp, all_ones(gp), cap=cap)


def test_s_squared_fixes_canonical_form():
    gp = GP("1 1 2 / 3 2 3")
    cover = build_cover(gp, (2, 1, 2))
    assert cover.apply_S().apply_S().canonical_key() == cover.canonical_key()


# -- cover canonical key against the full-BFS reference ------------------------


def reference_cover_key(self) -> tuple:
    """Minimal (right, up, deck) over relabelings by traversal order.

    The cover key as it was before pruning, kept verbatim as the oracle:
    every start square builds all three rows.
    """
    n = self.n
    best = None
    gens = (self.right, self.up, _inv(self.right), _inv(self.up))
    for start in range(n):
        label = [-1] * n
        order: list[int] = []

        def visit(s: int) -> None:
            label[s] = len(order)
            order.append(s)

        visit(start)
        head = 0
        while len(order) < n:
            if head < len(order):
                cur = order[head]
                head += 1
                for g in gens:
                    if label[g[cur]] < 0:
                        visit(g[cur])
            else:  # disconnected cover: jump to least unlabeled square
                visit(min(i for i in range(n) if label[i] < 0))
        key = (
            tuple(label[self.right[order[i]]] for i in range(n)),
            tuple(label[self.up[order[i]]] for i in range(n)),
            tuple(label[self.deck[order[i]]] for i in range(n)),
        )
        if best is None or key < best:
            best = key
    return best


def relabeled(cover: SquareTiledCover, p) -> SquareTiledCover:
    """The same cover with square q renamed p[q]."""
    pi = _inv(p)
    return SquareTiledCover(
        *(tuple(p[g[pi[i]]] for i in range(cover.n)) for g in (cover.right, cover.up, cover.deck)),
        cover.connected,
    )


def disjoint_union(*covers: SquareTiledCover) -> SquareTiledCover:
    right, up, deck = [], [], []
    for cover in covers:
        shift = len(right)
        right += [shift + q for q in cover.right]
        up += [shift + q for q in cover.up]
        deck += [shift + q for q in cover.deck]
    return SquareTiledCover(tuple(right), tuple(up), tuple(deck), False)


def orbit_covers(gp, lam):
    """Every form of the shear/quarter-turn orbit, replayed from its word."""
    start = build_cover(gp, lam)
    result = sl2z_orbit(gp, lam)
    assert not result.truncated
    for key, word in result.words.items():
        cover = start
        for letter in word:
            cover = cover.apply_T() if letter == "T" else cover.apply_S()
        yield key, cover


def random_cover(rng, max_letters=6, bound=4):
    while True:
        gp = random_gp(rng, max_letters)
        try:
            return build_cover(gp, sample_admissible(gp, seed=rng.randint(0, 999), bound=bound))
        except BoundTooSmall:
            continue


@pytest.mark.parametrize("text, size", [(A1_TABLE[0], 10), (A1_TABLE[1], 30)])
def test_cover_key_matches_reference_on_q8_orbits(text, size):
    gp = GP(text)
    forms = list(orbit_covers(gp, all_ones(gp)))
    assert len(forms) == size
    for key, cover in forms:
        assert cover.canonical_key() == reference_cover_key(cover) == key


def test_cover_key_matches_reference_on_sampled_covers():
    rng = random.Random(31)
    disconnected = 0
    for _ in range(40):
        cover = random_cover(rng)
        for image in (cover, cover.apply_T(), cover.apply_S().apply_T().apply_T()):
            if image.connected:
                assert image.canonical_key() == reference_cover_key(image)
            else:  # the reference jumps by square label; see the brute-force tests
                disconnected += 1
                p = list(range(image.n))
                rng.shuffle(p)
                assert relabeled(image, p).canonical_key() == image.canonical_key()
    assert 0 < disconnected < 60


def brute_force_key(cover: SquareTiledCover) -> tuple:
    """Least (right, up, deck) over every relabeling of the squares."""
    n = cover.n
    best = None
    for p in itertools.permutations(range(n)):
        pi = _inv(p)
        right = tuple([p[cover.right[q]] for q in pi])
        if best is not None and right > best[0]:
            continue
        key = (right, tuple([p[cover.up[q]] for q in pi]), tuple([p[cover.deck[q]] for q in pi]))
        if best is None or key < best:
            best = key
    return best


def brute_force_orbit_size(cover: SquareTiledCover) -> int:
    seen = {brute_force_key(cover)}
    frontier = [cover]
    while frontier:
        images = [image for c in frontier for image in (c.apply_T(), c.apply_S())]
        frontier = []
        for image in images:
            key = brute_force_key(image)
            if key not in seen:
                seen.add(key)
                frontier.append(image)
    return len(seen)


#: abelian (two-sheet) covers of at most 8 squares
SMALL_ABELIAN = [("1 2 / 2 1", (1, 1)), ("1 2 / 2 1", (1, 2)), ("1 2 3 / 3 2 1", (1, 1, 1)),
                 ("1 2 3 / 2 3 1", (1, 1, 1)), ("1 2 3 4 / 2 4 1 3", (1, 1, 1, 1))]


def test_cover_key_matches_reference_on_disconnected_covers():
    # the reference here is the brute-force minimum: equal keys exactly
    # when the minima agree, on every form of each orbit and a random
    # relabeling of it
    rng = random.Random(43)
    covers = []
    for text, lam in SMALL_ABELIAN:
        for _, cover in orbit_covers(GP(text), lam):
            p = list(range(cover.n))
            rng.shuffle(p)
            covers += [cover, relabeled(cover, p)]
    pairs = {(cover.canonical_key(), brute_force_key(cover)) for cover in covers}
    # 23 forms; the orbits of 1 2 / 2 1 at (1, 2) and 1 2 3 / 2 3 1 coincide
    assert len(pairs) == len({k for k, _ in pairs}) == len({b for _, b in pairs}) == 19


@pytest.mark.parametrize("text, size", [("1 2 3 / 3 2 1", 3), ("1 2 3 4 / 2 4 1 3", 9)])
def test_abelian_orbit_sizes_match_brute_force(text, size):
    gp = GP(text)
    cover = build_cover(gp, all_ones(gp))
    assert len(sl2z_orbit(gp, all_ones(gp))) == size == brute_force_orbit_size(cover)


def test_three_component_cover_key_is_a_relabeling():
    # the least-unlabeled fallback: the key still spells the same cover
    rng = random.Random(47)
    union = disjoint_union(build_cover(GP("1 2 / 2 1"), (1, 1)), build_cover(GP("1 1 / 2 2"), (1, 1)))
    assert union.components() == 3
    for _ in range(4):
        p = list(range(union.n))
        rng.shuffle(p)
        form = relabeled(union, p)
        form.check()
        key_cover = SquareTiledCover(*form.canonical_key(), False)
        key_cover.check()
        assert brute_force_key(key_cover) == brute_force_key(union)


def reference_components(cover: SquareTiledCover) -> int:
    """The union-find count the traversal in components() replaced."""
    uf = _UnionFind(cover.n)
    for i in range(cover.n):
        uf.union(i, cover.right[i])
        uf.union(i, cover.up[i])
    return len({uf.find(i) for i in range(cover.n)})


def test_components_match_the_union_find_count():
    rng = random.Random(53)
    counts = set()
    for _ in range(40):
        parts = [random_cover(rng) for _ in range(rng.randint(1, 3))]
        union = disjoint_union(*parts)
        p = list(range(union.n))
        rng.shuffle(p)
        for cover in (union, relabeled(union, p), union.apply_T()):
            assert cover.components() == reference_components(cover)
        counts.add(union.components())
    assert counts >= {1, 2, 3, 4}


def test_cover_key_matches_reference_on_pillowcase():
    cover = build_cover(GP("1 1 / 2 2"), (1, 1))
    assert cover.canonical_key() == reference_cover_key(cover)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cover_key_ignores_square_labels(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    cover = random_cover(rng)
    p = data.draw(st.permutations(range(cover.n)), label="relabel")
    assert relabeled(cover, p).canonical_key() == cover.canonical_key()


def test_decode_round_trip():
    rng = random.Random(21)
    checked = 0
    for _ in range(40):
        gp = random_gp(rng)
        if 0 in singularity_pattern(gp).orders:
            continue
        lam = sample_admissible(gp, seed=rng.randint(0, 999), bound=4)
        decoded = decode_one_cylinder(build_cover(gp, lam))
        if decoded is None:
            continue
        checked += 1
        assert decoded.equivalent(gp, CALIBRATED_SYM)
    assert checked >= 10


@st.composite
def admissible_pairs(draw, max_letters: int = 6, bound: int = 5):
    """A random (gp, lam) with positive integer admissible lengths."""
    k = draw(st.integers(2, max_letters), label="letters")
    cells = draw(st.permutations([x for x in range(1, k + 1) for _ in range(2)]), label="cells")
    splits = [GeneralizedPermutation.from_rows(cells[:r], cells[r:]) for r in range(1, 2 * k)]
    feasible = [gp for gp in splits if admissible_feasible(gp)]
    assume(feasible)
    gp = draw(st.sampled_from(feasible), label="split")
    try:
        lam = sample_admissible(gp, seed=draw(st.integers(0, 999), label="seed"), bound=bound)
    except BoundTooSmall:
        assume(False)
    return gp, lam


@settings(max_examples=150, deadline=None)
@given(admissible_pairs())
def test_vperm_keeps_the_singularity_pattern(pair):
    gp, lam = pair
    try:
        vg, vlam = vertical_permutation(gp, lam)
    except NotSingleCylinder:
        return  # no vertical one-cylinder reading to compare
    assert singularity_pattern(vg) == singularity_pattern(gp)
    check_admissible(vg, vlam)


@settings(max_examples=150, deadline=None)
@given(admissible_pairs())
def test_decode_reads_back_the_smoothed_class(pair):
    # marked points (order 0) included: the cover reading erases them
    gp, lam = pair
    decoded = decode_one_cylinder(build_cover(gp, lam))
    if gp.is_abelian():
        assert decoded is None  # the cover falls apart into two sheets
    else:
        assert decoded.equivalent(smooth_marked_points(gp), CALIBRATED_SYM)


def test_junction_sector_angles_rejects_split_vertices():
    gp = GP("1 1 2 / 3 2 3")  # three singularities
    with pytest.raises(NotSimple):
        junction_sector_angles(*cycles(junction_turn(gp.pairing(), len(gp.top))), (0, 3), (1, 4))


def reference_germ_sector_angles(
    gp: GeneralizedPermutation,
    side1: tuple[int, int],
    side2: tuple[int, int],
) -> tuple[int, int]:
    """The sector angles read off every junction class, before one corner walk replaced them.

    Kept verbatim but for the classes, which come from the germ-gluing walk
    and not from the code under test.
    """
    cycles = numbered_vertex_cycles(gp.top, gp.bottom)
    position = [(0, 0)] * gp.size
    for ci, cycle in enumerate(cycles):
        for pos, junction in enumerate(cycle):
            position[junction] = (ci, pos)
    spots = [position[g] for g in (*side1, *side2)]
    if len({ci for ci, _ in spots}) != 1:
        raise NotSimple("boundary circles meet different singularities")
    n = len(cycles[spots[0][0]])

    def block(in_pos: int, out_pos: int) -> int:
        if (in_pos + 1) % n == out_pos:
            return in_pos
        assert (out_pos + 1) % n == in_pos, "passage germs are not adjacent"
        return out_pos

    xa = block(spots[0][1], spots[1][1])
    xb = block(spots[2][1], spots[3][1])
    s1 = (xb - xa - 1) % n
    s2 = (xa - xb - 1) % n
    assert s1 + s2 == n - 2
    return (min(s1, s2), max(s1, s2))


def sector_outcomes(cases) -> Counter:
    """Compare both sector readers on (gp, side1, side2) cases; count the outcomes.

    An outcome is the angle pair or the name of the exception raised: a
    head passage of an arbitrary rotation need not pair adjacent germs.
    """
    outcomes: Counter = Counter()
    for gp, side1, side2 in cases:
        turns = cycles(junction_turn(gp.pairing(), len(gp.top)))
        got = []
        for angles in (lambda: junction_sector_angles(*turns, side1, side2),
                       lambda: reference_germ_sector_angles(gp, side1, side2)):
            try:
                got.append(angles())
            except (NotSimple, AssertionError) as exc:
                got.append(type(exc).__name__)
        assert got[0] == got[1], (gp.render(), side1, side2)
        outcomes[got[0] if isinstance(got[0], str) else "angles"] += 1
    return outcomes


def test_sector_angles_match_the_reference_on_every_head_rotation():
    cases = [
        (rot, (0, r), (1, r + 1))
        for r in range(1, 7)
        for l in range(1, 7)
        if (r + l) % 2 == 0
        for gp in enumerate_type(r, l)
        for rot in gp.rotations()
    ]
    outcomes = sector_outcomes(cases)
    assert min(outcomes[k] for k in ("angles", "NotSimple", "AssertionError")) >= 300


def test_sector_angles_match_the_reference_on_simple_cylinders():
    cases = []
    for gp, lam in reference_pairs():
        for cylinder in cylinder_decomposition(gp, lam).cylinders:
            if cylinder.simple:
                (pass1,), (pass2,) = (side.passages for side in cylinder.sides)
                cases.append((gp, pass1, pass2))
    outcomes = sector_outcomes(cases)
    assert outcomes["angles"] >= 20 and outcomes["NotSimple"] >= 20


def test_sector_angles_match_the_reference_across_two_singularities():
    # passages of two distinct singularities, and a passage that leaves the first one
    rng = random.Random(97)
    cases = []
    while len(cases) < 200:
        gp = random_gp(rng, 7)
        cycles = vertex_cycles(gp.pairing(), len(gp.top))
        if len(cycles) < 2:
            continue
        a, b = rng.sample(cycles, 2)
        i, j = rng.randrange(len(a)), rng.randrange(len(b))
        side1 = (a[i], a[(i + 1) % len(a)])
        side2 = (b[j], b[(j + 1) % len(b)]) if rng.random() < 0.5 else (a[i], b[j])
        cases.append((gp, side1, side2) if rng.random() < 0.5 else (gp, side2, side1))
    assert sector_outcomes(cases) == Counter({"NotSimple": 200})


# -- integer geometry against the string-keyed reference -----------------------
#
# The geometry as it was before the integer rewrite, kept verbatim as the
# oracle: cells and junctions keyed ("T", i) / ("B", j), a tuple-keyed
# partner table and one gluing formula per trace.

Germ = tuple[str, int]  # junction carrying the inward vertical ray


class _Geometry:
    """Crossing maps of an integer suspension, shared by all traces."""

    def __init__(self, gp: GeneralizedPermutation, lam: Sequence[int]):
        self.gp = gp
        self.lam = check_admissible(gp, lam)
        r, l = gp.type
        self.w = w = sum(self.lam[x - 1] for x in gp.top)
        # prefix coordinates; X[i] is the left end of cell i
        self.left = {"T": [0] * r, "B": [0] * l}
        self.size = {"T": r, "B": l}
        for side, row in (("T", gp.top), ("B", gp.bottom)):
            acc = 0
            for i, letter in enumerate(row):
                self.left[side][i] = acc
                acc += self.lam[letter - 1]
        # junction index by coordinate, and cell index per unit column
        self.junction_at = {
            side: {x: i for i, x in enumerate(self.left[side])} for side in ("T", "B")
        }
        self.cell_at = {}
        for side in ("T", "B"):
            arr = [0] * w
            idx = 0
            lefts = self.left[side]
            n = len(lefts)
            for c in range(w):
                while idx + 1 < n and lefts[idx + 1] <= c:
                    idx += 1
                arr[c] = idx
            self.cell_at[side] = arr
        # partner of each cell: (side, index, same_side)
        occ: dict[int, list[tuple[str, int]]] = {}
        for side, row in (("T", gp.top), ("B", gp.bottom)):
            for i, letter in enumerate(row):
                occ.setdefault(letter, []).append((side, i))
        self.partner: dict[tuple[str, int], tuple[str, int, bool]] = {}
        for letter, cells in occ.items():
            (s1, i1), (s2, i2) = cells
            self.partner[(s1, i1)] = (s2, i2, s1 == s2)
            self.partner[(s2, i2)] = (s1, i1, s1 == s2)

    def cell_span(self, side: str, i: int) -> tuple[int, int]:
        a = self.left[side][i]
        row = self.gp.top if side == "T" else self.gp.bottom
        return a, a + self.lam[row[i] - 1]

    def cross_point(self, side: str, x: int) -> tuple[str, int, bool]:
        """Map an interior edge point through its cell identification.

        Returns (new_side, new_x, flipped); ``flipped`` marks a central
        symmetry (same-side gluing), which reverses the travel direction.
        """
        cell = self.cell_at[side][x if x < self.w else 0]
        a, b = self.cell_span(side, cell)
        ps, pi, same = self.partner[(side, cell)]
        c, d = self.cell_span(ps, pi)
        if same:
            return ps, d - (x - a), True
        return ps, c + (x - a), False


def _trace_segment(geo: _Geometry, germ: Germ) -> tuple[Germ, int, tuple[int, ...]]:
    """Follow the vertical ray from a junction until it hits a junction."""
    side, idx = germ
    x = geo.left[side][idx]
    direction = -1 if side == "T" else 1  # +1 travels upward
    budget = 2 * geo.w + 2
    crossings = 0
    lines = []
    while True:
        lines.append(x)
        crossings += 1
        if crossings > budget:
            raise TraceBudgetExceeded("separatrix trace exceeded %d crossings" % budget)
        arrive = "T" if direction == 1 else "B"
        hit = geo.junction_at[arrive].get(x)
        if hit is not None:
            return (arrive, hit), crossings, tuple(lines)
        new_side, x, flipped = geo.cross_point(arrive, x)
        if flipped:
            direction = -direction


def reference_separatrix_spectrum(gp: GeneralizedPermutation, lam: Sequence[int]) -> SeparatrixSpectrum:
    """All compact vertical separatrices, as a perfect matching on germs."""
    geo = _Geometry(gp, lam)
    return _spectrum(geo)


def _spectrum(geo: _Geometry) -> SeparatrixSpectrum:
    germs: list[Germ] = [("T", i) for i in range(geo.size["T"])] + [
        ("B", j) for j in range(geo.size["B"])
    ]
    done: dict[Germ, Segment] = {}
    segments: list[Segment] = []
    for g in germs:
        if g in done:
            continue
        end, crossings, lines = _trace_segment(geo, g)
        back, back_crossings, _ = _trace_segment(geo, end)
        assert back == g and back_crossings == crossings, "segment pairing broke"
        is_gamma = {g, end} == {("T", 0), ("B", 0)}
        seg = Segment(tuple(sorted((g, end))), crossings, lines, is_gamma)
        done[g] = done[end] = seg
        segments.append(seg)
    assert sum(1 for s in segments if s.is_gamma) == 1
    assert segments and min(s.crossings for s in segments if s.is_gamma) == 1
    return SeparatrixSpectrum(tuple(segments))


def _column_step(geo: _Geometry, col: int, direction: int) -> tuple[int, int]:
    """Image of a unit column under one vertical crossing."""
    arrive = "T" if direction == 1 else "B"
    cell = geo.cell_at[arrive][col]
    a, b = geo.cell_span(arrive, cell)
    ps, pi, same = geo.partner[(arrive, cell)]
    c, d = geo.cell_span(ps, pi)
    if same:
        return d - (col - a) - 1, -direction
    return c + (col - a), direction


def _side_trace(geo: _Geometry, x0: int, sigma0: int, direction0: int = 1) -> tuple[Side, list[tuple[int, int]]]:
    """Boundary trace hugging singular lines at offset sigma*epsilon."""
    state = (x0, sigma0, direction0)
    passages: list[tuple[Germ, Germ]] = []
    visited: list[tuple[int, int]] = []
    traversals = 0
    x, sigma, direction = state
    while True:
        visited.append((x, sigma))
        traversals += 1
        if traversals > 2 * geo.w + 2:
            raise TraceBudgetExceeded("side trace exceeded budget")
        arrive = "T" if direction == 1 else "B"
        jn = geo.junction_at[arrive].get(x)
        if jn is None:
            new_side, x, flipped = geo.cross_point(arrive, x)
            if flipped:
                direction = -direction
                sigma = -sigma
        else:
            in_germ: Germ = (arrive, jn)
            n = geo.size[arrive]
            cell = jn if sigma == 1 else (jn - 1) % n
            end = "L" if sigma == 1 else "R"
            a, b = geo.cell_span(arrive, cell)
            ps, pi, same = geo.partner[(arrive, cell)]
            c, d = geo.cell_span(ps, pi)
            if same:
                new_x = (d if end == "L" else c) % geo.w
                direction = -direction
                sigma = -sigma
            else:
                new_x = (c if end == "L" else d) % geo.w
            out_idx = geo.junction_at[ps].get(new_x)
            assert out_idx is not None, "junction image is not a junction"
            passages.append((in_germ, (ps, out_idx)))
            x = new_x
        if (x, sigma, direction) == state:
            break
    return Side(tuple(passages), traversals), visited


def reference_cylinder_decomposition(gp: GeneralizedPermutation, lam: Sequence[int]) -> CylinderDecomposition:
    """Vertical cylinders of the suspension, with boundary structure."""
    geo = _Geometry(gp, lam)
    spectrum = _spectrum(geo)
    singular = spectrum.singular_lines()
    w = geo.w
    uf = _UnionFind(w)
    # same closed leaf => same cylinder
    for col in range(w):
        c, d = _column_step(geo, col, 1)
        uf.union(col, c)
        c, d = _column_step(geo, col, -1)
        uf.union(col, c)
    # no separatrix on the line between adjacent columns => same cylinder
    for x in range(1, w):
        if x not in singular:
            uf.union(x - 1, x)
    assert 0 in singular
    groups: dict[int, list[int]] = {}
    for col in range(w):
        groups.setdefault(uf.find(col), []).append(col)

    # leaf length through a column: orbit of (column, up) under crossings
    def circumference(col: int) -> int:
        state = (col, 1)
        steps = 0
        cur = state
        while True:
            cur = _column_step(geo, cur[0], cur[1])
            steps += 1
            if cur == state:
                return steps
            assert steps <= 2 * w + 2, "leaf failed to close"

    # boundary sides, assigned to the adjacent cylinder
    sides_of: dict[int, list[Side]] = {root: [] for root in groups}
    seen: set[tuple[int, int]] = set()
    for x in sorted(singular):
        for sigma in (1, -1):
            if (x, sigma) in seen:
                continue
            side, visited = _side_trace(geo, x, sigma)
            seen.update(visited)
            col = x if sigma == 1 else (x - 1) % w
            sides_of[uf.find(col)].append(side)

    cylinders = []
    for root, cols in sorted(groups.items(), key=lambda kv: min(kv[1])):
        m = circumference(min(cols))
        assert len(cols) % m == 0, "cylinder width is not integral"
        sides = sides_of[root]
        assert len(sides) == 2, "cylinder with %d boundary sides" % len(sides)
        simple = all(len(s.passages) == 1 for s in sides)
        # the arcs: the cylinder's columns that lie on singular lines
        cylinders.append(
            Cylinder(tuple(x for x in sorted(cols) if x in singular), len(cols) // m, m, simple, (sides[0], sides[1]))
        )
    assert sum(c.width * c.circumference for c in cylinders) == w
    return CylinderDecomposition(tuple(cylinders), spectrum, w)


def reference_vertical_permutation(
    gp: GeneralizedPermutation, lam: Sequence[int]
) -> tuple[GeneralizedPermutation, tuple[int, ...]]:
    """Re-encode a single-vertical-cylinder suspension along the vertical.

    The two boundary circles, read parallel to each other at a common
    regular arc, become the rows of the new permutation; letters are the
    vertical separatrix segments and their lengths the crossing counts.
    """
    geo = _Geometry(gp, lam)
    decomp = reference_cylinder_decomposition(gp, lam)
    if len(decomp.cylinders) != 1:
        raise NotSingleCylinder("vertical foliation has %d cylinders" % len(decomp.cylinders))
    singular = sorted(decomp.spectrum.singular_lines())
    # read both sides upward at the arc of regular columns right of x=0
    right_of_zero = singular[1] if len(singular) > 1 else geo.w
    side_top, _ = _side_trace(geo, 0, 1)
    side_bottom, _ = _side_trace(geo, right_of_zero % geo.w, -1)

    seg_of: dict[Germ, int] = {}
    for i, seg in enumerate(decomp.spectrum.segments):
        for g in seg.germs:
            seg_of[g] = i
    rows: list[list[int]] = []
    for side in (side_top, side_bottom):
        rows.append([seg_of[out] + 1 for (_, out) in side.passages])
    counts: dict[int, int] = {}
    for row in rows:
        for letter in row:
            counts[letter] = counts.get(letter, 0) + 1
    assert all(v == 2 for v in counts.values()), "segments must each appear twice"
    new_gp = GeneralizedPermutation.from_rows(rows[0], rows[1])
    # renumbering by first appearance: rebuild the length map accordingly
    mapping: dict[int, int] = {}
    for letter in rows[0] + rows[1]:
        if letter not in mapping:
            mapping[letter] = len(mapping) + 1
    new_lam = [0] * new_gp.num_letters
    for old, new in mapping.items():
        new_lam[new - 1] = decomp.spectrum.segments[old - 1].crossings
    new_lam_t = check_admissible(new_gp, new_lam)
    assert singularity_pattern(new_gp).orders == singularity_pattern(gp).orders
    return new_gp, new_lam_t


def reference_build_cover(gp: GeneralizedPermutation, lam: Sequence[int]) -> SquareTiledCover:
    """Square-tiled orientation double cover of the suspension.

    Same-side identifications connect the two sheets (the pulled-back
    one-form changes sign across a central symmetry), opposite-side ones
    stay on a sheet.
    """
    geo = _Geometry(gp, lam)
    w = geo.w
    n = 2 * w
    right = [0] * n
    up = [0] * n
    deck = [0] * n
    for c in range(w):
        right[c] = (c + 1) % w
        right[w + c] = w + (c - 1) % w
        deck[c] = w + c
        deck[w + c] = c
        c_up, d_up = _column_step(geo, c, 1)
        up[c] = c_up if d_up == 1 else w + c_up
        c_dn, d_dn = _column_step(geo, c, -1)
        up[w + c] = w + c_dn if d_dn == -1 else c_dn
    cover = SquareTiledCover(tuple(right), tuple(up), tuple(deck), False)
    ncomp = cover.components()
    assert ncomp in (1, 2)
    connected = ncomp == 1
    assert connected == (not gp.is_abelian())
    cover = SquareTiledCover(cover.right, cover.up, cover.deck, connected)
    cover.check()
    if connected:
        base = singularity_pattern(gp)
        odd = sum(1 for k in base.orders if k % 2)
        assert 2 - 2 * cover.genus() == 2 * (2 - 2 * base.genus) - odd
    return cover


def reference_pairs(count: int = 200):
    """Seeded (gp, lam) pairs whose lengths are not all ones."""
    rng = random.Random(53)
    while count:
        gp = random_gp(rng, 6)
        try:
            lam = sample_admissible(gp, seed=rng.randint(1, 999), bound=5)
        except BoundTooSmall:
            continue
        if set(lam) != {1}:
            count -= 1
            yield gp, lam


def test_geometry_matches_string_keyed_reference():
    single = 0
    for gp, lam in reference_pairs():
        r = len(gp.top)
        junction = {("T", i): i for i in range(r)}
        junction.update({("B", j): r + j for j in range(len(gp.bottom))})

        def side(ref: Side) -> Side:
            return Side(tuple((junction[a], junction[b]) for a, b in ref.passages), ref.traversals)

        ref = reference_separatrix_spectrum(gp, lam)
        spectrum = SeparatrixSpectrum(tuple(
            Segment(tuple(sorted(map(junction.get, s.germs))), s.crossings, s.lines, s.is_gamma)
            for s in ref.segments
        ))
        assert separatrix_spectrum(gp, lam) == spectrum
        ref_dec = reference_cylinder_decomposition(gp, lam)
        dec = cylinder_decomposition(gp, lam)
        assert dec == CylinderDecomposition(tuple(
            Cylinder(c.arcs, c.width, c.circumference, c.simple, (side(c.sides[0]), side(c.sides[1])))
            for c in ref_dec.cylinders
        ), spectrum, ref_dec.total_width)
        if len(dec.cylinders) == 1:
            single += 1
            vg, vlam = vertical_permutation(gp, lam)
            ref_vg, ref_vlam = reference_vertical_permutation(gp, lam)
            assert (vg.rows(), vlam) == (ref_vg.rows(), ref_vlam)
        else:
            for vperm in (vertical_permutation, reference_vertical_permutation):
                with pytest.raises(NotSingleCylinder):
                    vperm(gp, lam)
        cover, ref_cover = build_cover(gp, lam), reference_build_cover(gp, lam)
        assert (cover.right, cover.up, cover.deck, cover.connected) == (
            ref_cover.right, ref_cover.up, ref_cover.deck, ref_cover.connected)
    assert 20 <= single <= 180


# -- arc cylinders against the column union-find reference ---------------------


def integer_reference_decomposition(gp: GeneralizedPermutation, lam: Sequence[int]) -> CylinderDecomposition:
    """``reference_cylinder_decomposition`` with its germs renumbered as junctions."""
    r = len(gp.top)
    junction = {("T", i): i for i in range(r)}
    junction.update({("B", j): r + j for j in range(len(gp.bottom))})
    ref = reference_cylinder_decomposition(gp, lam)

    def side(ref_side: Side) -> Side:
        return Side(tuple((junction[a], junction[b]) for a, b in ref_side.passages), ref_side.traversals)

    spectrum = SeparatrixSpectrum(tuple(
        Segment(tuple(sorted(map(junction.get, s.germs))), s.crossings, s.lines, s.is_gamma)
        for s in ref.spectrum.segments
    ))
    cylinders = tuple(
        Cylinder(c.arcs, c.width, c.circumference, c.simple, (side(c.sides[0]), side(c.sides[1])))
        for c in ref.cylinders
    )
    return CylinderDecomposition(cylinders, spectrum, ref.total_width)


def vperm_outcome(vperm, gp: GeneralizedPermutation, lam: Sequence[int]):
    """Rows and lengths of a vertical reading, or the NotSingleCylinder message."""
    try:
        vg, vlam = vperm(gp, lam)
    except NotSingleCylinder as exc:
        return str(exc)
    return vg.rows(), vlam


def assert_cylinders_match_reference(gp: GeneralizedPermutation, lam: Sequence[int]) -> bool:
    """Check decomposition and vertical reading against the references; True if one cylinder."""
    dec = cylinder_decomposition(gp, lam)
    assert dec == integer_reference_decomposition(gp, lam)
    assert vperm_outcome(vertical_permutation, gp, lam) == vperm_outcome(reference_vertical_permutation, gp, lam)
    return len(dec.cylinders) == 1


@settings(max_examples=150, deadline=None)
@given(admissible_pairs(max_letters=8, bound=20))
def test_arc_cylinders_match_reference(pair):
    assert_cylinders_match_reference(*pair)


def seeded_cylinder_corpus():
    """(kind, gp, lam) over 300 seeded permutations: all ones and sampled vectors of bound 2 and 20."""
    rng = random.Random(67)
    for _ in range(300):
        gp = random_gp(rng, 8)
        for kind in ("ones", 2, 20):
            try:
                if kind == "ones":
                    lam = check_admissible(gp, (1,) * gp.num_letters)
                else:
                    lam = sample_admissible(gp, seed=rng.randint(1, 999), bound=kind)
            except (Infeasible, BoundTooSmall):
                continue
            yield kind, gp, lam


def test_arc_cylinders_match_reference_on_seeded_corpus():
    vectors = {"ones": 0, 2: 0, 20: 0}
    single = 0
    for kind, gp, lam in seeded_cylinder_corpus():
        vectors[kind] += 1
        single += assert_cylinders_match_reference(gp, lam)
    assert min(vectors.values()) >= 100
    assert 0 < single < sum(vectors.values())


def reference_leaf_cylinders(geo, singular: list[int]) -> tuple[list[int], list[list[int]]]:
    """Owning cylinder of each arc, and the arcs of each cylinder, ascending.

    The bare leaf walk the first side traces replaced: one leaf walk per
    cylinder, up the first column of its least arc, claims the arc of every
    column the leaf crosses.  It steps (column, direction) by the string-keyed
    reference's ``_column_step``.
    """
    assert singular[0] == 0
    bounds = singular + [geo.w]
    owner = [-1] * len(singular)
    arcs_of: list[list[int]] = []
    for i in range(len(singular)):
        if owner[i] >= 0:
            continue
        arcs: list[int] = []
        start = state = (singular[i], 1)
        while True:
            a = bisect_right(singular, state[0]) - 1
            assert owner[a] < 0, "leaf crosses an arc twice"
            owner[a] = len(arcs_of)
            arcs.append(a)
            state = _column_step(geo, *state)
            if state == start:
                break
        assert len({bounds[a + 1] - bounds[a] for a in arcs}) == 1, "cylinder arcs differ in width"
        arcs_of.append(sorted(arcs))
    return owner, arcs_of


def clear_readings(monkeypatch) -> None:
    """Empty the reading slot, for a cold call."""
    monkeypatch.setattr(suspension, "_last", (None, None, None))


ENTRY_POINTS = {
    "spectrum": separatrix_spectrum,
    "decomposition": cylinder_decomposition,
    "vperm": lambda gp, lam: vperm_outcome(vertical_permutation, gp, lam),
    "cover": build_cover,
}


def test_entry_points_trace_each_segment_once_and_claim_the_leaf_walk_arcs(monkeypatch):
    # segments traced: each _diagram call traces every segment of its diagram once
    traces = 0
    diagram = suspension._diagram

    def counted(geo):
        nonlocal traces
        out = diagram(geo)
        traces += len(out[0])
        return out

    monkeypatch.setattr(suspension, "_diagram", counted)
    three = 0
    calls = list(ENTRY_POINTS.values())
    for i, (_, gp, lam) in enumerate(seeded_cylinder_corpus()):
        # whichever entry point reads (gp, lam) first, the cover included, the
        # four entry points and a second round of them, with the lengths as a
        # list, trace each segment once between them
        clear_readings(monkeypatch)
        traces = 0
        for call in calls[i % 4:] + calls[: i % 4]:
            call(gp, lam)
        spectrum = separatrix_spectrum(gp, list(lam))
        dec = cylinder_decomposition(gp, lam)
        assert dec.spectrum is spectrum
        vperm_outcome(vertical_permutation, gp, list(lam))
        build_cover(gp, list(lam))
        segments = len(spectrum.segments)
        assert traces == segments
        singular = sorted(spectrum.singular_lines())
        arcs_of = [[bisect_right(singular, x) - 1 for x in c.arcs] for c in dec.cylinders]
        assert arcs_of == reference_leaf_cylinders(_Geometry(gp, lam), singular)[1]
        # an equal-rows copy and other lengths trace afresh
        twin = GeneralizedPermutation.from_rows(gp.top, gp.bottom)
        assert twin is not gp and twin.rows() == gp.rows()
        doubled = tuple(2 * v for v in lam)
        for reading, g, l in ((separatrix_spectrum, twin, lam), (cylinder_decomposition, gp, doubled)):
            traces = 0
            reading(g, l)
            assert traces == segments
        # the vertical reading stores its reading too, and the cover reuses it
        tripled = tuple(3 * v for v in lam)
        traces = 0
        for _ in range(2):
            vperm_outcome(vertical_permutation, gp, tripled)
            build_cover(gp, tripled)
        assert traces == segments
        assert suspension._last[0] is gp and suspension._last[1] == tripled
        three += len(dec.cylinders) == 3
    assert three == 69


def test_the_cover_never_traces(monkeypatch):
    # a cold cover, and one refused as too large, read only the geometry's
    # cell arrays: tracing at lengths of about 10^6 would take seconds
    traced = []
    monkeypatch.setattr(suspension, "_diagram", traced.append)
    gp = GP(EXAMPLE_14)
    big = (999983, 1000003, 999979, 1000033, 999961, 1000037, 1000003)
    for lam in (all_ones(gp), (2,) * 7):
        clear_readings(monkeypatch)
        assert build_cover(gp, lam).n == 2 * sum(lam[x - 1] for x in gp.top)
    for cold in (True, False):
        if cold:
            clear_readings(monkeypatch)
        with pytest.raises(SizeLimit, match="the cover would have 13999998 squares"):
            build_cover(gp, big)
    assert traced == []
    assert suspension._last[0] is gp and suspension._last[1] == big


def invalid_lengths(gp: GeneralizedPermutation, lam: tuple[int, ...]) -> list[list]:
    """A zero, a fractional and an unbalanced (or short) variant of an admissible vector."""
    zero, fraction, unbalanced = list(lam), list(lam), list(lam)
    zero[0] = 0
    fraction[0] += 0.5
    doubled = gp.top_doubled() or gp.bottom_doubled()
    if doubled:
        unbalanced[doubled[0] - 1] += 1
    else:  # every letter crosses, so every positive vector balances
        unbalanced.pop()
    return [zero, fraction, unbalanced]


def test_shared_reading_matches_cold_calls_and_the_references(monkeypatch):
    corpus = [(gp, lam) for _, gp, lam in seeded_cylinder_corpus()]
    # every entry point on every pair in a cleared state, and the string-keyed references
    cold = {}
    for i, (gp, lam) in enumerate(corpus):
        for name, call in ENTRY_POINTS.items():
            clear_readings(monkeypatch)
            cold[i, name] = call(gp, lam)
        reference = integer_reference_decomposition(gp, lam)
        assert cold[i, "decomposition"] == reference
        assert cold[i, "spectrum"] == reference.spectrum
        assert cold[i, "vperm"] == vperm_outcome(reference_vertical_permutation, gp, lam)
    # then shuffled within runs of five pairs, so the same permutation object meets
    # other lengths, equal-rows copies and bad lengths between its readings
    rng = random.Random(71)
    hits = Counter()
    for run in range(0, len(corpus), 5):
        calls = []
        for i in range(run, min(run + 5, len(corpus))):
            gp, lam = corpus[i]
            twin = GeneralizedPermutation.from_rows(gp.top, gp.bottom)
            calls += [(i, name, g, l) for name in ENTRY_POINTS for g in (gp, gp, twin) for l in (lam, list(lam))]
            calls += [(i, None, gp, bad) for bad in invalid_lengths(gp, lam)]
        rng.shuffle(calls)
        for i, name, gp, lam in calls:
            if name is None:
                # bad lengths raise even right after a reading of the same permutation, and leave it in place
                good = corpus[i][1]
                separatrix_spectrum(gp, good)
                for call in (separatrix_spectrum, cylinder_decomposition, vertical_permutation, build_cover):
                    with pytest.raises(Infeasible):
                        call(gp, lam)
                assert suspension._last[0] is gp and suspension._last[1] == good
                continue
            last_gp, last_lam, geo = suspension._last
            hits[name] += last_gp is gp and last_lam == tuple(lam)
            shared = [vars(geo), vars(geo.frame)] if geo else []
            # the arrays, and the diagram and spectrum where traced
            before = [{key: repr(value) for key, value in attrs.items() if value is not None} for attrs in shared]
            assert ENTRY_POINTS[name](gp, lam) == cold[i, name], (name, gp.render(), lam)
            # no reader mutates what it shares; a geometry only gains its
            # diagram and spectrum, a class frame its lazy tables
            for attrs, kept in zip(shared, before):
                assert {key: repr(attrs[key]) for key in kept} == kept
    assert min(hits.values()) > 100, hits


def test_shared_reading_is_consistent_across_threads(monkeypatch):
    # more threads than cores, switching often, each on its own pairs: a
    # reader sees one whole entry of the slot, so every result is a cold one.
    # Each permutation object comes at up to three lengths in a row, and at
    # doubled lengths the re-reading misses the last reading but can take its
    # class frame, and the cover can find the re-reading's; every third
    # object also has an equal-rows copy
    corpus = [(gp, lam) for _, gp, lam in itertools.islice(seeded_cylinder_corpus(), 60)]
    corpus += [(GeneralizedPermutation.from_rows(gp.top, gp.bottom), lam) for gp, lam in corpus[::3]]

    def readings(gp, lam):
        doubled = tuple(2 * v for v in lam)
        return (separatrix_spectrum(gp, lam), cylinder_decomposition(gp, lam),
                vperm_outcome(vertical_permutation, gp, lam), build_cover(gp, lam),
                vperm_outcome(vertical_permutation, gp, doubled), build_cover(gp, doubled))

    expected = []
    for gp, lam in corpus:
        clear_readings(monkeypatch)
        expected.append(readings(gp, lam))
    failures = []

    def work(offset):
        try:
            for k in range(2 * len(corpus)):
                i = (offset + k) % len(corpus)
                if readings(*corpus[i]) != expected[i]:
                    failures.append(i)
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(7 * t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_separatrix_diagram_counts_two_boundary_circles_per_cylinder():
    # both explicit cases are misread when a class of bottom junctions only turns the other way
    explicit = [
        (GP("1 2 3 2 3 4 1 4 / 5 6 5 6"), (1, 1, 1, 1, 2, 2)),
        (GP("1 2 3 1 2 4 / 5 6 6 7 8 7 5 3 8 4"), (2, 2, 2, 2, 1, 1, 1, 1)),
    ]
    assert [len(reference_cylinder_decomposition(*case).cylinders) for case in explicit] == [1, 3]
    for gp, lam in explicit + [(gp, lam) for _, gp, lam in seeded_cylinder_corpus()] + list(reference_pairs()):
        geo = suspension._Geometry(suspension._Frame(gp), lam)
        other = suspension._diagram(geo)[4]
        circles = strata.cycles([other[g] for g in junction_turn(geo.pair, geo.r)])[1]
        assert len(circles) == 2 * len(reference_cylinder_decomposition(gp, lam).cylinders)


def assert_diagram_matches_reference(gp: GeneralizedPermutation, lam: Sequence[int]) -> None:
    """The flat diagram against the string-keyed reference's segment traces and side traces."""
    r = len(gp.top)
    junction = {("T", i): i for i in range(r)}
    junction.update({("B", j): r + j for j in range(len(gp.bottom))})
    ref_geo = _Geometry(gp, lam)
    ref = _spectrum(ref_geo).segments
    ends, crossings, lines, seg_of, other, start = suspension._diagram(suspension._Geometry(suspension._Frame(gp), lam))
    assert ends == [tuple(sorted(map(junction.get, s.germs))) for s in ref]
    assert crossings == [s.crossings for s in ref]
    assert lines == [s.lines for s in ref]
    owner = {junction[g]: (i, junction[h]) for i, s in enumerate(ref) for g, h in (s.germs, s.germs[::-1])}
    assert seg_of == [owner[g][0] for g in range(len(owner))]
    assert other == [owner[g][1] for g in range(len(owner))]
    # start[x] is where both reference sides that hug line x, going up from it, first meet a junction
    singular = sorted(set().union(*(s.lines for s in ref)))
    for sigma in (1, -1):
        assert start == {x: junction[_side_trace(ref_geo, x, sigma)[0].passages[0][0]] for x in singular}


def test_flat_diagram_matches_the_reference_on_the_seeded_corpus():
    for _, gp, lam in seeded_cylinder_corpus():
        assert_diagram_matches_reference(gp, lam)
    for gp, lam in reference_pairs():
        assert_diagram_matches_reference(gp, lam)


def vperm_pass_reads(pattern: tuple[int, ...], config: MoveConfig) -> tuple[list, int]:
    """Every (class, lambda) that the vperm pass of a report re-reads, in pass order, and the report's upper bound."""
    read = []

    def recorded(gp, lam):
        read.append((gp, lam))
        return vertical_permutation(gp, lam)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "vertical_permutation", recorded)
        upper = component_report(pattern, config).upper_bound
    return read, upper


def test_flat_diagram_matches_the_reference_on_the_qm19_vperm_pass():
    # every (class, lambda) that the default Q(-1,9) report re-reads
    read, upper = vperm_pass_reads((-1, 9), MoveConfig())
    assert upper == 2
    assert len(read) == 1161  # the 129 classes, each at its signature's distinct vectors
    for gp, lam in read:
        assert_diagram_matches_reference(gp, lam)


@pytest.mark.parametrize(
    "pattern, config, reads",
    # Q(12) with the premise report of Q(8) that its excise move runs
    [((12,), Q12_MOVES, 5138), ((-1, 9), MoveConfig(), 1161)],
    ids=["Q(12)-q12-moves", "Q(-1,9)-defaults"],
)
def test_class_frames_match_cold_calls_and_the_reference_in_any_order(monkeypatch, pattern, config, reads):
    read, upper = vperm_pass_reads(pattern, config)
    assert (len(read), upper) == (reads, 2)
    expected = []
    for gp, lam in read:
        clear_readings(monkeypatch)
        expected.append(vperm_outcome(vertical_permutation, gp, lam))
        assert expected[-1] == vperm_outcome(reference_vertical_permutation, gp, lam)
    # class-major (the pass's own order), lambda-major (the k-th vector of
    # every class, then the next) and shuffled; every third read goes to an
    # equal-rows copy, and every seventh is followed by bad lengths for the
    # object just read.  A reading of the object read last keeps its frame,
    # and any other object, an equal-rows copy too, gets a new one
    rank, seen = [], Counter()
    for gp, _ in read:
        rank.append(seen[id(gp)])
        seen[id(gp)] += 1
    class_major = list(range(len(read)))
    lambda_major = sorted(class_major, key=rank.__getitem__)
    shuffled = random.Random(79).sample(class_major, len(read))
    twins: dict = {}
    kept = Counter()
    for order in (class_major, lambda_major, shuffled):
        clear_readings(monkeypatch)
        last = frame = None
        for step, t in enumerate(order):
            gp, lam = read[t]
            if step % 3 == 1:
                gp = twins.setdefault(id(gp), GeneralizedPermutation.from_rows(gp.top, gp.bottom))
            assert vperm_outcome(vertical_permutation, gp, lam) == expected[t], (gp.render(), lam)
            last_gp, _, geo = suspension._last
            assert last_gp is gp and (geo.frame is frame) == (gp is last)
            kept[gp is last, gp.rows() == (last.rows() if last else None)] += 1
            last, frame = gp, geo.frame
            if step % 7 == 3:
                for bad in invalid_lengths(gp, lam):
                    with pytest.raises(Infeasible):
                        vertical_permutation(gp, bad)
    assert len(twins) == len(seen)
    # frames kept, and new frames for the equal-rows copies and for other classes
    assert min(kept[True, True], kept[False, True], kept[False, False]) > 100, kept


def test_the_decomposition_holds_the_spectrum_of_its_reading(monkeypatch):
    for i, (_, gp, lam) in enumerate(seeded_cylinder_corpus()):
        clear_readings(monkeypatch)
        if i % 2:
            dec = cylinder_decomposition(gp, lam)
            spectrum = separatrix_spectrum(gp, lam)
        else:
            spectrum = separatrix_spectrum(gp, lam)
            dec = cylinder_decomposition(gp, list(lam))
        assert dec.spectrum is spectrum
        # a cold reading builds an equal one
        clear_readings(monkeypatch)
        cold = separatrix_spectrum(gp, lam)
        assert cold == spectrum and cold is not spectrum


@pytest.mark.parametrize("c", [10**3, 10**6])
def test_flat_diagram_matches_the_reference_at_scale(c):
    gp = GP(EXAMPLE_14)
    assert_diagram_matches_reference(gp, (c,) * gp.num_letters)


def test_every_side_passage_is_one_step_of_the_junction_turn():
    # a side passes each cone point from one germ to the next around it, either way
    passages = 0
    for gp, lam in [(gp, lam) for _, gp, lam in seeded_cylinder_corpus()] + list(reference_pairs()):
        turn = junction_turn(gp.pairing(), len(gp.top))
        for cylinder in cylinder_decomposition(gp, lam).cylinders:
            for side in cylinder.sides:
                for g_in, g_out in side.passages:
                    assert turn[g_in] == g_out or turn[g_out] == g_in, (gp.render(), lam, side)
                    passages += 1
    assert passages > 1000


def test_only_the_cylinder_readings_turn_germs(monkeypatch):
    # strata.junction_turn wherever it is bound, by binding and by the pairing it turns
    turned = []

    def counted(binding):
        def turn(pair, r):
            turned.append((binding, tuple(pair)))
            return junction_turn(pair, r)
        return turn

    monkeypatch.setattr(strata, "junction_turn", counted("strata"))
    monkeypatch.setattr(suspension, "junction_turn", counted("suspension"))
    readings = (separatrix_spectrum, cylinder_decomposition, vertical_permutation, build_cover)
    angles = 0
    for gp, lam in itertools.islice(reference_pairs(), 40):
        own = gp.pairing()
        # each reading on its own equal-rows copy, so none finds a turn another
        # built, then all on one object, where the decomposition builds its class
        # frame's turn and the re-reading reads it; the spectrum turns nothing and
        # the decomposition exactly once through any binding, while the re-reading
        # and the cover's genus check also turn other pairings through strata's
        twins = [GeneralizedPermutation.from_rows(gp.top, gp.bottom) for _ in readings]
        for objects, frame_turns in ((twins, [0, 1, 1, 0]), ([gp] * len(readings), [0, 1, 0, 0])):
            frames, every = [], []
            for reading, g in zip(readings, objects):
                turned.clear()
                with contextlib.suppress(NotSingleCylinder):
                    reading(g, lam)
                frames.append(turned.count(("suspension", own)))
                every.append(len(turned))
            assert frames == frame_turns and every[:2] == [0, 1], (frames, every)
        # the angle of a simple cylinder reads the turn of the one-object round's frame
        turned.clear()
        for cylinder in cylinder_decomposition(gp, lam).cylinders:
            if cylinder.simple:
                with contextlib.suppress(NotSimple):
                    simple_cylinder_angle(gp, lam, cylinder)
                    angles += 1
        assert turned == [], turned
    assert angles


@pytest.mark.parametrize("c", [3, 10**6])
def test_scaled_lengths_scale_only_the_widths(c):
    example = GP(EXAMPLE_14)
    for gp, lam in [(example, all_ones(example))] + list(reference_pairs()):
        big = tuple(c * v for v in lam)
        dec, big_dec = cylinder_decomposition(gp, lam), cylinder_decomposition(gp, big)
        assert big_dec.spectrum == separatrix_spectrum(gp, big) == SeparatrixSpectrum(tuple(
            Segment(s.germs, s.crossings, tuple(c * x for x in s.lines), s.is_gamma) for s in dec.spectrum.segments
        ))
        assert big_dec == CylinderDecomposition(tuple(
            Cylinder(tuple(c * x for x in cyl.arcs), c * cyl.width, cyl.circumference, cyl.simple, cyl.sides)
            for cyl in dec.cylinders
        ), big_dec.spectrum, c * dec.total_width)
        assert vperm_outcome(vertical_permutation, gp, big) == vperm_outcome(vertical_permutation, gp, lam)


def test_decomposition_memory_does_not_grow_with_the_lengths():
    gp = GP(EXAMPLE_14)
    tracemalloc.start()
    try:
        dec = cylinder_decomposition(gp, (10**5,) * gp.num_letters)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(c.width, c.circumference) for c in dec.cylinders] == [(10**5, 1), (10**5, 6)]
    assert peak < 10**6, peak


def test_arc_cylinders_match_reference_on_q12_classes():
    # one lambda per class, cycling through the seeds of the q12 config at its bound
    single = 0
    for i, gp in enumerate(enumerate_stratum((12,))):
        single += assert_cylinders_match_reference(gp, sample_admissible(gp, seed=1 + i % 6, bound=8))
    assert (i, single) == (724, 277)


# -- integer cover reader against the tuple-keyed reference --------------------
#
# The decoder as it was before the integer rewrite, kept verbatim as the
# oracle: vertices from a union-find over square corners, boundary edges
# keyed ("t", q) / ("b", q) and letters from a frozenset table.


def reference_cover_vertices(cover: SquareTiledCover) -> tuple[list[int], dict[int, int]]:
    """Corner count per vertex of the square complex.

    Vertices are represented by the square whose lower-left corner sits
    there (after folding the other three corner types in); a vertex is
    regular exactly when four quadrant corners meet (angle 2*pi).
    Returns (corner counts, root per square-representative).
    """
    n = cover.n
    r, u = cover.right, cover.up
    uf = _UnionFind(n)
    for q in range(n):
        uf.union(u[r[q]], r[u[q]])  # the two routes to the NE corner agree
    counts = [0] * n
    for q in range(n):
        for rep in (q, r[q], u[q], u[r[q]]):
            counts[uf.find(rep)] += 1
    roots = {q: uf.find(q) for q in range(n)}
    return counts, roots


def reference_decode_one_cylinder(cover: SquareTiledCover) -> GeneralizedPermutation | None:
    """Read a one-cylinder base presentation off a square-tiled cover.

    Returns the generalized permutation of the quotient surface when the
    horizontal foliation of the base is a single cylinder presented by a
    deck-swapped pair of cover cylinders; None when the shape does not
    decode (several base cylinders, or a deck-invariant cover cylinder).
    Boundary intervals are maximal runs of unit edges between cover
    singularities, so the reading carries no marked points.
    """
    if not cover.connected:
        return None
    n = cover.n
    r, u, deck = cover.right, cover.up, cover.deck
    counts, roots = reference_cover_vertices(cover)
    # deck maps the lower-left corner of q to the upper-right of deck(q)
    deck_vertex = {roots[q]: roots[u[r[deck[q]]]] for q in range(n)}

    def vertex_singular(rep: int) -> bool:
        # singular downstairs: cone angle above 2*pi, or a branch point
        # (a pole's lift is a deck-fixed regular-looking vertex)
        root = roots[rep]
        return counts[root] != 4 or deck_vertex[root] == root

    # rows: cycles of right
    row_of = [-1] * n
    rows: list[list[int]] = []
    for q in range(n):
        if row_of[q] >= 0:
            continue
        row = []
        cur = q
        while row_of[cur] < 0:
            row_of[cur] = len(rows)
            row.append(cur)
            cur = r[cur]
        rows.append(row)

    def gap_above_singular(row: list[int]) -> bool:
        # the gap carries the NW/NE corners of the row, i.e. SW of the ups
        return any(vertex_singular(u[q]) for q in row)

    def gap_below_singular(row: list[int]) -> bool:
        return any(vertex_singular(q) for q in row)

    uf = _UnionFind(len(rows))
    for idx, row in enumerate(rows):
        if not gap_above_singular(row):
            uf.union(idx, row_of[u[row[0]]])
    cylinders: dict[int, list[int]] = {}
    for idx in range(len(rows)):
        cylinders.setdefault(uf.find(idx), []).append(idx)
    if len(cylinders) != 2:
        return None
    ka, kb = sorted(cylinders)
    probe = rows[cylinders[ka][0]][0]
    if uf.find(row_of[deck[probe]]) != kb:
        return None  # deck-invariant cover cylinder: not handled
    rows_k = cylinders[ka]
    tops = [i for i in rows_k if gap_above_singular(rows[i])]
    bottoms = [i for i in rows_k if gap_below_singular(rows[i])]
    assert len(tops) == 1 and len(bottoms) == 1, "cylinder with torn boundary"
    top_row, bottom_row = rows[tops[0]], rows[bottoms[0]]

    # unit edges: ("t", q) above top-row squares, ("b", q) below bottom-row
    in_k = {q for i in rows_k for q in rows[i]}
    partner: dict[tuple[str, int], tuple[str, int]] = {}

    def set_pair(e1, e2):
        partner[e1] = e2
        partner[e2] = e1

    for q in top_row:
        up_q = u[q]
        if up_q in in_k:
            set_pair(("t", q), ("b", up_q))
        else:
            set_pair(("t", q), ("t", deck[up_q]))
    u_inv = _inv(u)
    for q in bottom_row:
        dn = u_inv[q]
        if dn in in_k:
            set_pair(("b", q), ("t", dn))
        else:
            set_pair(("b", q), ("b", deck[dn]))

    # intervals: maximal runs of unit edges between singular junctions
    def circle_intervals(row: list[int], side: str) -> list[list[tuple[str, int]]]:
        def left_junction_singular(q: int) -> bool:
            return vertex_singular(u[q] if side == "t" else q)

        starts = [i for i, q in enumerate(row) if left_junction_singular(q)]
        assert starts, "boundary circle without singular point"
        runs: list[list[tuple[str, int]]] = []
        for si, start in enumerate(starts):
            stop = starts[(si + 1) % len(starts)]
            run = []
            i = start
            while True:
                run.append((side, row[i]))
                i = (i + 1) % len(row)
                if i == stop:
                    break
            runs.append(run)
        return runs

    top_runs = circle_intervals(top_row, "t")
    bottom_runs = circle_intervals(bottom_row, "b")
    run_of: dict[tuple[str, int], int] = {}
    for idx, run in enumerate(top_runs + bottom_runs):
        for e in run:
            run_of[e] = idx
    letters: dict[frozenset, int] = {}
    for idx, run in enumerate(top_runs + bottom_runs):
        mate = run_of[partner[run[0]]]
        mates = {run_of[partner[e]] for e in run}
        assert mates == {mate}, "interval does not glue to one interval"
        key = frozenset((idx, mate))
        letters.setdefault(key, len(letters) + 1)
    top_word = [letters[frozenset((i, run_of[partner[run[0]]]))] for i, run in enumerate(top_runs)]
    bottom_word = [
        letters[frozenset((len(top_runs) + i, run_of[partner[run[0]]]))]
        for i, run in enumerate(bottom_runs)
    ]
    return GeneralizedPermutation.from_rows(top_word, bottom_word)


def seeded_orbit_forms(count: int = 100, cap: int = 50):
    """Up to ``cap`` forms of the orbit of each of ``count`` seeded connected covers."""
    rng = random.Random(59)
    while count:
        cover = random_cover(rng)
        if not cover.connected:
            continue
        count -= 1
        for _, _, form, _ in itertools.islice(orbit_forms(cover), cap):
            yield form


def test_decode_matches_tuple_keyed_reference():
    # seeded orbit prefixes, then the first 200 forms of two orbits of each width 7..13
    width_forms = (form for cover in width_covers(0) for _, _, form, _ in itertools.islice(orbit_forms(cover), 200))
    for forms in (seeded_orbit_forms(), width_forms):
        outcomes = {True: 0, False: 0}
        for form in forms:
            got, want = decode_one_cylinder(form), reference_decode_one_cylinder(form)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.rows() == want.rows()
            outcomes[got is None] += 1
        assert outcomes[True] >= 100 and outcomes[False] >= 100


def chained_cylinders(cover: SquareTiledCover) -> list[int]:
    """Cover cylinder of each square, read without the decoder.

    Rows are the cycles of right; a row joins the row above it unless a
    point of the gap between them lies over a base singularity: a cone
    angle other than 2*pi, or a deck-fixed point (the lift of a pole).
    """
    right, up, deck = cover.right, cover.up, cover.deck
    right_inv, up_inv = _inv(right), _inv(up)
    # the lower-left corners met turning once around a point: q, then the
    # squares west, south-west and south of it, then q again
    corner, turns = cycles([up[right[up_inv[right_inv[q]]]] for q in range(cover.n)])
    # deck maps the lower-left corner of q to the upper-right of deck(q)
    over_singular = [len(turns[corner[q]]) != 1 or corner[right[up[deck[q]]]] == corner[q] for q in range(cover.n)]
    row_of, rows = cycles(right)
    merger = _UnionFind(len(rows))
    for i, row in enumerate(rows):
        if not any(over_singular[up[q]] for q in row):
            assert len({row_of[up[q]] for q in row}) == 1, "a regular gap tops one row"
            merger.union(i, row_of[up[row[0]]])
    return [merger.find(row_of[q]) for q in range(cover.n)]


def test_deck_swaps_the_two_lifts_of_every_base_cylinder():
    # the invariant decode_one_cylinder asserts: a base cylinder's core curve
    # has holonomy +1, so its preimage is two cylinders that deck swaps
    forms = 0
    for p in range(2, 11, 2):
        for r in range(p // 2, p):  # every class with p <= 10 once under row swap
            for gp in enumerate_type(r, p - r):
                for _, _, cover, word in itertools.islice(orbit_forms(build_cover(gp, minimal_admissible(gp))), 60):
                    cylinder = chained_cylinders(cover)
                    assert all(cylinder[deck] != c for c, deck in zip(cylinder, cover.deck)), (gp.render(), word)
                    forms += 1
    assert forms == 2887

def test_corner_turn_vertices_match_union_find():
    rng = random.Random(61)
    covers = list(seeded_orbit_forms(count=20, cap=10)) + [random_cover(rng) for _ in range(20)]
    assert not all(cover.connected for cover in covers)
    for cover in covers:
        counts, roots = reference_cover_vertices(cover)
        vertex, lengths = cover._vertices
        # the two labellings induce the same partition of the squares
        assert len({(roots[q], vertex[q]) for q in range(cover.n)}) == len(lengths) == len(set(roots.values()))
        assert all(counts[roots[q]] == 4 * lengths[vertex[q]] for q in range(cover.n))
        assert cover.vertex_profile() == tuple(sorted(lengths, reverse=True))


def reference_corner_turn(cover: SquareTiledCover) -> tuple[list[int], list[int]]:
    """Vertices as the corner turn read them before it was cached: three compositions, fresh inverses."""
    mul = suspension._mul
    vertex, turns = strata.cycles(mul(mul(cover.right, cover.up), mul(_inv(cover.right), _inv(cover.up))))
    return vertex, [len(c) for c in turns]


def test_cached_vertices_match_the_corner_turn_and_decode_alike():
    cover_forms = (form for cover in width_covers(0) for _, _, form, _ in itertools.islice(orbit_forms(cover), 200))
    for form in itertools.chain(seeded_orbit_forms(), cover_forms):
        assert form._vertices == reference_corner_turn(form)
    decoded = 0
    for _, gp, lam in seeded_cylinder_corpus():
        cover = build_cover(gp, lam)
        fresh = SquareTiledCover(cover.right, cover.up, cover.deck, cover.connected)
        # the genus check of a connected cover caches its vertices; an equal cover built fresh has none
        assert ("_vertices" in vars(cover)) == cover.connected and "_vertices" not in vars(fresh)
        got, want = decode_one_cylinder(cover), decode_one_cylinder(fresh)
        assert (got and got.rows()) == (want and want.rows())
        assert cover._vertices == fresh._vertices == reference_corner_turn(cover)
        decoded += got is not None
    assert decoded > 300, decoded


# -- orbit walk, cover key and cover check against the code they replaced -----


def reference_orbit_forms(start: SquareTiledCover):
    """The breadth-first orbit walk before it skipped S-images of S-images, kept verbatim."""
    key = start.canonical_key()
    yield 0, key, start, ""
    seen = {key}
    frontier = [(start, "")]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for cover, word in frontier:
            for image, letter in ((cover.apply_T(), "T"), (cover.apply_S(), "S")):
                key = image.canonical_key()
                if key not in seen:
                    seen.add(key)
                    nxt.append((image, word + letter))
                    yield depth, key, image, word + letter
        frontier = nxt


def pruned_cover_key(self) -> tuple:
    """The depth-first pruned cover key the lockstep search replaced, kept verbatim.

    It jumps between components as canonical_key does, so it is the
    oracle on disconnected covers, where reference_cover_key jumps to the
    least unlabeled square instead.
    """
    n = self.n
    right, up, deck = self.right, self.up, self.deck
    gens = (right, up, _inv(right), _inv(up))
    best_right: list[int] | None = None
    best_order: list[int] = []
    best_label: list[int] = []
    best_up: list[int] | None = None  # built only when a right row ties
    for start in range(n):
        label = [-1] * n
        label[start] = 0
        order = [start]
        row: list[int] = []
        smaller = best_right is None
        for i in range(n):
            if i == len(order):  # disconnected cover: jump to the other sheet
                s = deck[start] if label[deck[start]] < 0 else label.index(-1)
                label[s] = i
                order.append(s)
            cur = order[i]
            for g in gens:
                t = g[cur]
                if label[t] < 0:
                    label[t] = len(order)
                    order.append(t)
            v = label[right[cur]]
            if not smaller:
                b = best_right[i]
                if v > b:
                    break
                smaller = v < b
            row.append(v)
        else:
            if not smaller:  # the right rows tie: compare up, then deck
                if best_up is None:
                    best_up = [best_label[up[q]] for q in best_order]
                up_row = [label[up[q]] for q in order]
                if up_row > best_up:
                    continue
                if up_row == best_up:
                    deck_row = [label[deck[q]] for q in order]
                    if deck_row >= [best_label[deck[q]] for q in best_order]:
                        continue
                best_up = up_row
            else:
                best_up = None
            best_right, best_order, best_label = row, order, label
    return (
        tuple(best_right),
        tuple(best_label[up[q]] for q in best_order),
        tuple(best_label[deck[q]] for q in best_order),
    )


def width_covers(seed: int, widths=range(7, 14), per_width: int = 2):
    """Covers over the minimal admissible vectors of seeded permutations, per_width of each width."""
    rng = random.Random(seed)
    for w in widths:
        found = 0
        while found < per_width:
            gp = random_gp(rng, 8)
            lam = minimal_admissible(gp)
            if sum(lam[x - 1] for x in gp.top) == w:
                found += 1
                yield build_cover(gp, lam)


def shuffled(cover: SquareTiledCover, rng) -> SquareTiledCover:
    p = list(range(cover.n))
    rng.shuffle(p)
    return relabeled(cover, p)


def disconnected_covers():
    """Abelian covers, whose deck swaps the two sheets, and unions of connected covers, whose deck does not."""
    rng = random.Random(67)
    pillow, figure = build_cover(GP("1 1 / 2 2"), (1, 1)), build_cover(GP("1 1 2 / 3 2 3"), (2, 1, 2))
    abelian = build_cover(GP("1 2 3 4 / 2 4 1 3"), (1, 1, 1, 1))
    covers = [abelian, shuffled(abelian, rng), shuffled(disjoint_union(pillow, figure), rng),
              shuffled(disjoint_union(figure, figure.apply_T()), rng),
              shuffled(disjoint_union(build_cover(GP("1 2 / 2 1"), (1, 2)), pillow), rng)]
    assert [c.components() for c in covers] == [2, 2, 2, 2, 3]
    assert [c.components(deck=True) for c in covers] == [1, 1, 2, 2, 2]
    return covers


def walk(forms, cap=None):
    return [(depth, key, word) for depth, key, _, word in itertools.islice(forms, cap)]


def test_orbit_walk_matches_the_reference_prefix_on_every_width():
    # a cap of 200 as in sl2z_orbit: the first 201 forms fix the prefix and the truncation flag
    truncated = 0
    for cover in width_covers(71):
        got = walk(orbit_forms(cover), 201)
        assert got == walk(reference_orbit_forms(cover), 201)
        truncated += len(got) == 201
    assert truncated >= 10


def test_complete_orbits_match_the_reference():
    # widths 7 and 8 still have orbits small enough to close
    closed = []
    for cover in width_covers(61, widths=(7, 8), per_width=6):
        got = walk(orbit_forms(cover), 2001)
        if len(got) <= 2000:
            assert got == walk(reference_orbit_forms(cover))
            closed.append(len(got))
    assert len(closed) >= 6 and max(closed) > 1000
    for cover in disconnected_covers():
        assert walk(orbit_forms(cover)) == walk(reference_orbit_forms(cover))


def test_s_image_of_an_s_image_repeats_its_grandparent_key():
    # the identity the walk's skip rests on, and where it fails: a union whose
    # deck keeps each component reads square labels in its key
    rng = random.Random(73)
    for cover in list(width_covers(79, per_width=1)) + disconnected_covers()[:2]:
        for _ in range(3):
            form = shuffled(cover, rng)
            assert form.apply_S().apply_S().canonical_key() == form.canonical_key()
    union = disconnected_covers()[2]
    forms = [form for _, _, form, _ in itertools.islice(orbit_forms(union), 60)]
    assert any(form.apply_S().apply_S().canonical_key() != form.canonical_key() for form in forms)


def test_lockstep_key_matches_both_searches_on_orbit_forms():
    for cover in width_covers(83, per_width=1):
        for _, key, form, _ in itertools.islice(orbit_forms(cover), 0, 120, 6):
            assert key == reference_cover_key(form) == pruned_cover_key(form) == lockstep_cover_key(form)


def test_lockstep_key_matches_the_pruned_search_on_disconnected_covers():
    rng = random.Random(89)
    for cover in disconnected_covers():
        for _, key, form, _ in itertools.islice(orbit_forms(cover), 40):
            assert key == pruned_cover_key(form) == lockstep_cover_key(form)
            other = shuffled(form, rng)
            assert other.canonical_key() == pruned_cover_key(other) == lockstep_cover_key(other)


def lockstep_cover_key(self) -> tuple:
    """The lockstep cover key before it settled entries 0 and 1 up front, kept verbatim.

    Every start square gets a label list and walks from step 0; the
    starts at the least entry of each step stay live.
    """
    n = self.n
    right, up, deck = self.right, self.up, self.deck
    right_inv, up_inv = _inv(right), _inv(up)
    live = [(start, [-1] * n, [start]) for start in range(n)]  # (start, label, order) still at the minimum
    for start, label, _ in live:
        label[start] = 0
    row = []
    for i in range(n):
        best = n
        survivors = []
        for walk in live:
            start, label, order = walk
            if i == len(order):  # disconnected cover: jump to the other sheet
                s = deck[start] if label[deck[start]] < 0 else label.index(-1)
                label[s] = i
                order.append(s)
            cur = order[i]
            # the four generators unrolled; the right neighbour's label is entry i
            t = right[cur]
            v = label[t]
            if v < 0:
                v = label[t] = len(order)
                order.append(t)
            t = up[cur]
            if label[t] < 0:
                label[t] = len(order)
                order.append(t)
            t = right_inv[cur]
            if label[t] < 0:
                label[t] = len(order)
                order.append(t)
            t = up_inv[cur]
            if label[t] < 0:
                label[t] = len(order)
                order.append(t)
            if v < best:
                best, survivors = v, [walk]
            elif v == best:
                survivors.append(walk)
        row.append(best)
        live = survivors
    up_row, deck_row = min(
        ([label[up[q]] for q in order], [label[deck[q]] for q in order]) for _, label, order in live
    )
    return tuple(row), tuple(up_row), tuple(deck_row)


def doubled(right: Sequence[int], up: Sequence[int]) -> SquareTiledCover:
    """Two copies of the square-tiled surface (right, up), the second with both inverted, swapped by deck."""
    m = len(right)
    return SquareTiledCover(
        tuple(right) + tuple(m + q for q in _inv(right)),
        tuple(up) + tuple(m + q for q in _inv(up)),
        (*range(m, 2 * m), *range(m)),
        False,
    )


def prefix_case(cover: SquareTiledCover) -> int:
    """Which case of the cover key's entry 0 and 1 count settles the least (entry 0, entry 1).

    Read off the first two steps of every start's breadth-first walk, not
    off the count: 1 when some entry 0 is 0 (a fixed point of right),
    2 when some entry 1 is 0 (a 2-cycle), 3 when some entry 1 is 2, else 4.
    """
    gens = (cover.right, cover.up, _inv(cover.right), _inv(cover.up))
    prefixes = []
    for start in range(cover.n):
        label, order = {start: 0}, [start]
        for i in range(2):
            if i == len(order):  # a square that right and up both fix
                break
            for g in gens:
                t = g[order[i]]
                if t not in label:
                    label[t] = len(order)
                    order.append(t)
        prefixes.append(tuple(label[cover.right[q]] for q in order[:2]))
    least = min(prefixes)
    return 1 if least[0] == 0 else 2 if least[1] == 0 else 3 if least[1] == 2 else 4


# (case, right, up): small square-tiled surfaces whose doubled covers reach
# each case of the count, both ways of entry 1 = 2 among them
PREFIX_SURFACES = [
    (1, (0, 2, 1), (1, 2, 0)),  # right fixes 0
    (2, (1, 0, 3, 4, 2), (2, 3, 4, 0, 1)),  # right swaps 0 and 1 and fixes nothing
    (3, (1, 2, 0), (2, 0, 1)),  # up s is right^2 s everywhere
    (3, (1, 2, 0, 4, 5, 3), (0, 4, 2, 5, 1, 3)),  # up s is s at 0 and 2, right s at 5, right^2 s at 3
    (3, (1, 2, 0, 4, 5, 6, 3), (0, 3, 6, 5, 2, 1, 4)),  # up 0 is 0; up s is right^2 s at 3 and 6
    (3, (1, 2, 0, 4, 5, 6, 7, 3), (1, 3, 5, 4, 2, 7, 0, 6)),  # up 0 is right 0; up 5 is right^2 5
    (4, (1, 2, 3, 0), (0, 1, 2, 3)),  # every start ties at entry 1 = 3
    (4, (1, 2, 3, 0, 5, 6, 7, 8, 4), (0, 5, 7, 4, 3, 8, 1, 2, 6)),
]


def test_prefix_surfaces_reach_every_case():
    for case, right, up in PREFIX_SURFACES:
        cover = doubled(right, up)
        cover.check()
        assert prefix_case(cover) == case
        assert cover.canonical_key() == lockstep_cover_key(cover) == pruned_cover_key(cover)
    assert {case for case, _, _ in PREFIX_SURFACES} == {1, 2, 3, 4}


def seeded_surfaces(rng, count: int):
    """Random (right, up) pairs on 3 to 8 squares; nothing keeps them connected, so the doubled covers may jump."""
    for _ in range(count):
        m = rng.randint(3, 8)
        right, up = list(range(m)), list(range(m))
        rng.shuffle(right)
        rng.shuffle(up)
        yield right, up


def test_settled_key_matches_both_earlier_keys_in_every_case():
    rng = random.Random(103)
    cases = Counter()
    forms = [form for cover in width_covers(107, per_width=1) for _, _, form, _ in itertools.islice(orbit_forms(cover), 60)]
    forms += [form for cover in disconnected_covers() for _, _, form, _ in itertools.islice(orbit_forms(cover), 30)]
    surfaces = [(right, up) for _, right, up in PREFIX_SURFACES] + list(seeded_surfaces(rng, 300))
    forms += [doubled(right, up) for right, up in surfaces]
    for form in forms:
        case = prefix_case(form)
        for cover in (form, shuffled(form, rng), shuffled(form, rng)):
            assert cover.canonical_key() == lockstep_cover_key(cover) == pruned_cover_key(cover), case
        cases[case] += 1
    assert min(cases[c] for c in (1, 2, 3, 4)) >= 20, cases


def test_cover_key_gives_label_lists_only_to_tied_starts():
    # 4,200 squares; a label list for every start would take ~140 MB
    gp = GP(EXAMPLE_14)
    cover = build_cover(gp, (300,) * gp.num_letters)
    assert cover.n == 4200
    tracemalloc.start()
    try:
        key = cover.canonical_key()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(key[0]) == cover.n
    assert peak < 40 * 10**6, peak


def _reference_mul(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def reference_check(self) -> None:
    """SquareTiledCover.check before it became one loop, kept verbatim."""
    n = self.n
    assert sorted(self.right) == list(range(n))
    assert sorted(self.up) == list(range(n))
    for i in range(n):
        assert self.deck[self.deck[i]] == i and self.deck[i] != i
    ri, ui = _inv(self.right), _inv(self.up)
    assert _reference_mul(self.deck, _reference_mul(self.right, self.deck)) == ri
    assert _reference_mul(self.deck, _reference_mul(self.up, self.deck)) == ui


def broken_covers(cover: SquareTiledCover, rng):
    """The cover, then copies with one invariant of check() broken each."""
    n = cover.n
    a, b = rng.sample(range(n), 2)
    c = next(q for q in range(n) if q not in (a, cover.deck[a]))
    a2, c2 = cover.deck[a], cover.deck[c]

    def edit(field, changes, extra=()):
        rows = {"right": list(cover.right), "up": list(cover.up), "deck": list(cover.deck)}
        for q, v in changes.items():
            rows[field][q] = v
        rows[field] += extra
        return SquareTiledCover(tuple(rows["right"]), tuple(rows["up"]), tuple(rows["deck"]), cover.connected)

    yield "intact", cover
    for field in ("right", "up"):
        g = getattr(cover, field)
        yield field + " swap", edit(field, {a: g[b], b: g[a]})
        yield field + " repeat", edit(field, {a: g[b]})
        yield field + " out of range", edit(field, {a: n})
        yield field + " negative", edit(field, {a: -1})
    yield "up extra square", edit("up", {}, (0,))
    yield "deck extra square", edit("deck", {}, (0,))
    yield "deck fixed point", edit("deck", {a: a})
    yield "deck four-cycle", edit("deck", {a: c, c: a2, a2: c2, c2: a})
    yield "deck other pairing", edit("deck", {a: c, c: a, a2: c2, c2: a2})


def special_covers():
    """Covers that break one invariant only: a deck with fixed points that still reverses
    right and up, and a deck of order three with right.deck and up.deck involutions."""
    n = 6
    torus = SquareTiledCover(tuple((q + 1) % n for q in range(n)), tuple(range(n)), tuple(-q % n for q in range(n)), True)
    cycle = SquareTiledCover((2, 0, 1), (2, 0, 1), (1, 2, 0), True)
    return [("reflected torus", torus), ("deck three-cycle", cycle)]


def raises(check, cover) -> bool:
    try:
        check(cover)
    except (AssertionError, IndexError):
        return True
    return False


def test_one_pass_check_raises_exactly_when_the_reference_does():
    rng = random.Random(97)
    cases = list(special_covers())
    for _ in range(30):
        cases += broken_covers(random_cover(rng), rng)
    for cover in width_covers(101, per_width=1):
        cases += broken_covers(cover, rng)
    seen, caught = Counter(), Counter()
    for name, cover in cases:
        want = raises(reference_check, cover)
        assert raises(SquareTiledCover.check, cover) == want, name
        seen[name] += 1
        caught[name] += want
    assert caught["intact"] == 0
    # a swap or a new deck pairing may keep a conjugation; any other damage is always caught
    for name in seen:
        if name != "intact":
            assert caught[name] == seen[name] or ("swap" in name or "pairing" in name) and caught[name] > 0, name
