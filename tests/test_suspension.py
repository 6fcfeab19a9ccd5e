import itertools
import random

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
    gamma_mult_one_evidence,
    hyperelliptic_rep,
    irreducible_rep,
    minimal_admissible,
    sample_admissible,
    separatrix_spectrum,
    simple_cylinder_angle,
    singularity_pattern,
    sl2z_orbit,
    vertical_permutation,
)
from onecyl.acceptance import A1_TABLE
from onecyl.errors import BoundTooSmall, Infeasible, NotSimple, NotSingleCylinder
from onecyl.suspension import (
    SquareTiledCover,
    _inv,
    check_admissible,
    decode_one_cylinder,
    germ_sector_angles,
    lam_from_positions,
)

GP = GeneralizedPermutation.parse


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


def test_sample_admissible_deterministic_and_positive():
    gp = GP("1 2 3 4 3 5 4 / 6 6 1 5 2")
    lam1 = sample_admissible(gp, seed=1, bound=100)
    lam2 = sample_admissible(gp, seed=1, bound=100)
    assert lam1 == lam2
    assert all(v >= 1 for v in lam1)
    check_admissible(gp, lam1)


def test_all_ones_for_true_permutation_at_seed_zero():
    assert sample_admissible(GP("1 2 / 2 1"), seed=0) == (1, 1)


def test_bound_too_small():
    # one top-doubled letter against four bottom-doubled ones
    gp = GP("1 1 2 3 4 5 / 2 3 4 5 6 6 7 7 8 8 9 9")
    with pytest.raises(BoundTooSmall):
        sample_admissible(gp, seed=3, bound=1)


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
        assert spec.gamma().crossings == 1


def test_figure_spectrum_frozen():
    spec = separatrix_spectrum(GP("1 1 2 / 3 2 3"), (1, 1, 1))
    assert sorted((s.crossings, s.is_gamma) for s in spec.segments) == [
        (1, False),
        (1, False),
        (1, True),
    ]
    # companion lengths relative to the seam stay in {1, 2, 1/2}
    gamma = spec.gamma().crossings
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
        head = next(c for c in dec.cylinders if 0 in c.columns and c.circumference == 1)
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


def test_orbit_pillowcase_fixed_point():
    result = sl2z_orbit(GP("1 1 / 2 2"), (1, 1))
    assert len(result) == 1 and not result.truncated


def test_orbit_cap_truncates():
    gp = GP("5 3 5 2 4 / 1 2 1 3 4")
    result = sl2z_orbit(gp, all_ones(gp), cap=3)
    assert result.truncated and len(result) >= 3


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


def random_abelian_cover(rng):
    k = rng.randint(2, 5)
    bottom = list(range(1, k + 1))
    rng.shuffle(bottom)
    gp = GeneralizedPermutation.from_rows(list(range(1, k + 1)), bottom)
    return build_cover(gp, sample_admissible(gp, seed=rng.randint(0, 999), bound=3))


@pytest.mark.parametrize("text, size", [(A1_TABLE[0], 10), (A1_TABLE[1], 30)])
def test_cover_key_matches_reference_on_q8_orbits(text, size):
    gp = GP(text)
    forms = list(orbit_covers(gp, all_ones(gp)))
    assert len(forms) == size
    for key, cover in forms:
        assert cover.canonical_key() == reference_cover_key(cover) == key


def test_cover_key_matches_reference_on_sampled_covers():
    rng = random.Random(31)
    for _ in range(40):
        cover = random_cover(rng)
        for image in (cover, cover.apply_T(), cover.apply_S().apply_T().apply_T()):
            assert image.canonical_key() == reference_cover_key(image)


def test_cover_key_matches_reference_on_disconnected_covers():
    rng = random.Random(37)
    for _ in range(20):
        abelian = random_abelian_cover(rng)
        assert abelian.components() == 2
        for cover in (abelian, disjoint_union(abelian, random_cover(rng, 4, 2))):
            p = list(range(cover.n))
            rng.shuffle(p)
            shuffled = relabeled(cover, p)
            shuffled.check()
            # the jump to the least unlabeled square reads square labels,
            # so here the key depends on the labeling: compare each form
            for form in (cover, shuffled):
                assert form.canonical_key() == reference_cover_key(form)


def test_cover_key_matches_reference_on_pillowcase():
    cover = build_cover(GP("1 1 / 2 2"), (1, 1))
    assert cover.canonical_key() == reference_cover_key(cover)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cover_key_ignores_square_labels(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    cover = random_cover(rng)
    assume(cover.connected)  # a disconnected cover's key reads labels at the jumps
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


def test_germ_sector_angles_rejects_split_vertices():
    gp = GP("1 1 2 / 3 2 3")  # three singularities
    with pytest.raises(NotSimple):
        germ_sector_angles(gp, (("T", 0), ("B", 0)), (("T", 1), ("B", 1)))
