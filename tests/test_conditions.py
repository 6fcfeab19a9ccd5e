import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from onecyl import (
    GeneralizedPermutation,
    condition_star,
    hyperelliptic_rep,
    is_irreducible,
    red_condition,
    weak_reducibility,
)
from onecyl.classify import Excision, excisions
from onecyl.conditions import RedDecomposition, WeakSplit, check_red_decomposition, check_weak_split
from onecyl.errors import NotSimple
from onecyl.strata import cycles, junction_turn
from onecyl.suspension import junction_sector_angles

from word_pass import _letter_sequences

GP = GeneralizedPermutation.parse


def corpus(seed=41, n=80):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        k = rng.randint(2, 5)
        cells = [x for x in range(1, k + 1) for _ in range(2)]
        rng.shuffle(cells)
        r = rng.randint(1, 2 * k - 1)
        if cells[:r] and cells[r:]:
            out.append(GeneralizedPermutation.from_rows(cells[:r], cells[r:]))
    return out


def test_weak_reducibility_worked_example():
    w = weak_reducibility(GP("1 2 3 4 3 5 / 6 1 2 6 5 4"))
    assert w is not None
    assert (w.i0, w.j0) == (3, 9)


def test_weak_irreducible_representative():
    assert weak_reducibility(GP("0 1 2 3 4 0 / 1 4 5 3 5 2")) is None


def test_doubled_pair_is_weakly_reducible():
    assert weak_reducibility(GP("1 1 / 2 2")) is not None


def test_red_violated_with_printed_decomposition():
    d = red_condition(GP("1 2 2 3 3 1 / 0 0"))
    assert d is not None
    assert not d.swapped
    assert d.zero_cells == (0, 1)
    assert d.cuts == (1, 5)  # blocks (1), (2 2 3 3), (1) with empty lower lists


def test_red_satisfied_on_running_example():
    assert red_condition(GP("1 2 3 4 3 5 4 / 6 6 1 5 2")) is None


def test_red_rejects_pinned_offset_decompositions():
    # the four membership bullets alone would accept these; the zero
    # offset degenerates the forced trajectory onto the seam
    assert red_condition(GP("0 1 2 3 4 0 / 1 4 5 3 5 2")) is None
    assert is_irreducible(GP("0 1 2 3 4 0 / 1 4 5 3 5 2")).irreducible


def test_red_violation_realizes_short_companion():
    # frozen from the trace oracle: a generic vector once the doubled
    # letters order correctly gives a two-crossing separatrix
    gp = GP("1 2 2 1 / 0 0 3 3")
    assert weak_reducibility(gp) is None
    assert red_condition(gp) is not None
    from onecyl import separatrix_spectrum

    spec = separatrix_spectrum(gp, (1, 5, 4, 2))
    assert any(s.crossings == 2 for s in spec.non_gamma())


def test_condition_star():
    assert condition_star(hyperelliptic_rep("pi1", 1, 1))
    assert condition_star(GP("5 3 5 2 4 / 1 2 1 3 4"))
    assert not condition_star(GP("5 2 5 3 4 2 / 1 3 1 4"))


def test_is_irreducible_verdicts():
    assert is_irreducible(GP("0 1 2 3 4 0 / 1 4 5 3 5 2")).status == "irreducible"
    assert is_irreducible(GP("1 2 2 3 3 1 / 0 0")).status == "fails_red"
    assert is_irreducible(GP("1 1 / 2 2")).status == "fails_weak"


def test_witnesses_revalidate():
    for gp in corpus():
        w = weak_reducibility(gp)
        if w is not None:
            assert check_weak_split(gp, w)
        d = red_condition(gp)
        if d is not None:
            assert check_red_decomposition(gp, d)


def test_weak_irreducibility_implies_irreducibility_under_star():
    for gp in corpus(seed=43, n=120):
        if condition_star(gp) and weak_reducibility(gp) is None:
            assert is_irreducible(gp).irreducible, gp.render()


# -- oracle: the letter-row implementations the pairing kernels replaced ------
#
# Kept verbatim (renamed, and the reference excisions read the reference
# conditions): they read letters with dicts, sets, .count() and .index(),
# so they share no code with the position-pairing kernels under test.


def ref_oriented(gp: GeneralizedPermutation, swapped: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (gp.bottom, gp.top) if swapped else (gp.top, gp.bottom)


def ref_check_weak_split(gp: GeneralizedPermutation, w: WeakSplit) -> bool:
    """Re-validate a WeakSplit against the definition."""
    r, l = gp.type
    p = r + l
    if not (1 <= w.i0 < r and r + 1 <= w.j0 < p):
        return False
    pair = gp.pairing()
    i0 = w.i0  # 1-based counts double as 0-based prefix lengths
    j0 = w.j0
    if w.bullet == 1:
        return set(pair[0:i0]) == set(range(r, j0)) or set(pair[i0:r]) == set(range(j0, p))
    if w.bullet != 2:
        return False
    for pos in range(r):
        mate = pair[pos]
        if mate < r:
            a, b = (pos, mate) if pos < mate else (mate, pos)
            if not (a < i0 <= b):
                return False
        elif pos < i0 and mate >= j0:
            return False
    for pos in range(r, p):
        mate = pair[pos]
        if mate >= r:
            a, b = (pos, mate) if pos < mate else (mate, pos)
            if not (a < j0 <= b):
                return False
        elif pos < j0 and mate >= i0:
            return False
    return True


def ref_weak_reducibility(gp: GeneralizedPermutation) -> WeakSplit | None:
    """First weak-reducibility witness in lexicographic order, else None."""
    r, l = gp.type
    p = r + l
    for i0 in range(1, r):
        for j0 in range(r + 1, p):
            for bullet in (1, 2):
                w = WeakSplit(i0, j0, bullet)
                if ref_check_weak_split(gp, w):
                    return w
    return None


def ref_check_red_decomposition(gp: GeneralizedPermutation, d: RedDecomposition) -> bool:
    """Re-validate a Red violation.

    Block placement follows the length-balancing identity behind the
    condition: with the doubled letter's cells as pivots, every letter
    doubled in the cut row straddles the outer blocks or sits inside the
    middle one, every letter doubled in the pivot row (other than the
    pivot) straddles its outer sublists or sits between the pivots, and
    split letters pair outer-with-outer or middle-with-middle.  This
    refines the four textbook membership bullets (which alone admit
    decompositions without the forced length-two separatrix).
    """
    top, bottom = ref_oriented(gp, d.swapped)
    r, l = len(top), len(bottom)
    q1, q2 = d.zero_cells
    c1, c2 = d.cuts
    if not (0 <= q1 < q2 < l and 0 <= c1 <= c2 <= r):
        return False
    if bottom[q1] != d.zero_letter or bottom[q2] != d.zero_letter:
        return False

    def top_region(i: int) -> str:
        return "A1" if i < c1 else ("A2" if i < c2 else "A3")

    def bottom_region(j: int) -> str:
        if j == q1 or j == q2:
            return "Z"
        return "B1" if j < q1 else ("B2" if j < q2 else "B3")

    spots: dict[int, list[str]] = {}
    for i, letter in enumerate(top):
        spots.setdefault(letter, []).append(top_region(i))
    for j, letter in enumerate(bottom):
        spots.setdefault(letter, []).append(bottom_region(j))
    allowed = {
        ("A1", "A3"), ("A2", "A2"),          # doubled in the cut row
        ("B1", "B3"), ("B2", "B2"), ("Z", "Z"),  # doubled in the pivot row
        ("A1", "B1"), ("A2", "B2"), ("A3", "B3"),  # split letters
    }
    straddle = 0
    for regions in spots.values():
        a, b = sorted(regions)
        if (a, b) not in allowed:
            return False
        if (a, b) in (("A1", "A3"), ("B1", "B3")):
            straddle += 1
    # Without an outer straddler the offset of the forced trajectory is
    # pinned to zero and the "length-two separatrix" degenerates onto the
    # seam, so the decomposition certifies nothing.
    return straddle > 0


def ref_red_condition(gp: GeneralizedPermutation) -> RedDecomposition | None:
    """First Red-violating decomposition (up to row exchange), else None.

    Candidates are tried tightest middle block first, so the returned
    witness carries no slack in its cuts.
    """
    for swapped in (False, True):
        top, bottom = ref_oriented(gp, swapped)
        r = len(top)
        doubled = sorted({letter for letter in set(bottom) if bottom.count(letter) == 2})
        for z in doubled:
            q1 = bottom.index(z)
            q2 = bottom.index(z, q1 + 1)
            for width in range(r + 1):
                for c1 in range(r - width + 1):
                    d = RedDecomposition(swapped, z, (q1, q2), (c1, c1 + width))
                    if ref_check_red_decomposition(gp, d):
                        return d
    return None


def ref_head_rotations(gp: GeneralizedPermutation):
    r, l = gp.type
    if r < 2 or l < 2:
        return
    for a in range(r):
        for b in range(l):
            rot = gp.rotated(a, b)
            head = rot.top[0]
            if rot.bottom[0] != head:
                continue
            if rot.top.count(head) != 1 or rot.bottom.count(head) != 1:
                continue
            yield (a, b), rot


def ref_excisions(gp: GeneralizedPermutation) -> list[Excision]:
    """Every simple-cylinder excision over all head rotations.

    The strip over a shared head letter is a simple cylinder for every
    admissible vector, with boundary passages (T0 -> B0) and (T1 -> B1);
    its sector angle is purely combinatorial.
    """
    out = []
    for (a, b), rot in ref_head_rotations(gp):
        try:
            r = len(rot.top)
            s, comp = junction_sector_angles(*cycles(junction_turn(rot.pairing(), r)), (0, r), (1, r + 1))
        except NotSimple:
            continue
        restricted = rot.restrict()
        irreducible = ref_weak_reducibility(restricted) is None and ref_red_condition(restricted) is None
        out.append(Excision((a, b), restricted, s, comp, irreducible))
    return out


def split_words(max_cells=10):
    """Every split of every first-appearance word of at most max_cells cells."""
    for p in range(2, max_cells + 1, 2):
        for word, *_ in _letter_sequences(p):
            for r in range(1, p):
                yield GeneralizedPermutation.from_rows(word[:r], word[r:])


def shuffled_perms(seed=7, n=2000, max_letters=8):
    """Seeded random permutations of up to 16 cells, rotated or row-swapped,
    so their letter ids are not in first-appearance order."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        k = rng.randint(2, max_letters)
        cells = [x for x in range(1, k + 1) for _ in range(2)]
        rng.shuffle(cells)
        r = rng.randint(1, 2 * k - 1)
        gp = GeneralizedPermutation.from_rows(cells[:r], cells[r:])
        gp = gp.rotated(rng.randrange(r), rng.randrange(2 * k - r))
        if rng.random() < 0.5:
            gp = gp.swap_rows()
        if gp.rows() != GeneralizedPermutation.from_rows(*gp.rows()).rows():
            out.append(gp)
    return out


def test_searches_and_excisions_match_the_letter_row_oracle():
    for gp in [*split_words(), *shuffled_perms()]:
        assert weak_reducibility(gp) == ref_weak_reducibility(gp), gp.render()
        assert red_condition(gp) == ref_red_condition(gp), gp.render()
        assert excisions(gp) == ref_excisions(gp), gp.render()


def red_witnesses(gp, rng):
    """Red witnesses in and out of range: every one for at most 6 cells,
    otherwise 40 random ones; q1 < q2, but c1 > c2 is allowed."""
    for swapped in (False, True):
        top, bottom = (gp.bottom, gp.top) if swapped else gp.rows()
        r, l = len(top), len(bottom)
        if r + l <= 6:
            spots = [(q1, q2, c1, c2) for q1 in range(-1, l + 1) for q2 in range(q1 + 1, l + 2)
                     for c1 in range(-1, r + 2) for c2 in range(-1, r + 2)]
        else:
            spots = []
            for _ in range(20):
                q1 = rng.randint(-1, l)
                spots.append((q1, rng.randint(q1 + 1, l + 1), rng.randint(-1, r + 1), rng.randint(-1, r + 1)))
        for q1, q2, c1, c2 in spots:
            for z in {bottom[q1] if 0 <= q1 < l else 1, rng.randint(1, gp.num_letters)}:
                yield RedDecomposition(swapped, z, (q1, q2), (c1, c2))


def test_checks_match_the_oracle_on_arbitrary_witnesses():
    rng = random.Random(11)
    for gp in [*split_words(8), *shuffled_perms(seed=9, n=300)]:
        r, l = gp.type
        for i0 in range(r + 1):
            for j0 in range(r, r + l + 1):
                for bullet in range(4):
                    w = WeakSplit(i0, j0, bullet)
                    assert check_weak_split(gp, w) == ref_check_weak_split(gp, w), (gp.render(), w)
        for d in red_witnesses(gp, rng):
            assert check_red_decomposition(gp, d) == ref_check_red_decomposition(gp, d), (gp.render(), d)


@st.composite
def random_rows(draw, max_letters=8):
    """Rows of up to 16 cells, rotated and sometimes row-swapped, as in
    shuffled_perms."""
    k = draw(st.integers(2, max_letters))
    cells = draw(st.permutations([x for x in range(1, k + 1) for _ in range(2)]))
    r = draw(st.integers(1, 2 * k - 1))
    gp = GeneralizedPermutation.from_rows(cells[:r], cells[r:])
    gp = gp.rotated(draw(st.integers(0, r - 1)), draw(st.integers(0, 2 * k - r - 1)))
    return gp.swap_rows() if draw(st.booleans()) else gp


@settings(max_examples=300, deadline=None)
@given(random_rows())
def test_solved_searches_match_the_oracle(gp):
    w = weak_reducibility(gp)
    assert w == ref_weak_reducibility(gp)
    assert w is None or (check_weak_split(gp, w) and ref_check_weak_split(gp, w))
    d = red_condition(gp)
    assert d == ref_red_condition(gp)
    assert d is None or (check_red_decomposition(gp, d) and ref_check_red_decomposition(gp, d))


# sha256 over the reprs of (weak_reducibility, red_condition, is_irreducible)
# on every split of every word of at most 10 cells, then on shuffled_perms(),
# frozen from the searches that tried every cut
WITNESS_DIGEST = "f193a315fe18944e81732106b79021b5098678221566ae3aca9a6a928cd41a0e"


def test_witnesses_are_frozen():
    digest = hashlib.sha256()
    for gp in [*split_words(), *shuffled_perms()]:
        digest.update(repr((weak_reducibility(gp), red_condition(gp), is_irreducible(gp))).encode())
    assert digest.hexdigest() == WITNESS_DIGEST
