import random

import pytest

from onecyl import (
    CALIBRATED_SYM,
    DEFAULT_SYM,
    GeneralizedPermutation,
    SymmetryGroup,
    singularity_pattern,
)
from onecyl.errors import EmptyRow, LetterCountError, MalformedText, NotRestrictable
from onecyl import genperm
from onecyl.classify import insert_split_letter
from onecyl.genperm import position_pairing

GP = GeneralizedPermutation.parse

EXAMPLE = "1 2 3 4 3 5 4 / 6 6 1 5 2"  # the running two-row table


def random_gp(rng, max_letters=5):
    while True:
        k = rng.randint(2, max_letters)
        cells = [x for x in range(1, k + 1) for _ in range(2)]
        rng.shuffle(cells)
        r = rng.randint(1, 2 * k - 1)
        if cells[:r] and cells[r:]:
            return GeneralizedPermutation.from_rows(cells[:r], cells[r:])


def test_parse_example_type_and_letters():
    gp = GP(EXAMPLE)
    assert gp.type == (7, 5)
    assert gp.num_letters == 6
    assert not gp.is_abelian()


def test_parse_newline_rows():
    gp = GeneralizedPermutation.parse("1 2\n2 1")
    assert gp.type == (2, 2)
    assert gp.is_abelian()


def test_parse_slash_rows_around_newlines():
    for text in ("1 2 / 1 2\n", "\n1 2 / 1 2", "1 2\n/\n1 2"):
        assert GP(text).rows() == ((1, 2), (1, 2))


def test_parse_errors():
    with pytest.raises(LetterCountError):
        GP("1 1 / 2")
    with pytest.raises(MalformedText):
        GP("1 1 2 2")
    with pytest.raises(MalformedText):
        GP("1 / 1 / 1")
    with pytest.raises(EmptyRow):
        GeneralizedPermutation.from_tokens(["1"], [])
    with pytest.raises(EmptyRow):
        GeneralizedPermutation.from_rows([], [1, 1])


def test_integer_rows_need_each_letter_exactly_twice():
    for top, bottom in [((1, 1, 1, 1), (2, 2)), ((1, 2, 1), (3,)), ((1, 2, 2), (1, 3))]:
        with pytest.raises(LetterCountError):
            GeneralizedPermutation.from_rows(top, bottom)
        # the one place letters become a pairing
        with pytest.raises(LetterCountError):
            position_pairing(top + bottom)


def test_a_bad_letter_count_names_its_tokens_in_first_appearance_order():
    for text, bad in [("a b c / a c c d", "b, c, d"), ("x x / x x y y", "x"), ("7 7 3 / 3 9", "9")]:
        with pytest.raises(LetterCountError, match="^letters not appearing exactly twice: %s$" % bad):
            GP(text)


def test_keys_and_forms_read_the_cached_pairing(monkeypatch):
    gps = [GP(EXAMPLE), GP("7 7 3 / 3 9 9"), GeneralizedPermutation.from_rows((5, 3, 5, 2, 4), (1, 2, 1, 3, 4))]
    gps += [random_gp(random.Random(seed), max_letters=8) for seed in range(20)]
    built = []

    def counted(cells):
        built.append(tuple(cells))
        return position_pairing(cells)

    monkeypatch.setattr(genperm, "position_pairing", counted)
    for gp in gps:
        for sym in (DEFAULT_SYM, CALIBRATED_SYM, SymmetryGroup(True, True, True)):
            assert gp.canonical_form(sym).rows() == gp.canonical_key(sym)
    assert built == []


def test_render_round_trip():
    for text in [EXAMPLE, "1 1 / 2 2", "0_1 1 0_1 2 / 2 0_2 1 0_2"]:
        gp = GP(text)
        again = GeneralizedPermutation.parse(gp.render())
        assert again.rows() == gp.rows()
        assert again.names == gp.names


def test_render_canonicalized_tokens():
    gp = GP("7 7 3 / 3 9 9")
    assert gp.render() == "7 7 3 / 3 9 9"
    assert gp.canonical_form(DEFAULT_SYM).render() == "1 1 2 / 2 3 3"


def test_numbered_permutations_share_one_names_tuple_per_letter_count():
    rng = random.Random(11)
    by_count: dict = {}
    for _ in range(200):
        gp = random_gp(rng, 7)
        k = gp.num_letters
        assert gp.names == tuple(str(i) for i in range(1, k + 1))
        assert by_count.setdefault(k, gp.names) is gp.names
        assert GP(gp.render().replace("1", "x")).canonical_form(CALIBRATED_SYM).names is gp.names
    assert sorted(by_count) == list(range(2, 8))


def test_pairing_is_fixed_point_free_involution():
    rng = random.Random(7)
    for _ in range(50):
        gp = random_gp(rng)
        pair = gp.pairing()
        assert all(pair[pair[i]] == i and pair[i] != i for i in range(gp.size))


def test_is_abelian_examples():
    assert GP("1 2 / 2 1").is_abelian()
    assert not GP(EXAMPLE).is_abelian()
    from onecyl import hyperelliptic_rep

    assert not hyperelliptic_rep("pi1", 1, 1).is_abelian()


def test_rotations_count_and_membership():
    gp = GP(EXAMPLE)
    rots = list(gp.rotations())
    assert len(rots) == 7 * 5
    assert any(r.rows() == gp.rows() for r in rots)


def test_rotations_of_doubled_pair_all_equal():
    gp = GP("1 1 / 2 2")
    rots = list(gp.rotations())
    assert len(rots) == 4
    keys = {r.canonical_key(DEFAULT_SYM) for r in rots}
    assert len(keys) == 1


def test_section_3_4_pair_equivalent():
    other = GP("1 2 3 4 3 5 4 / 1 5 2 6 6")
    assert GP(EXAMPLE).equivalent(other, DEFAULT_SYM)


def test_canonical_form_idempotent():
    rng = random.Random(11)
    for _ in range(50):
        gp = random_gp(rng)
        for sym in (DEFAULT_SYM, CALIBRATED_SYM, SymmetryGroup(True, True, True)):
            canon = gp.canonical_form(sym)
            assert canon.canonical_form(sym).rows() == canon.rows()
            assert gp.equivalent(canon, sym)


def test_equivalence_relation_on_samples():
    rng = random.Random(13)
    for _ in range(20):
        gp = random_gp(rng)
        variant = gp.rotated(rng.randrange(len(gp.top)), rng.randrange(len(gp.bottom)))
        assert gp.equivalent(gp, DEFAULT_SYM)
        assert gp.equivalent(variant, DEFAULT_SYM)
        assert variant.equivalent(gp, DEFAULT_SYM)


def test_a1_table_has_four_distinct_canonical_forms_under_rotations():
    table = [
        "5 3 5 2 4 / 1 2 1 3 4",
        "5 4 5 2 3 / 1 2 1 3 4",
        "5 4 5 3 2 / 1 2 1 3 4",
        "5 3 5 3 4 / 1 2 1 2 4",
    ]
    keys = {GP(t).canonical_key(DEFAULT_SYM) for t in table}
    assert len(keys) == 4


def test_a1_a2_members_inequivalent():
    a1 = GP("5 3 5 2 4 / 1 2 1 3 4")
    a2 = GP("5 2 5 3 4 2 / 1 3 1 4")
    assert not a1.equivalent(a2, CALIBRATED_SYM)


def test_swap_rows_involutive():
    gp = GP("1 1 2 / 3 2 3")
    assert gp.swap_rows().render() == "3 2 3 / 1 1 2"
    assert gp.swap_rows().swap_rows().rows() == gp.rows()


def test_pattern_invariant_under_swap():
    rng = random.Random(17)
    for _ in range(50):
        gp = random_gp(rng)
        assert singularity_pattern(gp.swap_rows()).orders == singularity_pattern(gp).orders


def test_is_abelian_invariant_under_symmetries():
    rng = random.Random(19)
    for _ in range(30):
        gp = random_gp(rng)
        reversed_rows = GeneralizedPermutation.from_rows(gp.top[::-1], gp.bottom[::-1])
        for variant in (gp.swap_rows(), reversed_rows, gp.rotated(1, 1)):
            assert variant.is_abelian() == gp.is_abelian()


def test_restrict_examples():
    assert GP("0 1 2 / 0 2 1").restrict().render() == "1 2 / 2 1"
    sigma_prime = GP("3 4 5 6 5 1 2 / 3 7 2 6 1 4 7")
    hat = sigma_prime.restrict()
    assert hat.type == (6, 6)
    from onecyl import is_irreducible

    assert is_irreducible(hat).irreducible


def test_restrict_errors():
    with pytest.raises(NotRestrictable):
        GP("1 2 / 2 1").restrict()  # different head letters
    with pytest.raises(NotRestrictable):
        GP("0 / 0 1 1").restrict()  # would empty the top row


def test_restrict_after_prepend_is_identity():
    rng = random.Random(23)
    for _ in range(30):
        gp = random_gp(rng)
        assert insert_split_letter(gp, 0, 0).restrict().rows() == gp.rows()
