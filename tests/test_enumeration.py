"""Orderly enumeration against independent oracles.

* the letter-row ``canonical_key`` that preceded the shared orders table,
  kept verbatim as ``reference_canonical_key``, against the code-comparison
  key on every split of every word with p <= 10 and on random longer words;
* the sequential code-comparison key that preceded the lockstep walk, kept
  verbatim as ``sequential_canonical_key``, with the letter-row key against
  the lockstep key on hyperelliptic representatives up to (20, 20) and on
  seeded words of 12 to 16 cells;
* a hypothesis property: the key ignores each enabled symmetry generator
  and relabeling;
* a brute-force reference: every relabeled word, filtered by cone points
  read off the germ-gluing-table walk of ``germ_gluing``, keyed by
  ``reference_canonical_key`` and deduplicated in a set;
* a Burnside (Cauchy-Frobenius) count of classes that counts the words
  each symmetry fixes, with no canonical key at all;
* the junction turn on the position pairing against the germ-gluing-table
  walk, junction by junction, through ``vertex_cycles``, ``pattern_orders``
  and ``single_vertex``;
* a one-order pattern that does not fill the type's junctions against
  the empty list;
* the classed orders table against the flat table that preceded it, kept
  verbatim as ``reference_position_orders``;
* the word pass that preceded walk-directed generation, kept verbatim in
  ``word_pass``, against the walk's keys for every type with p <= 12 and
  every multiset of orders;
* the walk with no group, which builds every pairing, against the walk
  given each of the eight groups: the closest-twin and least-bottom-partner
  rules, read off each whole pairing, keep every pairing that passes the
  orderly test, and the walk given the group emits exactly the pairings
  that keep both;
* the enumeration leaf, which asks the canonical key's lockstep kernel
  whether the identity is least, against the loop over every order of
  the group through the oracles' own ``word_pass.code_below``, on every
  pairing the walk builds with no group;
* sha256 digests of class lists rendered before orderly generation, of
  Q(-1,13) before the walk broke the bottom rotations, and of every
  stratum with p <= 14 and pattern-free (6,6) and (7,7) before the leaf
  moved to the lockstep kernel;
* every enumerated class is its own canonical form.
"""

import functools
import hashlib
import itertools
import random
from collections import Counter
from functools import cache
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onecyl import CALIBRATED_SYM, GeneralizedPermutation, SymmetryGroup, enumerate_stratum, enumerate_type
from onecyl import classify, genperm
from onecyl.classify import _orderly_keys
from onecyl.genperm import DEFAULT_SYM, canonical_key, position_orders, position_pairing
from onecyl.strata import hyperelliptic_rep
from onecyl.strata import pattern_orders, single_vertex, vertex_cycles, walk_pairings

import word_pass
from germ_gluing import numbered_vertex_cycles, reference_vertex_cycles
from word_pass import code_below

ALL_SYMS = [
    SymmetryGroup(rotate_rows=rot, swap_rows=swap, reverse_rows=rev)
    for rot, swap, rev in itertools.product((False, True), repeat=3)
]
TYPES_UP_TO_10 = [(r, p - r) for p in range(2, 11, 2) for r in range(1, p)]


def _relabel_key(top, bottom):
    """Renumber letters by first appearance and return row tuples."""
    mapping: dict[int, int] = {}
    out: list[list[int]] = [[], []]
    for row, dest in ((top, out[0]), (bottom, out[1])):
        for letter in row:
            code = mapping.get(letter)
            if code is None:
                code = len(mapping) + 1
                mapping[letter] = code
            dest.append(code)
    return tuple(out[0]), tuple(out[1])


def reference_canonical_key(top, bottom, sym):
    """The letter-row key: relabel every rotated, reversed and swapped variant."""
    variants = [(tuple(top), tuple(bottom))]
    if sym.reverse_rows:
        variants.append((variants[0][0][::-1], variants[0][1][::-1]))
    if sym.swap_rows:
        variants.extend([(b, t) for (t, b) in variants])
    best = None
    for vt, vb in variants:
        r, l = len(vt), len(vb)
        top_rots = range(r) if sym.rotate_rows else (0,)
        bot_rots = range(l) if sym.rotate_rows else (0,)
        for a in top_rots:
            ta = vt[a:] + vt[:a]
            for b in bot_rots:
                key = _relabel_key(ta, vb[b:] + vb[:b])
                if best is None or key < best:
                    best = key
    assert best is not None
    return best


@functools.lru_cache(maxsize=None)
def reference_position_orders(r: int, l: int, sym: SymmetryGroup) -> dict[int, tuple]:
    """The sym group acting on the cell positions of type-(r, l) words.

    An order reads position order[i] into cell i and comes with its
    inverse.  Orders are grouped by the top length they produce: r, and l
    when row swap is on and r != l.  Group r starts with the identity.
    """
    top, bottom = tuple(range(r)), tuple(range(r, r + l))
    arrangements = [(top, bottom)]
    if sym.reverse_rows:
        arrangements.append((top[::-1], bottom[::-1]))
    if sym.swap_rows:
        arrangements += [(y, x) for x, y in arrangements]
    groups: dict[int, dict] = {}
    for x, y in arrangements:
        group = groups.setdefault(len(x), {})
        for a in range(len(x)) if sym.rotate_rows else (0,):
            for b in range(len(y)) if sym.rotate_rows else (0,):
                group.setdefault(x[a:] + x[:a] + y[b:] + y[:b])
    return {
        n: tuple((order, tuple(sorted(range(r + l), key=order.__getitem__))) for order in group)
        for n, group in groups.items()
    }


def sequential_canonical_key(
    top: Sequence[int], bottom: Sequence[int], sym: SymmetryGroup = DEFAULT_SYM
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lexicographically minimal relabeled row pair over the sym orbit.

    This is the hashable core of :meth:`GeneralizedPermutation.canonical_form`,
    usable directly on raw row tuples during large enumerations.  Codes
    order the words of one top length as their relabeled rows do, so the
    key is the smaller of the least-code words of the (at most two)
    top-length groups of :func:`reference_position_orders`.  Every letter
    must occur exactly twice.
    """
    word = tuple(top) + tuple(bottom)
    pair = position_pairing(word)
    best = None
    for n, orders in reference_position_orders(len(top), len(bottom), sym).items():
        code = None
        for order, inverse in orders:
            if code is None or code_below(pair, order, inverse, code) < 0:
                code, least = [min(inverse[pair[pos]], i) for i, pos in enumerate(order)], order
        cells = [word[pos] for pos in least]
        key = _relabel_key(cells[:n], cells[n:])
        if best is None or key < best:
            best = key
    assert best is not None
    return best


def row_key(top, bottom, sym):
    """The canonical key of the permutation with rows ``top`` / ``bottom``."""
    return canonical_key(position_pairing([*top, *bottom]), len(top), sym)


# one multi-zero pattern per size with classes in some type (sum of k + 2 is p)
MULTI_ZERO = {2: (-1, -1), 4: (-1, -1, -1, -1), 6: (2, -1, -1), 8: (-1, 5), 10: (2, 2, -1, -1)}


@cache
def _words(p: int) -> tuple[tuple[int, ...], ...]:
    """Every word of length p, letters 1..p/2 twice each, first appearances increasing."""
    out = []

    def grow(word: tuple[int, ...], used: Counter):
        if len(word) == p:
            out.append(word)
            return
        fresh = len(used) + 1
        for x in range(1, min(fresh, p // 2) + 1):
            if used[x] < 2:
                used[x] += 1
                grow(word + (x,), used)
                used[x] -= 1
                if used[x] == 0:
                    del used[x]

    grow((), Counter())
    return tuple(out)


@cache
def _junction_orders(top: tuple[int, ...], bottom: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted((len(c) - 2 for c in reference_vertex_cycles(top, bottom)), reverse=True))


def reference_enumerate_type(r, l, pattern, sym):
    """Key every surviving word, then dedupe: the pre-orderly algorithm.

    A pattern keeps the words whose junction classes have exactly its
    orders, so one whose orders do not fill r + l junctions keeps none.
    """
    want = tuple(sorted(pattern, reverse=True)) if pattern is not None else None
    seen = set()
    out = []
    for word in _words(r + l):
        top, bottom = word[:r], word[r:]
        if len(set(top)) == r or len(set(bottom)) == l:
            continue
        if want is not None and _junction_orders(top, bottom) != want:
            continue
        key = reference_canonical_key(top, bottom, sym)
        if key in seen:
            continue
        seen.add(key)
        out.append(GeneralizedPermutation.from_rows(*key))
    out.sort(key=lambda g: (g.type, g.rows()))
    return out


@pytest.mark.parametrize("p", range(2, 11, 2))
def test_canonical_key_matches_reference_on_every_split(p):
    for word in _words(p):
        for r in range(1, p):
            for sym in ALL_SYMS:
                top, bottom = word[:r], word[r:]
                want = reference_canonical_key(top, bottom, sym)
                assert row_key(top, bottom, sym) == want, (top, bottom, sym)


def test_canonical_key_matches_reference_on_random_long_words():
    rng = random.Random(20261018)
    for p in range(12, 17, 2):
        for _ in range(40):
            cells = [x for x in range(1, p // 2 + 1) for _ in range(2)]
            rng.shuffle(cells)
            r = rng.randint(1, p - 1)
            for sym in ALL_SYMS:
                top, bottom = cells[:r], cells[r:]
                want = reference_canonical_key(top, bottom, sym)
                assert row_key(top, bottom, sym) == want, (top, bottom, sym)


# the diagonal, and off-diagonal types of either orientation
HYPERELLIPTIC_TYPES = [(n, n) for n in (*range(1, 9), 12, 16, 20)] + [(1, 20), (20, 1), (5, 14), (13, 6)]
LARGE_SYMS = [DEFAULT_SYM, CALIBRATED_SYM, SymmetryGroup(rotate_rows=True, swap_rows=True, reverse_rows=True)]


@pytest.mark.parametrize("kind", ["pi1", "pi2"])
def test_lockstep_key_matches_sequential_key_on_hyperelliptic_reps(kind):
    for r, l in HYPERELLIPTIC_TYPES:
        gp = hyperelliptic_rep(kind, r, l)
        for sym in ALL_SYMS if gp.size <= 16 else LARGE_SYMS:
            want = sequential_canonical_key(gp.top, gp.bottom, sym)
            assert want == reference_canonical_key(gp.top, gp.bottom, sym)
            assert row_key(gp.top, gp.bottom, sym) == want, (kind, r, l, sym)
            assert gp.canonical_key(sym) == want, (kind, r, l, sym)
    position_orders.cache_clear()  # the large tables are for this test only
    reference_position_orders.cache_clear()


def test_lockstep_key_matches_sequential_key_on_seeded_words():
    rng = random.Random(13)
    for _ in range(2000):
        p = rng.choice((12, 14, 16))
        cells = [x for x in range(1, p // 2 + 1) for _ in range(2)]
        rng.shuffle(cells)
        r = rng.randint(1, p - 1)
        top, bottom = cells[:r], cells[r:]
        for sym in ALL_SYMS:
            want = sequential_canonical_key(top, bottom, sym)
            assert want == reference_canonical_key(top, bottom, sym)
            assert row_key(top, bottom, sym) == want, (top, bottom, sym)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_canonical_key_ignores_each_generator(data):
    k = data.draw(st.integers(1, 7), label="letters")
    cells = data.draw(st.permutations([x for x in range(1, k + 1) for _ in range(2)]), label="word")
    r = data.draw(st.integers(1, 2 * k - 1), label="r")
    names = data.draw(st.permutations(range(10, 10 + k)), label="relabel")
    top, bottom = tuple(cells[:r]), tuple(cells[r:])
    for sym in ALL_SYMS:
        key = row_key(top, bottom, sym)
        images = [(tuple(names[x - 1] for x in top), tuple(names[x - 1] for x in bottom))]
        if sym.rotate_rows:
            images += [(top[1:] + top[:1], bottom), (top, bottom[1:] + bottom[:1])]
        if sym.reverse_rows:
            images.append((top[::-1], bottom[::-1]))
        if sym.swap_rows:
            images.append((bottom, top))
        for image in images:
            assert row_key(*image, sym) == key, (top, bottom, image, sym)


@pytest.mark.parametrize("sym", ALL_SYMS, ids=lambda s: s.label())
@pytest.mark.parametrize("kind", ["none", "minimal", "multi-zero"])
def test_enumerate_type_matches_reference(sym, kind):
    found = 0
    for r, l in TYPES_UP_TO_10:
        pattern = {"none": None, "minimal": (r + l - 2,), "multi-zero": MULTI_ZERO[r + l]}[kind]
        got = enumerate_type(r, l, pattern=pattern, sym=sym)
        want = reference_enumerate_type(r, l, pattern, sym)
        assert [g.rows() for g in got] == [g.rows() for g in want], (r, l, pattern)
        assert [g.render() for g in got] == [g.render() for g in want]
        found += len(got)
    assert found > 0


def _same_type_group(r: int, l: int, swap: bool) -> list[tuple[int, ...]]:
    """rotate x rotate, plus the row swap when r == l, as position maps."""
    p = r + l
    out = [
        tuple((i + a) % r for i in range(r)) + tuple(r + (j + b) % l for j in range(l))
        for a in range(r)
        for b in range(l)
    ]
    if swap and r == l:
        out += [tuple((i + r) % p for i in sigma) for sigma in out]
    return out


def _fixed_words(sigma: tuple[int, ...], r: int) -> int:
    """Words of type (r, p - r), doubled letter in each row, fixed by sigma.

    A word is fixed when its position pairing commutes with sigma, so
    pairing i with j forces sigma^t(i) with sigma^t(j) for every t.
    """
    p = len(sigma)
    pair = [-1] * p

    def force(i: int, j: int, undo: list) -> bool:
        for _ in range(p):
            if pair[i] == j:
                return True
            if pair[i] != -1 or pair[j] != -1 or i == j:
                return False
            pair[i], pair[j] = j, i
            undo.append((i, j))
            i, j = sigma[i], sigma[j]
        return True

    def count() -> int:
        i = next((x for x in range(p) if pair[x] == -1), None)
        if i is None:
            top = any(pair[x] < r for x in range(r))
            bottom = any(pair[x] >= r for x in range(r, p))
            return int(top and bottom)
        total = 0
        for j in range(i + 1, p):
            if pair[j] != -1:
                continue
            undo: list = []
            if force(i, j, undo):
                total += count()
            for a, b in undo:
                pair[a] = pair[b] = -1
        return total

    return count()


@pytest.mark.parametrize("swap", [False, True])
def test_burnside_class_counts(swap):
    sym = SymmetryGroup(rotate_rows=True, swap_rows=swap)
    for p in range(2, 13, 2):
        for r in range(1, p):
            group = _same_type_group(r, p - r, swap)
            fixed = sum(_fixed_words(sigma, r) for sigma in group)
            assert fixed % len(group) == 0
            assert len(enumerate_type(r, p - r, sym=sym)) == fixed // len(group), (r, p - r)


def test_one_order_pattern_that_does_not_fill_the_type_has_no_classes():
    # a one-zero surface of type (5,5) lies in Q(8); Q(4) has 6 junctions
    assert enumerate_type(5, 5, pattern=(4,)) == [] == reference_enumerate_type(5, 5, (4,), CALIBRATED_SYM)


def test_pairing_walk_matches_vertex_cycles():
    # the reference turns the other way around a class whose least junction
    # is a bottom one: reversed after that junction, the two agree exactly
    for p in range(2, 13, 2):
        for word in _words(p):
            for r in range(1, p):
                top, bottom = word[:r], word[r:]
                reference = [c if c[0] < r else c[:1] + c[:0:-1] for c in numbered_vertex_cycles(top, bottom)]
                orders = tuple(sorted((len(c) - 2 for c in reference), reverse=True))
                pair = position_pairing(word)
                assert vertex_cycles(pair, r) == reference, (top, bottom)
                assert pattern_orders(pair, r) == orders, (top, bottom)
                assert single_vertex(pair, r) == (len(orders) == 1), (top, bottom)


def _order_multisets(p: int) -> list[tuple[int, ...]]:
    """Every descending tuple of orders >= -1 with sum(k + 2) = p, strata or not."""
    out = []

    def grow(left: int, most: int, orders: tuple[int, ...]):
        if not left:
            out.append(orders)
        for m in range(min(left, most), 0, -1):
            grow(left - m, m, orders + (m - 2,))

    grow(p, p, ())
    return out


@pytest.mark.parametrize(
    "p, sym",
    [
        pytest.param(p, sym, id="%d-%s" % (p, sym.label()))
        for p in range(2, 13, 2)
        for sym in (ALL_SYMS if p < 12 else [CALIBRATED_SYM, DEFAULT_SYM])
    ],
)
def test_walk_keys_match_the_word_pass(p, sym):
    """Below 12 cells the word pass runs for every multiset and every one
    of the eight groups, since the walk's pruning reads the rotate and swap
    flags.  At 12 it runs for two groups, pattern-free and for Q(6,2) and
    Q(3,3,-1,-1), and every other multiset keeps the pattern-free keys
    whose class has its orders: the word pass filters before its orderly
    test, which does not read the pattern, and every member of a class has
    the class's orders."""
    tops = list(range(1, p))
    free = word_pass._orderly_keys(p, tops, None, sym)
    for want in [None, *_order_multisets(p)]:
        if p < 12 or want in (None, (6, 2), (3, 3, -1, -1)):
            reference = word_pass._orderly_keys(p, tops, want, sym)
        else:
            reference = {
                r: [key for key in keys if pattern_orders(position_pairing(key[0] + key[1]), len(key[0])) == want]
                for r, keys in free.items()
            }
        got = {r: _orderly_keys(r, p - r, want, sym) for r in tops}
        assert {r: sorted(keys) for r, keys in got.items()} == {r: sorted(keys) for r, keys in reference.items()}, want


def _keeps_closest_twins(pair: Sequence[int], r: int, sym: SymmetryGroup) -> bool:
    """The closest-twin rule read off a whole pairing: with rotations, cell 0
    pairs at the least cyclic distance between twin cells of the top row,
    and with row swap on a square type no bottom twins lie closer."""
    if not sym.rotate_rows:
        return True
    l = len(pair) - r

    def least(start: int, n: int) -> int:
        gaps = [abs(pair[i] - i) for i in range(start, start + n) if start <= pair[i] < start + n]
        return min(min(g, n - g) for g in gaps)

    top = least(0, r)
    return pair[0] == top and not (sym.swap_rows and r == l and least(r, l) < top)


def _keeps_least_bottom_partner(pair: Sequence[int], r: int, sym: SymmetryGroup) -> bool:
    """The bottom rule read off a whole pairing: with rotations, once some
    top cell pairs with the bottom row, cell r pairs with the least such
    top cell."""
    if not sym.rotate_rows:
        return True
    crossing = [t for t in range(r) if pair[t] >= r]
    return not crossing or pair[r] == crossing[0]


# (pruned, built) pattern-free pairings over the eight groups, per p: the
# walk prunes some but not all from p = 6 on
PRUNED_OF_BUILT = {4: (0, 8), 6: (36, 120), 8: (652, 1608), 10: (10084, 22680), 12: (162534, 349560)}


@pytest.mark.parametrize("p", range(4, 13, 2))
def test_the_pruned_walk_emits_the_closest_twin_pairings(p):
    """The walk with no group builds every pairing of each type with p
    cells, pattern-free and, below 12 cells, for each multiset of orders.
    Under each of the eight groups, every pairing that passes the orderly
    test keeps the closest-twin rule and the least-bottom-partner rule,
    and the walk given the group emits exactly the pairings that keep
    both, in the same order."""
    built = pruned = 0
    for r in range(1, p):
        for want in [None, *_order_multisets(p)] if p < 12 else [None]:
            every: list = []
            walk_pairings(r, p, want, lambda pair: every.append(tuple(pair)))
            for sym in ALL_SYMS:
                got: list = []
                walk_pairings(r, p, want, lambda pair: got.append(tuple(pair)), sym)
                kept = [
                    pair
                    for pair in every
                    if _keeps_closest_twins(pair, r, sym) and _keeps_least_bottom_partner(pair, r, sym)
                ]
                assert got == kept, (r, want, sym)
                if want is None:
                    built, pruned = built + len(every), pruned + len(every) - len(got)
                    moves = [m for entry in position_orders(r, p - r, sym)[r] for m in entry[2]][1:]
                    for pair in set(every).difference(got):
                        code = [j if j < i else i for i, j in enumerate(pair)]
                        assert any(code_below(pair, order, inverse, code) < 0 for order, inverse in moves), (pair, r, sym)
    assert (pruned, built) == PRUNED_OF_BUILT[p]


@pytest.mark.parametrize("p", range(4, 11, 2))
def test_the_class_wise_leaf_test_accepts_what_the_member_loop_accepts(p, monkeypatch):
    """Every pairing the walk builds with no group goes to the enumeration
    leaf under each of the eight groups.  The leaf reads each class of
    orders as one order on its shared top row and the members of the
    classes tied least there from entry r on; it accepts exactly the
    pairings that no order of the group keeping the type reads below the
    identity, member by member from entry 0."""
    accepted: list = []
    monkeypatch.setattr(classify, "walk_pairings", lambda r, p, want, emit, sym: walk_pairings(r, p, want, emit))
    monkeypatch.setattr(classify, "canonical_key", lambda pair, r, sym: accepted.append(tuple(pair)))
    for r in range(2, p - 1):
        every: list = []
        walk_pairings(r, p, None, lambda pair: every.append(tuple(pair)))
        for sym in ALL_SYMS:
            moves = [m for entry in position_orders(r, p - r, sym)[r] for m in entry[2]][1:]
            least = [
                pair
                for pair in every
                if not any(
                    code_below(pair, order, inverse, [j if j < i else i for i, j in enumerate(pair)]) < 0
                    for order, inverse in moves
                )
            ]
            accepted.clear()
            _orderly_keys(r, p - r, None, sym)
            assert accepted == least and least, (r, sym)


def test_each_class_is_rechecked_once_by_the_strata_readers(monkeypatch):
    calls = Counter()

    def counted(name, reader):
        def wrapper(*args):
            calls[name] += 1
            return reader(*args)
        return wrapper

    monkeypatch.setattr(classify, "single_vertex", counted("single_vertex", single_vertex))
    monkeypatch.setattr(classify, "pattern_orders", counted("pattern_orders", pattern_orders))
    assert len(enumerate_stratum((8,))) == calls["single_vertex"] == 7
    assert len(enumerate_stratum((-1, 9))) == calls["pattern_orders"] == 129

    # a generator fault surfaces: the pillowcase 1 1 / 2 2 has four poles, not one zero
    monkeypatch.setattr(classify, "walk_pairings", lambda r, p, want, emit, sym: emit([1, 0, 3, 2]))
    with pytest.raises(AssertionError):
        enumerate_type(2, 2, pattern=(2,))


def test_each_class_builds_one_pairing(monkeypatch):
    # the walk's pairings are keyed as they stand; only the class's
    # GeneralizedPermutation pairs its letters, once, as it is built
    built = Counter()

    def counted(cells):
        built[len(cells)] += 1
        return position_pairing(cells)

    monkeypatch.setattr(genperm, "position_pairing", counted)
    classes = enumerate_stratum((12,))
    assert len(classes) == 725 and built == {14: 725}
    assert all(len(gp.pairing()) == 14 for gp in classes) and built == {14: 725}


def test_position_orders_match_the_flat_reference_table():
    for p in range(2, 17, 2):
        for r in range(1, p):
            for sym in ALL_SYMS:
                table = position_orders(r, p - r, sym)
                reference = reference_position_orders(r, p - r, sym)
                assert table.keys() == reference.keys()
                assert next(iter(table)) == r and table[r][0][0] == tuple(range(p))
                for n, classes in table.items():
                    members = [m for _, _, entries in classes for m in entries]
                    assert len(members) == len(set(members)) and set(members) == set(reference[n])
                    for order, inverse, entries in classes:
                        assert (order, inverse) == entries[0]
                        assert {m[:n] for m, _ in entries} == {order[:n]}
                        for m, inv in entries:
                            assert all(inv[pos] == i for i, pos in enumerate(m))
    reference_position_orders.cache_clear()


# sha256 of "\n".join(class renders): the first six computed before orderly
# generation landed, Q(2,2,2,2) and Q(-1,3,3,3) on the word pass that
# preceded walk-directed generation, and Q(-1,13) on the walk before it
# broke the bottom-row rotations
FROZEN_CLASS_LISTS = {
    (8,): (7, "fcad311238ee0e90319594ba7506fed800035068ae835469b1c4936533c12660"),
    (-1, 5): (2, "85dca3b2a32d0ed85bcbcd6ea0e5e113bb380b67f41e1631c2d12993fe0856c0"),
    (2, 2): (2, "37818c1d3a1e0b6316bdff1841a5ae51834d5f9307cb707df3169da2fb507282"),
    (-1, 9): (129, "b1136858631fc34743200e8fa467fcc261c8ab7a009f31826d149e863be19de5"),
    (12,): (725, "594cd941b7655452943f89ef1a7e9b50e12255838e7d9ce9f46b0f95e7953c35"),
    (-1, 3, 6): (460, "dd87fefac91212fbcf04bb8f51d4f2fb09ecbccc6d1fb30c5e4561beb0825134"),
    (2, 2, 2, 2): (44, "8865209ab73cbe056699700dcd394e7802d9c8a84de2d0021e8f2248d763ecbe"),
    (-1, 3, 3, 3): (364, "9e0ec3735cfd181182e5e2d35ffbf10c0ff2c28dc615ff2a26c7b7cf0d7f1667"),
    (-1, 13): (17100, "38f93fa7273dc4ecbe37cbb511affc9dedb48b8d928f8f48d0b5bda6e7667740"),
}


@pytest.mark.parametrize("pattern", list(FROZEN_CLASS_LISTS), ids=str)
def test_frozen_class_lists(pattern):
    classes = enumerate_stratum(pattern)
    text = "\n".join(gp.render() for gp in classes)
    assert (len(classes), hashlib.sha256(text.encode()).hexdigest()) == FROZEN_CLASS_LISTS[pattern]


def test_frozen_class_lists_of_every_stratum_up_to_14_cells():
    """One sha256 over the class lists of the 147 multisets of orders with
    p <= 14 and sum(k) = 0 mod 4, marked points included, each as its
    orders and then its class renders, one line each; computed on the
    walk before its leaf moved to the lockstep kernel."""
    digest = hashlib.sha256()
    patterns = [w for p in range(2, 15, 2) for w in _order_multisets(p) if sum(w) % 4 == 0]
    total = 0
    for pattern in patterns:
        classes = enumerate_stratum(pattern)
        total += len(classes)
        renders = "\n".join(gp.render() for gp in classes)
        digest.update(("%s\n%s\n" % (",".join(map(str, pattern)), renders)).encode())
    assert (len(patterns), total) == (147, 10268)
    assert digest.hexdigest() == "80ce6d8815da57b07ce48b4ff65ac07cfcb2adc78f3e221bd6f8c2ad4d22d045"


# sha256 of "\n".join(class renders) of pattern-free types whose row swap
# keeps the type, computed as above
FROZEN_TYPE_LISTS = {
    (6, 6): (170, "51dced08fb769918a8dd63398b7ff05d61d5f5e2d4eb84237ad60b83d5fc33be"),
    (7, 7): (1404, "3b840873afff7733b845e41d0066bbccf9767cdfe0d47f8f858a1689e5f857eb"),
}


@pytest.mark.parametrize("rl", list(FROZEN_TYPE_LISTS), ids=str)
def test_frozen_pattern_free_type_lists(rl):
    classes = enumerate_type(*rl)
    text = "\n".join(gp.render() for gp in classes)
    assert (len(classes), hashlib.sha256(text.encode()).hexdigest()) == FROZEN_TYPE_LISTS[rl]


# component_report indexes classes by their rows, which is sound only
# because every enumerated class is its own canonical form under sym
@pytest.mark.parametrize(
    "sym",
    [CALIBRATED_SYM, SymmetryGroup(rotate_rows=True, swap_rows=True, reverse_rows=True)],
    ids=["calibrated", "with-reverse"],
)
@pytest.mark.parametrize("pattern", [(8,), (-1, 9), (12,)], ids=str)
def test_classes_are_canonical_forms(pattern, sym):
    classes = enumerate_stratum(pattern, sym=sym)
    assert classes
    for gp in classes:
        assert gp.canonical_key(sym) == gp.rows()
