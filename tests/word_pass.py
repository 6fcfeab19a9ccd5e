"""The word pass that preceded walk-directed enumeration, kept verbatim
(but for reading ``code_below``'s three-way result as "below") as the
oracle for ``classify._orderly_keys``: every split of every relabeled
word is filtered by the strata readers, then by the orderly minimality
test.  ``_letter_sequences`` also feeds the exhaustive split corpora of
the conditions tests.  ``code_below`` is the oracles' own member-by-member
code comparison, so they do not share the kernel they check.
"""

from __future__ import annotations

from onecyl.genperm import SymmetryGroup, canonical_key, position_orders
from onecyl.strata import pattern_orders, single_vertex


def code_below(pair, order, inverse, code) -> int:
    """Compare the code of the pairing read in ``order`` (entry i is the
    position of the mate of cell i if that came earlier, else i) with
    ``code`` from entry 0: negative if it is smaller at the first
    difference, positive if larger, 0 if they agree."""
    for i, pos in enumerate(order):
        j = min(inverse[pair[pos]], i)
        if j != code[i]:
            return j - code[i]
    return 0


def _letter_sequences(p: int):
    """All words of length p over letters 1..p/2, each letter used twice,
    first appearances in increasing order (canonical relabeling built in).

    Yields (word, pair, lo, hi): pair[i] is the other position of
    word[i]'s letter, lo the earliest second cell of a letter and hi the
    latest first cell.  The first free position takes the next letter and
    is paired with each later free position in turn.
    """
    word = [0] * p
    pair = [0] * p

    def rec(free: tuple[int, ...], letter: int, lo: int):
        a = free[0]
        word[a] = letter
        for k in range(1, len(free)):
            b = free[k]
            word[b] = letter
            pair[a], pair[b] = b, a
            if len(free) == 2:
                yield tuple(word), pair, min(lo, b), a
            else:
                yield from rec(free[1:k] + free[k + 1 :], letter + 1, min(lo, b))

    yield from rec(tuple(range(p)), 1, p)


def _orderly_keys(
    p: int, top_lengths: list[int], want: tuple[int, ...] | None, sym: SymmetryGroup
) -> dict[int, list]:
    """Canonical keys of the classes of each type (r, p - r), r in top_lengths.

    One pass over the relabeled words of length p; each word is split at
    every requested r.  A split survives when each row holds a doubled
    letter, its cone points match ``want`` and it is the minimum of its
    same-type orbit.  Each class has exactly one such split, so it pays
    for exactly one full canonical key.
    """
    minimal = want is not None and len(want) == 1
    # group r of the orders table is the part of the sym group that keeps
    # type (r, p - r); the first member of its first class is the identity
    moves = {r: [m for entry in position_orders(r, p - r, sym)[r] for m in entry[2]][1:] for r in top_lengths}
    keys: dict[int, list] = {r: [] for r in top_lengths}
    for word, pair, lo, hi in _letter_sequences(p):
        for r in top_lengths:
            # a doubled letter in the top row has its second cell before r,
            # one in the bottom row its first cell at r or later
            if not lo < r <= hi:
                continue
            if minimal:
                if not single_vertex(pair, r):
                    continue
            elif want is not None and pattern_orders(pair, r) != want:
                continue
            code = [j if j < i else i for i, j in enumerate(pair)]  # the identity's code
            if not any(code_below(pair, order, inverse, code) < 0 for order, inverse in moves[r]):
                keys[r].append(canonical_key(pair, r, sym))
    return keys
