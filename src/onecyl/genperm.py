"""Generalized permutations: two cyclic rows of letters, each letter twice.

A generalized permutation of type (r, l) encodes the boundary
identifications of a one-cylinder flat surface: the top row lists the r
horizontal intervals on one boundary circle of the cylinder, the bottom
row the l intervals on the other, and every letter names a pair of
identified intervals.  Equivalently it is a fixed-point-free involution
of the r + l cell positions.

Letters are stored internally as integers 1..k numbered by first
appearance (top row scanned first); the original tokens are kept for
rendering, so ``parse`` / ``render`` round-trip letter-for-letter.
Letters become a pairing only in :func:`position_pairing`; everything
after it, the canonical key included, reads the pairing.

The symmetry group acts on cell positions, and :func:`position_orders`
is the one table of that action: its orders come grouped by the length
of the top row they read, and within a group in classes that read the
same top row.  Canonical keys and the orderly enumeration both compare
words by the first-appearance code of their position pairing, never by
relabeled letter rows, through one kernel: :func:`keep_least` walks
every order in lockstep, one per class while the top row is read, and
keeps those at the least code entry.  :func:`canonical_key` reads the
word of the order it keeps; the enumeration keeps a pairing when the
identity is the first order kept.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import EmptyRow, LetterCountError, MalformedText, NotRestrictable


@dataclass(frozen=True)
class SymmetryGroup:
    """Flags selecting the row symmetries used for canonical forms.

    Relabeling (renumbering letters by first appearance) is always on.
    ``rotate_rows`` allows independent cyclic rotations of the two rows,
    ``swap_rows`` exchanges them and ``reverse_rows`` reverses both
    simultaneously.  The enabled generators act as a finite group.
    """

    rotate_rows: bool = True
    swap_rows: bool = False
    reverse_rows: bool = False

    def label(self) -> str:
        parts = ["relabel"]
        if self.rotate_rows:
            parts.append("rotate")
        if self.swap_rows:
            parts.append("swap")
        if self.reverse_rows:
            parts.append("reverse")
        return "+".join(parts)


#: Base symmetry used for canonical forms of single permutations.
DEFAULT_SYM = SymmetryGroup()

#: Symmetry calibrated against the one-cylinder class counts of the small
#: minimal strata (4 classes of type (5,5) and 3 of type (6,4) for Q(8),
#: 2 classes for Q(-1,5)).  Row swap is enabled: the cylinder has no
#: preferred side, and vertical re-readings land row-swapped.  Row
#: reversal is NOT enabled: it merges two of the four (5,5) classes and
#: breaks the counts.
CALIBRATED_SYM = SymmetryGroup(rotate_rows=True, swap_rows=True, reverse_rows=False)


def _relabel_key(top: Sequence[int], bottom: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Renumber letters by first appearance and return row tuples."""
    mapping: dict[int, int] = {}
    word = [mapping.setdefault(letter, len(mapping) + 1) for letter in (*top, *bottom)]
    return tuple(word[: len(top)]), tuple(word[len(top) :])


@functools.lru_cache(maxsize=None)
def _numbered_names(k: int) -> tuple[str, ...]:
    """("1", ..., "k"): the names of letters numbered by first appearance, one tuple per letter count."""
    return tuple(str(i) for i in range(1, k + 1))


def position_pairing(cells: Sequence[int]) -> list[int]:
    """Partner positions: out[i] is the other position holding cells[i]."""
    first: dict[int, int] = {}
    out = [0] * len(cells)
    for i, letter in enumerate(cells):
        j = first.pop(letter, None)
        if j is None:
            first[letter] = i
        else:
            out[i], out[j] = j, i
    if first or 2 * len(set(cells)) != len(cells):
        raise LetterCountError("some letter does not occur exactly twice")
    return out


@functools.lru_cache(maxsize=None)
def position_orders(r: int, l: int, sym: SymmetryGroup) -> dict[int, tuple]:
    """The sym group acting on the cell positions of type-(r, l) words.

    An order reads position order[i] into cell i and comes with its
    inverse.  Orders are grouped by the top length n they produce: r, and
    l when row swap is on and r != l.  A group holds classes of orders that
    read the same top row, ``(order, inverse, members)`` per class with
    its first member as representative; group r starts with the identity.

    The code entries of a class agree below n: entry i < n reads the mate
    of cell order[i] among the cells before it, which lie in the shared
    top part, or else is i.
    """
    top, bottom = tuple(range(r)), tuple(range(r, r + l))
    arrangements = [(top, bottom)]
    if sym.reverse_rows:
        arrangements.append((top[::-1], bottom[::-1]))
    if sym.swap_rows:
        arrangements += [(y, x) for x, y in arrangements]
    groups: dict[int, dict] = {}
    for x, y in arrangements:
        classes = groups.setdefault(len(x), {})
        for a in range(len(x)) if sym.rotate_rows else (0,):
            head = x[a:] + x[:a]
            members = classes.setdefault(head, {})
            for b in range(len(y)) if sym.rotate_rows else (0,):
                order = head + y[b:] + y[:b]
                members[order] = tuple(sorted(range(r + l), key=order.__getitem__))  # the inverse
    return {
        n: tuple((*entries[0], entries) for entries in (tuple(m.items()) for m in classes.values()))
        for n, classes in groups.items()
    }


def keep_least(pair: Sequence[int], live: Sequence[tuple], start: int, stop: int) -> Sequence[tuple]:
    """The (order, inverse, ...) entries of ``live`` whose codes are least
    at entries start..stop-1, in their input order.

    The code of the pairing read in an order relabels by first appearance
    incrementally: entry i reads the position of the mate of cell i if
    that came earlier, or i for a new letter.  Two words agree up to cell
    i exactly when their relabeled prefixes agree, and then the codes
    order cell i as the relabeled letters do (a new letter is above every
    earlier one, and old letters go by their first cells), so codes order
    words as their relabeled rows do.  Every order is read in lockstep:
    step i reads code entry i of each live order and keeps the orders at
    the least entry, until one is left; orders still tied at ``stop``
    agree on all those entries.  This answers both "which order reads the
    least word" for :func:`canonical_key` and "does any order read below
    the identity" for the orderly enumeration, without building any full
    code.
    """
    for i in range(start, stop):
        if len(live) == 1:
            break
        # entry i is the position of the cell's mate if that came earlier, else i
        mates = [entry[1][pair[entry[0][i]]] for entry in live]
        least = min(mates)
        if least < i:
            live = [entry for entry, j in zip(live, mates) if j == least]
    return live


def canonical_key(
    pair: Sequence[int], r: int, sym: SymmetryGroup = DEFAULT_SYM
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lexicographically minimal relabeled row pair over the sym orbit of
    the type-(r, len(pair) - r) permutation with position pairing ``pair``.

    Codes order the words of one top length as their relabeled rows do, so
    the key is the smaller of the least-code words (:func:`keep_least`)
    of the (at most two) top-length groups of :func:`position_orders`,
    each cell named by the lesser position of its letter.
    """
    best = None
    for n, classes in position_orders(r, len(pair) - r, sym).items():
        # entry 0 is 0 for every order, and below n a class reads as one order
        live = keep_least(pair, classes, 1, n)
        live = keep_least(pair, [member for entry in live for member in entry[2]], n, len(pair))
        cells = [min(pos, pair[pos]) for pos in live[0][0]]
        key = _relabel_key(cells[:n], cells[n:])
        if best is None or key < best:
            best = key
    assert best is not None
    return best


@dataclass(frozen=True)
class GeneralizedPermutation:
    """An immutable two-row generalized permutation.

    ``top`` and ``bottom`` hold letters 1..k; ``names`` maps letter i to
    its original token ``names[i-1]``.
    """

    top: tuple[int, ...]
    bottom: tuple[int, ...]
    names: tuple[str, ...]

    # -- construction -------------------------------------------------

    @staticmethod
    def from_tokens(top: Sequence[str], bottom: Sequence[str]) -> "GeneralizedPermutation":
        if not top or not bottom:
            raise EmptyRow("both rows must contain at least one letter")
        mapping: dict[str, int] = {}
        cells = [mapping.setdefault(tok, len(mapping) + 1) for tok in (*top, *bottom)]
        try:
            pair = position_pairing(cells)
        except LetterCountError:
            bad = [tok for tok, letter in mapping.items() if cells.count(letter) != 2]
            raise LetterCountError("letters not appearing exactly twice: %s" % ", ".join(bad)) from None
        r = len(top)
        gp = GeneralizedPermutation(tuple(cells[:r]), tuple(cells[r:]), tuple(mapping))
        gp.__dict__["_pairing"] = tuple(pair)  # the cache behind pairing()
        return gp

    @staticmethod
    def from_rows(top: Sequence[int], bottom: Sequence[int]) -> "GeneralizedPermutation":
        """Build from integer rows, renumbering letters by first appearance."""
        if not top or not bottom:
            raise EmptyRow("both rows must contain at least one letter")
        t, b = _relabel_key(top, bottom)
        pair = position_pairing(t + b)  # every letter exactly twice
        gp = GeneralizedPermutation(t, b, _numbered_names(len(pair) // 2))
        gp.__dict__["_pairing"] = tuple(pair)  # the cache behind pairing()
        return gp

    # -- basic data ----------------------------------------------------

    @property
    def type(self) -> tuple[int, int]:
        return len(self.top), len(self.bottom)

    @property
    def num_letters(self) -> int:
        return len(self.names)

    @property
    def size(self) -> int:
        return len(self.top) + len(self.bottom)

    def rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.top, self.bottom

    @functools.cached_property
    def _pairing(self) -> tuple[int, ...]:
        return tuple(position_pairing(self.top + self.bottom))

    def pairing(self) -> tuple[int, ...]:
        """Position involution: pairing()[i] is the partner of position i.

        Positions are 0-based, top row first.  The involution has no
        fixed point because every letter fills exactly two cells.  It is
        built once per instance and cached outside the dataclass fields,
        so equality, hashing and ``repr`` do not see it.
        """
        return self._pairing

    def top_doubled(self) -> tuple[int, ...]:
        """Letters whose two cells both lie on the top row."""
        r = len(self.top)
        pair = self.pairing()
        return tuple(sorted(self.top[i] for i in range(r) if i < pair[i] < r))

    def bottom_doubled(self) -> tuple[int, ...]:
        r = len(self.top)
        pair = self.pairing()
        return tuple(sorted(self.bottom[j - r] for j in range(r, len(pair)) if j < pair[j]))

    def is_abelian(self) -> bool:
        """True iff no letter repeats within one row (a true permutation)."""
        return not self.top_doubled() and not self.bottom_doubled()

    # -- text ------------------------------------------------------------

    @staticmethod
    def parse(text: str) -> "GeneralizedPermutation":
        """Parse two whitespace-separated rows split by '/' or, without one, by a newline."""
        if "/" in text:
            rows = text.split("/")
        else:
            rows = [row for row in text.splitlines() if row.strip()]
        if len(rows) != 2:
            raise MalformedText("expected exactly two rows, got %d" % len(rows))
        return GeneralizedPermutation.from_tokens(rows[0].split(), rows[1].split())

    def render(self) -> str:
        top = " ".join(self.names[x - 1] for x in self.top)
        bottom = " ".join(self.names[x - 1] for x in self.bottom)
        return top + " / " + bottom

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()

    # -- symmetries -------------------------------------------------------

    def _with_rows(self, top: Sequence[int], bottom: Sequence[int]) -> "GeneralizedPermutation":
        return GeneralizedPermutation(tuple(top), tuple(bottom), self.names)

    def rotated(self, a: int, b: int) -> "GeneralizedPermutation":
        r, l = self.type
        a %= r
        b %= l
        return self._with_rows(self.top[a:] + self.top[:a], self.bottom[b:] + self.bottom[:b])

    def rotations(self) -> Iterator["GeneralizedPermutation"]:
        """All r*l independent cyclic rotations of the two rows."""
        r, l = self.type
        for a in range(r):
            for b in range(l):
                yield self.rotated(a, b)

    def swap_rows(self) -> "GeneralizedPermutation":
        return self._with_rows(self.bottom, self.top)

    def canonical_form(self, sym: SymmetryGroup = DEFAULT_SYM) -> "GeneralizedPermutation":
        """Minimal representative of the sym orbit, letters renamed 1..k."""
        t, b = canonical_key(self.pairing(), len(self.top), sym)
        return GeneralizedPermutation(t, b, _numbered_names(len(self.names)))

    def canonical_key(self, sym: SymmetryGroup = DEFAULT_SYM) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return canonical_key(self.pairing(), len(self.top), sym)

    def equivalent(self, other: "GeneralizedPermutation", sym: SymmetryGroup = DEFAULT_SYM) -> bool:
        return self.canonical_key(sym) == other.canonical_key(sym)

    # -- restriction ------------------------------------------------------

    def restrict(self) -> "GeneralizedPermutation":
        """Drop a shared head letter occurring once per row (pi-hat)."""
        head = self.top[0]
        if self.bottom[0] != head:
            raise NotRestrictable("rows start with different letters")
        if len(self.top) == 1 or len(self.bottom) == 1:
            raise NotRestrictable("restriction would empty a row")
        return GeneralizedPermutation.from_rows(self.top[1:], self.bottom[1:])
