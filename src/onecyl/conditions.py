"""Combinatorial reducibility tests with certifying witnesses.

Three conditions on a generalized permutation control the short vertical
companions of the seam separatrix on every suspension:

* weak reducibility: a cut position in each row such that either matched
  prefix/suffix blocks or a straddling configuration force a second
  vertical separatrix of length one for every admissible vector;
* the Red condition: violated when the table splits into six sublists
  around one bottom-doubled letter so that length balancing forces a
  vertical separatrix of length two;
* condition (*): exactly one letter doubled in each row (read letter-wise:
  a doubled letter occupies two positions, so the position-wise reading
  of "only one element" is never satisfiable).

Irreducible means weakly irreducible and Red holds.  Every test reads
the position pairing of the rows, and the searches solve for their cuts
instead of testing each one: one pass over the pairs per top cut gives
the bottom cuts of a weak split, and one pass per Red pivot bounds both
cuts.  The searches and the ``check_*`` re-checks share one constraint
kernel per condition; the ``check_*`` functions add the range
validation of a given witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .genperm import GeneralizedPermutation


@dataclass(frozen=True)
class WeakSplit:
    """Certifies weak reducibility: 1-based cut positions and the bullet used.

    ``i0`` cuts the top row (1 <= i0 < r), ``j0`` the bottom row in absolute
    positions (r+1 <= j0 < r+l).
    """

    i0: int
    j0: int
    bullet: int


@dataclass(frozen=True)
class RedDecomposition:
    """Certifies a Red violation.

    With ``swapped`` rows exchanged first, the second row carries the
    doubled letter ``zero_letter`` at 0-based cells ``zero_cells`` and the
    first row is cut into blocks ``[:c1]``, ``[c1:c2]``, ``[c2:]``.
    """

    swapped: bool
    zero_letter: int
    zero_cells: tuple[int, int]
    cuts: tuple[int, int]


@dataclass(frozen=True)
class Verdict:
    """Outcome of the full irreducibility test."""

    status: str  # "irreducible" | "fails_weak" | "fails_red"
    witness: WeakSplit | RedDecomposition | None = None

    @property
    def irreducible(self) -> bool:
        return self.status == "irreducible"


def _oriented(gp: GeneralizedPermutation, swapped: bool) -> tuple[tuple[int, ...], tuple[int, ...], Sequence[int]]:
    """The cut row, the pivot row and the position pairing of the two; with
    the rows exchanged the word is top + bottom rotated right by l."""
    pair, l = gp.pairing(), len(gp.bottom)
    if swapped:
        return gp.bottom, gp.top, [(y + l) % len(pair) for y in pair[-l:] + pair[:-l]]
    return gp.top, gp.bottom, pair


def _weak_cuts(pair: Sequence[int], r: int, i0: int) -> tuple[list[int], int, int]:
    """The bottom cuts j0 that complete the top cut i0 (prefix lengths).

    Returns the at most two j0 of bullet 1 and the interval [lo, hi] of
    the j0 of bullet 2 (empty when lo > hi), all within r < j0 < p.
    """
    p = len(pair)
    l = p - r
    # bullet 1: the top prefix pairs onto the bottom prefix, or suffix onto suffix
    ones = []
    if i0 < l and all(r <= pair[x] < r + i0 for x in range(i0)):
        ones.append(r + i0)
    if r < l + i0 and all(pair[x] >= l + i0 for x in range(i0, r)):
        ones.append(l + i0)
    # bullet 2: a doubled letter straddles its row's cut, a split letter
    # pairs prefix with prefix or suffix with suffix
    lo, hi = r + 1, p - 1
    for x, y in enumerate(pair):
        if x < y:
            if y < r:
                if not x < i0 <= y:
                    return ones, lo, -1
            elif x >= r:
                lo, hi = max(lo, x + 1), min(hi, y)
            elif x < i0:
                lo = max(lo, y + 1)
            else:
                hi = min(hi, y)
    return ones, lo, hi


def check_weak_split(gp: GeneralizedPermutation, w: WeakSplit) -> bool:
    """Re-validate a WeakSplit against the definition."""
    r, l = gp.type
    if not (1 <= w.i0 < r and r + 1 <= w.j0 < r + l):
        return False
    ones, lo, hi = _weak_cuts(gp.pairing(), r, w.i0)
    return w.j0 in ones if w.bullet == 1 else w.bullet == 2 and lo <= w.j0 <= hi


def weak_reducibility(gp: GeneralizedPermutation) -> WeakSplit | None:
    """First weak-reducibility witness in lexicographic order, else None."""
    r = gp.type[0]
    pair = gp.pairing()
    for i0 in range(1, r):
        ones, lo, hi = _weak_cuts(pair, r, i0)
        found = [(j0, 1) for j0 in ones] + ([(lo, 2)] if lo <= hi else [])
        if found:
            return WeakSplit(i0, *min(found))
    return None


# bounds c1_lo <= c1 <= c1_hi and c2_lo <= c2 <= c2_hi, the cut row's
# doubled letters, and whether a pivot-row letter straddles the pivots
_RedCuts = tuple[int, int, int, int, list[tuple[int, int]], bool]


def _red_cuts(pair: Sequence[int], r: int, q1: int, q2: int) -> _RedCuts | None:
    """What the pivots at cells q1 < q2 of the pivot row ask of the cuts.

    The cut row is the first r cells of the pairing.  The pivot row's
    letters do not depend on the cuts, and a split letter's sublist (B1
    B2 B3: before, between, after the pivots) pins its cut-row cell to
    the block ``[:c1]``, ``[c1:c2]`` or ``[c2:]``.  None when no cuts work.
    """
    c1_lo, c1_hi, c2_lo, c2_hi = 0, r, 0, r
    doubled = []
    straddle = False
    for x, y in enumerate(pair):
        if x < y:
            if y < r:
                doubled.append((x, y))
            elif x >= r:
                # the pivots pair with each other, so no other letter meets them
                if x - r < q1 < q2 < y - r:
                    straddle = True
                elif not (q1 <= x - r and y - r <= q2):
                    return None
            elif y - r < q1:
                c1_lo = max(c1_lo, x + 1)
            elif y - r < q2:
                c1_hi, c2_lo = min(c1_hi, x), max(c2_lo, x + 1)
            else:
                c2_hi = min(c2_hi, x)
    if c1_lo > c1_hi or c2_lo > c2_hi or not (straddle or doubled):
        return None
    return c1_lo, c1_hi, c2_lo, c2_hi, doubled, straddle


def _red_fits(cuts: _RedCuts, c1: int, c2: int) -> bool:
    """The Red-violation test of cuts c1 <= c2 against _red_cuts' constraints."""
    c1_lo, c1_hi, c2_lo, c2_hi, doubled, straddle = cuts
    if not (c1_lo <= c1 <= c1_hi and c2_lo <= c2 <= c2_hi):
        return False
    for x, y in doubled:
        if x < c1 and c2 <= y:
            straddle = True
        elif not (c1 <= x and y < c2):
            return False
    # Without an outer straddler the offset of the forced trajectory is
    # pinned to zero and the "length-two separatrix" degenerates onto the
    # seam, so the decomposition certifies nothing.
    return straddle


def check_red_decomposition(gp: GeneralizedPermutation, d: RedDecomposition) -> bool:
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
    top, bottom, pair = _oriented(gp, d.swapped)
    r, l = len(top), len(bottom)
    q1, q2 = d.zero_cells
    c1, c2 = d.cuts
    if not (0 <= q1 < q2 < l and 0 <= c1 <= c2 <= r):
        return False
    if bottom[q1] != d.zero_letter or bottom[q2] != d.zero_letter:
        return False
    cuts = _red_cuts(pair, r, q1, q2)
    return cuts is not None and _red_fits(cuts, c1, c2)


def red_condition(gp: GeneralizedPermutation) -> RedDecomposition | None:
    """First Red-violating decomposition (up to row exchange), else None.

    Pivots are tried by letter, and candidates tightest middle block
    first, so the returned witness carries no slack in its cuts.
    """
    for swapped in (False, True):
        top, bottom, pair = _oriented(gp, swapped)
        r = len(top)
        # the doubled letters of the pivot row, each at its first cell
        pivots = sorted((bottom[x - r], x - r, pair[x] - r) for x in range(r, len(pair)) if x < pair[x])
        for z, q1, q2 in pivots:
            cuts = _red_cuts(pair, r, q1, q2)
            if cuts is None:
                continue
            c1_lo, c1_hi, c2_lo, c2_hi = cuts[:4]
            # only cuts inside the bounds, in the order (width, c1)
            for width in range(max(0, c2_lo - c1_hi), c2_hi - c1_lo + 1):
                for c1 in range(max(c1_lo, c2_lo - width), min(c1_hi, c2_hi - width) + 1):
                    if _red_fits(cuts, c1, c1 + width):
                        return RedDecomposition(swapped, z, (q1, q2), (c1, c1 + width))
    return None


def condition_star(gp: GeneralizedPermutation) -> bool:
    """Exactly one letter doubled on top and exactly one on bottom."""
    return len(gp.top_doubled()) == 1 and len(gp.bottom_doubled()) == 1


def is_irreducible(gp: GeneralizedPermutation) -> Verdict:
    """Weakly irreducible and Red together; first failing certificate."""
    w = weak_reducibility(gp)
    if w is not None:
        return Verdict("fails_weak", w)
    d = red_condition(gp)
    if d is not None:
        return Verdict("fails_red", d)
    return Verdict("irreducible")
