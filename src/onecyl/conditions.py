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
the position pairing of the rows.  The searches and the ``check_*``
re-checks share one pairing kernel per condition; the ``check_*``
functions add the range validation of a given witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .genperm import GeneralizedPermutation, position_pairing


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


def _oriented(gp: GeneralizedPermutation, swapped: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (gp.bottom, gp.top) if swapped else (gp.top, gp.bottom)


def _weak_holds(pair: Sequence[int], r: int, i0: int, j0: int, bullet: int) -> bool:
    """The weak-split definition on a pairing; i0 and j0 are prefix lengths."""
    p = len(pair)
    if bullet == 1:
        # the top prefix pairs onto the bottom prefix, or suffix onto suffix
        return (i0 == j0 - r and all(r <= pair[i] < j0 for i in range(i0))) or (
            r - i0 == p - j0 and all(j0 <= pair[i] < p for i in range(i0, r))
        )
    if bullet != 2:
        return False
    # a doubled letter straddles its row's cut, a split letter pairs
    # prefix with prefix or suffix with suffix
    for x, y in enumerate(pair):
        if x < y:
            if y < r or x >= r:
                if not x < (i0 if y < r else j0) <= y:
                    return False
            elif (x < i0) != (y < j0):
                return False
    return True


def check_weak_split(gp: GeneralizedPermutation, w: WeakSplit) -> bool:
    """Re-validate a WeakSplit against the definition."""
    r, l = gp.type
    if not (1 <= w.i0 < r and r + 1 <= w.j0 < r + l):
        return False
    return _weak_holds(gp.pairing(), r, w.i0, w.j0, w.bullet)


def weak_reducibility(gp: GeneralizedPermutation) -> WeakSplit | None:
    """First weak-reducibility witness in lexicographic order, else None."""
    r, l = gp.type
    pair = gp.pairing()
    for i0 in range(1, r):
        for j0 in range(r + 1, r + l):
            for bullet in (1, 2):
                if _weak_holds(pair, r, i0, j0, bullet):
                    return WeakSplit(i0, j0, bullet)
    return None


# Cell regions of a Red decomposition, numbered as their names sort: A1 A2
# A3 are the cut row's blocks, B1 B2 B3 the pivot row's sublists, Z its pivots.
_A1, _A2, _A3, _B1, _B2, _B3, _Z = range(7)
_RED_PAIRS = {
    (_A1, _A3), (_A2, _A2),  # doubled in the cut row
    (_B1, _B3), (_B2, _B2), (_Z, _Z),  # doubled in the pivot row
    (_A1, _B1), (_A2, _B2), (_A3, _B3),  # split letters
}


def _red_holds(pair: Sequence[int], r: int, q1: int, q2: int, c1: int, c2: int) -> bool:
    """The Red-violation test on the pairing of a cut row (the first r
    cells) and a pivot row with its pivots at cells q1 < q2."""
    region = [_A1] * c1 + [_A2] * (c2 - c1) + [_A3] * (r - c2)
    region += [_B1] * q1 + [_Z] + [_B2] * (q2 - q1 - 1) + [_Z] + [_B3] * (len(pair) - r - q2 - 1)
    straddle = False
    for x, y in enumerate(pair):
        if x < y:
            # away from the pivots regions grow along the word, so an
            # allowed spot comes sorted
            spot = (region[x], region[y])
            if spot not in _RED_PAIRS:
                return False
            straddle = straddle or spot in ((_A1, _A3), (_B1, _B3))
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
    top, bottom = _oriented(gp, d.swapped)
    r, l = len(top), len(bottom)
    q1, q2 = d.zero_cells
    c1, c2 = d.cuts
    if not (0 <= q1 < q2 < l and 0 <= c1 <= c2 <= r):
        return False
    if bottom[q1] != d.zero_letter or bottom[q2] != d.zero_letter:
        return False
    return _red_holds(position_pairing(top + bottom), r, q1, q2, c1, c2)


def red_condition(gp: GeneralizedPermutation) -> RedDecomposition | None:
    """First Red-violating decomposition (up to row exchange), else None.

    Pivots are tried by letter, and candidates tightest middle block
    first, so the returned witness carries no slack in its cuts.
    """
    for swapped in (False, True):
        top, bottom = _oriented(gp, swapped)
        r = len(top)
        pair = position_pairing(top + bottom)
        # the doubled letters of the pivot row, each at its first cell
        pivots = sorted((bottom[x - r], x - r, pair[x] - r) for x in range(r, len(pair)) if x < pair[x])
        for z, q1, q2 in pivots:
            for width in range(r + 1):
                for c1 in range(r - width + 1):
                    if _red_holds(pair, r, q1, q2, c1, c1 + width):
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
