"""Singularity data of the suspension over a generalized permutation.

The suspension glues the two boundary circles of a cylinder according to
the permutation: same-side pairs by a central symmetry, opposite-side
pairs by a translation.  The cone points are the equivalence classes of
the cell junctions on the two circles; each junction carries one flat
wedge of angle pi, so a class of m junctions is a singularity of order
m - 2 (cone angle m*pi, a simple pole for m = 1).

Junctions carry one integer numbering, shared with the suspension
module: cell c is position c of the rows, top row first, and junction c
the point at its left end, so top junction j < r and bottom junction
r + j.  Every junction query, here and in the suspension module, reads
one permutation, :func:`junction_turn`, which sends each junction to the
next one around its cone point.  :func:`vertex_cycles` returns the
classes as its cycles (by :func:`cycles`, the package's one cycle
reader), in the rotational order that angle computations consume,
:func:`pattern_orders` their singularity orders and :func:`single_vertex`
the minimal-stratum test.  :func:`walk_pairings` runs the turn the other
way round: it builds every pairing with given singularity orders along
it, for the enumeration, or, given a symmetry group with row rotations,
only those whose cell 0 pairs with the closest twins of the top row and
whose cell r pairs with the least top cell that pairs with the bottom.
The named families tag a class by one table per type, :func:`named_tags`,
from canonical key to tag.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import BadParameters, BadPattern, UnknownName
from .genperm import DEFAULT_SYM, GeneralizedPermutation, SymmetryGroup


def junction_turn(pair: Sequence[int], r: int) -> list[int]:
    """``turn[j]``: the junction after j around its cone point, one direction for every class.

    ``pair`` is the position pairing of the concatenated rows and ``r``
    the length of the top row.  A top junction, the left end of a cell,
    leaves through that cell, and a bottom junction, the right end of a
    cell, through that one.  The central symmetry of a same-side pair swaps
    the ends and the translation of an opposite-side pair keeps them, so
    crossing to the partner c reaches the right end of c on top and the
    left end of c below.
    """
    return [c + 1 if c < r - 1 else 0 if c < r else c for c in (*pair[:r], pair[-1], *pair[r:-1])]


def cycles(perm: Sequence[int]) -> tuple[list[int], list[list[int]]]:
    """Cycle number of each point of a permutation, and the cycles, each from its least point.

    Cycles are numbered in order of their least point.
    """
    cycle_of = [-1] * len(perm)
    out: list[list[int]] = []
    for i in range(len(perm)):
        if cycle_of[i] >= 0:
            continue
        cycle = []
        while cycle_of[i] < 0:
            cycle_of[i] = len(out)
            cycle.append(i)
            i = perm[i]
        out.append(cycle)
    return cycle_of, out


def vertex_cycles(pair: Sequence[int], r: int) -> list[list[int]]:
    """Every junction class in turning order, each read from its least junction."""
    return cycles(junction_turn(pair, r))[1]


def pattern_orders(pair: Sequence[int], r: int) -> tuple[int, ...]:
    """Descending singularity orders of the rows ``pair`` encodes (see :func:`junction_turn`)."""
    return tuple(sorted((len(c) - 2 for c in vertex_cycles(pair, r)), reverse=True))


def single_vertex(pair: Sequence[int], r: int) -> bool:
    """True iff all junctions fall in one class (minimal-stratum test).

    Follows :func:`junction_turn` from junction 0 until its class closes,
    and compares the class size with the number of junctions.
    """
    turn = junction_turn(pair, r)
    j, size = turn[0], 1
    while j:
        j, size = turn[j], size + 1
    return size == len(pair)


def walk_pairings(
    r: int,
    p: int,
    want: Sequence[int] | None,
    emit: Callable[[list[int]], None],
    sym: SymmetryGroup | None = None,
) -> None:
    """Call ``emit(pair)`` once for each position pairing of type (r, p - r)
    with a doubled letter in each row and singularity orders ``want``
    (any orders for None).  ``emit`` gets the one working list, valid only
    during the call.

    The pairing is built along the walk around the cone point of junction
    0, in the direction of :func:`junction_turn` read on cells: after
    crossing into cell y the walk leaves through ``turn[y]``, the next cell
    on top and the previous one below (the junction turn of the pairing
    that pairs each cell with itself), so the junction classes are the
    cycles of y -> turn[pair[y]] on cells.  A step through an unpaired
    cell branches over its free partners; a run of paired cells is followed
    in one jump, as a chain of steps kept with its two ends and its length.
    Pairing d with c adds the two steps d -> turn[c] and c -> turn[d].  A
    step that closes a chain into a junction class must give it a wanted
    size, and a chain may not grow past the largest wanted size; a partner
    that leaves a row without a doubled letter and with fewer than two free
    cells is not tried either.  When the walk's own class closes it
    restarts at the least unpaired cell.  Each pairing comes from exactly
    one branch path, since the walk reads each choice back off the pairing.

    With a symmetry group ``sym`` that rotates the rows, only the pairings
    that can pass the orderly test against the part of ``sym`` that keeps
    the type are built: cell 0 pairs with the closest twins.  Let delta be
    the least cyclic distance between two twin cells of the top row.  The
    identity's code (see :func:`onecyl.genperm.keep_least`) reads i at
    entries 0 .. delta - 1, and so does the top rotation that moves a
    closest twin pair to cells (0, delta), which reads 0 at entry delta;
    the identity reads ``pair[delta]`` there if that is below delta, so it
    is least only if ``pair[0] == delta``.  The walk's first branch pairs
    cell 0, so it tries only top partners c with 2c <= r, and after that
    no top-top pair at cyclic distance below c.  With row swap and
    r == p - r the swapped orders keep the type and read the bottom row
    first, so the same holds for bottom-bottom pairs.

    The bottom rotations break too.  The order that keeps the top row and
    starts the bottom row at cell u reads the identity's code below entry
    r, and at entry r reads ``pair[u]`` if that is a top cell, else r; the
    identity reads ``pair[r]`` or r the same way.  So once some top cell
    pairs with the bottom row, the identity is least only if ``pair[r]`` is
    the least such top cell.  The walk refuses cell r a bottom partner
    while a top-bottom pair exists, a top partner t while a top cell below
    t pairs with the bottom row, and any other top-bottom pair (t, u) once
    ``pair[r]`` is on the bottom row or above t; a flag per top cell
    records its bottom partner.  Without ``sym``, or without rotations,
    every pairing is built.
    """
    if r < 2 or p - r < 2 or (want is not None and sum(k + 2 for k in want) != p):
        return
    pair = [-1] * p
    need = [0] * (p + 1)  # need[m]: classes of m junctions still wanted
    for k in want if want is not None else ():
        need[k + 2] += 1
    top = p if want is None else max(k + 2 for k in want)
    turn = junction_turn(range(p), r)
    head = list(range(p))  # head[t]: first cell of the chain that ends at t
    tail = list(range(p))  # tail[s]: last cell of the chain that starts at s
    size = [1] * p  # size[s]: cells of the chain that starts at s
    free = [r, p - r]  # unpaired cells of each row
    twins = [0, 0]  # same-row pairs of each row
    # closest twins: a same-row pair of a guarded row is at least pair[0]
    # apart around its row (pair[0] is 0 until cell 0 has its partner)
    rotate = sym is not None and sym.rotate_rows
    guard = (rotate, rotate and sym.swap_rows and 2 * r == p)
    span = (r, p - r)
    down = [False] * r  # down[t]: top cell t pairs with the bottom row

    def join(u: int, v: int) -> int:
        # the step u -> v from a chain's last cell to a chain's first:
        # -1 if it closes a wanted class, 1 if it joins two chains, 0 if refused
        s = head[u]
        if s == v:
            if want is not None:
                if not need[size[s]]:
                    return 0
                need[size[s]] -= 1
            return -1
        n = size[s] + size[v]
        if n > top:
            return 0
        t = tail[v]
        tail[s], head[t], size[s] = t, s, n
        return 1

    def split(u: int, v: int, joined: int) -> None:
        # undo join(u, v), which returned joined
        if joined > 0:
            s = head[u]
            t = tail[s]
            tail[s], head[t], size[s] = u, v, size[s] - size[v]
        elif want is not None:
            need[size[v]] += 1

    def grow(d: int, left: int, partners: range = range(p)) -> None:
        # d: the unpaired cell the walk leaves through; left: unpaired cells
        rd = d >= r
        free[rd] -= 1
        pair[d] = d  # taken while its partner is chosen
        for c in partners:
            if pair[c] >= 0:
                continue
            rc = c >= r
            same = rd == rc
            t = -1  # the top cell of a top-bottom pair under rotations
            if same:
                if guard[rc]:
                    gap = c - d if c > d else d - c
                    if gap < pair[0] or span[rc] - gap < pair[0]:
                        continue
                if rotate and r in (c, d) and True in down:
                    continue
            elif rotate:
                # cell r pairs with the least top cell that pairs with the bottom
                t, u = (d, c) if rc else (c, d)
                if (True in down[:t]) if u == r else pair[r] > t:
                    continue
                down[t] = True
            free[rc] -= 1
            twins[rc] += same
            if (twins[0] or free[0] > 1) and (twins[1] or free[1] > 1):
                first = join(d, turn[c])
                if first:
                    second = join(c, turn[d])
                    if second:
                        pair[d], pair[c] = c, d
                        if left == 2:
                            emit(pair)
                        else:
                            # the walk goes on from the end of its chain: a start
                            # records its chain's end, and one that gains a chain
                            # in front keeps the record; a closed chain ends at a
                            # paired cell, and the walk restarts
                            end = tail[head[d]]
                            grow(end if pair[end] < 0 else pair.index(-1), left - 2)
                        pair[c] = -1
                        split(c, turn[d], second)
                    split(d, turn[c], first)
            free[rc] += 1
            twins[rc] -= same
            if t >= 0:
                down[t] = False
        free[rd] += 1
        pair[d] = -1

    grow(0, p, range(r // 2 + 1) if rotate else range(p))


@dataclass(frozen=True)
class SingularityPattern:
    """Multiset of singularity orders with genus and stratum dimension."""

    orders: tuple[int, ...]
    genus: int
    dimension: int

    @staticmethod
    def from_orders(orders: Sequence[int]) -> "SingularityPattern":
        orders = tuple(sorted(orders, reverse=True))
        total = sum(orders)
        if any(k < -1 for k in orders):
            raise BadPattern("orders below -1: %r" % (orders,))
        if total % 4:
            raise BadPattern("order sum %d is not a multiple of 4" % total)
        genus = total // 4 + 1
        return SingularityPattern(orders, genus, 2 * genus + len(orders) - 2)

    def render(self) -> str:
        return "Q(%s)" % ",".join(str(k) for k in self.orders)

    def as_json(self) -> dict:
        return {"orders": list(self.orders), "genus": self.genus, "dim": self.dimension}


def singularity_pattern(gp: GeneralizedPermutation) -> SingularityPattern:
    """Orders of the suspension cone points, read off the junction turn."""
    return SingularityPattern.from_orders(pattern_orders(gp.pairing(), len(gp.top)))


def stratum_info(pattern: Sequence[int]) -> tuple[int, int]:
    """(genus, complex dimension) of the stratum with the given orders."""
    p = SingularityPattern.from_orders(pattern)
    return p.genus, p.dimension


def smooth_marked_points(gp: GeneralizedPermutation) -> GeneralizedPermutation:
    """Erase order-zero cone points by merging the adjacent intervals.

    A junction class of size two is an angle-2*pi point; the two letters
    meeting at either junction bound one straight interval, so dropping
    the second letter's cells re-reads the same surface without the
    marked point.  Repeats until every order-zero junction is flanked by
    one letter, as on a one-cell row: the flat torus keeps its one point.
    """
    while True:
        r = len(gp.top)
        flat = (j for c in vertex_cycles(gp.pairing(), r) if len(c) == 2 for j in c)
        for j in flat:
            row, i = (gp.top, j) if j < r else (gp.bottom, j - r)
            if row[i - 1] != row[i]:
                break
        else:
            return gp
        top = [x for x in gp.top if x != row[i]]
        bottom = [x for x in gp.bottom if x != row[i]]
        gp = GeneralizedPermutation.from_rows(top, bottom)


# -- representative families -------------------------------------------


def hyperelliptic_rep(kind: str, r: int, l: int, a: int | None = None) -> GeneralizedPermutation:
    """One-cylinder representative of a hyperelliptic family.

    ``pi1``: top (0_1, 1..r, 0_1, r+1..r+l), bottom the two runs reversed
    around the doubled letter 0_2.  ``pi2``: both rows repeat their run
    twice.  ``pi1a`` additionally threads a letter 0_3 after 0_1 on top
    and between a and a-1 below (2 <= a <= r+1); it splits one zero of
    the pi1 surface in two.
    """
    if r < 1 or l < 1:
        raise BadParameters("need r, l >= 1, got (%d, %d)" % (r, l))
    if kind in ("pi1", "pi1a"):
        top = ["0_1"] + [str(i) for i in range(1, r + 1)] + ["0_1"] + [str(i) for i in range(r + 1, r + l + 1)]
        bottom = (
            [str(i) for i in range(r + l, r, -1)]
            + ["0_2"]
            + [str(i) for i in range(r, 0, -1)]
            + ["0_2"]
        )
        if kind == "pi1a":
            if a is None or not 2 <= a <= r + 1:
                raise BadParameters("pi1a needs 2 <= a <= r+1, got a=%r" % (a,))
            top.insert(1, "0_3")  # after 0_1
            bottom.insert(r + l + 2 - a, "0_3")  # between a and a - 1
    elif kind == "pi2":
        top = [str(i) for i in range(1, r + 1)] * 2
        bottom = [str(i) for i in range(r + 1, r + l + 1)] * 2
    else:
        raise BadParameters("unknown family kind %r" % (kind,))
    return GeneralizedPermutation.from_tokens(top, bottom)


#: The five sporadic one-cylinder representatives (genus 3 and 4).
IRREDUCIBLE_REPS = {
    "(-1,9)": "0 1 2 3 4 0 / 4 3 2 5 1 5",
    "(-1,3,6)": "0 1 2 3 4 5 0 / 5 4 3 2 6 1 6",
    "(-1,3,3,3)": "0 1 2 3 4 5 6 0 / 6 5 3 2 7 4 1 7",
    "12-I": "1 2 3 4 2 5 6 / 1 4 5 7 6 7 3",
    "12-II": "1 2 3 4 3 5 6 / 1 5 7 4 2 6 7",
}


@functools.lru_cache(maxsize=None)
def irreducible_rep(name: str) -> GeneralizedPermutation:
    """Table representative of a sporadic (irreducible) component, parsed once."""
    try:
        text = IRREDUCIBLE_REPS[name]
    except KeyError:
        raise UnknownName("unknown representative %r (known: %s)" % (name, ", ".join(sorted(IRREDUCIBLE_REPS))))
    return GeneralizedPermutation.parse(text)


@dataclass(frozen=True)
class ComponentTag:
    """Classification tag of a permutation class.

    ``kind`` is "hyperelliptic", "irreducible" or "unknown"; hyperelliptic
    tags carry the family ("pi1"/"pi2") and its (r, l), irreducible tags
    the table name.
    """

    kind: str
    family: str | None = None
    r: int | None = None
    l: int | None = None
    name: str | None = None

    def label(self) -> str:
        if self.kind == "hyperelliptic":
            return "hyp:%s(%d,%d)" % (self.family, self.r, self.l)
        if self.kind == "irreducible":
            return "irr:%s" % self.name
        return "unknown"


UNKNOWN_TAG = ComponentTag("unknown")


@functools.lru_cache(maxsize=None)
def named_tags(r: int, l: int, sym: SymmetryGroup) -> dict[tuple, ComponentTag]:
    """Canonical key -> tag of the named representatives of type (r, l).

    Built in tagging order: pi1 when r == l >= 4, pi2 when r and l are
    even, then the irreducible representatives of size r + l.  A key two
    members of one family share keeps its first member's tag.  No key
    belongs to two families: a key fixes the stratum and the doubled-letter
    counts of its rows, and the named families differ in those.
    """
    reps = []
    if r == l and r >= 4:
        reps += [(hyperelliptic_rep("pi1", rr, r - 2 - rr), ComponentTag("hyperelliptic", "pi1", rr, r - 2 - rr))
                 for rr in range(1, r - 2)]
    if r % 2 == 0 and l % 2 == 0:
        reps.append((hyperelliptic_rep("pi2", r // 2, l // 2), ComponentTag("hyperelliptic", "pi2", r // 2, l // 2)))
    reps += [(irreducible_rep(name), ComponentTag("irreducible", name=name))
             for name in IRREDUCIBLE_REPS if irreducible_rep(name).size == r + l]
    tags: dict[tuple, ComponentTag] = {}
    for rep, tag in reps:
        first = tags.setdefault(rep.canonical_key(sym), tag)
        if (first.family, first.name) != (tag.family, tag.name):
            raise AssertionError("%s and %s share the class of %s" % (first.label(), tag.label(), rep.render()))
    return tags


def match_component(gp: GeneralizedPermutation, sym: SymmetryGroup = DEFAULT_SYM) -> ComponentTag:
    """Tag gp when it is equivalent to a named representative."""
    return named_tags(*gp.type, sym).get(gp.canonical_key(sym), UNKNOWN_TAG)
