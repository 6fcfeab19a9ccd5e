"""Integer suspensions: separatrices, cylinders, covers, SL(2,Z) orbits.

The suspension over (pi, lambda) is a horizontal cylinder of width w and
height 1 whose boundary intervals are glued pairwise: opposite-side pairs
by translation, same-side pairs by central symmetry.  With integer
lengths every vertical separatrix runs along integer lines, crossing the
cylinder a whole number of times, so traces are exact and finite and the
vertical foliation is completely periodic.

Conventions:

* the seam line x = 0 always carries the distinguished compact
  separatrix gamma (one crossing, from the bottom wrap junction to the
  top wrap junction);
* cells and junctions share the integer numbering of
  :func:`onecyl.strata.junction_turn`: cell c is position c of the rows,
  top row first, and junction c its left end, so top junction j < r and
  bottom junction r + j; a germ, the vertical ray into the cylinder at a
  junction, carries its junction's number, and the germs around a cone
  point follow one another by that turn.  Cells are read off their left
  ends, so nothing is kept per unit column outside the cover;
* vertical lengths are crossing counts (the cylinder height is the unit);
* arc i is the run of unit columns from the i-th singular line (a line
  a compact separatrix runs along; in increasing order, the seam first)
  to the next one; a cylinder names its arcs by their first columns.
  Separatrices run along both edges of an arc, so it spans the width of
  its vertical cylinder, and each boundary side of the cylinder runs
  beside each of its arcs once.  The sides are the circles
  of the separatrix diagram (germs in turn around each cone point, paired
  by segments), two per cylinder, read off the diagram without a trace;
  the two sides of a cylinder are the two circles beside the same arcs;
* going up through a top interval glued by translation re-enters the
  bottom going up; glued to another top interval it re-enters that
  interval going down with reflected offset, and symmetrically below;
* one line holds both circles, bottom point x at x + w.  One integer
  loop on it traces every segment of a diagram: a crossing bisects the
  cells' left ends and moves the point by its cell's translation or
  central symmetry.  The diagram is flat arrays (ends, crossings and
  lines per segment, the segment and far end of each germ, the first end
  above each singular line) shared by the spectrum, the decomposition
  and the vertical re-reading; only the first two build ``Segment``
  objects.  The cover reads its up map off the same cell arrays, one run
  of columns per cell;
* every entry point stores its reading, the geometry with the diagram and
  spectrum traced when first read, keyed by the permutation object and
  the lengths: a query read through all four entry points traces once,
  and the cover never traces.  A reading at new lengths takes the class
  frame of the last reading of the same object, what does not depend on
  the lengths (the cells' letters and sides, the junction turn, its
  inverse and the singularity orders), so a pass of re-readings builds it
  once per class.  No reader mutates the shared arrays.

The orientation double cover is a square-tiled surface of n = 2w unit
squares: square c < w lies over base column c on the upright sheet,
square w + c over the same column on the half-turned sheet.  ``right``,
``up`` and ``deck`` are permutations of the squares, so every reader of
the cover works on flat integer arrays:

* a vertex of the cover is named by a square whose lower-left corner sits
  at it; the corner turn (down, left, up, right) moves between the
  squares sharing that corner, and its cycles are the vertices, a cycle of
  length m having cone angle 2*pi*m;
* the top edge of square q is edge q and its bottom edge edge n + q.
"""

from __future__ import annotations

import functools
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

from .errors import (
    BadParameters,
    BoundTooSmall,
    Infeasible,
    NotSimple,
    NotSingleCylinder,
    SizeLimit,
    TraceBudgetExceeded,
)
from .genperm import GeneralizedPermutation
from .strata import cycles, junction_turn, pattern_orders, singularity_pattern

Germ = int  # junction carrying the inward vertical ray, numbered as in junction_turn


# -- admissible vectors -------------------------------------------------


def admissible_feasible(gp: GeneralizedPermutation) -> bool:
    """True iff a strictly positive admissible vector exists.

    The single balance equation equates the doubled-letter totals of the
    two rows, so feasibility means both rows have a doubled letter or
    neither does.
    """
    return bool(gp.top_doubled()) == bool(gp.bottom_doubled())


def check_admissible(gp: GeneralizedPermutation, lam: Sequence[int]) -> tuple[int, ...]:
    """Validate a per-letter length vector and return it as a tuple of ints."""
    given = tuple(lam)
    try:
        lam = tuple(map(int, given))
    except (TypeError, ValueError):
        lam = ()
    if lam != given:
        raise Infeasible("lengths must be integers, got %r" % (given,))
    if len(lam) != gp.num_letters:
        raise Infeasible("expected %d lengths, got %d" % (gp.num_letters, len(lam)))
    if min(lam) <= 0:
        raise Infeasible("lengths must be positive integers")
    if sum(lam[x - 1] for x in gp.top) != sum(lam[x - 1] for x in gp.bottom):
        raise Infeasible("row sums differ; vector is not admissible")
    return lam


def all_ones(gp: GeneralizedPermutation) -> tuple[int, ...]:
    return check_admissible(gp, (1,) * gp.num_letters)


def lam_from_positions(gp: GeneralizedPermutation, values: Sequence[int]) -> tuple[int, ...]:
    """Convert a position-indexed vector (top row first) to per-letter."""
    cells = gp.top + gp.bottom
    if len(values) != len(cells):
        raise Infeasible("expected %d position lengths" % len(cells))
    lam = [0] * gp.num_letters
    for letter, v in zip(cells, values):
        if lam[letter - 1] not in (0, v):
            raise Infeasible("positions of letter %d carry different lengths" % letter)
        lam[letter - 1] = v
    return check_admissible(gp, lam)


def minimal_admissible(gp: GeneralizedPermutation) -> tuple[int, ...]:
    """Smallest-area admissible vector: all ones with one balancing bump."""
    if not admissible_feasible(gp):
        raise Infeasible("no positive admissible vector for %s" % gp.render())
    lam = [1] * gp.num_letters
    td, bd = gp.top_doubled(), gp.bottom_doubled()
    diff = len(td) - len(bd)
    if diff > 0:
        lam[bd[0] - 1] += diff
    elif diff < 0:
        lam[td[0] - 1] += -diff
    return check_admissible(gp, lam)


def sample_admissible(gp: GeneralizedPermutation, seed: int = 0, bound: int = 20) -> tuple[int, ...]:
    """Deterministic positive integer admissible vector with entries <= bound.

    Each entry is drawn as ``random.Random.randint(1, bound)`` draws it, a
    ``getrandbits`` rejection loop, inlined so the stream is unchanged.
    The draw reads only the sampling signature of ``gp``: its letter
    count and its top- and bottom-doubled letters.  So for one signature,
    seed and bound it always returns the same vector or always raises
    ``BoundTooSmall``, and a caller may draw once per signature.
    """
    if bound < 1:
        raise BadParameters("lambda bound must be at least 1, got %d" % bound)
    if not admissible_feasible(gp):
        raise Infeasible("no positive admissible vector for %s" % gp.render())
    k = gp.num_letters
    td = [x - 1 for x in gp.top_doubled()]
    bd = [x - 1 for x in gp.bottom_doubled()]
    if seed == 0 and len(td) == len(bd):
        return (1,) * k
    rng = random.Random(seed)
    getrandbits, bits = rng.getrandbits, bound.bit_length()
    for _ in range(400):
        lam = []
        for _ in range(k):
            v = getrandbits(bits)
            while v >= bound:
                v = getrandbits(bits)
            lam.append(v + 1)
        diff = sum(map(lam.__getitem__, td)) - sum(map(lam.__getitem__, bd))
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


# -- suspension geometry -------------------------------------------------


class _Frame:
    """The length-free tables of one permutation object, shared by its readings.

    ``letter[c]`` is the zero-based letter of cell c and ``same[c]`` is true
    when its partner ``pair[c]`` lies on the same circle.  The junction turn
    with its inverse and the singularity orders are built when a reader
    first needs them: the spectrum and the cover read neither.
    """

    def __init__(self, gp: GeneralizedPermutation):
        self.r = r = len(gp.top)
        self.pair = pair = gp.pairing()
        self.letter = [x - 1 for x in gp.top + gp.bottom]
        self.same = [(c < r) == (d < r) for c, d in enumerate(pair)]

    @functools.cached_property
    def turns(self) -> tuple[list[int], tuple[int, ...]]:
        turn = junction_turn(self.pair, self.r)
        return turn, _inv(turn)

    @functools.cached_property
    def orders(self) -> tuple[int, ...]:
        return pattern_orders(self.pair, self.r)


class _Geometry:
    """Cell arrays of an integer suspension, shared by all traces and the cover.

    Cell c is position c of the rows, top row first, with partner
    ``pair[c]``; junction c is its left end.  Both circles lie on one line:
    point x of the top circle is x and of the bottom circle x + w, and the
    unit column right of point y is column y, so ``edge``, the cells' left
    ends there, ascends and ``junction`` maps each junction point back to
    its junction.  Nothing is kept per unit column.  A vertical ray about
    to cross the top circle travels up, one about to cross the bottom down.

    Crossing cell c moves point or column y to ``y + shift[c]`` when the
    partner lies on the other circle: a translation, which keeps the
    direction, so the next crossing is on the same circle; ``mirror[c]``
    is then 0.  When the partner lies on the same circle, a central
    symmetry moves point y to ``mirror[c] - y`` and column y to column
    ``mirror[c] - y - 1``, and reverses the direction.  The cell tables
    come from the permutation's :class:`_Frame`; the diagram and the
    spectrum are traced when first read.
    """

    def __init__(self, frame: _Frame, lam: tuple[int, ...]):
        """``lam`` is the tuple :func:`check_admissible` returned."""
        self.frame = frame
        self.r = r = frame.r
        self.pair = pair = frame.pair
        length = [lam[x] for x in frame.letter]
        self.w = w = sum(length[:r])
        left = [0, *accumulate(length[: r - 1]), 0, *accumulate(length[r:-1])]  # on each circle
        self.edge = edge = left[:r] + [x + w for x in left[r:]]
        self.junction = {y: c for c, y in enumerate(edge)}
        self.shift = [left[d] - left[c] for c, d in enumerate(pair)]
        same = frame.same
        self.mirror = [w + left[c] + left[d] + length[d] if same[c] else 0 for c, d in enumerate(pair)]
        self._traced = self._spectrum = None

    @property
    def diagram(self) -> tuple:
        if self._traced is None:
            self._traced = _diagram(self)
        return self._traced

    @property
    def spectrum(self) -> SeparatrixSpectrum:
        if self._spectrum is None:
            segments = zip(*self.diagram[:3])
            # segment 0, from junction 0 to junction r, is gamma (see _diagram)
            self._spectrum = SeparatrixSpectrum(tuple(Segment(*seg, i == 0) for i, seg in enumerate(segments)))
        return self._spectrum


# The last reading, (gp, lam, geometry), keyed by the identity of gp and the
# checked lengths and replaced whole, so a reader sees one consistent entry.
_last: tuple = (None, None, None)


def _reading(gp: GeneralizedPermutation, lam: Sequence[int]) -> _Geometry:
    """The geometry of (gp, lam), the last reading's or a fresh one, stored.

    A fresh reading of the last permutation object takes its class frame.
    The lengths are checked on every call, so bad ones raise even right
    after a reading of the same permutation.
    """
    global _last
    lam = check_admissible(gp, lam)
    last_gp, last_lam, geo = _last
    if last_gp is not gp or last_lam != lam:
        geo = _Geometry(geo.frame if last_gp is gp else _Frame(gp), lam)
        _last = gp, lam, geo
    return geo


# -- separatrix spectrum --------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """A compact vertical separatrix with its two end germs."""

    germs: tuple[Germ, Germ]
    crossings: int
    lines: tuple[int, ...]
    is_gamma: bool


@dataclass(frozen=True)
class SeparatrixSpectrum:
    segments: tuple[Segment, ...]

    def non_gamma(self) -> tuple[Segment, ...]:
        return tuple(s for s in self.segments if not s.is_gamma)

    def singular_lines(self) -> set[int]:
        out: set[int] = set()
        for s in self.segments:
            out.update(s.lines)
        return out

    def as_json(self) -> list[dict]:
        return [{"len": s.crossings, "is_gamma": s.is_gamma} for s in self.segments]


def separatrix_spectrum(gp: GeneralizedPermutation, lam: Sequence[int]) -> SeparatrixSpectrum:
    """All compact vertical separatrices, as a perfect matching on germs."""
    return _reading(gp, lam).spectrum


def _diagram(geo: _Geometry) -> tuple[list, list, list, list[int], list[Germ], dict[int, Germ]]:
    """The separatrix diagram as flat arrays: (ends, crossings, lines, seg_of, other, start).

    Each segment is traced once, from its least germ: segment i joins the
    germs ``ends[i]`` and crosses the cylinder ``crossings[i]`` times, at
    ``lines[i]`` in trace order.  ``seg_of[g]`` is the index of g's segment
    and ``other[g]`` its far end.  ``start[x]``, for each singular line x,
    is the end that the segment along x reaches going up from x: the first
    in-germ of a boundary side leaving line x upward.
    :func:`onecyl.strata.junction_turn` gives the diagram's other half:
    the boundary circles are the cycles of g -> other[turn[g]], two per
    cylinder.  One loop traces every segment: the vertical ray from a germ
    crosses the circles at points of the line of ``geo.edge`` until it
    hits a junction; point y < w crosses line y going up, y >= w line
    y - w going down.
    """
    r, w, edge, junction, shift, mirror = geo.r, geo.w, geo.edge, geo.junction, geo.shift, geo.mirror
    n = len(edge)
    budget = range(2 * w + 2)  # crossings per trace
    seg_of = [-1] * n
    other = [0] * n
    start: dict[int, Germ] = {}
    ends: list[tuple[Germ, Germ]] = []
    crossings: list[int] = []
    lines: list[tuple[int, ...]] = []
    for g in range(n):
        if seg_of[g] >= 0:
            continue
        y = edge[g] + w if g < r else edge[g] - w  # a top ray first crosses the bottom
        xs = []
        ups = []  # lines crossed going up: their start is the end, known once hit
        for _ in budget:
            if y < w:
                xs.append(y)
                ups.append(y)
            else:
                x = y - w
                xs.append(x)
                start[x] = g
            if y in junction:
                break
            c = bisect_right(edge, y) - 1  # the last cell to start at or before y
            m = mirror[c]
            y = m - y if m else y + shift[c]
        else:
            raise TraceBudgetExceeded("separatrix trace exceeded %d crossings" % len(budget))
        end = junction[y]
        # a crossing is a bijection on crossing states, so a trace back from
        # end would return to g exactly when end is a new germ and no line
        # is crossed twice; every germ below g is claimed, so end > g
        assert end != g and seg_of[end] < 0, "segment pairing broke"
        seg_of[g] = seg_of[end] = len(ends)
        other[g], other[end] = end, g
        ends.append((g, end))
        crossings.append(len(xs))
        lines.append(tuple(xs))
        for x in ups:
            start[x] = end
    assert len(start) == sum(crossings), "two segments cross one line"
    # gamma, the one segment between the seam's ends 0 and r, crosses once
    assert other[0] == r and crossings[0] == 1, "the seam does not carry gamma"
    return ends, crossings, lines, seg_of, other, start


def _passages(other: list[Germ], step: Sequence[Germ], g: Germ) -> Iterator[tuple[Germ, Germ]]:
    """(in-germ, out-germ) passages of the boundary side whose first in-germ is g.

    The side passes each cone point from g to ``step[g]`` and runs along
    that germ's segment to the next in-germ, ``other[step[g]]``, once round
    its circle.  ``step`` is ``turn`` for a side that leaves a singular line
    upward at offset +1 and its inverse for one at offset -1.
    """
    first = g
    while True:
        out = step[g]
        yield g, out
        g = other[out]
        if g == first:
            return


def gamma_mult_one_evidence(gp: GeneralizedPermutation, lam: Sequence[int]) -> bool:
    """Sufficient length test: every companion separatrix crosses >= 3 times."""
    spectrum = separatrix_spectrum(gp, lam)
    return all(s.crossings >= 3 for s in spectrum.non_gamma())


# -- cylinder decomposition ----------------------------------------------


@dataclass(frozen=True)
class Side:
    """One boundary circle of a vertical cylinder.

    ``passages`` lists (incoming germ, outgoing germ) at each singular
    point crossed; the boundary is the cyclic concatenation of the
    segments owning the outgoing germs.
    """

    passages: tuple[tuple[Germ, Germ], ...]
    traversals: int


@dataclass(frozen=True)
class Cylinder:
    arcs: tuple[int, ...]  # the first column of each arc, ascending
    width: int
    circumference: int
    simple: bool
    sides: tuple[Side, Side]


@dataclass(frozen=True)
class CylinderDecomposition:
    cylinders: tuple[Cylinder, ...]
    spectrum: SeparatrixSpectrum
    total_width: int

    def as_json(self) -> dict:
        return {
            "cylinders": [
                {"width": c.width, "circumference": c.circumference, "simple": c.simple}
                for c in self.cylinders
            ],
            "segments": self.spectrum.as_json(),
        }


def cylinder_decomposition(gp: GeneralizedPermutation, lam: Sequence[int]) -> CylinderDecomposition:
    """Vertical cylinders of the suspension, with boundary structure."""
    geo = _reading(gp, lam)
    _, _, lines, seg_of, other, start = geo.diagram
    turn, back = geo.frame.turns
    singular = sorted(start)
    count = len(singular)
    rank = {x: i for i, x in enumerate(singular)}
    # boundary sides in scan order, each read once off its diagram circle
    # from the first start it visits.  A side leaving line x upward at
    # offset sigma visits the lines of its outgoing segments: at sigma where
    # it goes up, toward start[v], and at -sigma where it goes down; a visit
    # up line i claims arc i, right of the line, and a visit down it arc
    # i - 1, left of it, and a cylinder's two sides claim its arcs.
    # ups[i] and downs[i] count the visits to singular line i
    ups = [0] * count
    downs = [0] * count
    sides_of: dict[tuple[int, ...], list[Side]] = {}
    for i, x in enumerate(singular):
        for sigma, visits in ((1, ups), (-1, downs)):
            if visits[i]:
                continue
            passages = tuple(_passages(other, turn if sigma > 0 else back, start[x]))
            arcs = []
            for _, out in passages:
                g = other[out]
                for v in lines[seg_of[out]]:
                    j = rank[v]
                    if (start[v] == g) == (sigma > 0):
                        ups[j] += 1
                        arcs.append(j)
                    else:
                        downs[j] += 1
                        arcs.append(j - 1 if j else count - 1)
            arcs.sort()
            sides_of.setdefault(tuple(arcs), []).append(Side(passages, len(arcs)))
    # each side of each line visited once: 2 * count claims, two per arc
    assert ups.count(1) == downs.count(1) == count, "a line visited twice from one side"
    # every arc in one cylinder, claimed once by each of its sides
    assert sorted(a for arcs in sides_of for a in arcs) == list(range(count)), "arcs not partitioned"

    # cylinders in order of their least arc (the seam is singular line 0);
    # the arcs' number is the circumference and their length the width
    bounds = singular + [geo.w]
    cylinders = []
    for arcs, sides in sorted(sides_of.items()):
        assert len(sides) == 2, "cylinder with %d boundary sides" % len(sides)
        assert len({bounds[a + 1] - bounds[a] for a in arcs}) == 1, "cylinder arcs differ in width"
        simple = all(len(s.passages) == 1 for s in sides)
        width = bounds[arcs[0] + 1] - bounds[arcs[0]]
        cylinders.append(Cylinder(tuple(bounds[a] for a in arcs), width, len(arcs), simple, (sides[0], sides[1])))
    return CylinderDecomposition(tuple(cylinders), geo.spectrum, geo.w)


def junction_sector_angles(
    cycle_of: list[int], turns: list[list[int]], side1: tuple[Germ, Germ], side2: tuple[Germ, Germ]
) -> tuple[int, int]:
    """Sector angles (s, complement) between two boundary germ pairs.

    Each pair is the (incoming, outgoing) junction of one boundary circle
    at the singularity; the pairs occupy adjacent wedges, and the
    remaining wedges split into the two sectors.  The singularity is the
    cycle of :func:`onecyl.strata.junction_turn` through the first germ,
    read off the class's ``cycles(junction_turn(...))``; sector arithmetic
    is mod its junction count and the two sectors come out as a sorted
    pair, so neither where the cycle starts nor which way it turns changes
    an angle.  Raises NotSimple when the germs do not sit around a single
    singularity.
    """
    cycle = turns[cycle_of[side1[0]]]
    germs = (*side1, *side2)
    if not all(g in cycle for g in germs):
        raise NotSimple("boundary circles meet different singularities")
    spots = [cycle.index(g) for g in germs]
    n = len(cycle)

    def block(in_pos: int, out_pos: int) -> int:
        if (in_pos + 1) % n == out_pos:
            return in_pos
        assert (out_pos + 1) % n == in_pos, "passage germs are not adjacent"
        return out_pos

    xa = block(spots[0], spots[1])
    xb = block(spots[2], spots[3])
    if xa == xb:
        raise NotSimple("boundary circles pass the singularity in one wedge")
    s1 = (xb - xa - 1) % n
    s2 = (xa - xb - 1) % n
    assert s1 + s2 == n - 2
    return (min(s1, s2), max(s1, s2))


def simple_cylinder_angle(
    gp: GeneralizedPermutation, lam: Sequence[int], cylinder: Cylinder
) -> tuple[int, int]:
    """Sector angles (s, complement) in pi units at the boundary singularity.

    Both boundary circles of a simple cylinder must pass through one
    singularity; the four boundary germs cut its cone angle into the two
    cylinder-side sectors of angle pi and two complementary sectors of
    s*pi and (k-s)*pi at an order-k point.  The smaller label comes first.
    ``lam`` is checked, and the junction turn is read off the class frame
    of the (gp, lam) reading, so right after that reading's decomposition
    only the turn's cycles are built.
    """
    turn, _ = _reading(gp, lam).frame.turns
    if not cylinder.simple:
        raise NotSimple("cylinder has a multi-segment boundary side")
    (pass1,) = cylinder.sides[0].passages
    (pass2,) = cylinder.sides[1].passages
    return junction_sector_angles(*cycles(turn), pass1, pass2)


# -- vertical permutation (quarter turn of a one-cylinder direction) -----


def vertical_permutation(
    gp: GeneralizedPermutation, lam: Sequence[int]
) -> tuple[GeneralizedPermutation, tuple[int, ...]]:
    """Re-encode a single-vertical-cylinder suspension along the vertical.

    The two boundary circles, read parallel to each other at a common
    regular arc, become the rows of the new permutation; letters are the
    vertical separatrix segments and their lengths the crossing counts.
    The separatrix diagram counts the cylinders first, and the rows are
    read off its two circles.
    """
    geo = _reading(gp, lam)
    _, crossings, _, seg_of, other, start = geo.diagram
    turn, back = geo.frame.turns
    _, circles = cycles([other[g] for g in turn])
    assert len(circles) % 2 == 0, "boundary circles do not pair into cylinders"
    if len(circles) != 2:
        raise NotSingleCylinder("vertical foliation has %d cylinders" % (len(circles) // 2))
    # read both sides upward at arc 0, the regular columns right of x=0:
    # the top row leaves the seam at offset +1, the bottom row the next
    # singular line (the seam again when it is the only one) at offset -1
    singular = sorted(start)
    top = [seg_of[out] for _, out in _passages(other, turn, start[0])]
    bottom = [seg_of[out] for _, out in _passages(other, back, start[singular[1 % len(singular)]])]
    # the two sides of the one cylinder hug every singular line on both sides
    assert sum(crossings[i] for i in top + bottom) == 2 * len(singular), "cylinder without two sides"

    # from_rows checks that every segment occurs twice and renumbers by
    # first appearance, the order of dict.fromkeys
    new_gp = GeneralizedPermutation.from_rows(top, bottom)
    new_lam_t = check_admissible(new_gp, [crossings[i] for i in dict.fromkeys(top + bottom)])
    assert pattern_orders(new_gp.pairing(), len(new_gp.top)) == geo.frame.orders, "stratum changed"
    return new_gp, new_lam_t


# -- orientation double cover ---------------------------------------------


def _mul(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Composition p after q."""
    return tuple([p[i] for i in q])


def _inv(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


@dataclass(frozen=True)
class SquareTiledCover:
    """Orientation double cover as a square-tiled surface with deck map.

    Squares 0..w-1 are the upright sheet over the base columns, squares
    w..2w-1 the half-turned sheet; ``right``/``up`` cross the respective
    edges in each square's own orientation.
    """

    right: tuple[int, ...]
    up: tuple[int, ...]
    deck: tuple[int, ...]
    connected: bool

    @property
    def n(self) -> int:
        return len(self.right)

    def check(self) -> None:
        """Assert that deck is a fixed-point-free involution conjugating right and up to their inverses.

        One loop tests deck[deck[i]] == i, right[deck[right[deck[i]]]] == i
        and the same for up: every square is then a value of deck, right and
        up, so with equal lengths all three are permutations of the squares.
        """
        right, up, deck = self.right, self.up, self.deck
        assert len(up) == len(deck) == len(right)
        for i in range(len(right)):
            d = deck[i]
            assert d != i and deck[d] == i and right[deck[right[d]]] == i and up[deck[up[d]]] == i

    def components(self, deck: bool = False) -> int:
        """Number of orbits of <right, up>, or of <right, up, deck> with ``deck``.

        The generators are permutations of finitely many squares, so
        forward images alone reach a whole orbit.
        """
        gens = (self.right, self.up, self.deck) if deck else (self.right, self.up)
        seen = [False] * self.n
        count = 0
        for start in range(self.n):
            if seen[start]:
                continue
            count += 1
            seen[start] = True
            stack = [start]
            while stack:
                q = stack.pop()
                for g in gens:
                    t = g[q]
                    if not seen[t]:
                        seen[t] = True
                        stack.append(t)
        return count

    @functools.cached_property
    def _vertices(self) -> tuple[list[int], list[int]]:
        """Vertex of each square's lower-left corner, and each vertex's corner-turn cycle length.

        The corner turn, the commutator of right and up, goes down, left,
        up and right around the lower-left corner; its cycles are the
        vertices, numbered in order of their least square.  Cached outside
        the dataclass fields, as ``_inverses`` is; T and S do not hand it on.
        """
        right, up = self.right, self.up
        ri, ui = self._inverses
        vertex, turns = cycles([right[up[ri[q]]] for q in ui])
        return vertex, [len(c) for c in turns]

    def vertex_profile(self) -> tuple[int, ...]:
        """Cycle lengths of the corner turn, in descending order."""
        return tuple(sorted(self._vertices[1], reverse=True))

    def genus(self) -> int:
        assert self.connected
        excess = sum(m - 1 for m in self.vertex_profile())
        assert excess % 2 == 0
        return excess // 2 + 1

    @functools.cached_property
    def _inverses(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """right^-1 and up^-1, cached outside the dataclass fields; T and S hand them to their images."""
        return _inv(self.right), _inv(self.up)

    def apply_T(self) -> "SquareTiledCover":
        """Unit horizontal shear, re-squared."""
        right_inv, up_inv = self._inverses
        out = SquareTiledCover(self.right, _mul(self.up, right_inv), _mul(self.right, self.deck), self.connected)
        out.check()
        out.__dict__["_inverses"] = right_inv, _mul(self.right, up_inv)
        return out

    def apply_S(self) -> "SquareTiledCover":
        """Quarter turn: new right is old down, new up is old right."""
        right_inv, up_inv = self._inverses
        out = SquareTiledCover(up_inv, self.right, self.deck, self.connected)
        out.check()
        out.__dict__["_inverses"] = self.up, right_inv
        return out

    def canonical_key(self) -> tuple:
        """Minimal (right, up, deck) over relabelings by traversal order.

        Each start square labels the cover breadth-first, trying the
        generators right, up, right^-1, up^-1 in turn. On a disconnected
        cover the walk jumps to the deck image of the start square, whose
        component the deck map swaps with the start's; only a cover of
        three or more components falls back to the least unlabeled square.
        Row i of a relabeled permutation is the label of the image of
        ``order[i]``.

        Entries 0 and 1 of a start's right row are functions of the
        start's step-0 neighbourhood, so they are settled before any label
        list exists. Step 0 labels s with 0, then right s, up s, right^-1 s
        and up^-1 s in turn where they are new. Entry 0 is 0 exactly when
        right s is s. If right fixes no square, step 1 reads right s, so
        entry 1 is the label right^2 s got at step 0, or the next new
        label: 0 on a 2-cycle of right, else 2 plus the new squares step 0
        labels before right^2 s. Only the fixed points of right, if there
        are any, else the starts at the least entry 1, can reach the least
        right row; every other start already has a larger prefix.

        Those starts walk in lockstep: step i labels the neighbours of
        each live start's ``order[i]``, which fixes entry i of its right
        row, and only the starts at the least entry stay live. The starts
        left share the least right row and are ranked by up row, then deck
        row, so the result is the same triple as the full minimum.
        """
        n = self.n
        right, up, deck = self.right, self.up, self.deck
        right_inv, up_inv = self._inverses
        starts = [s for s in range(n) if right[s] == s]  # entry 0 is 0
        if not starts:  # entry 0 is 1 everywhere, and right^2 s is never right s
            least = n
            for s in range(n):
                a = right[s]
                t = right[a]  # entry 1 is its label
                v = 0 if t == s else 2  # else labels 0 and 1 are s and right s
                if v and up[s] != t:  # each square step 0 labels before right^2 s takes the next label
                    u = up[s]
                    if u != s and u != a:
                        v += 1
                    b = right_inv[s]  # not s, nor right s since right^2 s is not s
                    if b != t:
                        if b != u:
                            v += 1
                        d = up_inv[s]
                        if d != t and d != s and d != a and d != u and d != b:
                            v += 1
                if v < least:
                    least, starts = v, [s]
                elif v == least:
                    starts.append(s)
        live = [(start, [-1] * n, [start]) for start in starts]  # (start, label, order) still at the minimum
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


#: Most squares :func:`build_cover` builds.  Building a cover peaks at about
#: 390 bytes per square, and a built connected cover keeps about 235 with its
#: inverses and its corner-turn vertices cached (190 without the vertices),
#: so this bound keeps one under 1 GB.
#: ``canonical_key`` adds one label list of 8 bytes per square for each
#: start that passes its test of the first two key entries: 20 MB for the
#: 4,200 squares of ``1 2 3 4 2 5 6 / 1 4 5 7 6 7 3`` at lengths 300,
#: where one start in seven ties, and 225 MB at 14,000 squares.
MAX_COVER_SQUARES = 1_000_000


def build_cover(gp: GeneralizedPermutation, lam: Sequence[int]) -> SquareTiledCover:
    """Square-tiled orientation double cover of the suspension.

    Same-side identifications connect the two sheets (the pulled-back
    one-form changes sign across a central symmetry), opposite-side ones
    stay on a sheet.  The cover has two squares per unit of circumference;
    more than :data:`MAX_COVER_SQUARES` raises :class:`SizeLimit`.
    """
    geo = _reading(gp, lam)
    w = geo.w
    n = 2 * w
    if n > MAX_COVER_SQUARES:
        raise SizeLimit("the cover would have %d squares, more than %d" % (n, MAX_COVER_SQUARES))
    right = [*range(1, w), 0, n - 1, *range(w, n - 1)]
    deck = [*range(w, n), *range(w)]
    # square y, on column y of the line of geo.edge, crosses the circle there:
    # up on the upright sheet, down on the half-turned one
    up: list[int] = []
    for c, (a, b) in enumerate(zip(geo.edge, geo.edge[1:] + [n])):
        m = geo.mirror[c]
        up += range(m - a - 1, m - b - 1, -1) if m else range(a + geo.shift[c], b + geo.shift[c])
    connected = not gp.is_abelian()
    cover = SquareTiledCover(tuple(right), tuple(up), tuple(deck), connected)
    assert cover.components() == (1 if connected else 2)
    cover.check()
    if connected:
        base = singularity_pattern(gp)
        odd = sum(1 for k in base.orders if k % 2)
        assert 2 - 2 * cover.genus() == 2 * (2 - 2 * base.genus) - odd
    return cover


def decode_one_cylinder(cover: SquareTiledCover) -> GeneralizedPermutation | None:
    """Read a one-cylinder base presentation off a square-tiled cover.

    Returns the generalized permutation of the quotient surface when the
    horizontal foliation of the base is a single cylinder presented by a
    deck-swapped pair of cover cylinders; None when the shape does not
    decode (several base cylinders).
    Boundary intervals are maximal runs of unit edges between cover
    singularities, so the reading carries no marked points.
    """
    if not cover.connected:
        return None
    n = cover.n
    r, u, deck = cover.right, cover.up, cover.deck
    vertex, lengths = cover._vertices
    # singular downstairs at the lower-left corner of q: cone angle above
    # 2*pi, or a branch point (a pole's lift is a deck-fixed regular-looking
    # vertex); deck maps the lower-left corner of q to the upper-right of deck(q)
    singular = [lengths[vertex[q]] != 1 or vertex[u[r[deck[q]]]] == vertex[q] for q in range(n)]

    # rows: cycles of right; a bottom row has a singular corner below it,
    # and above a regular gap (no singular NW/NE corner, i.e. SW of the
    # ups) lies exactly one row, so each cover cylinder is the chain of
    # rows climbed from its bottom row up to its first singular gap
    row_of, rows = cycles(r)
    bottom = [any(singular[q] for q in row) for row in rows]
    cylinder_of = [-1] * len(rows)
    ends: list[tuple[int, int]] = []  # (bottom row, top row) of each cover cylinder
    for b in range(len(rows)):
        if not bottom[b]:
            continue
        cylinder_of[b] = len(ends)
        i = b
        while not any(singular[u[q]] for q in rows[i]):
            i = row_of[u[rows[i][0]]]
            assert cylinder_of[i] < 0 and not bottom[i], "cylinder with torn boundary"
            cylinder_of[i] = len(ends)
        ends.append((b, i))
    assert min(cylinder_of) >= 0, "cylinder with torn boundary"
    if len(ends) != 2:
        return None
    (b, t), _ = ends
    # a base cylinder's core curve is a closed regular geodesic, of holonomy
    # +1, so it lifts to two cylinders and deck swaps them
    assert cylinder_of[row_of[deck[rows[b][0]]]] == 1, "deck-invariant cover cylinder"
    bottom_row, top_row = rows[b], rows[t]

    # unit edges: edge q above top-row square q, edge n + q below bottom-row square q
    in_k = [cylinder_of[i] == 0 for i in row_of]
    partner = [-1] * (2 * n)
    for q in top_row:
        p = u[q]
        partner[q] = n + p if in_k[p] else deck[p]
    u_inv = cover._inverses[1]
    for q in bottom_row:
        p = u_inv[q]
        partner[n + q] = p if in_k[p] else n + deck[p]

    # intervals: maximal runs of unit edges between singular junctions,
    # numbered along each circle from its first singular junction
    run_of = [-1] * (2 * n)
    heads: list[int] = []  # first edge of each run

    def read_circle(edges: list[int], corners: list[int]) -> None:
        # corners[i] is the square whose lower-left corner is left of edges[i]
        m = len(edges)
        first = next((i for i in range(m) if singular[corners[i]]), None)
        assert first is not None, "boundary circle without singular point"
        for i in range(first, first + m):
            if singular[corners[i % m]]:
                heads.append(edges[i % m])
            run_of[edges[i % m]] = len(heads) - 1

    read_circle(top_row, [u[q] for q in top_row])
    split = len(heads)
    read_circle([n + q for q in bottom_row], bottom_row)
    mate = [run_of[partner[e]] for e in heads]
    assert all(
        run < 0 or run_of[partner[e]] == mate[run] >= 0 for e, run in enumerate(run_of)
    ), "interval does not glue to one interval"
    # from_rows renumbers the letters by first appearance
    letters = [min(run, m) + 1 for run, m in enumerate(mate)]
    return GeneralizedPermutation.from_rows(letters[:split], letters[split:])


@dataclass(frozen=True)
class OrbitResult:
    """Orbit closure with one witnessing generator word per form.

    ``words[key]`` spells how to reach the form from the starting cover,
    leftmost letter applied first (T = unit shear, S = quarter turn).
    """

    keys: frozenset
    words: dict
    truncated: bool

    def __len__(self) -> int:
        return len(self.keys)


def orbit_forms(start: SquareTiledCover):
    """Breadth-first walk of the shear/quarter-turn orbit of a cover.

    Yields (depth, key, cover, word) once per form, the start first with
    the empty word; ``word`` spells the path from the start, leftmost
    letter applied first (T = unit shear, S = quarter turn).

    A form reached by S is not turned again: S(S(c)) is c relabeled by
    deck, with c's key, whenever the key reads no square label, i.e. when
    <right, up, deck> is transitive (true of every ``build_cover`` output
    and kept by T and S).
    """
    key = start.canonical_key()
    yield 0, key, start, ""
    seen = {key}
    frontier = [(start, "")]
    turn_twice = start.components(deck=True) > 1
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for cover, word in frontier:
            for letter in "TS" if turn_twice or word[-1:] != "S" else "T":
                image = cover.apply_T() if letter == "T" else cover.apply_S()
                key = image.canonical_key()
                if key not in seen:
                    seen.add(key)
                    nxt.append((image, word + letter))
                    yield depth, key, image, word + letter
        frontier = nxt


def sl2z_orbit(gp: GeneralizedPermutation, lam: Sequence[int], cap: int = 10000) -> OrbitResult:
    """Closure of the canonical cover form under shear and quarter turn.

    Keeps the first ``cap`` forms in breadth-first order and sets the
    truncation flag when the orbit has more (no failure: partial orbits
    are still useful as evidence).
    """
    if cap < 1:
        raise BadParameters("orbit cap must be at least 1, got %d" % cap)
    words: dict[tuple, str] = {}
    truncated = False
    for _, key, _, word in orbit_forms(build_cover(gp, lam)):
        if len(words) == cap:
            truncated = True
            break
        words[key] = word
    return OrbitResult(frozenset(words), words, truncated)
