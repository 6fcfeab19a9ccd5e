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
* vertical lengths are crossing counts (the cylinder height is the unit);
* going up through a top interval glued by translation re-enters the
  bottom going up; glued to another top interval it re-enters that
  interval going down with reflected offset, and symmetrically below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    BoundTooSmall,
    Infeasible,
    NotSimple,
    NotSingleCylinder,
    TraceBudgetExceeded,
)
from .genperm import GeneralizedPermutation
from .strata import singularity_pattern, vertex_cycles

Germ = tuple[str, int]  # junction carrying the inward vertical ray


# -- admissible vectors -------------------------------------------------


def admissible_feasible(gp: GeneralizedPermutation) -> bool:
    """True iff a strictly positive admissible vector exists.

    The single balance equation equates the doubled-letter totals of the
    two rows, so feasibility means both rows have a doubled letter or
    neither does.
    """
    return bool(gp.top_doubled()) == bool(gp.bottom_doubled())


def check_admissible(gp: GeneralizedPermutation, lam: Sequence[int]) -> tuple[int, ...]:
    """Validate a per-letter length vector and return it as a tuple."""
    lam = tuple(int(v) for v in lam)
    if len(lam) != gp.num_letters:
        raise Infeasible("expected %d lengths, got %d" % (gp.num_letters, len(lam)))
    if any(v <= 0 for v in lam):
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
    """Deterministic positive integer admissible vector with entries <= bound."""
    if not admissible_feasible(gp):
        raise Infeasible("no positive admissible vector for %s" % gp.render())
    k = gp.num_letters
    td = [x - 1 for x in gp.top_doubled()]
    bd = [x - 1 for x in gp.bottom_doubled()]
    if seed == 0 and len(td) == len(bd):
        return (1,) * k
    rng = random.Random(seed)
    for _ in range(400):
        lam = [rng.randint(1, bound) for _ in range(k)]
        diff = sum(lam[i] for i in td) - sum(lam[i] for i in bd)
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


class _Geometry:
    """Crossing maps of an integer suspension, shared by all traces."""

    def __init__(self, gp: GeneralizedPermutation, lam: Sequence[int]):
        self.gp = gp
        self.lam = check_admissible(gp, lam)
        r, l = gp.type
        self.w = w = sum(self.lam[x - 1] for x in gp.top)
        # prefix coordinates; X[i] is the left end of cell i
        self.left = {"T": [0] * r, "B": [0] * l}
        self.size = {"T": r, "B": l}
        for side, row in (("T", gp.top), ("B", gp.bottom)):
            acc = 0
            for i, letter in enumerate(row):
                self.left[side][i] = acc
                acc += self.lam[letter - 1]
        # junction index by coordinate, and cell index per unit column
        self.junction_at = {
            side: {x: i for i, x in enumerate(self.left[side])} for side in ("T", "B")
        }
        self.cell_at = {}
        for side in ("T", "B"):
            arr = [0] * w
            idx = 0
            lefts = self.left[side]
            n = len(lefts)
            for c in range(w):
                while idx + 1 < n and lefts[idx + 1] <= c:
                    idx += 1
                arr[c] = idx
            self.cell_at[side] = arr
        # partner of each cell: (side, index, same_side)
        occ: dict[int, list[tuple[str, int]]] = {}
        for side, row in (("T", gp.top), ("B", gp.bottom)):
            for i, letter in enumerate(row):
                occ.setdefault(letter, []).append((side, i))
        self.partner: dict[tuple[str, int], tuple[str, int, bool]] = {}
        for letter, cells in occ.items():
            (s1, i1), (s2, i2) = cells
            self.partner[(s1, i1)] = (s2, i2, s1 == s2)
            self.partner[(s2, i2)] = (s1, i1, s1 == s2)

    def cell_span(self, side: str, i: int) -> tuple[int, int]:
        a = self.left[side][i]
        row = self.gp.top if side == "T" else self.gp.bottom
        return a, a + self.lam[row[i] - 1]

    def cross_point(self, side: str, x: int) -> tuple[str, int, bool]:
        """Map an interior edge point through its cell identification.

        Returns (new_side, new_x, flipped); ``flipped`` marks a central
        symmetry (same-side gluing), which reverses the travel direction.
        """
        cell = self.cell_at[side][x if x < self.w else 0]
        a, b = self.cell_span(side, cell)
        ps, pi, same = self.partner[(side, cell)]
        c, d = self.cell_span(ps, pi)
        if same:
            return ps, d - (x - a), True
        return ps, c + (x - a), False


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

    def gamma(self) -> Segment:
        for s in self.segments:
            if s.is_gamma:
                return s
        raise AssertionError("no gamma segment")

    def non_gamma(self) -> tuple[Segment, ...]:
        return tuple(s for s in self.segments if not s.is_gamma)

    def singular_lines(self) -> set[int]:
        out: set[int] = set()
        for s in self.segments:
            out.update(s.lines)
        return out

    def as_json(self) -> list[dict]:
        return [{"len": s.crossings, "is_gamma": s.is_gamma} for s in self.segments]


def _trace_segment(geo: _Geometry, germ: Germ) -> tuple[Germ, int, tuple[int, ...]]:
    """Follow the vertical ray from a junction until it hits a junction."""
    side, idx = germ
    x = geo.left[side][idx]
    direction = -1 if side == "T" else 1  # +1 travels upward
    budget = 2 * geo.w + 2
    crossings = 0
    lines = []
    while True:
        lines.append(x)
        crossings += 1
        if crossings > budget:
            raise TraceBudgetExceeded("separatrix trace exceeded %d crossings" % budget)
        arrive = "T" if direction == 1 else "B"
        hit = geo.junction_at[arrive].get(x)
        if hit is not None:
            return (arrive, hit), crossings, tuple(lines)
        new_side, x, flipped = geo.cross_point(arrive, x)
        if flipped:
            direction = -direction


def separatrix_spectrum(gp: GeneralizedPermutation, lam: Sequence[int]) -> SeparatrixSpectrum:
    """All compact vertical separatrices, as a perfect matching on germs."""
    geo = _Geometry(gp, lam)
    return _spectrum(geo)


def _spectrum(geo: _Geometry) -> SeparatrixSpectrum:
    germs: list[Germ] = [("T", i) for i in range(geo.size["T"])] + [
        ("B", j) for j in range(geo.size["B"])
    ]
    done: dict[Germ, Segment] = {}
    segments: list[Segment] = []
    for g in germs:
        if g in done:
            continue
        end, crossings, lines = _trace_segment(geo, g)
        back, back_crossings, _ = _trace_segment(geo, end)
        assert back == g and back_crossings == crossings, "segment pairing broke"
        is_gamma = {g, end} == {("T", 0), ("B", 0)}
        seg = Segment(tuple(sorted((g, end))), crossings, lines, is_gamma)
        done[g] = done[end] = seg
        segments.append(seg)
    assert sum(1 for s in segments if s.is_gamma) == 1
    assert segments and min(s.crossings for s in segments if s.is_gamma) == 1
    return SeparatrixSpectrum(tuple(segments))


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
    columns: tuple[int, ...]
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


def _column_step(geo: _Geometry, col: int, direction: int) -> tuple[int, int]:
    """Image of a unit column under one vertical crossing."""
    arrive = "T" if direction == 1 else "B"
    cell = geo.cell_at[arrive][col]
    a, b = geo.cell_span(arrive, cell)
    ps, pi, same = geo.partner[(arrive, cell)]
    c, d = geo.cell_span(ps, pi)
    if same:
        return d - (col - a) - 1, -direction
    return c + (col - a), direction


def _side_trace(geo: _Geometry, x0: int, sigma0: int, direction0: int = 1) -> tuple[Side, list[tuple[int, int]]]:
    """Boundary trace hugging singular lines at offset sigma*epsilon."""
    state = (x0, sigma0, direction0)
    passages: list[tuple[Germ, Germ]] = []
    visited: list[tuple[int, int]] = []
    traversals = 0
    x, sigma, direction = state
    while True:
        visited.append((x, sigma))
        traversals += 1
        if traversals > 2 * geo.w + 2:
            raise TraceBudgetExceeded("side trace exceeded budget")
        arrive = "T" if direction == 1 else "B"
        jn = geo.junction_at[arrive].get(x)
        if jn is None:
            new_side, x, flipped = geo.cross_point(arrive, x)
            if flipped:
                direction = -direction
                sigma = -sigma
        else:
            in_germ: Germ = (arrive, jn)
            n = geo.size[arrive]
            cell = jn if sigma == 1 else (jn - 1) % n
            end = "L" if sigma == 1 else "R"
            a, b = geo.cell_span(arrive, cell)
            ps, pi, same = geo.partner[(arrive, cell)]
            c, d = geo.cell_span(ps, pi)
            if same:
                new_x = (d if end == "L" else c) % geo.w
                direction = -direction
                sigma = -sigma
            else:
                new_x = (c if end == "L" else d) % geo.w
            out_idx = geo.junction_at[ps].get(new_x)
            assert out_idx is not None, "junction image is not a junction"
            passages.append((in_germ, (ps, out_idx)))
            x = new_x
        if (x, sigma, direction) == state:
            break
    return Side(tuple(passages), traversals), visited


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def cylinder_decomposition(gp: GeneralizedPermutation, lam: Sequence[int]) -> CylinderDecomposition:
    """Vertical cylinders of the suspension, with boundary structure."""
    geo = _Geometry(gp, lam)
    spectrum = _spectrum(geo)
    singular = spectrum.singular_lines()
    w = geo.w
    uf = _UnionFind(w)
    # same closed leaf => same cylinder
    for col in range(w):
        c, d = _column_step(geo, col, 1)
        uf.union(col, c)
        c, d = _column_step(geo, col, -1)
        uf.union(col, c)
    # no separatrix on the line between adjacent columns => same cylinder
    for x in range(1, w):
        if x not in singular:
            uf.union(x - 1, x)
    assert 0 in singular
    groups: dict[int, list[int]] = {}
    for col in range(w):
        groups.setdefault(uf.find(col), []).append(col)

    # leaf length through a column: orbit of (column, up) under crossings
    def circumference(col: int) -> int:
        state = (col, 1)
        steps = 0
        cur = state
        while True:
            cur = _column_step(geo, cur[0], cur[1])
            steps += 1
            if cur == state:
                return steps
            assert steps <= 2 * w + 2, "leaf failed to close"

    # boundary sides, assigned to the adjacent cylinder
    sides_of: dict[int, list[Side]] = {root: [] for root in groups}
    seen: set[tuple[int, int]] = set()
    for x in sorted(singular):
        for sigma in (1, -1):
            if (x, sigma) in seen:
                continue
            side, visited = _side_trace(geo, x, sigma)
            seen.update(visited)
            col = x if sigma == 1 else (x - 1) % w
            sides_of[uf.find(col)].append(side)

    cylinders = []
    for root, cols in sorted(groups.items(), key=lambda kv: min(kv[1])):
        m = circumference(min(cols))
        assert len(cols) % m == 0, "cylinder width is not integral"
        sides = sides_of[root]
        assert len(sides) == 2, "cylinder with %d boundary sides" % len(sides)
        simple = all(len(s.passages) == 1 for s in sides)
        cylinders.append(
            Cylinder(tuple(sorted(cols)), len(cols) // m, m, simple, (sides[0], sides[1]))
        )
    assert sum(c.width * c.circumference for c in cylinders) == w
    return CylinderDecomposition(tuple(cylinders), spectrum, w)


def germ_sector_angles(
    gp: GeneralizedPermutation,
    side1: tuple[Germ, Germ],
    side2: tuple[Germ, Germ],
) -> tuple[int, int]:
    """Sector angles (s, complement) between two boundary germ pairs.

    Each pair is the (incoming, outgoing) germ of one boundary circle at
    the singularity; the pairs occupy adjacent wedges, and the remaining
    wedges split into the two sectors.  Raises NotSimple when the germs
    do not sit around a single singularity.
    """
    cycles = vertex_cycles(gp)
    position: dict[Germ, tuple[int, int]] = {}
    for ci, cycle in enumerate(cycles):
        for pos, junction in enumerate(cycle):
            position[junction] = (ci, pos)
    spots = [position[g] for g in (*side1, *side2)]
    if len({ci for ci, _ in spots}) != 1:
        raise NotSimple("boundary circles meet different singularities")
    n = len(cycles[spots[0][0]])

    def block(in_pos: int, out_pos: int) -> int:
        if (in_pos + 1) % n == out_pos:
            return in_pos
        assert (out_pos + 1) % n == in_pos, "passage germs are not adjacent"
        return out_pos

    xa = block(spots[0][1], spots[1][1])
    xb = block(spots[2][1], spots[3][1])
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
    """
    if not cylinder.simple:
        raise NotSimple("cylinder has a multi-segment boundary side")
    (pass1,) = cylinder.sides[0].passages
    (pass2,) = cylinder.sides[1].passages
    return germ_sector_angles(gp, pass1, pass2)


# -- vertical permutation (quarter turn of a one-cylinder direction) -----


def vertical_permutation(
    gp: GeneralizedPermutation, lam: Sequence[int]
) -> tuple[GeneralizedPermutation, tuple[int, ...]]:
    """Re-encode a single-vertical-cylinder suspension along the vertical.

    The two boundary circles, read parallel to each other at a common
    regular arc, become the rows of the new permutation; letters are the
    vertical separatrix segments and their lengths the crossing counts.
    """
    geo = _Geometry(gp, lam)
    decomp = cylinder_decomposition(gp, lam)
    if len(decomp.cylinders) != 1:
        raise NotSingleCylinder("vertical foliation has %d cylinders" % len(decomp.cylinders))
    singular = sorted(decomp.spectrum.singular_lines())
    # read both sides upward at the arc of regular columns right of x=0
    right_of_zero = singular[1] if len(singular) > 1 else geo.w
    side_top, _ = _side_trace(geo, 0, 1)
    side_bottom, _ = _side_trace(geo, right_of_zero % geo.w, -1)

    seg_of: dict[Germ, int] = {}
    for i, seg in enumerate(decomp.spectrum.segments):
        for g in seg.germs:
            seg_of[g] = i
    rows: list[list[int]] = []
    for side in (side_top, side_bottom):
        rows.append([seg_of[out] + 1 for (_, out) in side.passages])
    counts: dict[int, int] = {}
    for row in rows:
        for letter in row:
            counts[letter] = counts.get(letter, 0) + 1
    assert all(v == 2 for v in counts.values()), "segments must each appear twice"
    new_gp = GeneralizedPermutation.from_rows(rows[0], rows[1])
    # renumbering by first appearance: rebuild the length map accordingly
    mapping: dict[int, int] = {}
    for letter in rows[0] + rows[1]:
        if letter not in mapping:
            mapping[letter] = len(mapping) + 1
    new_lam = [0] * new_gp.num_letters
    for old, new in mapping.items():
        new_lam[new - 1] = decomp.spectrum.segments[old - 1].crossings
    new_lam_t = check_admissible(new_gp, new_lam)
    assert singularity_pattern(new_gp).orders == singularity_pattern(gp).orders
    return new_gp, new_lam_t


# -- orientation double cover ---------------------------------------------


def _mul(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Composition p after q."""
    return tuple(p[q[i]] for i in range(len(p)))


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
        n = self.n
        assert sorted(self.right) == list(range(n))
        assert sorted(self.up) == list(range(n))
        for i in range(n):
            assert self.deck[self.deck[i]] == i and self.deck[i] != i
        ri, ui = _inv(self.right), _inv(self.up)
        assert _mul(self.deck, _mul(self.right, self.deck)) == ri
        assert _mul(self.deck, _mul(self.up, self.deck)) == ui

    def components(self) -> int:
        uf = _UnionFind(self.n)
        for i in range(self.n):
            uf.union(i, self.right[i])
            uf.union(i, self.up[i])
        return len({uf.find(i) for i in range(self.n)})

    def vertex_profile(self) -> tuple[int, ...]:
        """Cycle lengths of the corner turn (commutator of right and up)."""
        ri, ui = _inv(self.right), _inv(self.up)
        turn = _mul(_mul(self.right, self.up), _mul(ri, ui))
        seen = [False] * self.n
        out = []
        for i in range(self.n):
            if seen[i]:
                continue
            m = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = turn[j]
                m += 1
            out.append(m)
        return tuple(sorted(out, reverse=True))

    def genus(self) -> int:
        assert self.connected
        excess = sum(m - 1 for m in self.vertex_profile())
        assert excess % 2 == 0
        return excess // 2 + 1

    def apply_T(self) -> "SquareTiledCover":
        """Unit horizontal shear, re-squared."""
        ri = _inv(self.right)
        out = SquareTiledCover(self.right, _mul(self.up, ri), _mul(self.right, self.deck), self.connected)
        out.check()
        return out

    def apply_S(self) -> "SquareTiledCover":
        """Quarter turn: new right is old down, new up is old right."""
        out = SquareTiledCover(_inv(self.up), self.right, self.deck, self.connected)
        out.check()
        return out

    def canonical_key(self) -> tuple:
        """Minimal (right, up, deck) over relabelings by traversal order.

        Each start square labels the cover breadth-first, trying the
        generators right, up, right^-1, up^-1 in turn; on a disconnected
        cover the walk jumps to the least unlabeled square. Row i of a
        relabeled permutation is the label of the image of ``order[i]``.

        The minimum is searched with pruning. When ``order[i]`` has been
        processed its right neighbour carries a label, so entry i of the
        start's right row is known: the start is dropped at its first
        entry larger than the best right row so far, and stops comparing
        once an entry is smaller. Only a start whose whole right row ties
        the best builds its up row, and only a tie there too builds its
        deck row. The result is the same triple as the full minimum.
        """
        n = self.n
        right, up, deck = self.right, self.up, self.deck
        gens = (right, up, _inv(right), _inv(up))
        best_right: list[int] | None = None
        best_order: list[int] = []
        best_label: list[int] = []
        best_up: list[int] | None = None  # built only when a right row ties
        for start in range(n):
            label = [-1] * n
            label[start] = 0
            order = [start]
            row: list[int] = []
            smaller = best_right is None
            for i in range(n):
                if i == len(order):  # disconnected cover: jump to least unlabeled square
                    s = label.index(-1)
                    label[s] = i
                    order.append(s)
                cur = order[i]
                for g in gens:
                    t = g[cur]
                    if label[t] < 0:
                        label[t] = len(order)
                        order.append(t)
                v = label[right[cur]]
                if not smaller:
                    b = best_right[i]
                    if v > b:
                        break
                    smaller = v < b
                row.append(v)
            else:
                if not smaller:  # the right rows tie: compare up, then deck
                    if best_up is None:
                        best_up = [best_label[up[q]] for q in best_order]
                    up_row = [label[up[q]] for q in order]
                    if up_row > best_up:
                        continue
                    if up_row == best_up:
                        deck_row = [label[deck[q]] for q in order]
                        if deck_row >= [best_label[deck[q]] for q in best_order]:
                            continue
                    best_up = up_row
                else:
                    best_up = None
                best_right, best_order, best_label = row, order, label
        return (
            tuple(best_right),
            tuple(best_label[up[q]] for q in best_order),
            tuple(best_label[deck[q]] for q in best_order),
        )


def build_cover(gp: GeneralizedPermutation, lam: Sequence[int]) -> SquareTiledCover:
    """Square-tiled orientation double cover of the suspension.

    Same-side identifications connect the two sheets (the pulled-back
    one-form changes sign across a central symmetry), opposite-side ones
    stay on a sheet.
    """
    geo = _Geometry(gp, lam)
    w = geo.w
    n = 2 * w
    right = [0] * n
    up = [0] * n
    deck = [0] * n
    for c in range(w):
        right[c] = (c + 1) % w
        right[w + c] = w + (c - 1) % w
        deck[c] = w + c
        deck[w + c] = c
        c_up, d_up = _column_step(geo, c, 1)
        up[c] = c_up if d_up == 1 else w + c_up
        c_dn, d_dn = _column_step(geo, c, -1)
        up[w + c] = w + c_dn if d_dn == -1 else c_dn
    cover = SquareTiledCover(tuple(right), tuple(up), tuple(deck), False)
    ncomp = cover.components()
    assert ncomp in (1, 2)
    connected = ncomp == 1
    assert connected == (not gp.is_abelian())
    cover = SquareTiledCover(cover.right, cover.up, cover.deck, connected)
    cover.check()
    if connected:
        base = singularity_pattern(gp)
        odd = sum(1 for k in base.orders if k % 2)
        assert 2 - 2 * cover.genus() == 2 * (2 - 2 * base.genus) - odd
    return cover


def _cover_vertices(cover: SquareTiledCover) -> tuple[list[int], dict[int, int]]:
    """Corner count per vertex of the square complex.

    Vertices are represented by the square whose lower-left corner sits
    there (after folding the other three corner types in); a vertex is
    regular exactly when four quadrant corners meet (angle 2*pi).
    Returns (corner counts, root per square-representative).
    """
    n = cover.n
    r, u = cover.right, cover.up
    uf = _UnionFind(n)
    for q in range(n):
        uf.union(u[r[q]], r[u[q]])  # the two routes to the NE corner agree
    counts = [0] * n
    for q in range(n):
        for rep in (q, r[q], u[q], u[r[q]]):
            counts[uf.find(rep)] += 1
    roots = {q: uf.find(q) for q in range(n)}
    return counts, roots


def decode_one_cylinder(cover: SquareTiledCover) -> GeneralizedPermutation | None:
    """Read a one-cylinder base presentation off a square-tiled cover.

    Returns the generalized permutation of the quotient surface when the
    horizontal foliation of the base is a single cylinder presented by a
    deck-swapped pair of cover cylinders; None when the shape does not
    decode (several base cylinders, or a deck-invariant cover cylinder).
    Boundary intervals are maximal runs of unit edges between cover
    singularities, so the reading carries no marked points.
    """
    if not cover.connected:
        return None
    n = cover.n
    r, u, deck = cover.right, cover.up, cover.deck
    counts, roots = _cover_vertices(cover)
    # deck maps the lower-left corner of q to the upper-right of deck(q)
    deck_vertex = {roots[q]: roots[u[r[deck[q]]]] for q in range(n)}

    def vertex_singular(rep: int) -> bool:
        # singular downstairs: cone angle above 2*pi, or a branch point
        # (a pole's lift is a deck-fixed regular-looking vertex)
        root = roots[rep]
        return counts[root] != 4 or deck_vertex[root] == root

    # rows: cycles of right
    row_of = [-1] * n
    rows: list[list[int]] = []
    for q in range(n):
        if row_of[q] >= 0:
            continue
        row = []
        cur = q
        while row_of[cur] < 0:
            row_of[cur] = len(rows)
            row.append(cur)
            cur = r[cur]
        rows.append(row)

    def gap_above_singular(row: list[int]) -> bool:
        # the gap carries the NW/NE corners of the row, i.e. SW of the ups
        return any(vertex_singular(u[q]) for q in row)

    def gap_below_singular(row: list[int]) -> bool:
        return any(vertex_singular(q) for q in row)

    uf = _UnionFind(len(rows))
    for idx, row in enumerate(rows):
        if not gap_above_singular(row):
            uf.union(idx, row_of[u[row[0]]])
    cylinders: dict[int, list[int]] = {}
    for idx in range(len(rows)):
        cylinders.setdefault(uf.find(idx), []).append(idx)
    if len(cylinders) != 2:
        return None
    ka, kb = sorted(cylinders)
    probe = rows[cylinders[ka][0]][0]
    if uf.find(row_of[deck[probe]]) != kb:
        return None  # deck-invariant cover cylinder: not handled
    rows_k = cylinders[ka]
    tops = [i for i in rows_k if gap_above_singular(rows[i])]
    bottoms = [i for i in rows_k if gap_below_singular(rows[i])]
    assert len(tops) == 1 and len(bottoms) == 1, "cylinder with torn boundary"
    top_row, bottom_row = rows[tops[0]], rows[bottoms[0]]

    # unit edges: ("t", q) above top-row squares, ("b", q) below bottom-row
    in_k = {q for i in rows_k for q in rows[i]}
    partner: dict[tuple[str, int], tuple[str, int]] = {}

    def set_pair(e1, e2):
        partner[e1] = e2
        partner[e2] = e1

    for q in top_row:
        up_q = u[q]
        if up_q in in_k:
            set_pair(("t", q), ("b", up_q))
        else:
            set_pair(("t", q), ("t", deck[up_q]))
    u_inv = _inv(u)
    for q in bottom_row:
        dn = u_inv[q]
        if dn in in_k:
            set_pair(("b", q), ("t", dn))
        else:
            set_pair(("b", q), ("b", deck[dn]))

    # intervals: maximal runs of unit edges between singular junctions
    def circle_intervals(row: list[int], side: str) -> list[list[tuple[str, int]]]:
        def left_junction_singular(q: int) -> bool:
            return vertex_singular(u[q] if side == "t" else q)

        starts = [i for i, q in enumerate(row) if left_junction_singular(q)]
        assert starts, "boundary circle without singular point"
        runs: list[list[tuple[str, int]]] = []
        for si, start in enumerate(starts):
            stop = starts[(si + 1) % len(starts)]
            run = []
            i = start
            while True:
                run.append((side, row[i]))
                i = (i + 1) % len(row)
                if i == stop:
                    break
            runs.append(run)
        return runs

    top_runs = circle_intervals(top_row, "t")
    bottom_runs = circle_intervals(bottom_row, "b")
    run_of: dict[tuple[str, int], int] = {}
    for idx, run in enumerate(top_runs + bottom_runs):
        for e in run:
            run_of[e] = idx
    letters: dict[frozenset, int] = {}
    for idx, run in enumerate(top_runs + bottom_runs):
        mate = run_of[partner[run[0]]]
        mates = {run_of[partner[e]] for e in run}
        assert mates == {mate}, "interval does not glue to one interval"
        key = frozenset((idx, mate))
        letters.setdefault(key, len(letters) + 1)
    top_word = [letters[frozenset((i, run_of[partner[run[0]]]))] for i, run in enumerate(top_runs)]
    bottom_word = [
        letters[frozenset((len(top_runs) + i, run_of[partner[run[0]]]))]
        for i, run in enumerate(bottom_runs)
    ]
    return GeneralizedPermutation.from_rows(top_word, bottom_word)


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


def sl2z_orbit(gp: GeneralizedPermutation, lam: Sequence[int], cap: int = 10000) -> OrbitResult:
    """Closure of the canonical cover form under shear and quarter turn.

    Breadth-first; stops with a truncation flag once ``cap`` forms are
    collected (no failure: partial orbits are still useful as evidence).
    """
    start = build_cover(gp, lam)
    words: dict[tuple, str] = {start.canonical_key(): ""}
    frontier = [(start, "")]
    truncated = False
    while frontier:
        nxt = []
        for cover, word in frontier:
            for image, letter in ((cover.apply_T(), "T"), (cover.apply_S(), "S")):
                key = image.canonical_key()
                if key not in words:
                    if len(words) >= cap:
                        truncated = True
                        continue
                    words[key] = word + letter
                    nxt.append((image, word + letter))
        frontier = nxt
        if truncated:
            break
    return OrbitResult(frozenset(words), words, truncated)
