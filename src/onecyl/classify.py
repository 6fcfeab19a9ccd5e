"""Stratum enumeration, geometric moves, handle calculus, component bounds.

One-cylinder classes of a stratum are finite.  Enumeration is
walk-directed and orderly.  For each type (r, l) the position pairings
are built along the junction turn around their cone points, a branch per
free partner of an unpaired cell, and a branch dies as soon as it closes
a cone point of an order the stratum lacks (face-by-face map generation,
Walsh-Lehman 1972; :func:`onecyl.strata.walk_pairings`), so only the
pairings in the stratum are ever built.  Of those only the one that is
lexicographically minimal among its images under the symmetries that
keep its type is kept, so each class is met exactly once and
canonicalized once (Read 1978; McKay 1998).  The images are the orders
of :func:`onecyl.genperm.position_orders`, compared by the same code as
the canonical key.  With row rotations the walk breaks the symmetry as
it pairs cell 0: its partner is the top cell delta, the least cyclic
distance between twin cells of the top row, and no closer same-row pair
follows, because the rotation that moves a closest twin pair to cells
(0, delta) reads 0 at code entry delta, below the identity unless
``pair[0] == delta``.  Only pairings that would fail the minimality test
are skipped.  Classes merge when a geometric move
certifies they lie in one connected component:

* re-reading a single-vertical-cylinder suspension along the vertical
  (a sampled-length move within the stratum);
* membership of all-ones square-tiled suspensions in one orbit of the
  shear/quarter-turn action;
* excising a simple cylinder of angle s*pi next to a zero of order k,
  with an irreducible restriction: the class lies in a handle sum over
  the stratum with one k replaced by k - 4, and when that smaller
  stratum is connected the pair (k, s) alone identifies its component;
* for a class still alone, the shear/quarter-turn orbit of its minimal
  suspension, whose forms decode back to one-cylinder classes.

Each move is one pass of candidate pairs to one merge loop, in this order.

Upper bounds are merged-group counts.  Lower bounds never assert
separation from a failed merge; known separations travel as citations.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .conditions import is_irreducible
from .errors import (
    BadParameters,
    BadPattern,
    BoundTooSmall,
    NoSimpleCylinderForm,
    NotFoundWithinBudget,
    NotSimple,
    NotSingleCylinder,
    SizeLimit,
)
from .genperm import (
    CALIBRATED_SYM,
    GeneralizedPermutation,
    SymmetryGroup,
    canonical_key,
    code_below,
    position_orders,
)
from .strata import (
    ComponentTag,
    SingularityPattern,
    match_component,
    pattern_orders,
    single_vertex,
    singularity_pattern,
    smooth_marked_points,
    walk_pairings,
)
from .suspension import (
    all_ones,
    build_cover,
    decode_one_cylinder,
    germ_sector_angles,
    minimal_admissible,
    orbit_forms,
    sample_admissible,
    sl2z_orbit,
    vertical_permutation,
)


# -- enumeration -----------------------------------------------------------


def _orderly_keys(r: int, l: int, want: tuple[int, ...] | None, sym: SymmetryGroup) -> list:
    """Canonical keys of the type-(r, l) classes with cone point orders ``want``.

    :func:`onecyl.strata.walk_pairings` builds the pairings with a doubled
    letter in each row and those orders, and none when the orders do not
    fill r + l junctions.  Given ``sym``, it builds only those whose cell 0
    pairs with the closest twins when ``sym`` rotates the rows: the top
    rotation that moves a closest twin pair of the top row to cells
    (0, delta) reads 0 at code entry delta, so the identity can be least
    only if ``pair[0] == delta``.  A pairing survives when it is the minimum
    of its same-type orbit; each class has exactly one such pairing, so it
    pays for exactly one full canonical key, and for one re-check of its
    orders by the strata readers: :func:`onecyl.strata.single_vertex` for a
    one-order pattern, whose one order is then r + l - 2.
    """
    p = r + l
    minimal = want is not None and len(want) == 1
    # group r of the orders table is the part of the sym group that keeps
    # type (r, l); the first member of its first class is the identity
    moves = [m for entry in position_orders(r, l, sym)[r] for m in entry[2]][1:]
    keys: list = []

    def leaf(pair: list[int]) -> None:
        code = [j if j < i else i for i, j in enumerate(pair)]  # the identity's code
        for order, inverse in moves:
            if code_below(pair, order, inverse, code):
                return
        if not (single_vertex(pair, r) if minimal else want is None or pattern_orders(pair, r) == want):
            raise AssertionError("walk_pairings gave %r, not of orders %r" % (pair, want))
        word = [0] * p
        letter = 0
        for i, j in enumerate(pair):
            if j > i:
                letter += 1
                word[i] = word[j] = letter
        keys.append(canonical_key(word[:r], word[r:], sym))

    walk_pairings(r, p, want, leaf, sym)
    return keys


def _classes(keys: list) -> list[GeneralizedPermutation]:
    out = [GeneralizedPermutation.from_rows(*key) for key in keys]
    out.sort(key=lambda g: (g.type, g.rows()))
    return out


def enumerate_type(
    r: int,
    l: int,
    pattern: tuple[int, ...] | None = None,
    sym: SymmetryGroup = CALIBRATED_SYM,
    size_limit: int = 16,
) -> list[GeneralizedPermutation]:
    """Canonical classes of type (r, l), optionally filtered by pattern.

    Keeps only permutations with a doubled letter in each row (the
    non-orientable condition, which is also exactly admissibility here).
    Generation is walk-directed and orderly: each position pairing is
    built along the junction turn around its cone points, with pattern
    pruning, and kept only when it is the minimum of its orbit under the
    symmetries that keep type (r, l), so no class is produced twice and no
    dedupe is needed.  Classes are returned as their canonical forms, which
    may have type (l, r) under row swap.
    """
    if (r + l) % 2:
        raise SizeLimit("r + l must be even")
    if r < 1 or l < 1:
        raise SizeLimit("rows may not be empty")
    if r + l > size_limit:
        raise SizeLimit("type (%d,%d) exceeds the size guard %d" % (r, l, size_limit))
    if pattern is not None and not pattern:
        raise BadPattern("a stratum needs at least one singularity order")
    want = tuple(sorted(pattern, reverse=True)) if pattern is not None else None
    return _classes(_orderly_keys(r, l, want, sym))


def stratum_types(pattern: tuple[int, ...]) -> list[tuple[int, int]]:
    """All (r, l) with r + l = sum(k + 2) over the pattern."""
    total = sum(k + 2 for k in pattern)
    return [(r, total - r) for r in range(1, total) if (total - r) >= 1 and total % 2 == 0]


def enumerate_stratum(
    pattern: tuple[int, ...],
    sym: SymmetryGroup = CALIBRATED_SYM,
    size_limit: int = 16,
) -> list[GeneralizedPermutation]:
    """Canonical one-cylinder classes of a stratum, across all types.

    With row swap in the symmetry, types (r, l) and (l, r) describe the
    same classes; only r >= l is enumerated then.  Each type is generated
    as in :func:`enumerate_type`, only the pairings with the stratum's
    cone points ever being built; the result lists the classes type by
    type.  An empty result means the stratum contains no one-cylinder
    surface, hence is empty.
    """
    if not pattern:
        raise BadPattern("a stratum needs at least one singularity order")
    want = tuple(sorted(pattern, reverse=True))
    total = sum(k + 2 for k in want)
    if total % 2:
        return []
    if total > size_limit:
        raise SizeLimit("stratum needs r+l = %d > guard %d" % (total, size_limit))
    types = [(r, l) for r, l in stratum_types(want) if not (sym.swap_rows and r < l)]
    return [gp for r, l in types for gp in _classes(_orderly_keys(r, l, want, sym))]


# -- handle calculus -------------------------------------------------------


@dataclass(frozen=True)
class Excision:
    """A simple vertical cylinder excised from a rotated presentation."""

    rotation: tuple[int, int]
    restricted: GeneralizedPermutation
    angle: int
    complement: int
    restricted_irreducible: bool


def excisions(gp: GeneralizedPermutation) -> list[Excision]:
    """Every simple-cylinder excision over all head rotations.

    The strip over a shared head letter is a simple cylinder for every
    admissible vector, with boundary passages (T0 -> B0) and (T1 -> B1);
    its sector angle is purely combinatorial.
    """
    r, l = gp.type
    if r < 2 or l < 2:
        return []
    out = []
    pair = gp.pairing()
    # rotating top cell a and its bottom mate to the heads shares a letter
    for a in range(r):
        b = pair[a] - r
        if b < 0:
            continue
        rot = gp.rotated(a, b)
        try:
            s, comp = germ_sector_angles(rot, (0, r), (1, r + 1))
        except NotSimple:
            continue
        restricted = rot.restrict()
        out.append(Excision((a, b), restricted, s, comp, is_irreducible(restricted).irreducible))
    return out


def excise_simple_cylinder(gp: GeneralizedPermutation) -> tuple[GeneralizedPermutation, int]:
    """First certified head-rotation excision: (restricted permutation, angle).

    Certified means the restriction is irreducible, so the excised seam
    has multiplicity one for almost every vector and the handle really
    detaches.  The restricted permutation keeps the two singularities the
    removal creates; collapsing the seam between them (a metric
    deformation, not a table operation) lands in the smaller minimal
    stratum, and when one of them is a marked point
    :func:`onecyl.strata.smooth_marked_points` performs the collapse.
    """
    for exc in excisions(gp):
        if exc.restricted_irreducible:
            return exc.restricted, exc.angle
    raise NoSimpleCylinderForm(
        "no rotation exposes a certified simple head cylinder: %s" % gp.render()
    )


def insert_split_letter(gp: GeneralizedPermutation, i: int, j: int) -> GeneralizedPermutation:
    """Thread a fresh length-epsilon interval at top slot i, bottom slot j.

    This is the combinatorial shadow of breaking up the singularity whose
    wedges sit at the chosen junctions: the new letter becomes a short
    saddle connection between the two pieces.
    """
    fresh = gp.num_letters + 1
    top = list(gp.top)
    bottom = list(gp.bottom)
    top.insert(i, fresh)
    bottom.insert(j, fresh)
    return GeneralizedPermutation.from_rows(top, bottom)


def _split_variants(gp: GeneralizedPermutation):
    """All one-letter degenerations of the zero: threaded intervals plus
    adjacent same-row pairs (the latter break off a simple pole)."""
    r, l = gp.type
    for i in range(r + 1):
        for j in range(l + 1):
            yield insert_split_letter(gp, i, j)
    fresh = gp.num_letters + 1
    for i in range(r + 1):
        top = list(gp.top)
        top[i:i] = [fresh, fresh]
        yield GeneralizedPermutation.from_rows(top, gp.bottom)
    for j in range(l + 1):
        bottom = list(gp.bottom)
        bottom[j:j] = [fresh, fresh]
        yield GeneralizedPermutation.from_rows(gp.top, bottom)


def collapse_letter(gp: GeneralizedPermutation, letter: int) -> GeneralizedPermutation | None:
    """Shrink one interval to zero length: delete both cells of a letter.

    Returns None when a row would empty out.  Geometrically sound as a
    stratum degeneration when the letter is a multiplicity-one saddle
    connection; the caller certifies that (one cell per row suffices for
    almost every vector).
    """
    top = [x for x in gp.top if x != letter]
    bottom = [x for x in gp.bottom if x != letter]
    if not top or not bottom:
        return None
    return GeneralizedPermutation.from_rows(top, bottom)


def _collapsible(gp: GeneralizedPermutation, letter: int) -> bool:
    """Multiplicity-one certificate for shrinking the letter's interval.

    Either the two copies sit on different boundary circles, or they
    share a circle with another doubled letter: both cases free the
    length from the balance equation for almost every vector.
    """
    for doubled in (gp.top_doubled(), gp.bottom_doubled()):
        if letter in doubled:
            return len(doubled) > 1
    return True


def _collapse_keys(gp: GeneralizedPermutation, sym: SymmetryGroup):
    """Canonical keys of the certified one-letter collapses, letter by letter."""
    for letter in range(1, gp.num_letters + 1):
        if _collapsible(gp, letter):
            shrunk = collapse_letter(gp, letter)
            if shrunk is not None:
                yield shrunk.canonical_key(sym)


def bubble(
    gp_hat: GeneralizedPermutation,
    s: int,
    budget: int = 8192,
    sym: SymmetryGroup = CALIBRATED_SYM,
) -> GeneralizedPermutation:
    """Search for a class excising to (class of gp_hat, s).

    The construction retraces the geometric handle sum: break the zero
    into orders (s-2, k-s+2) by threading a short interval, then glue a
    cylinder along a seam through the new short connection.  A candidate
    is accepted when its own certified excision has angle s and shrinking
    a short connection in the restriction lands back on the input class.
    """
    if budget < 1:
        raise BadParameters("bubble budget must be at least 1, got %d" % budget)
    base = singularity_pattern(gp_hat).orders
    k0 = base[0]
    if not 1 <= s <= (k0 + 4) // 2:
        raise NotFoundWithinBudget("angle %d out of range for a zero of order %d" % (s, k0))
    split_pat = tuple(sorted((s - 2, k0 + 2 - s) + base[1:], reverse=True))
    bubbled = tuple(sorted((k0 + 4,) + base[1:], reverse=True))
    target = gp_hat.canonical_key(sym)
    tried = 0
    for variant in _split_variants(gp_hat):
        if singularity_pattern(variant).orders != split_pat:
            continue
        for ab in itertools.product(range(variant.type[0]), range(variant.type[1])):
            if tried == budget:
                raise NotFoundWithinBudget(
                    "no bubbled form with angle %d within budget (tried %d)" % (s, tried)
                )
            tried += 1
            candidate = variant.rotated(*ab).prepend_shared_head()
            if singularity_pattern(candidate).orders != bubbled:
                continue
            try:
                restricted, angle = excise_simple_cylinder(candidate)
            except NoSimpleCylinderForm:
                continue
            if angle == s and target in _collapse_keys(restricted, sym):
                return candidate
    raise NotFoundWithinBudget(
        "no bubbled form with angle %d within budget (tried %d)" % (s, tried)
    )


# -- component report -------------------------------------------------------


ORBIT_CAP = 4000  # forms kept per orbit of an all-ones suspension


@dataclass(frozen=True)
class MoveConfig:
    """Which moves :func:`component_report` runs besides vperm, and how widely.

    Excisions label by (zero order, angle) only into a stratum whose default
    report reads one group: one-cylinder surfaces meet every component, so it
    is connected.  ``substratum_connected`` is unread; benchmarks still pass it.
    """

    lambda_samples: int = 8  # re-reading: vectors of seeds 0..lambda_samples
    lambda_bound: int = 12
    use_orbits: bool = True
    use_excisions: bool = False
    substratum_connected: bool = False  # unread; see the class docstring
    orbit_decode_cap: int = 0  # orbit walk with base decoding for stragglers
    size_limit: int = 16
    citations: tuple[str, ...] = ()


@dataclass
class MergeEdge:
    kind: str  # "vperm" | "orbit" | "excise"; a decoded orbit is "orbit"
    source: int
    target: object
    detail: str = ""


@dataclass
class ComponentReport:
    pattern: SingularityPattern
    sym_label: str
    classes: list[GeneralizedPermutation]
    tags: list[ComponentTag]
    groups: list[int]  # group index per class
    edges: list[MergeEdge]
    lower_bound: int
    upper_bound: int
    citations: tuple[str, ...]

    def as_json(self) -> dict:
        return {
            "schema": "1",
            "stratum": self.pattern.as_json(),
            "sym": self.sym_label,
            "classes": [
                {"perm": gp.render(), "tag": tag.label(), "group": grp}
                for gp, tag, grp in zip(self.classes, self.tags, self.groups)
            ],
            "edges": [
                {"kind": e.kind, "source": e.source, "target": str(e.target), "detail": e.detail}
                for e in self.edges
            ],
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "citations": list(self.citations),
        }

    def as_tsv(self) -> str:
        lines = ["class\ttag\tgroup"]
        for gp, tag, grp in zip(self.classes, self.tags, self.groups):
            lines.append("%s\t%s\t%d" % (gp.render(), tag.label(), grp))
        return "\n".join(lines)


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


# Each move reads (classes, index, config, sym, find) and yields candidates
# (kind, i, j, target, detail): class i and slot j lie in one component.
def _vperm_pairs(classes, index, config, sym, find):
    """Vertical re-readings over sampled admissible vectors."""
    for i, gp in enumerate(classes):
        lams = []
        for seed in range(config.lambda_samples + 1):
            try:
                lams.append(sample_admissible(gp, seed=seed, bound=config.lambda_bound))
            except BoundTooSmall:
                continue
        for lam in sorted(set(lams)):
            try:
                vg, _ = vertical_permutation(gp, lam)
            except NotSingleCylinder:
                continue
            j = index.get(vg.canonical_key(sym))
            if j is not None:
                yield "vperm", i, j, j, "lam=%s" % (lam,)


def _orbit_pairs(classes, index, config, sym, find):
    """One orbit of the shear / quarter-turn action per all-ones suspension:
    a class whose cover lies in an earlier orbit pairs with its owner."""
    owner: dict = {}
    for i, gp in enumerate(classes):
        if len(gp.top) != len(gp.bottom):
            continue  # all-ones needs equal rows
        key = build_cover(gp, all_ones(gp)).canonical_key()
        if key in owner:
            j, word = owner[key]
            yield "orbit", i, j, j, "word=%s" % (word or "id")
            continue
        result = sl2z_orbit(gp, all_ones(gp), cap=ORBIT_CAP)
        for k in result.keys:  # the start form's key, among them, has word ""
            owner.setdefault(k, (i, result.words[k]))


def _excise_pairs(classes, index, config, sym, find):
    """Certified excisions into a connected smaller stratum: a class pairs
    with the slot of (k, s) for each certified excision of angle s next to
    a zero of order k = angle + complement.  Collapsing the seam lands in
    the stratum with one k replaced by k - 4 and order-0 entries dropped (a
    marked point does not change the component count).  The slot opens
    only when k - 4 >= -1, that stratum is not empty and its default report,
    which never excises, reads one group.  Sound because every component
    holds a one-cylinder surface, so one group of certified merges means a
    connected stratum, and the handle sums of a connected stratum at one
    angle lie in one component (Kontsevich-Zorich 2003, section 4)."""
    orders = list(singularity_pattern(classes[0]).orders) if classes else []
    base: dict = {}  # k -> slot of (k, 0), past the o + 2 slots of each larger order; None if not connected
    for i, gp in enumerate(classes):
        for exc in (e for e in excisions(gp) if e.restricted_irreducible):
            k = exc.angle + exc.complement
            if k not in base:
                at = orders.index(k)
                smaller = tuple(o for o in orders[:at] + [k - 4] + orders[at + 1 :] if o)
                one = k - 4 >= -1 and bool(smaller)
                one = one and component_report(smaller, MoveConfig(size_limit=config.size_limit), sym).upper_bound == 1
                base[k] = len(classes) + sum(o + 2 for o in orders[:at]) if one else None
            if base[k] is not None:
                yield "excise", i, base[k] + exc.angle, ("angle", exc.angle), "s=%d" % exc.angle


def _decode_pairs(classes, index, config, sym, find):
    """For each class alone after the earlier passes, walk the orbit of its
    minimal suspension up to the first form that decodes to a class of
    another group; stop before a level past ``orbit_decode_cap`` forms."""
    sizes = Counter(map(find, range(len(classes))))
    for i in [i for i in range(len(classes)) if sizes[find(i)] == 1]:
        forms = orbit_forms(build_cover(classes[i], minimal_admissible(classes[i])))
        level = 0
        for seen, (depth, _, cover, word) in enumerate(forms):
            if depth > level and seen > config.orbit_decode_cap:
                break
            level = depth
            decoded = decode_one_cylinder(cover) if word else None  # the start is the class itself
            if decoded is not None:
                j = index.get(decoded.canonical_key(sym))
                if j is not None and find(j) != find(i):
                    yield "orbit", i, j, j, "decoded after word=%s" % word
                    break


def component_report(
    pattern: tuple[int, ...],
    config: MoveConfig = MoveConfig(),
    sym: SymmetryGroup = CALIBRATED_SYM,
) -> ComponentReport:
    """Enumerate a stratum and merge classes along certified moves: one loop
    merges the candidates of each pass that ``config`` turns on, in order."""
    if config.lambda_bound < 1 or config.lambda_samples < 0:
        raise BadParameters(
            "need lambda_bound >= 1 and lambda_samples >= 0, got %d and %d"
            % (config.lambda_bound, config.lambda_samples)
        )
    if config.orbit_decode_cap < 0:
        raise BadParameters("need orbit_decode_cap >= 0, got %d" % config.orbit_decode_cap)
    spattern = SingularityPattern.from_orders(pattern)
    classes = enumerate_stratum(spattern.orders, sym=sym, size_limit=config.size_limit)
    # enumerated classes are canonical forms under sym: their rows are their keys
    index: dict = {gp.rows(): i for i, gp in enumerate(classes)}
    # class indices, then one slot per (order, angle) of an excision (below the stratum size)
    merger = _UnionFind(len(classes) + sum(k + 2 for k in spattern.orders))
    passes = [_vperm_pairs]
    passes += [_orbit_pairs] if config.use_orbits else []
    passes += [_excise_pairs] if config.use_excisions else []
    passes += [_decode_pairs] if config.orbit_decode_cap else []
    edges: list[MergeEdge] = []
    for move in passes:
        for kind, i, j, target, detail in move(classes, index, config, sym, merger.find):
            if merger.find(i) != merger.find(j):
                merger.union(i, j)
                edges.append(MergeEdge(kind, i, target, detail))

    roots: dict[int, int] = {}
    groups = []
    for i in range(len(classes)):
        root = merger.find(i)
        roots.setdefault(root, len(roots))
        groups.append(roots[root])
    upper = len(roots)
    lower = 1 if classes else 0
    tags = [match_component(gp, sym) for gp in classes]
    return ComponentReport(
        pattern=spattern,
        sym_label=sym.label(),
        classes=classes,
        tags=tags,
        groups=groups,
        edges=edges,
        lower_bound=lower,
        upper_bound=upper,
        citations=config.citations,
    )
