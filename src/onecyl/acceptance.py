"""Desk-scale verification ledger.

Every reproducible quantity of the small-strata computations lives here
as a named check with a provenance tag: PAPER for values the source
computations state outright, DERIVED for values frozen from independent
oracles in this package's test suite, TRIVIAL for definitional facts.
``run_checks`` executes them and never raises on a failing comparison;
failures are data.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from typing import Callable

from .classify import (
    MoveConfig,
    _collapse_keys,
    bubble,
    component_report,
    enumerate_stratum,
    enumerate_type,
    excise_simple_cylinder,
    excisions,
)
from .conditions import condition_star, is_irreducible, red_condition, weak_reducibility
from .errors import NotFoundWithinBudget, NotSingleCylinder
from .genperm import CALIBRATED_SYM, DEFAULT_SYM, GeneralizedPermutation
from .strata import (
    hyperelliptic_rep,
    irreducible_rep,
    singularity_pattern,
    smooth_marked_points,
)
from .suspension import (
    SquareTiledCover,
    admissible_feasible,
    all_ones,
    build_cover,
    cylinder_decomposition,
    decode_one_cylinder,
    gamma_mult_one_evidence,
    lam_from_positions,
    sample_admissible,
    separatrix_spectrum,
    simple_cylinder_angle,
    sl2z_orbit,
    vertical_permutation,
)

GP = GeneralizedPermutation.parse


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    expected: object
    actual: object
    status: str  # "pass" | "fail" | "skipped"
    provenance: str
    seconds: float

    def as_json(self) -> dict:
        # no timings here: identical runs must emit identical bytes
        return {
            "check_id": self.check_id,
            "expected": repr(self.expected),
            "actual": repr(self.actual),
            "status": self.status,
            "provenance": self.provenance,
        }


class _Memo:
    """Expensive artifacts shared by the checks of one run, each built once.

    ``run_checks`` makes a fresh memo per run, so concurrent runs share
    nothing.
    """

    @functools.cached_property
    def q8(self):
        return component_report((8,), MoveConfig())

    @functools.cached_property
    def qm15(self):
        return component_report((-1, 5), MoveConfig())

    @functools.cached_property
    def q12(self):
        cfg = MoveConfig(
            lambda_samples=6,
            lambda_bound=8,
            use_orbits=False,
            use_excisions=True,
            orbit_decode_cap=3000,
            citations=("Zorich: the two components of Q(12) are distinct",),
        )
        return component_report((12,), cfg)

    @functools.cached_property
    def q12_index(self) -> dict:
        # enumerated classes are canonical forms under sym: their rows are their keys
        return {gp.rows(): i for i, gp in enumerate(self.q12.classes)}

    @functools.cached_property
    def q12_groups(self) -> tuple[int, int]:
        keys = (irreducible_rep(name).canonical_key(CALIBRATED_SYM) for name in ("12-I", "12-II"))
        return tuple(self.q12.groups[self.q12_index[key]] for key in keys)

    @functools.cached_property
    def a1_orbit(self) -> tuple:
        # the printed Q(8) table, its unit cover keys and the orbit of the first
        gps = [GP(t) for t in A1_TABLE]
        covers = [build_cover(g, all_ones(g)).canonical_key() for g in gps]
        return gps, covers, sl2z_orbit(gps[0], all_ones(gps[0]), cap=20000)

    @functools.cached_property
    def corpus66(self) -> list[GeneralizedPermutation]:
        classes: list[GeneralizedPermutation] = []
        for r in range(1, 7):
            for l in range(1, 7):
                if (r + l) % 2 or (CALIBRATED_SYM.swap_rows and r < l):
                    continue
                classes.extend(enumerate_type(r, l))
        return classes


_REGISTRY: list[tuple[str, str, Callable[[_Memo], tuple[object, object]]]] = []


def _check(check_id: str, provenance: str):
    def wrap(fn):
        _REGISTRY.append((check_id, provenance, fn))
        return fn

    return wrap


def run_checks(only: str | None = None) -> list[CheckResult]:
    """Run the ledger; comparison mismatches and crashes are both data."""
    results = []
    memo = _Memo()
    for check_id, provenance, fn in _REGISTRY:
        if only and only not in check_id:
            continue
        t0 = time.time()
        try:
            expected, actual = fn(memo)
            status = "pass" if expected == actual else "fail"
        except Exception as exc:  # a crashed check must not stop the ledger
            expected, actual, status = "<no crash>", repr(exc), "fail"
        results.append(CheckResult(check_id, expected, actual, status, provenance, time.time() - t0))
    return results


# -- 1: hyperelliptic family singularity table ---------------------------


@_check("pi1-table", "PAPER")
def _pi1_table(memo):
    bad = []
    for r in range(1, 10):
        for l in range(1, 10):
            if r % 2 == 1 and l % 2 == 1:
                want = (2 * r, 2 * l)
            elif r % 2 == 0 and l % 2 == 1:
                want = (r - 1, r - 1, 2 * l)
            elif r % 2 == 0 and l % 2 == 0:
                want = (r - 1, r - 1, l - 1, l - 1)
            else:
                continue  # the table lists three parity combinations
            got = singularity_pattern(hyperelliptic_rep("pi1", r, l)).orders
            if got != tuple(sorted(want, reverse=True)):
                bad.append((r, l, got))
    return [], bad


# -- 2: the suspension figure ---------------------------------------------


@_check("fig-suspension", "PAPER")
def _fig_suspension(memo):
    pat = singularity_pattern(GP("1 1 2 / 3 2 3"))
    return ((2, -1, -1), 1, 3), (pat.orders, pat.genus, pat.dimension)


# -- 3: the three-singularity deformation family --------------------------


@_check("pi1a-family", "PAPER")
def _pi1a_family(memo):
    # Two corrections against the printed claim, both forced by the walk:
    # the third entry is 4(g-k)-6, not -3 (the printed value breaks the
    # order-sum parity and contradicts collapsing the threaded connection
    # back to the two-singularity family), and for odd a the table
    # realizes the splitting of parameter 2k+4-a.  The a-range is covered
    # bijectively either way, and the order-zero entry at a=2 is kept.
    bad = []
    for r in range(1, 10, 2):
        for l in range(1, 10, 2):
            k = (r - 1) // 2
            g = k + (l + 3) // 2
            family_want = []
            family_got = []
            for a in range(2, r + 2):
                a_eff = a if a % 2 == 0 else 2 * k + 4 - a
                want = tuple(
                    sorted((a_eff - 2, 4 * k + 4 - a_eff, 4 * (g - k) - 6), reverse=True)
                )
                got = singularity_pattern(hyperelliptic_rep("pi1a", r, l, a)).orders
                if got != want:
                    bad.append((r, l, a, got, want))
                family_want.append(
                    tuple(sorted((a - 2, 4 * k + 4 - a, 4 * (g - k) - 6), reverse=True))
                )
                family_got.append(got)
            if sorted(family_want) != sorted(family_got):
                bad.append((r, l, "family", sorted(family_got)))
    return [], bad


# -- 4: the Red examples ---------------------------------------------------


@_check("red-examples", "PAPER")
def _red_examples(memo):
    d = red_condition(GP("1 2 2 3 3 1 / 0 0"))
    violated_as_printed = (
        d is not None
        and not d.swapped
        and d.cuts == (1, 5)
        and d.zero_cells == (0, 1)
    )
    satisfied = red_condition(GP("1 2 3 4 3 5 4 / 6 6 1 5 2")) is None
    return (True, True), (violated_as_printed, satisfied)


# -- 5: Q(8) ----------------------------------------------------------------


@_check("q8-counts", "PAPER")
def _q8_counts(memo):
    a1 = enumerate_type(5, 5, pattern=(8,))
    a2 = enumerate_type(6, 4, pattern=(8,))
    total = memo.q8.classes
    return (4, 3, 7), (len(a1), len(a2), len(total))


#: the source's one-cylinder table for the unequal-row case of Q(8), with
#: its stated length vector (positions 1..10)
A2_TABLE = (
    "5 2 5 3 4 2 / 1 3 1 4",
    "3 5 4 2 5 2 / 1 3 1 4",
    "5 3 2 5 4 2 / 1 3 1 4",
)
A2_LAMBDA = (1, 1, 1, 1, 1, 1, 2, 1, 2, 1)


@_check("q8-vertical-moves", "PAPER")
def _q8_vertical_moves(memo):
    a1_keys = {gp.canonical_key(CALIBRATED_SYM) for gp in enumerate_type(5, 5, pattern=(8,))}
    a2_keys = {gp.canonical_key(CALIBRATED_SYM) for gp in enumerate_type(6, 4, pattern=(8,))}
    covers_enum = sorted(GP(t).canonical_key(CALIBRATED_SYM) in a2_keys for t in A2_TABLE)
    landed = []
    for text in A2_TABLE:
        gp = GP(text)
        lam = lam_from_positions(gp, A2_LAMBDA)
        try:
            vg, _ = vertical_permutation(gp, lam)
            landed.append(vg.canonical_key(CALIBRATED_SYM) in a1_keys)
        except NotSingleCylinder:
            landed.append("multi-cylinder")
    return ([True, True, True], [True, True, True]), (covers_enum, landed)


#: the source's own one-cylinder table for Q(8), in its printed order
A1_TABLE = (
    "5 3 5 2 4 / 1 2 1 3 4",
    "5 4 5 2 3 / 1 2 1 3 4",
    "5 4 5 3 2 / 1 2 1 3 4",
    "5 3 5 3 4 / 1 2 1 2 4",
)


@_check("q8-one-orbit", "PAPER")
def _q8_one_orbit(memo):
    # Stated in the source as an easy check; the shear/quarter-turn walk
    # refutes it: the four unit suspensions split into two disjoint
    # orbits (see q8-orbit-structure).  Kept verbatim and left failing.
    _, covers, orbit = memo.a1_orbit
    return (4, False), (sum(k in orbit.keys for k in covers), orbit.truncated)


@_check("q8-orbit-structure", "DERIVED")
def _q8_orbit_structure(memo):
    # frozen truth behind the q8-one-orbit failure: membership pattern
    # and orbit sizes of the four printed suspensions
    gps, covers, first = memo.a1_orbit
    second = sl2z_orbit(gps[1], all_ones(gps[1]), cap=20000)
    members_first = tuple(i for i, k in enumerate(covers) if k in first.keys)
    members_second = tuple(i for i, k in enumerate(covers) if k in second.keys)
    disjoint = not (first.keys & second.keys)
    return ((0, 2), (1, 3), 10, 30, True), (
        members_first,
        members_second,
        len(first),
        len(second),
        disjoint,
    )


@_check("q8-connected", "PAPER")
def _q8_connected(memo):
    return 1, memo.q8.upper_bound


# -- 6: Q(-1,5) --------------------------------------------------------------


@_check("qm15-classes", "PAPER")
def _qm15_classes(memo):
    return 2, len(memo.qm15.classes)


@_check("qm15-lambda2-move", "PAPER")
def _qm15_move(memo):
    pi1 = GP("0 0 1 2 / 1 3 2 3")
    pi2 = GP("0 1 0 / 2 3 2 1 3")
    lam2 = lam_from_positions(pi2, (2, 1, 2, 1, 1, 1, 1, 1))
    vg, _ = vertical_permutation(pi2, lam2)
    return True, vg.equivalent(pi1, CALIBRATED_SYM)


@_check("qm15-connected", "PAPER")
def _qm15_connected(memo):
    return 1, memo.qm15.upper_bound


# -- 7: Q(12) ----------------------------------------------------------------


@_check("q12-rep-I-decomposition", "PAPER")
def _q12_rep_one(memo):
    rep = irreducible_rep("12-I")
    dec = cylinder_decomposition(rep, all_ones(rep))
    angles = sorted(
        simple_cylinder_angle(rep, all_ones(rep), c)[0] for c in dec.cylinders if c.simple
    )
    return (2, [2]), (len(dec.cylinders), angles)


@_check("q12-rep-II-angle", "PAPER")
def _q12_rep_two(memo):
    # the source asserts two cylinders only for the first representative;
    # the second decomposes into three, with the stated 6*pi excision
    rep = irreducible_rep("12-II")
    restricted, s = excise_simple_cylinder(rep)
    return 6, s


@_check("q12-quoted-angles", "PAPER")
def _q12_quoted_angles(memo):
    quoted = {
        "3 4 5 6 5 1 2 / 3 7 2 6 1 4 7": 1,  # rotation of the sigma form
        "5 6 1 2 3 4 2 / 5 7 6 7 3 1 4": 4,  # rotation of the first rep
        "2 3 4 5 6 5 1 / 2 6 1 4 7 3 7": 5,  # other sigma rotation
        "5 6 1 2 3 4 3 / 5 7 4 2 6 7 1": 3,  # rotation of the second rep
    }
    got = {}
    for text in quoted:
        gp = GP(text)
        restricted = gp.restrict()
        assert is_irreducible(restricted).irreducible
        dec = cylinder_decomposition(gp, all_ones(gp))
        head = next(c for c in dec.cylinders if 0 in c.arcs and c.circumference == 1)
        got[text] = simple_cylinder_angle(gp, all_ones(gp), head)[0]
    return quoted, got


@_check("q12-two-components", "PAPER")
def _q12_two_components(memo):
    rep = memo.q12
    has_citation = any("Zorich" in c for c in rep.citations)
    g1, g2 = memo.q12_groups
    return (2, True, True, 1), (rep.upper_bound, has_citation, g1 != g2, rep.lower_bound)


# -- 8: Q(-1,9) ---------------------------------------------------------------


@_check("qm19-angles", "PAPER")
def _qm19_angles(memo):
    quoted = {
        "3 4 0 0 1 2 / 3 5 2 1 4 5": 1,
        "2 3 4 0 0 1 / 2 4 5 1 3 5": 2,
        "1 2 3 4 0 0 / 1 4 5 3 5 2": 4,
    }
    got = {}
    for text in quoted:
        gp = GP(text)
        dec = cylinder_decomposition(gp, all_ones(gp))
        angles = [
            simple_cylinder_angle(gp, all_ones(gp), c)[0] for c in dec.cylinders if c.simple
        ]
        got[text] = min(angles)
    return quoted, got


@_check("qm19-one-pole-family", "PAPER")
def _qm19_one_pole_family(memo):
    # the one-pole ladder with weights ((l-1)a, a, (l-1)a, a, ..., a)
    # splits vertically into g-1 cylinders, exactly one of them simple
    got = []
    for l in (5, 7, 9):
        top = ["0", "1", "0"]
        run = [str(i) for i in range(3, l + 1)]
        bottom = run + ["2"] + run + ["1", "2"]
        gp = GeneralizedPermutation.from_tokens(top, bottom)
        genus = singularity_pattern(gp).genus
        lam = lam_from_positions(gp, [l - 1, 1, l - 1] + [1] * (2 * l - 1))
        dec = cylinder_decomposition(gp, lam)
        got.append((len(dec.cylinders) == genus - 1, sum(c.simple for c in dec.cylinders)))
    return [(True, 1)] * 3, got


@_check("qm19-excise", "PAPER")
def _qm19_excise(memo):
    restricted, s = excise_simple_cylinder(irreducible_rep("(-1,9)"))
    pattern = singularity_pattern(restricted).orders
    # collapsing the seam merges the 1 and 4 into the Q(-1,5) zero
    return (3, (4, 1, -1)), (s, pattern)


# -- 9: emptiness and Q(2,2) ---------------------------------------------------


@_check("empty-strata", "PAPER")
def _empty_strata(memo):
    sizes = [len(enumerate_stratum(p)) for p in ((0,), (-1, 1), (1, 3), (4,))]
    return [0, 0, 0, 0], sizes


@_check("q22-hyperelliptic", "PAPER")
def _q22_hyperelliptic(memo):
    rep = component_report((2, 2), MoveConfig())
    tags = sorted(t.label() for t in rep.tags)
    return (["hyp:pi1(1,1)", "hyp:pi2(2,2)"], 1), (tags, rep.upper_bound)


# -- 10: irreducibility bridge -------------------------------------------------


@_check("bridge-weak-implies-irreducible", "PAPER")
def _bridge_weirr(memo):
    bad = []
    for gp in memo.corpus66:
        if not condition_star(gp):
            continue
        if weak_reducibility(gp) is None and not is_irreducible(gp).irreducible:
            bad.append(gp.render())
    return [], bad


@_check("bridge-irreducible-geometry", "PAPER")
def _bridge_geometry(memo):
    bad = []
    for gp in memo.corpus66:
        verdict = is_irreducible(gp)
        if verdict.irreducible:
            if not any(
                gamma_mult_one_evidence(gp, sample_admissible(gp, seed=seed, bound=20))
                for seed in range(20)
            ):
                bad.append(("no-good-lambda", gp.render()))
        elif verdict.status == "fails_weak":
            for seed in range(20):
                spec = separatrix_spectrum(gp, sample_admissible(gp, seed=seed, bound=20))
                if all(s.crossings > 2 for s in spec.non_gamma()):
                    bad.append(("missing-short-companion", gp.render(), seed))
                    break
    return [], bad


# -- 11: structural invariants --------------------------------------------------


def _random_gp(rng: random.Random) -> GeneralizedPermutation:
    while True:
        k = rng.randint(2, 5)
        cells = [x for x in range(1, k + 1) for _ in range(2)]
        rng.shuffle(cells)
        r = rng.randint(1, 2 * k - 1)
        top, bottom = cells[:r], cells[r:]
        if not top or not bottom:
            continue
        gp = GeneralizedPermutation.from_rows(top, bottom)
        if admissible_feasible(gp):
            return gp


@_check("invariants-500", "DERIVED")
def _invariants_500(memo):
    rng = random.Random(20120807)
    failures = []
    for case in range(500):
        gp = _random_gp(rng)
        lam = sample_admissible(gp, seed=rng.randint(0, 10**6), bound=6)
        w = sum(lam[x - 1] for x in gp.top)
        pattern = singularity_pattern(gp)
        dec = cylinder_decomposition(gp, lam)
        if sum(c.width * c.circumference for c in dec.cylinders) != w:
            failures.append(("area", gp.render(), lam))
        counts = {}
        for seg in dec.spectrum.segments:
            counts[seg.crossings] = counts.get(seg.crossings, 0) + 1
        if sum(s.crossings for s in dec.spectrum.segments) != len(dec.spectrum.singular_lines()):
            failures.append(("lines", gp.render(), lam))
        cover = build_cover(gp, lam)
        if cover.connected:
            odd = sum(1 for k in pattern.orders if k % 2)
            if 2 - 2 * cover.genus() != 2 * (2 - 2 * pattern.genus) - odd:
                failures.append(("riemann-hurwitz", gp.render(), lam))
            s2 = cover.apply_S().apply_S()
            if s2.canonical_key() != cover.canonical_key():
                failures.append(("S2", gp.render(), lam))
            st = cover.apply_S().apply_T()  # hits both generators
            if st.apply_S().apply_T().apply_S().apply_T().canonical_key() != cover.canonical_key():
                failures.append(("(ST)^3", gp.render(), lam))
            if cover.apply_T().vertex_profile() != cover.vertex_profile():
                failures.append(("T-profile", gp.render(), lam))
            # canonical keys must not see square labels
            relabel = list(range(cover.n))
            rng.shuffle(relabel)
            inv = [0] * cover.n
            for a, bb in enumerate(relabel):
                inv[bb] = a
            shuffled = SquareTiledCover(
                tuple(relabel[cover.right[inv[i]]] for i in range(cover.n)),
                tuple(relabel[cover.up[inv[i]]] for i in range(cover.n)),
                tuple(relabel[cover.deck[inv[i]]] for i in range(cover.n)),
                cover.connected,
            )
            if shuffled.canonical_key() != cover.canonical_key():
                failures.append(("key-relabel", gp.render(), lam))
            decoded = decode_one_cylinder(cover)
            if decoded is not None and not decoded.equivalent(
                smooth_marked_points(gp), CALIBRATED_SYM
            ):
                failures.append(("decode-roundtrip", gp.render(), lam))
        canon = gp.canonical_form(DEFAULT_SYM)
        if canon.canonical_form(DEFAULT_SYM).rows() != canon.rows():
            failures.append(("idempotence", gp.render()))
        if len(dec.cylinders) == 1:
            vg, _ = vertical_permutation(gp, lam)
            if singularity_pattern(vg).orders != pattern.orders:
                failures.append(("vperm-pattern", gp.render(), lam))
    return [], failures


# -- 12: handle calculus ----------------------------------------------------------


@_check("oplus-roundtrip", "PAPER")
def _oplus_roundtrip(memo):
    results = []
    q8_rep = memo.q8.classes[0]
    bubbled = bubble(q8_rep, 2)
    restricted, s = excise_simple_cylinder(bubbled)
    results.append((s, q8_rep.canonical_key(CALIBRATED_SYM) in _collapse_keys(restricted, CALIBRATED_SYM)))
    qm15_rep = GP("0 0 1 2 / 1 3 2 3")
    bubbled = bubble(qm15_rep, 3)
    restricted, s = excise_simple_cylinder(bubbled)
    results.append((s, qm15_rep.canonical_key(CALIBRATED_SYM) in _collapse_keys(restricted, CALIBRATED_SYM)))
    return [(2, True), (3, True)], results


@_check("oplus-bubble-hits-components", "PAPER")
def _oplus_components(memo):
    # bubbling the connected Q(8) with the quoted angles lands in the
    # matching component of Q(12)
    rep = memo.q12
    idx = memo.q12_index
    group_I, group_II = memo.q12_groups
    got = {}
    for s in range(1, 7):
        landed = set()
        for q8_class in memo.q8.classes:
            try:
                b = bubble(q8_class, s)
            except NotFoundWithinBudget:
                continue
            landed.add(rep.groups[idx[b.canonical_key(CALIBRATED_SYM)]])
        got[s] = sorted(landed)
    want = {1: [group_I], 2: [group_I], 3: [group_II], 4: [group_I], 5: [group_I], 6: [group_II]}
    return want, got


def _q16_labels(memo: _Memo, gp16: GeneralizedPermutation) -> set:
    """Certified excision labels (angle, merge group of the collapse).

    A double handle sum excises back into the stratum below; the label
    pins its component through the smaller report, so two double sums
    sharing a label lie in one component.
    """
    q12, idx = memo.q12, memo.q12_index
    out = set()
    for exc in excisions(gp16):
        if not exc.restricted_irreducible:
            continue
        for key in _collapse_keys(exc.restricted, CALIBRATED_SYM):
            j = idx.get(key)
            if j is not None:
                out.add((exc.angle, q12.groups[j]))
    return out


@_check("oplus-commute", "PAPER")
def _oplus_commute(memo):
    # C + 1 + 2 = C + 2 + 1 for the Q(8) class, certified inside Q(16)
    q8_rep = memo.q8.classes[0]
    ab = bubble(bubble(q8_rep, 1), 2)
    ba = bubble(bubble(q8_rep, 2), 1)
    return True, bool(_q16_labels(memo, ab) & _q16_labels(memo, ba))


@_check("oplus-exchange", "PAPER")
def _oplus_exchange(memo):
    # the handle angles trade two wedges: C + s1 + s2 = C + (s2-2) + (s1+2)
    q8_rep = memo.q8.classes[0]
    ab = bubble(bubble(q8_rep, 2), 3)
    ba = bubble(bubble(q8_rep, 1), 4)
    return True, bool(_q16_labels(memo, ab) & _q16_labels(memo, ba))
