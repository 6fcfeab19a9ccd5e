"""The three benchmark workloads: seeded inputs, one operation, digest, checks.

Every workload exposes the same small surface, used by ``run.py``:

* ``setup_inputs()`` runs the warm-up operation and returns the pass's
  operation inputs (both count as set-up time);
* ``run_op(x)`` performs one operation through the public ``onecyl`` API
  and returns its outputs; documented outcomes are part of them, any
  other exception propagates and counts as a failed operation;
* ``digest(result)`` reduces a result to a short string built only from
  representation-independent outputs (rendered permutations, orders,
  statuses, sizes), so a behaviour-preserving refactor keeps every digest;
* ``check(x, result)`` re-validates one result by code paths other than
  the ones that produced it and returns a list of problems;
* ``items(result)`` counts the work units a result stands for (classes,
  queries or forms), the base of the throughput figures.

Library calls go through module attributes at call time (``api.bubble``,
``api.suspension.decode_one_cylinder``) so that the tracer's wrappers, once
installed, see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import random

FROZEN_SEED = 0  # the seed whose query and orbit digests are frozen

# Q(12) merge-move breadth, copied from the ledger's q12 check.
Q12_CONFIG = dict(
    lambda_samples=6,
    lambda_bound=8,
    use_orbits=False,
    use_excisions=True,
    substratum_connected=True,
    orbit_decode_cap=3000,
)
# stratum -> (classes, upper bound), the published and ledger values
REPORT_STRATA = {(8,): (7, 1), (-1, 5): (2, 1), (2, 2): (2, 1), (-1, 9): (129, 2), (12,): (725, 2)}
BUBBLE_ANGLES = range(1, 7)
QUERY_LETTERS = (4, 5, 6, 7, 8)
ORBIT_LETTERS = (5, 6, 7, 8)
# Orbit cost per form grows with the cover width, so the orbit corpus is
# stratified by width: the mix, and with it the cost of a pass, then
# barely moves from seed to seed.  With an odd number of widths the
# median orbit lies inside one stratum rather than between two.
ORBIT_WIDTHS = tuple(range(7, 14))
ORBITS_PER_WIDTH = 24
ORBIT_CAP = 200
# Warm-up inputs are fixed, so that set-up time does not depend on the seed.
QUERY_WARMUP = ("1 2 3 4 2 5 6 / 1 4 5 7 6 7 3", 1, 0)
ORBIT_WARMUP = "0 1 2 3 4 0 / 4 3 2 5 1 5"


def sha(text: str, n: int = 64) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:n]


def random_rows(rng: random.Random, k: int) -> tuple[list[int], list[int]]:
    """Uniform word on k letters, each twice, cut into two rows that each
    hold a doubled letter (admissible and non-orientable)."""
    while True:
        cells = [x for x in range(1, k + 1) for _ in range(2)]
        rng.shuffle(cells)
        r = rng.randint(1, 2 * k - 1)
        top, bottom = cells[:r], cells[r:]
        if len(set(top)) < len(top) and len(set(bottom)) < len(bottom):
            return top, bottom


def render_rows(top, bottom) -> str:
    return " ".join(map(str, top)) + " / " + " ".join(map(str, bottom))


class Report:
    """Component reports of five strata, then bubbles of the Q(8) classes.

    The strata and move configurations are fixed, so the seed does not
    change the inputs; every output is frozen for every seed.
    """

    name = "report"
    item_name = "classes"

    def __init__(self, api, seed: int, smoke: bool):
        self.api = api
        self.strata = list(REPORT_STRATA)[:1] if smoke else list(REPORT_STRATA)
        self.smoke = smoke

    def config(self, pattern):
        return self.api.MoveConfig(**Q12_CONFIG) if pattern == (12,) else self.api.MoveConfig()

    def setup_inputs(self) -> list:
        q8 = self.api.component_report((8,), self.api.MoveConfig())
        ops = [("report", pattern) for pattern in self.strata]
        if not self.smoke:
            ops += [("bubble", gp.render(), s) for gp in q8.classes for s in BUBBLE_ANGLES]
        return ops

    def run_op(self, x):
        api = self.api
        if x[0] == "report":
            rep = api.component_report(x[1], self.config(x[1]))
            return {"report": rep, "json": json.dumps(rep.as_json(), sort_keys=True)}
        gp = api.GeneralizedPermutation.parse(x[1])
        try:
            return {"bubble": api.bubble(gp, x[2]).render()}
        except api.errors.NotFoundWithinBudget:
            return {"bubble": "NotFoundWithinBudget"}

    def digest(self, res) -> str:
        return sha(res["json"]) if "json" in res else res["bubble"]

    def items(self, res) -> int:
        return len(res["report"].classes) if "report" in res else 0

    def check(self, x, res) -> list[str]:
        api = self.api
        if x[0] == "bubble":
            if res["bubble"] == "NotFoundWithinBudget":
                return []
            gp = api.GeneralizedPermutation.parse(res["bubble"])
            restricted, angle = api.excise_simple_cylinder(gp)
            problems = []
            if angle != x[2]:
                problems.append("bubble %s s=%d excises at angle %d" % (x[1], x[2], angle))
            if api.singularity_pattern(gp).orders != (12,):
                problems.append("bubble %s s=%d leaves Q(12)" % (x[1], x[2]))
            return problems
        rep = res["report"]
        problems = []
        if (len(rep.classes), rep.upper_bound) != REPORT_STRATA[x[1]]:
            problems.append("%s: %d classes, upper bound %d; expected %d and %d"
                            % ((x[1], len(rep.classes), rep.upper_bound) + REPORT_STRATA[x[1]]))
        total = sum(k + 2 for k in x[1])
        for gp in rep.classes:
            if gp.size != total or api.singularity_pattern(gp).orders != rep.pattern.orders:
                problems.append("%s: class %s outside the stratum" % (x[1], gp.render()))
        if x[1] == (12,):
            sym = api.CALIBRATED_SYM
            index = {gp.canonical_key(sym): i for i, gp in enumerate(rep.classes)}
            g1, g2 = (
                rep.groups[index[api.irreducible_rep(name).canonical_key(sym)]]
                for name in ("12-I", "12-II")
            )
            if g1 == g2:
                problems.append("12-I and 12-II share merge group %d" % g1)
        return problems


class Queries:
    """The CLI's single-permutation operations on seeded random permutations."""

    name = "queries"
    item_name = "queries"

    def __init__(self, api, seed: int, smoke: bool):
        self.api = api
        self.seed = seed
        self.n = 20 if smoke else 2000

    def setup_inputs(self) -> list:
        rng = random.Random(self.seed)
        inputs = []
        for i in range(self.n):
            top, bottom = random_rows(rng, QUERY_LETTERS[i % len(QUERY_LETTERS)])
            inputs.append((render_rows(top, bottom), rng.randrange(1, 2**31), rng.randrange(1 << 16)))
        self.run_op(QUERY_WARMUP)
        return inputs

    def run_op(self, x):
        api = self.api
        errors = api.errors
        text, lam_seed, _ = x
        gp = api.GeneralizedPermutation.parse(text)
        res = {"gp": gp, "render": gp.render()}
        res["stratum"] = api.singularity_pattern(gp)
        res["verdict"] = api.is_irreducible(gp)
        res["red"] = api.red_condition(gp)
        res["weak"] = api.weak_reducibility(gp)
        res["star"] = api.condition_star(gp)
        try:
            lam = res["lam"] = api.sample_admissible(gp, seed=lam_seed)
        except errors.BoundTooSmall:
            # the CLI stops every sampled-length command here
            res["lam"] = None
        else:
            res["spectrum"] = api.separatrix_spectrum(gp, lam)
            dec = res["decomposition"] = api.cylinder_decomposition(gp, lam)
            if len(dec.cylinders) == 1:
                res["vperm"] = api.vertical_permutation(gp, lam)
            angles = []
            for cyl in dec.cylinders:
                if cyl.simple:
                    try:
                        angles.append(api.simple_cylinder_angle(gp, lam, cyl))
                    except errors.NotSimple:
                        # the CLI's `angle` skips such cylinders the same way
                        angles.append("NotSimple")
            res["angles"] = angles
            res["decoded"] = api.suspension.decode_one_cylinder(api.build_cover(gp, lam))
        res["excisions"] = api.excisions(gp)
        res["tag"] = api.match_component(gp, api.CALIBRATED_SYM)
        res["canonical"] = gp.canonical_form(api.CALIBRATED_SYM)
        return res

    def digest(self, res) -> str:
        sym = self.api.CALIBRATED_SYM
        parts = [
            res["render"],
            res["stratum"].render(),
            res["verdict"].status,
            "red-violated" if res["red"] else "red-holds",
            "weak-reducible" if res["weak"] else "weak-irreducible",
            str(res["star"]),
            str(res["lam"]) if res["lam"] else "BoundTooSmall",
        ]
        if res["lam"]:
            parts += [
                str(sorted((s.crossings, s.is_gamma) for s in res["spectrum"].segments)),
                str(sorted((c.width, c.circumference, c.simple) for c in res["decomposition"].cylinders)),
                "%s %s" % (res["vperm"][0].render(), res["vperm"][1]) if "vperm" in res else "multi-cylinder",
                str(sorted(map(str, res["angles"]))),
                res["decoded"].canonical_form(sym).render() if res["decoded"] else "undecoded",
            ]
        parts += [
            str(sorted((e.rotation, e.restricted.render(), e.angle, e.complement, e.restricted_irreducible)
                       for e in res["excisions"])),
            res["tag"].label(),
            res["canonical"].render(),
        ]
        return sha(" | ".join(parts), 16)

    def items(self, res) -> int:
        return 1

    def check(self, x, res) -> list[str]:
        api = self.api
        cond = api.conditions
        sym = api.CALIBRATED_SYM
        gp = res["gp"]
        problems = []

        def need(ok, what):
            if not ok:
                problems.append("%s: %s" % (res["render"], what))

        need(sum(k + 2 for k in res["stratum"].orders) == gp.size, "junction count differs from cell count")
        status, witness = res["verdict"].status, res["verdict"].witness
        if status == "fails_weak":
            need(cond.check_weak_split(gp, witness), "weak-reducibility witness does not re-check")
        elif status == "fails_red":
            need(res["weak"] is None and cond.check_red_decomposition(gp, witness),
                 "Red witness does not re-check")
        else:
            need(res["weak"] is None and res["red"] is None, "irreducible with a reducibility witness")
        need(res["star"] == (len(gp.top_doubled()) == 1 and len(gp.bottom_doubled()) == 1),
             "condition (*) disagrees with the doubled letters")
        lam = res["lam"]
        if lam is not None:
            width = sum(lam[x - 1] for x in gp.top)
            need(width == sum(lam[x - 1] for x in gp.bottom) and all(1 <= v <= 20 for v in lam),
                 "sampled lengths are not admissible")
            cyls = res["decomposition"].cylinders
            need(sum(c.width * c.circumference for c in cyls) == width, "cylinder areas do not add up")
            if "vperm" in res:
                vg, vlam = res["vperm"]
                circ = cyls[0].circumference
                need(api.singularity_pattern(vg).orders == res["stratum"].orders, "vperm changes the stratum")
                need(sum(vlam[x - 1] for x in vg.top) == circ == sum(vlam[x - 1] for x in vg.bottom),
                     "vperm lengths do not span the vertical circumference")
            smoothed = api.smooth_marked_points(gp)
            need(res["decoded"] is not None and res["decoded"].equivalent(smoothed, sym),
                 "decoded cover is not the class with marked points smoothed")
        # a random symmetric image must have the same canonical form
        rng = random.Random(x[2])
        image = gp.rotated(rng.randrange(len(gp.top)), rng.randrange(len(gp.bottom))).swap_rows()
        canon = res["canonical"]
        need(image.canonical_form(sym).rows() == canon.rows() == canon.canonical_form(sym).rows(),
             "canonical form is not invariant")
        tag = res["tag"]
        if tag.kind == "irreducible":
            need(api.irreducible_rep(tag.name).equivalent(gp, sym), "wrong irreducible tag")
        elif tag.kind == "hyperelliptic":
            need(api.hyperelliptic_rep(tag.family, tag.r, tag.l).equivalent(gp, sym), "wrong hyperelliptic tag")
        return problems


class Orbits:
    """Shear/quarter-turn orbits of the covers over minimal admissible vectors."""

    name = "orbits"
    item_name = "forms"

    def __init__(self, api, seed: int, smoke: bool):
        self.api = api
        self.seed = seed
        self.n = 3 if smoke else ORBITS_PER_WIDTH * len(ORBIT_WIDTHS)

    def setup_inputs(self) -> list:
        rng = random.Random(self.seed)
        inputs = []
        for i in range(self.n):
            want = ORBIT_WIDTHS[i % len(ORBIT_WIDTHS)]
            while True:
                top, bottom = random_rows(rng, rng.choice(ORBIT_LETTERS))
                gp = self.api.GeneralizedPermutation.from_rows(top, bottom)
                lam = self.api.minimal_admissible(gp)
                if sum(lam[x - 1] for x in gp.top) == want:
                    break
            inputs.append(render_rows(top, bottom))
        self.run_op(ORBIT_WARMUP)
        return inputs

    def run_op(self, text):
        api = self.api
        gp = api.GeneralizedPermutation.parse(text)
        lam = api.minimal_admissible(gp)
        return {"gp": gp, "lam": lam, "orbit": api.sl2z_orbit(gp, lam, cap=ORBIT_CAP)}

    def digest(self, res) -> str:
        orbit = res["orbit"]
        return sha("%s | %s | %d | %s" % (res["gp"].render(), res["lam"], len(orbit), orbit.truncated), 16)

    def items(self, res) -> int:
        return len(res["orbit"])

    def check(self, text, res) -> list[str]:
        orbit = res["orbit"]
        start = self.api.build_cover(res["gp"], res["lam"])
        problems = []
        if not 1 <= len(orbit) <= ORBIT_CAP or (orbit.truncated and len(orbit) != ORBIT_CAP):
            problems.append("%s: orbit size %d, truncated=%s" % (text, len(orbit), orbit.truncated))
        # replay three witness words; the shear/quarter-turn action keeps
        # the corner profile, and a complete orbit is closed under it
        words = sorted(orbit.words.items(), key=lambda kv: (len(kv[1]), kv[1]))
        for key, word in (words[0], words[len(words) // 2], words[-1]):
            cover = start
            for letter in word:
                cover = cover.apply_T() if letter == "T" else cover.apply_S()
            if cover.canonical_key() != key:
                problems.append("%s: word %r does not reach its form" % (text, word))
            if cover.vertex_profile() != start.vertex_profile():
                problems.append("%s: word %r changes the corner profile" % (text, word))
            if not orbit.truncated and not {cover.apply_T().canonical_key(), cover.apply_S().canonical_key()} <= orbit.keys:
                problems.append("%s: complete orbit is not closed after %r" % (text, word))
        return problems


WORKLOADS = {w.name: w for w in (Report, Queries, Orbits)}
