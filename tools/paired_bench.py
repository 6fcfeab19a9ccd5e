#!/usr/bin/env python3
"""Paired before/after measurements of two source checkouts of onecyl.

    python3 tools/paired_bench.py --before DIR --after DIR --out FILE.json \\
        [--seed N] [--seconds S] [--pairs 10]

Each DIR is the root of a checkout (with ``src/`` and ``bench/``).  Whole
runs go to fresh processes, every per-call key to one process:

* end to end, ``bench/run.py --trace 0`` in a fresh process per run:
  ``--pairs`` pairs each of the ``report``, ``queries`` and ``orbits``
  workloads at the same seed and seconds, the sides alternating within each
  pair (``--before`` first on even pairs), so that a phase of the
  machine's speed falls on both sides alike;
* per call, one process that imports both checkouts under two package
  names.  Each side first makes one untimed pass of every key, and the
  sha256 of its outputs must agree between the sides, so every figure is
  of warm calls.  Then come ``ROUNDS`` rounds; a round times each side
  of every key in turn, the sides alternating which goes first from
  round to round, and round i of every key runs before round i + 1 of
  any, so a slow phase of the machine spreads over all keys instead of
  landing whole on a few.  A side's time in a round repeats its pass
  until at least ``MIN_ROUND_S`` has passed and records the mean per
  call, so a key of sub-millisecond calls is not read off one call.
  The collector runs before each side's timed passes and is off during
  them, so no side pays for collecting the garbage of another.
  Fresh-process pairs swing as much between processes on unchanged code
  as the changes they would measure.  The keys, each over the same
  inputs on both sides:

  - ``enumerate_stratum`` per stratum of ``STRATA`` and pattern-free
    ``enumerate_type`` per type of ``TYPES``, digested as the rendered
    class list;
  - ``vertical_permutation``, ``separatrix_spectrum`` and
    ``cylinder_decomposition`` over the report's vperm inputs (every class
    of the report strata at the distinct vectors of seeds
    0..``lambda_samples`` of its move configuration) and over the seed-0
    ``queries`` pairs that get lengths, one layer over all of a set per
    pass; ``excisions`` and ``excise_simple_cylinder`` over the Q(12)
    classes, and ``bubble`` over the report's bubbles (every Q(8) class at
    the bubble angles), each output digested as its ``repr`` or its error
    message;
  - ``SquareTiledCover.canonical_key``, ``apply_T`` and ``apply_S`` over
    every form of the seed-0 ``orbits`` inputs up to ``ORBIT_CAP`` forms
    each, digested as the keys and the images' rows;
  - the query chain per pair: each seed-0 ``queries`` pair with lengths
    read as the ``queries`` workload does, ``separatrix_spectrum``, then
    ``cylinder_decomposition``, ``vertical_permutation`` on one cylinder,
    ``build_cover`` and ``decode_one_cylinder``, so a layer reuses what
    the one before it read;
  - ``component_report`` of each report stratum with that stratum's move
    configuration, digested as its JSON;
  - the vperm pass per class: ``classify._vperm_pairs`` over each report
    stratum's classes with that stratum's move configuration, and over
    all of them in one run.

  The summaries are of the per-round times and of the per-round change,
  after over before;
* one ``bench/run.py --workload report --trace 1`` run per side, for the
  enumeration's and the vperm pass's traced per-layer metrics.

The output is one JSON object: raw runs, medians and quartiles per side,
for each end-to-end metric the number of pairs the after side won, and for
each per-call key the number of rounds it won.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

END_TO_END = ("setup_s", "item_ref", "p99_ref", "peak_rss_mb")
TRACED = (
    "classify.enumerate_stratum.total_s",
    "classify.enumerate_stratum.self_s",
    "strata.single_vertex.calls",
    "strata.pattern_orders.calls",
    "strata.vertex_cycles.calls",
    "genperm.canonical_key.calls",
    "suspension.sample_admissible.calls",
    "suspension.vertical_permutation.calls",
    "conditions.is_irreducible.calls",
)
ROUNDS = 20  # interleaved rounds of every per-call key
MIN_ROUND_S = 0.02  # least time of one side of one key in a round, in seconds

# times every per-call key of both checkouts in one interpreter, every key
# once per round and passes of each side per key for at least the least
# round time; argv: before root, after root, rounds, least round time
PROBE = """
import gc, hashlib, importlib.util, itertools, json, sys, time
before, after, rounds, min_s = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
sys.path.insert(0, after + "/bench")
import workloads

STRATA = [(8,), (-1, 5), (2, 2), (-1, 9), (12,), (-1, 3, 6), (2, 2, 2, 2), (-1, 3, 3, 3)]
TYPES = [(6, 6), (7, 7)]

def load(name, root):
    # the package imports itself relatively, so it loads under any name
    spec = importlib.util.spec_from_file_location(
        name, root + "/src/onecyl/__init__.py", submodule_search_locations=[root + "/src/onecyl"])
    api = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(api)
    return api

def probe_keys(api):
    # key -> (one pass, returning its outputs; inputs per pass; outputs -> digested lines)
    errors = (api.errors.NotSingleCylinder, api.errors.NoSimpleCylinderForm, api.errors.NotFoundWithinBudget)

    def outcome(call):
        def read(*args):
            try:
                return repr(call(*args))
            except errors as exc:
                return str(exc)
        return read

    def over(inputs, call, lines=list):
        return (lambda: [call(*x) for x in inputs]), len(inputs), lines

    def classes(out):
        return [g.render() for g in out[0]]

    out = {}
    for p in STRATA:
        out["Q(%s) enumerate_stratum" % ",".join(map(str, p))] = over([(p,)], api.enumerate_stratum, classes)
    for t in TYPES:
        out["(%d,%d) enumerate_type" % t] = over([t], api.enumerate_type, classes)

    queries = []
    for text, lam_seed, _ in workloads.Queries(api, workloads.FROZEN_SEED, False).setup_inputs():
        gp = api.GeneralizedPermutation.parse(text)
        try:
            queries.append((gp, api.sample_admissible(gp, seed=lam_seed)))
        except api.errors.BoundTooSmall:
            pass
    report, passes = [], []
    for pattern in workloads.REPORT_STRATA:
        config = api.MoveConfig(**workloads.Q12_CONFIG) if pattern == (12,) else api.MoveConfig()
        strat = api.enumerate_stratum(pattern)
        for gp in strat:
            lams = set()
            for seed in range(config.lambda_samples + 1):
                try:
                    lams.add(api.sample_admissible(gp, seed=seed, bound=config.lambda_bound))
                except api.errors.BoundTooSmall:
                    pass
            report += [(gp, lam) for lam in sorted(lams)]
        index = {gp.rows(): i for i, gp in enumerate(strat)}
        name = "Q(%s) " % ",".join(map(str, pattern))
        out[name + "component_report"] = over([(pattern, config)], api.component_report, lambda reps: [json.dumps(rep.as_json()) for rep in reps])

        def vperm_pass(strat=strat, index=index, config=config):
            return repr(list(api.classify._vperm_pairs(strat, index, config, api.CALIBRATED_SYM, lambda i: i)))
        passes.append((vperm_pass, len(strat)))
        out[name + "vperm pass"] = (lambda run=vperm_pass: [run()]), len(strat), list
    for name, inputs in (("report", report), ("queries", queries)):
        out[name + " vertical_permutation"] = over(inputs, outcome(api.vertical_permutation))
        out[name + " separatrix_spectrum"] = over(inputs, outcome(api.separatrix_spectrum))
        out[name + " cylinder_decomposition"] = over(inputs, outcome(api.cylinder_decomposition))
    q12 = [(gp,) for gp in api.enumerate_stratum((12,))]
    out["q12 excisions"] = over(q12, outcome(api.excisions))
    out["q12 excise_simple_cylinder"] = over(q12, outcome(api.excise_simple_cylinder))
    bubbles = [(gp, s) for gp in api.enumerate_stratum((8,)) for s in workloads.BUBBLE_ANGLES]
    out["bubbles bubble"] = over(bubbles, outcome(api.bubble))

    forms = []
    for text in workloads.Orbits(api, workloads.FROZEN_SEED, False).setup_inputs():
        gp = api.GeneralizedPermutation.parse(text)
        walk = api.suspension.orbit_forms(api.build_cover(gp, api.minimal_admissible(gp)))
        forms += [(form,) for _, _, form, _ in itertools.islice(walk, workloads.ORBIT_CAP)]
    cover = api.suspension.SquareTiledCover
    out["orbits canonical_key"] = over(forms, cover.canonical_key, lambda keys: map(repr, keys))
    for move in ("apply_T", "apply_S"):
        out["orbits " + move] = over(forms, getattr(cover, move), lambda cs: [repr((c.right, c.up, c.deck)) for c in cs])

    def chain(gp, lam):
        spectrum = api.separatrix_spectrum(gp, lam)
        dec = api.cylinder_decomposition(gp, lam)
        vperm = api.vertical_permutation(gp, lam) if len(dec.cylinders) == 1 else None
        decoded = api.suspension.decode_one_cylinder(api.build_cover(gp, lam))
        return repr((spectrum, dec, vperm, decoded))
    out["queries chain"] = over(queries, chain)
    out["report strata vperm pass"] = (lambda: [run() for run, _ in passes]), sum(n for _, n in passes), list
    return out

sides = {"before": load("onecyl_before", before), "after": load("onecyl_after", after)}
probes = {name: probe_keys(api) for name, api in sides.items()}
result = {}
for key in probes["before"]:
    digests = {}
    for name in sides:
        run, _, lines = probes[name][key]
        digests[name] = hashlib.sha256("\\n".join(lines(run())).encode()).hexdigest()
    result[key] = {"calls": probes["before"][key][1], "digests": digests, **{name: [] for name in sides}}
for i in range(rounds):
    for key in result:
        for name in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            run, count, _ = probes[name][key]
            gc.collect()  # no garbage of the other side or key is collected in this window
            gc.disable()
            passes, t, elapsed = 0, time.perf_counter(), 0.0
            while elapsed < min_s:
                run()
                passes += 1
                elapsed = time.perf_counter() - t
            gc.enable()
            result[key][name].append(elapsed / passes / count * 1e6)
    print("round", i, file=sys.stderr, flush=True)
print(json.dumps(result))
"""


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"runs": runs, "median": median, "q1": q1, "q3": q3}


def bench_run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    record = json.loads(out.strip().splitlines()[-1])
    if record["failed"]:
        raise SystemExit("%s: %s failed %d operations" % (root, workload, record["failed"]))
    return {name: metric["value"] for name, metric in record["metrics"].items()}


def end_to_end(sides: dict[str, Path], workload: str, pairs: int, seed: int, seconds: float) -> dict:
    runs: dict[str, list] = {name: [] for name in sides}
    for i in range(pairs):
        for name in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            runs[name].append(bench_run(sides[name], workload, seed, seconds, 0))
            print(workload, name, i, runs[name][-1], file=sys.stderr, flush=True)
    out: dict = {}
    for metric in END_TO_END:
        before = [r[metric] for r in runs["before"]]
        after = [r[metric] for r in runs["after"]]
        out[metric] = {
            "before": summary(before),
            "after": summary(after),
            "after_lower_in_pairs": sum(a < b for a, b in zip(after, before)),
            "pairs": pairs,
        }
    return out


def per_call(sides: dict[str, Path], rounds: int) -> dict:
    """Every per-call key, both sides interleaved in one process; exits when their outputs disagree."""
    cmd = [sys.executable, "-c", PROBE, str(sides["before"]), str(sides["after"]), str(rounds), str(MIN_ROUND_S)]
    runs = json.loads(subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout)
    disagree = [key for key, run in runs.items() if len(set(run["digests"].values())) != 1]
    if disagree:
        raise SystemExit("the sides' outputs disagree: %s" % ", ".join(disagree))
    out: dict = {}
    for key, run in runs.items():
        out[key] = {
            "calls": run["calls"],
            "sha256": run["digests"]["before"],
            "rounds": rounds,
            "before_us": summary(run["before"]),
            "after_us": summary(run["after"]),
            "change": summary([a / b - 1 for a, b in zip(run["after"], run["before"])]),
            "after_lower_in_rounds": sum(a < b for a, b in zip(run["after"], run["before"])),
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    result: dict = {
        "machine": {"python": platform.python_version(), "implementation": platform.python_implementation(),
                    "system": platform.system(), "machine": platform.machine()},
        "settings": {"seed": args.seed, "seconds": args.seconds, "pairs": args.pairs, "rounds": ROUNDS,
                     "min_round_s": MIN_ROUND_S},
        "end_to_end": {w: end_to_end(sides, w, args.pairs, args.seed, args.seconds) for w in ("report", "queries", "orbits")},
        "per_call_us": per_call(sides, ROUNDS),
    }
    traced = {name: bench_run(root, "report", args.seed, args.seconds, 1) for name, root in sides.items()}
    result["traced_report"] = {metric: {name: traced[name][metric] for name in sides} for metric in TRACED}
    args.out.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
