#!/usr/bin/env python3
"""Paired before/after measurements of two source checkouts of onecyl.

    python3 tools/paired_bench.py --before DIR --after DIR --out FILE.json \\
        [--seed N] [--seconds S] [--report-pairs 10] [--other-pairs 3] \\
        [--enum-pairs 5]

Each DIR is the root of a checkout (with ``src/`` and ``bench/``).  Every
measurement runs in a fresh child process, the two sides alternating
within each pair (``--before`` first on even pairs), so that a phase of
the machine's speed falls on both sides alike:

* ``bench/run.py --trace 0`` end-to-end metrics: ``--report-pairs`` pairs
  of the ``report`` workload, ``--other-pairs`` pairs each of ``queries``
  and ``orbits``, all at the same seed and seconds;
* ``enumerate_stratum`` per stratum and pattern-free ``enumerate_type``
  per type, ``--enum-pairs`` pairs each: each process times its first
  call, which builds the tables, and the best of 5 calls, since one call
  per process reads bimodal; the summaries are of the best-of figures,
  and the sha256 of the rendered class list must agree between the sides;
* ``vertical_permutation``, ``separatrix_spectrum`` and
  ``cylinder_decomposition`` per call, 5 pairs: each
  process rebuilds two input sets through the public API, the report's
  vperm inputs (every class of the report strata at the distinct vectors
  of seeds 0..``lambda_samples`` of its move configuration) and the
  seed-0 ``queries`` pairs that get lengths, and times the best of 5
  passes of each layer over each set; the sha256 of the outputs (the
  ``repr`` of each result, or the ``NotSingleCylinder`` message) must
  agree between the sides;
* in the same processes, ``excisions`` and ``excise_simple_cylinder`` per
  call over the Q(12) classes, and ``bubble`` over the report's bubbles
  (every Q(8) class at angles 1-6), their outputs digested likewise;
* the cover layer per call, 5 pairs in processes of its own: each process
  walks the seed-0 ``orbits`` inputs to their first ``ORBIT_CAP`` forms and
  times the best of 5 passes of ``SquareTiledCover.canonical_key``,
  ``apply_T`` and ``apply_S`` over every form; the sha256 of the keys, and
  of the images' rows, must agree between the sides;
* the query chain per pair and the vperm pass per class, in one process
  that imports both checkouts under two package names and times one pass
  of each side per round, ``ROUNDS`` rounds, the sides alternating first;
  fresh-process pairs swing as much between processes on unchanged code
  as the changes they would measure.  The query chain reads each seed-0
  ``queries`` pair with lengths as the ``queries`` workload does,
  ``separatrix_spectrum``, then ``cylinder_decomposition``,
  ``vertical_permutation`` on one cylinder, ``build_cover`` and
  ``decode_one_cylinder``, one pair after another; where the layer probe
  times each layer on its own, this one lets a layer reuse what the one
  before it read.  The vperm pass runs ``classify._vperm_pairs`` over each
  report stratum's classes with that stratum's move configuration,
  lengths drawn, re-read and keyed as ``component_report`` does, and
  over all of them in one run.  Each side first makes one untimed pass,
  and the sha256 of its outputs must agree between the sides.  The
  summaries are of the per-round times and of the per-round change,
  after over before;
* one ``bench/run.py --workload report --trace 1`` run per side, for the
  enumeration's and the vperm pass's per-layer metrics.

The output is one JSON object: raw runs, medians and quartiles per side,
and for each end-to-end metric the number of pairs the after side won.
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
STRATA = [(8,), (-1, 5), (2, 2), (-1, 9), (12,), (-1, 3, 6), (2, 2, 2, 2), (-1, 3, 3, 3)]
TYPES = [(6, 6), (7, 7)]
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
    "classify.excisions.calls",
)
ENUM_CALLS = 5  # enumeration calls per process; the first is also kept alone

# times enumeration calls in a fresh interpreter: the first, and the best
# of all of them; argv: src, kind, numbers, calls
ENUM_PROBE = """
import hashlib, sys, time
sys.path.insert(0, sys.argv[1])
from onecyl import enumerate_stratum, enumerate_type
args = tuple(int(x) for x in sys.argv[3].split(","))
times = []
for _ in range(int(sys.argv[4])):
    t = time.perf_counter()
    classes = enumerate_stratum(args) if sys.argv[2] == "stratum" else enumerate_type(*args)
    times.append(time.perf_counter() - t)
text = "\\n".join(g.render() for g in classes)
print(times[0], min(times), len(classes), hashlib.sha256(text.encode()).hexdigest())
"""

LAYER_PAIRS = 5  # fresh-process pairs of the layer probe
LAYER_PASSES = 5  # passes per layer and input set in each process; the best is kept

# the seed-0 queries pairs that get lengths through the package api, shared by
# the layer and the interleaved probes
QUERY_INPUTS = """
def query_inputs(api):
    out = []
    for text, lam_seed, _ in workloads.Queries(api, workloads.FROZEN_SEED, False).setup_inputs():
        gp = api.GeneralizedPermutation.parse(text)
        try:
            out.append((gp, api.sample_admissible(gp, seed=lam_seed)))
        except api.errors.BoundTooSmall:
            pass
    return out
"""

# times the suspension layers, the excise move and bubble per call in a fresh
# interpreter; argv: checkout root, passes
LAYER_PROBE = """
import hashlib, json, sys, time
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
import onecyl, workloads
from onecyl.errors import BoundTooSmall, NoSimpleCylinderForm, NotFoundWithinBudget, NotSingleCylinder

def report_inputs():
    out = []
    for pattern in workloads.REPORT_STRATA:
        config = onecyl.MoveConfig(**workloads.Q12_CONFIG) if pattern == (12,) else onecyl.MoveConfig()
        for gp in onecyl.enumerate_stratum(pattern):
            lams = set()
            for seed in range(config.lambda_samples + 1):
                try:
                    lams.add(onecyl.sample_admissible(gp, seed=seed, bound=config.lambda_bound))
                except BoundTooSmall:
                    pass
            out += [(gp, lam) for lam in sorted(lams)]
    return out
""" + QUERY_INPUTS + """
def outcome(call, *args):
    try:
        return repr(call(*args))
    except (NotSingleCylinder, NoSimpleCylinderForm, NotFoundWithinBudget) as exc:
        return str(exc)

layers = {"vertical_permutation": lambda gp, lam: outcome(onecyl.vertical_permutation, gp, lam),
          "separatrix_spectrum": lambda gp, lam: repr(onecyl.separatrix_spectrum(gp, lam)),
          "cylinder_decomposition": lambda gp, lam: repr(onecyl.cylinder_decomposition(gp, lam))}
q12 = [(gp,) for gp in onecyl.enumerate_stratum((12,))]
q8 = onecyl.enumerate_stratum((8,))
excise_layers = {"excisions": lambda gp: repr(onecyl.excisions(gp)),
                 "excise_simple_cylinder": lambda gp: outcome(onecyl.excise_simple_cylinder, gp)}
probes = [(name, inputs, layers) for name, inputs in (("report", report_inputs()), ("queries", query_inputs(onecyl)))]
probes += [("q12", q12, excise_layers),
           ("bubbles", [(gp, s) for gp in q8 for s in workloads.BUBBLE_ANGLES],
            {"bubble": lambda gp, s: outcome(onecyl.bubble, gp, s)})]
result = {}
for name, inputs, calls in probes:
    for layer, call in calls.items():
        best = float("inf")
        for _ in range(int(sys.argv[2])):
            t = time.perf_counter()
            outputs = [call(*x) for x in inputs]
            best = min(best, time.perf_counter() - t)
        digest = hashlib.sha256("\\n".join(outputs).encode()).hexdigest()
        result["%s %s" % (name, layer)] = [best / len(inputs) * 1e6, len(inputs), digest]
print(json.dumps(result))
"""

# times the cover layer per call over every form of the seed-0 orbits in a
# fresh interpreter; argv: checkout root, passes
COVER_PROBE = """
import hashlib, itertools, json, sys, time
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
import onecyl, workloads
from onecyl.suspension import SquareTiledCover, orbit_forms

forms = []
for text in workloads.Orbits(onecyl, workloads.FROZEN_SEED, False).setup_inputs():
    gp = onecyl.GeneralizedPermutation.parse(text)
    walk = orbit_forms(onecyl.build_cover(gp, onecyl.minimal_admissible(gp)))
    forms += [form for _, _, form, _ in itertools.islice(walk, workloads.ORBIT_CAP)]
result = {}
for layer in ("canonical_key", "apply_T", "apply_S"):
    call = getattr(SquareTiledCover, layer)
    best = float("inf")
    for _ in range(int(sys.argv[2])):
        t = time.perf_counter()
        outputs = [call(form) for form in forms]
        best = min(best, time.perf_counter() - t)
    rows = outputs if layer == "canonical_key" else [(c.right, c.up, c.deck) for c in outputs]
    digest = hashlib.sha256("\\n".join(map(repr, rows)).encode()).hexdigest()
    result["orbits %s" % layer] = [best / len(forms) * 1e6, len(forms), digest]
print(json.dumps(result))
"""

ROUNDS = 20  # interleaved rounds of the query-chain and vperm-pass probe

# times the query chain per pair and the vperm pass per class of both
# checkouts in one interpreter, one pass of each side per round; argv: before
# root, after root, rounds
INTERLEAVED_PROBE = """
import hashlib, importlib.util, json, sys, time
before, after, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, after + "/bench")
import workloads

def load(name, root):
    # the package imports itself relatively, so it loads under any name
    spec = importlib.util.spec_from_file_location(
        name, root + "/src/onecyl/__init__.py", submodule_search_locations=[root + "/src/onecyl"])
    api = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(api)
    return api
""" + QUERY_INPUTS + """
def chain_probe(api):
    inputs = query_inputs(api)

    def run():
        out = []
        for gp, lam in inputs:
            spectrum = api.separatrix_spectrum(gp, lam)
            dec = api.cylinder_decomposition(gp, lam)
            vperm = api.vertical_permutation(gp, lam) if len(dec.cylinders) == 1 else None
            decoded = api.suspension.decode_one_cylinder(api.build_cover(gp, lam))
            out.append(repr((spectrum, dec, vperm, decoded)))
        return out
    return {"queries chain": (run, len(inputs))}

def vperm_probes(api):
    probes = {}
    for pattern in workloads.REPORT_STRATA:
        config = api.MoveConfig(**workloads.Q12_CONFIG) if pattern == (12,) else api.MoveConfig()
        classes = api.enumerate_stratum(pattern)
        index = {gp.rows(): i for i, gp in enumerate(classes)}

        def run(classes=classes, index=index, config=config):
            return [repr(list(api.classify._vperm_pairs(classes, index, config, api.CALIBRATED_SYM, lambda i: i)))]
        probes["Q(%s) vperm pass" % ",".join(map(str, pattern))] = (run, len(classes))
    runs = list(probes.values())
    probes["report strata vperm pass"] = (lambda: [x for run, _ in runs for x in run()], sum(n for _, n in runs))
    return probes

sides = {"before": load("onecyl_before", before), "after": load("onecyl_after", after)}
probes = {name: {**chain_probe(api), **vperm_probes(api)} for name, api in sides.items()}
result = {}
for key in probes["before"]:
    digests = {name: hashlib.sha256("\\n".join(probes[name][key][0]()).encode()).hexdigest() for name in sides}
    times = {name: [] for name in sides}
    for i in range(rounds):
        for name in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            run, count = probes[name][key]
            t = time.perf_counter()
            run()
            times[name].append((time.perf_counter() - t) / count * 1e6)
    result[key] = {"calls": probes["before"][key][1], "digests": digests, **times}
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


def enum_run(root: Path, kind: str, args: tuple[int, ...]) -> tuple[float, float, int, str]:
    cmd = [sys.executable, "-c", ENUM_PROBE, str(root / "src"), kind, ",".join(map(str, args)), str(ENUM_CALLS)]
    first, best, count, digest = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.split()
    return float(first), float(best), int(count), digest


def layer_run(root: Path, probe: str) -> dict:
    cmd = [sys.executable, "-c", probe, str(root), str(LAYER_PASSES)]
    return json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)


def paired(sides: dict[str, Path], pairs: int, measure) -> dict[str, list]:
    runs: dict[str, list] = {name: [] for name in sides}
    for i in range(pairs):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for name in order:
            runs[name].append(measure(sides[name]))
            print(name, i, runs[name][-1], file=sys.stderr, flush=True)
    return runs


def end_to_end(sides: dict[str, Path], workload: str, pairs: int, seed: int, seconds: float) -> dict:
    runs = paired(sides, pairs, lambda root: bench_run(root, workload, seed, seconds, 0))
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


def enumeration(sides: dict[str, Path], kind: str, args: tuple[int, ...], pairs: int) -> dict:
    runs = paired(sides, pairs, lambda root: enum_run(root, kind, args))
    digests = {result[2:] for side in runs.values() for result in side}
    if len(digests) != 1:
        raise SystemExit("%s %r: the sides disagree: %r" % (kind, args, digests))
    (count, digest), = digests
    return {
        "classes": count,
        "sha256": digest,
        "calls_per_process": ENUM_CALLS,
        "before_s": summary([r[1] for r in runs["before"]]),
        "after_s": summary([r[1] for r in runs["after"]]),
        "before_first_s": summary([r[0] for r in runs["before"]]),
        "after_first_s": summary([r[0] for r in runs["after"]]),
    }


def layers(sides: dict[str, Path], probe: str) -> dict:
    runs = paired(sides, LAYER_PAIRS, lambda root: layer_run(root, probe))
    out: dict = {}
    for key in runs["before"][0]:
        digests = {tuple(run[key][1:]) for side in runs.values() for run in side}
        if len(digests) != 1:
            raise SystemExit("%s: the sides disagree: %r" % (key, digests))
        (calls, digest), = digests
        out[key] = {
            "calls": calls,
            "sha256": digest,
            "passes_per_process": LAYER_PASSES,
            "before_us": summary([run[key][0] for run in runs["before"]]),
            "after_us": summary([run[key][0] for run in runs["after"]]),
        }
    return out


def interleaved(sides: dict[str, Path], rounds: int) -> dict:
    cmd = [sys.executable, "-c", INTERLEAVED_PROBE, str(sides["before"]), str(sides["after"]), str(rounds)]
    runs = json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)
    out: dict = {}
    for key, run in runs.items():
        if len(set(run["digests"].values())) != 1:
            raise SystemExit("%s: the sides disagree: %r" % (key, run["digests"]))
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
    parser.add_argument("--report-pairs", type=int, default=10)
    parser.add_argument("--other-pairs", type=int, default=3)
    parser.add_argument("--enum-pairs", type=int, default=5)
    args = parser.parse_args()
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    result: dict = {
        "machine": {"python": platform.python_version(), "implementation": platform.python_implementation(),
                    "system": platform.system(), "machine": platform.machine()},
        "settings": {"seed": args.seed, "seconds": args.seconds, "report_pairs": args.report_pairs,
                     "other_pairs": args.other_pairs, "enum_pairs": args.enum_pairs},
        "end_to_end": {},
    }
    for workload, pairs in (("report", args.report_pairs), ("queries", args.other_pairs), ("orbits", args.other_pairs)):
        result["end_to_end"][workload] = end_to_end(sides, workload, pairs, args.seed, args.seconds)
    result["enumerate_stratum"] = {
        "Q(%s)" % ",".join(map(str, p)): enumeration(sides, "stratum", p, args.enum_pairs) for p in STRATA
    }
    result["enumerate_type_pattern_free"] = {
        "(%d,%d)" % t: enumeration(sides, "type", t, args.enum_pairs) for t in TYPES
    }
    result["layers_per_call_us"] = layers(sides, LAYER_PROBE)
    result["cover_layers_per_call_us"] = layers(sides, COVER_PROBE)
    result["interleaved_per_item_us"] = interleaved(sides, ROUNDS)
    traced = {name: bench_run(root, "report", args.seed, args.seconds, 1) for name, root in sides.items()}
    result["traced_report"] = {metric: {name: traced[name][metric] for name in sides} for metric in TRACED}
    args.out.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
