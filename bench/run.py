#!/usr/bin/env python3
"""Benchmark of the onecyl package.

    python3 bench/run.py --workload report|queries|orbits|all \\
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  One workload runs in one single-threaded process as
a closed loop with one caller: each operation is issued after the
previous one returns.  ``--workload all`` runs every workload, each in a
fresh child process.

``--trace 0`` times whole passes over the workload's inputs for about
``--seconds`` seconds (at least one pass) and reports the end-to-end
metrics.  ``--trace 1`` runs one untraced pass and then one traced pass,
reports the per-layer metrics and the tracing overhead, and requires the
two passes to give identical output digests.

Every output is checked (see ``workloads.py``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit, and the full record (raw pass times, reference-loop
samples, provenance) is written under ``bench/out/``.  The exit code is 1
when any output is wrong, 2 when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
SETUP_REF_SAMPLES = 5
# Seconds per reference loop that define the nominal speed setup_s is
# scaled to: about its time on the 2-core VM the benchmark was written
# on, in a fast phase.
REF_NOMINAL_S = 300e-6
SAMPLE_PERIOD_S = 0.05
LOCAL_WINDOW_S = 0.5
LOCAL_MIN = 5

# Reported in the JSON line on --trace 0.  The median latency is printed
# but not gated: the median operation of `report` is a bubble of a few
# milliseconds, and no normalization held that steady between runs.
END_TO_END = {
    "setup_s": "s",
    "item_ref": "ref",
    "p99_ref": "ref",
    "peak_rss_mb": "MB",
}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import onecyl; print(time.perf_counter() - t)"
)


def load_onecyl():
    """Import onecyl from this checkout's src/, or exit 2 without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import onecyl
    except ImportError as exc:
        problem = "cannot import onecyl from %s: %s" % (SRC, exc)
    else:
        if Path(onecyl.__file__).resolve().is_relative_to(SRC):
            return onecyl
        problem = "onecyl was imported from %s, not from %s" % (onecyl.__file__, SRC)
    print("error: " + problem, file=sys.stderr)
    sys.exit(2)


# -- reference clock -----------------------------------------------------------


_REF_TABLE = list(range(1, 257))
_REF_ROW = tuple(range(12))
_REF_PERM = tuple((7 * i + 3) % 20 for i in range(20))


def reference_loop() -> int:
    """Fixed pure-Python work in the package's idiom, about 0.3 ms.

    It mixes integer arithmetic with list indexing, tuple keys in a dict,
    row rotations with sorting and comparison, and permutation products.
    On the shared 2-core VM the benchmark was written on, no single kind
    of work slowed by the same factor as every workload in a slow phase;
    the mix tracked all three workloads about equally well.
    """
    table, acc = _REF_TABLE, 0
    for i in range(700):
        acc = (acc * 31 + table[(i ^ acc) & 255]) & 0xFFFF
    counts: dict = {}
    for i in range(250):
        key = (i & 63, i >> 6)
        acc += counts.get(key, i)
        counts[key] = acc & 0xFFFF
    best = None
    for i in range(70):
        rot = _REF_ROW[i % 12:] + _REF_ROW[:i % 12]
        key = tuple(sorted(rot[:6])) + rot[6:]
        if best is None or key < best:
            best = key
    p = _REF_PERM
    for _ in range(15):
        p = tuple(p[p[i]] for i in range(20))
        inverse = [0] * 20
        for i, v in enumerate(p):
            inverse[v] = i
        p = tuple(inverse)
    return acc + best[0] + p[0]


class RefClock:
    """Times the reference loop every SAMPLE_PERIOD_S from a SIGALRM handler
    while entered as a context manager; otherwise only on ``sample()``.

    A shared host can alternate between speed phases a few seconds long,
    so a sample taken only between long operations misses most of them.  The
    handler runs between bytecodes in the main thread, in the middle of
    any operation; the time it takes is kept in ``spent`` and subtracted
    from every measured interval.  An operation is normalized by the
    samples taken around it, so phases within a pass cancel too.
    """

    def __init__(self):
        self.at: list[float] = []  # start time of each sample
        self.samples: list[float] = []  # its duration
        self.spent = 0.0
        self.tracer = None  # records each sample as a span while set
        self._previous = None

    def sample(self, *_):
        collecting = gc.isenabled()
        gc.disable()  # a collection here would time the workload's heap
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        if self.tracer is not None:
            self.tracer.record_sample(t0, t1)
        self.at.append(t0)
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def _arm(self, period: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self._arm(SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        self._arm(0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def paused(self):
        self._arm(0)
        try:
            yield
        finally:
            self._arm(SAMPLE_PERIOD_S)

    def local_mean(self, t0: float, t1: float) -> float:
        """Mean sample within LOCAL_WINDOW_S of [t0, t1], at least LOCAL_MIN of them."""
        lo = bisect.bisect_left(self.at, t0 - LOCAL_WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + LOCAL_WINDOW_S)
        if hi - lo < LOCAL_MIN:
            mid = bisect.bisect_left(self.at, (t0 + t1) / 2)
            lo = max(0, min(mid - LOCAL_MIN // 2, len(self.at) - LOCAL_MIN))
            hi = lo + LOCAL_MIN
        return statistics.fmean(self.samples[lo:hi])


# -- passes ----------------------------------------------------------------------


class Pass:
    def __init__(self):
        self.work_s = 0.0
        self.latencies: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.digests: list = []
        self.errors: dict[int, str] = {}  # op index -> traceback or problems
        self.items = 0

    def ref_units(self, clock: RefClock) -> list[float]:
        """Each operation's work time over the reference samples around it."""
        return [lat / clock.local_mean(t0, t1) for lat, (t0, t1) in zip(self.latencies, self.windows)]


def run_pass(workload, inputs, clock, tracer=None, check=False) -> Pass:
    """One closed-loop pass: every input once, in order, one at a time.

    Each result is digested, and with ``check`` re-validated, right after
    its operation and outside the timed interval, then dropped, so the
    pass does not hold every result on the heap.
    """
    p = Pass()
    clock.sample()
    for i, x in enumerate(inputs):
        spent = clock.spent
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = workload.run_op(x)
            else:
                with tracer.op(i):
                    res = workload.run_op(x)
        except Exception:
            res = None
            p.errors[i] = traceback.format_exc(limit=4)
        t1 = time.perf_counter()
        dt = t1 - t0 - (clock.spent - spent)
        p.latencies.append(dt)
        p.windows.append((t0, t1))
        p.work_s += dt
        digest = None
        if res is not None:
            try:
                digest = workload.digest(res)
                p.items += workload.items(res)
                problems = workload.check(x, res) if check else []
            except Exception:
                problems = [traceback.format_exc(limit=4)]
            if problems:
                p.errors[i] = "\n".join(problems)
        p.digests.append(digest)
    clock.sample()
    return p


def judge(inputs, passes, frozen) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all passes.

    An operation fails when it raised, failed its check, differs from the
    frozen digest (where the seed has one) or, in a later pass, differs
    from the first pass.
    """
    first = passes[0]
    failed = 0
    problems = []
    for k, p in enumerate(passes, 1):
        for i, got in enumerate(p.digests):
            if i in p.errors:
                problem = p.errors[i]
            elif i in first.errors:
                problem = "same output as the first pass, which failed"
            elif frozen is not None and got != frozen[i]:
                problem = "digest %s, frozen %s" % (got, frozen[i])
            elif got != first.digests[i]:
                problem = "digest %s, first pass %s" % (got, first.digests[i])
            else:
                continue
            failed += 1
            problems.append("pass %d op %d %r: %s" % (k, i, inputs[i], problem))
    return sum(len(p.digests) for p in passes), failed, problems


def frozen_digests(name: str, seed: int, n_ops: int):
    """Frozen digests for the first n_ops operations, or None."""
    frozen = json.loads((HERE / "frozen.json").read_text())[name]
    if frozen["seed"] is not None and frozen["seed"] != seed:
        return None
    if n_ops > len(frozen["digests"]):
        return None
    return frozen["digests"][:n_ops]


# -- measurements ------------------------------------------------------------


class SetupTrials:
    """Set-up, repeated SETUP_REPEATS times before the measured passes.

    One trial imports onecyl in a fresh interpreter (timed inside it),
    then generates the inputs and runs the warm-up operation here.  Each
    trial is scaled to the nominal reference speed by reference samples
    taken just before and after it: a trial is far shorter than the
    host's speed phases, so it lands in one of them whole.
    """

    def __init__(self, workload, clock: RefClock):
        self.trials: list[dict] = []
        self.inputs = None
        with clock.paused():
            for _ in range(SETUP_REPEATS):
                self._take(workload, clock)

    def _take(self, workload, clock: RefClock) -> None:
        ref_before = _reference(clock)
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        t0 = time.perf_counter()
        inputs = workload.setup_inputs()
        inputs_s = time.perf_counter() - t0
        ref = (ref_before + _reference(clock)) / 2
        if self.inputs is not None and inputs != self.inputs:
            raise RuntimeError("input generation is not deterministic")
        self.inputs = inputs
        self.trials.append({"import_s": float(probe.stdout), "inputs_and_warmup_s": inputs_s, "ref_s": ref})

    def seconds(self, scaled: bool) -> float:
        """Median trial; scaled to REF_NOMINAL_S per reference loop, or raw."""
        return statistics.median(
            (t["import_s"] + t["inputs_and_warmup_s"]) * (REF_NOMINAL_S / t["ref_s"] if scaled else 1)
            for t in self.trials
        )


def _reference(clock: RefClock) -> float:
    """Mean of SETUP_REF_SAMPLES reference samples taken now."""
    first = len(clock.samples)
    for _ in range(SETUP_REF_SAMPLES):
        clock.sample()
    return statistics.fmean(clock.samples[first:])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def end_to_end(workload, passes: list[Pass], clock: RefClock, setup: SetupTrials) -> tuple[dict, dict]:
    """(metrics for the JSON line, further named metrics for the report)."""
    units = [p.ref_units(clock) for p in passes]
    latency_ref = [u for pu in units for u in pu]
    latency_ms = [lat * 1e3 for p in passes for lat in p.latencies]
    work = sum(p.work_s for p in passes)
    items = sum(p.items for p in passes)
    declared = {
        "setup_s": setup.seconds(scaled=True),
        "item_ref": sum(map(sum, units)) / items,
        "p99_ref": percentile(latency_ref, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    named = {
        ("setup_raw_s", "s"): setup.seconds(scaled=False),
        ("wall_s", "s"): statistics.median(p.work_s for p in passes),
        ("wall_ref", "ref"): statistics.median(sum(pu) for pu in units),
        ("p50_ref", "ref"): percentile(latency_ref, 50),
        ("%s_per_s" % workload.item_name, "1/s"): items / work,
        ("p50_ms", "ms"): percentile(latency_ms, 50),
        ("p99_ms", "ms"): percentile(latency_ms, 99),
        ("ref_mean_us", "us"): statistics.fmean(clock.samples) * 1e6,
    }
    if workload.name == "report" and len(passes[0].latencies) > 4:
        named["q12_s", "s"] = statistics.median(p.latencies[4] for p in passes)
    return declared, named


def provenance(args, workload, inputs, passes) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "onecyl").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu,
        "onecyl_commit": git_commit(),
        "onecyl_sources_sha256": sources.hexdigest(),
        "ops_per_pass": len(inputs),
        "items_per_pass": passes[0].items,
        "passes": len(passes),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- entry points ------------------------------------------------------------------


def run_one(args) -> int:
    api = load_onecyl()
    import workloads  # noqa: E402  (beside this file)

    workload = workloads.WORKLOADS[args.workload](api, args.seed, args.smoke)
    record: dict = {}
    if args.trace:
        from tracing import Tracer, metric_units

        inputs = workload.setup_inputs()
        tracer = Tracer()
        with RefClock() as clock:
            untraced = run_pass(workload, inputs, clock, check=True)
            tracer.install()
            clock.tracer = tracer
            try:
                traced = run_pass(workload, inputs, clock, tracer)
            finally:
                clock.tracer = None
                tracer.uninstall()
        passes = [untraced, traced]
        untraced_ref, traced_ref = (sum(p.ref_units(clock)) for p in passes)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = traced.work_s - untraced.work_s
        metrics["trace.overhead_share"] = traced_ref / untraced_ref - 1
        units = metric_units()
        named = {("untraced_wall_s", "s"): untraced.work_s, ("traced_wall_s", "s"): traced.work_s}
        OUT.mkdir(exist_ok=True)
        spans = OUT / ("spans-%s-seed%d%s.bin.gz" % (args.workload, args.seed, "-smoke" if args.smoke else ""))
        tracer.write(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    else:
        passes = []
        with RefClock() as clock:
            setup = SetupTrials(workload, clock)
            inputs = setup.inputs
            t_begin = time.perf_counter()
            while True:
                passes.append(run_pass(workload, inputs, clock, check=not passes))
                elapsed = time.perf_counter() - t_begin
                if elapsed + passes[-1].work_s > args.seconds:
                    break
        metrics, named = end_to_end(workload, passes, clock, setup)
        units = END_TO_END
        record["setup_trials"] = setup.trials
        record["ref_samples"] = [[t - t_begin, d] for t, d in zip(clock.at, clock.samples)]
    frozen = frozen_digests(args.workload, args.seed, len(inputs))
    attempted, failed, problems = judge(inputs, passes, frozen)
    named["fail_rate", "ratio"] = failed / attempted
    named["ops", "count"] = attempted

    for name, value in metrics.items():
        print("%-52s %16.6f %s" % (name, value, units[name]))
    for (name, unit), value in named.items():
        print("%-52s %16.6f %s" % (name, value, unit))
    for line in problems[:20]:
        print("problem: " + line, file=sys.stderr)
    if len(problems) > 20:
        print("problem: ... %d more" % (len(problems) - 20), file=sys.stderr)

    record.update({
        "provenance": provenance(args, workload, inputs, passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "named_metrics": {name: {"value": v, "unit": unit} for (name, unit), v in named.items()},
        "frozen_checked": frozen is not None,
        "passes": [
            {"work_s": p.work_s, "items": p.items, "latencies_s": p.latencies,
             "digest": hashlib.sha256("".join(map(str, p.digests)).encode()).hexdigest()}
            for p in passes
        ],
        "problems": problems,
    })
    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s-seed%d-trace%d%s.json" % (args.workload, args.seed, args.trace, "-smoke" if args.smoke else ""))
    path.write_text(json.dumps(record, indent=1))
    print("record: %s" % path.relative_to(ROOT))

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh child process; one combined JSON line."""
    code, attempted, failed, metrics = 0, 0, 0, {}
    for name in ("report", "queries", "orbits"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        print("== %s" % name, flush=True)
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = child.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            return child.returncode or 2
        code = max(code, child.returncode)
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({"%s.%s" % (name, k): v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0 and code == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["report", "queries", "orbits", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
