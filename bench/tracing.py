"""Per-layer tracing of the onecyl modules from outside the package.

``Tracer.install`` replaces each listed public function with a wrapper
that records one span (layer name, parent span, request, start, end) and
the exception type it raised, if any.  A function bound elsewhere by
``from .x import f`` is replaced in every onecyl module that holds it, so
calls between modules are seen too; the package itself is not edited.
Spans stay in flat in-memory arrays during the pass and are aggregated
and written to disk only after it.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (layer name, module, attribute); methods are given as "Class.method"
TARGETS = [
    ("genperm.canonical_key", "onecyl.genperm", "canonical_key"),
    ("strata.single_vertex", "onecyl.strata", "single_vertex"),
    ("strata.pattern_orders", "onecyl.strata", "pattern_orders"),
    ("strata.singularity_pattern", "onecyl.strata", "singularity_pattern"),
    ("strata.vertex_cycles", "onecyl.strata", "vertex_cycles"),
    ("strata.match_component", "onecyl.strata", "match_component"),
    ("conditions.is_irreducible", "onecyl.conditions", "is_irreducible"),
    ("conditions.red_condition", "onecyl.conditions", "red_condition"),
    ("conditions.weak_reducibility", "onecyl.conditions", "weak_reducibility"),
    ("suspension.sample_admissible", "onecyl.suspension", "sample_admissible"),
    ("suspension.separatrix_spectrum", "onecyl.suspension", "separatrix_spectrum"),
    ("suspension.cylinder_decomposition", "onecyl.suspension", "cylinder_decomposition"),
    ("suspension.vertical_permutation", "onecyl.suspension", "vertical_permutation"),
    ("suspension.build_cover", "onecyl.suspension", "build_cover"),
    ("suspension.cover_apply", "onecyl.suspension", "SquareTiledCover.apply_T"),
    ("suspension.cover_apply", "onecyl.suspension", "SquareTiledCover.apply_S"),
    ("suspension.cover_check", "onecyl.suspension", "SquareTiledCover.check"),
    ("suspension.cover_key", "onecyl.suspension", "SquareTiledCover.canonical_key"),
    ("suspension.decode_one_cylinder", "onecyl.suspension", "decode_one_cylinder"),
    ("suspension.sl2z_orbit", "onecyl.suspension", "sl2z_orbit"),
    ("classify.enumerate_stratum", "onecyl.classify", "enumerate_stratum"),
    ("classify.enumerate_type", "onecyl.classify", "enumerate_type"),
    ("classify.component_report", "onecyl.classify", "component_report"),
    ("classify.excisions", "onecyl.classify", "excisions"),
    ("classify.bubble", "onecyl.classify", "bubble"),
]
LAYERS = list(dict.fromkeys(name for name, _, _ in TARGETS))
OP = "bench.op"  # root span of one request
REF = "bench.ref_sample"  # reference-loop sample taken inside a span

# counters read off results and exceptions at the layer boundaries
EXCEPTION_COUNTS = {
    "suspension.sample_admissible.bound_too_small": ("suspension.sample_admissible", "BoundTooSmall"),
    "suspension.vertical_permutation.not_single_cylinder": ("suspension.vertical_permutation", "NotSingleCylinder"),
    "classify.bubble.not_found": ("classify.bubble", "NotFoundWithinBudget"),
}


def _result_counters(counts: Counter) -> dict:
    def decoded(result):
        counts["decoded"] += result is not None

    def orbit(result):
        counts["forms"] += len(result)
        counts["truncated"] += result.truncated

    def report(result):
        for edge in result.edges:
            counts["edges_" + edge.kind] += 1

    def classes(result):
        counts["classes"] += len(result)

    return {
        "suspension.decode_one_cylinder": decoded,
        "suspension.sl2z_orbit": orbit,
        "classify.component_report": report,
        "classify.enumerate_stratum": classes,
    }


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for name in LAYERS:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units["classify.enumerate_stratum.total_s"] = "s"
    for name in EXCEPTION_COUNTS:
        units[name] = "count"
    units.update({
        "suspension.decode_one_cylinder.decoded_ratio": "ratio",
        "suspension.sl2z_orbit.forms": "count",
        "suspension.sl2z_orbit.truncated": "count",
        "classify.enum.keys_per_class": "ratio",
        "classify.merge.vperm_hit_ratio": "ratio",
        "classify.merge.edges_vperm": "count",
        "classify.merge.edges_orbit": "count",
        "classify.merge.edges_excise": "count",
        "trace.spans": "count",
        "trace.overhead_s": "s",
        "trace.overhead_share": "ratio",
    })
    return units


class Tracer:
    def __init__(self):
        self.names = LAYERS + [OP, REF]
        self.layer = array("H")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current = [-1]  # request id of the operation in flight
        self.raised: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: list = []  # reference samples not yet made spans
        self._restore: list = []

    def _wrap(self, fn, nid: int, on_result):
        layer, parent, request, start, end = self.layer, self.parent, self.request, self.start, self.end
        stack, current, raised, clock = self.stack, self.current, self.raised, time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            layer.append(nid)
            parent.append(stack[-1])
            request.append(current[0])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[i] = clock()
                stack.pop()
                raised[nid, type(exc).__name__] += 1
                raise
            end[i] = clock()
            stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        hooks = _result_counters(self.counts)
        modules = [m for n, m in list(sys.modules.items()) if n == "onecyl" or n.startswith("onecyl.")]
        for name, module, attr in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, self.names.index(name), hooks.get(name))
            # the defining module or class, and every module-level alias
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    @contextmanager
    def op(self, request_id: int):
        """Root span of one request; layer spans below it carry its id."""
        self.current[0] = request_id
        i = len(self.start)
        self.layer.append(len(LAYERS))
        self.parent.append(-1)
        self.request.append(request_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self.stack.pop()
            self.current[0] = -1

    def record_sample(self, t0: float, t1: float) -> None:
        """Note a reference sample taken by a signal handler.

        The handler can run in the middle of a wrapper's bookkeeping, so
        it only notes the innermost open span; ``_add_samples`` makes the
        spans later, under the innermost span that really contains them,
        so that their time leaves the self time of the layer they
        interrupted.
        """
        self.samples.append((self.stack[-1], self.current[0], t0, t1))

    def _add_samples(self) -> None:
        ref_id = self.names.index(REF)
        for parent, request, t0, t1 in self.samples:
            while parent >= 0 and not self.start[parent] <= t0 <= t1 <= self.end[parent]:
                parent = self.parent[parent]
            self.layer.append(ref_id)
            self.parent.append(parent)
            self.request.append(request)
            self.start.append(t0)
            self.end.append(t1)
        self.samples.clear()

    def layer_metrics(self) -> dict:
        self._add_samples()
        n = len(self.start)
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total = [0.0] * len(self.names)
        for i in range(n):
            k = layer[i]
            d = end[i] - start[i]
            calls[k] += 1
            total[k] += d
            self_s[k] += d - child[i]
        # which spans run inside an enumeration or inside a component report
        names = self.names
        enum_id, report_id = names.index("classify.enumerate_stratum"), names.index("classify.component_report")
        key_id, vperm_id = names.index("genperm.canonical_key"), names.index("suspension.vertical_permutation")
        in_enum = bytearray(n)
        in_report = bytearray(n)
        keys_in_enum = vperm_in_report = 0
        for i in range(n):
            p, k = parent[i], layer[i]
            in_enum[i] = k == enum_id or (p >= 0 and in_enum[p])
            in_report[i] = k == report_id or (p >= 0 and in_report[p])
            keys_in_enum += k == key_id and in_enum[i]
            vperm_in_report += k == vperm_id and in_report[i]

        out = {}
        for k, name in enumerate(LAYERS):
            out[name + ".calls"] = calls[k]
            out[name + ".self_s"] = self_s[k]
        out["classify.enumerate_stratum.total_s"] = total[enum_id]
        for metric, (name, exc) in EXCEPTION_COUNTS.items():
            out[metric] = self.raised[names.index(name), exc]
        c = self.counts
        out["suspension.decode_one_cylinder.decoded_ratio"] = _ratio(
            c["decoded"], calls[names.index("suspension.decode_one_cylinder")])
        out["suspension.sl2z_orbit.forms"] = c["forms"]
        out["suspension.sl2z_orbit.truncated"] = c["truncated"]
        out["classify.enum.keys_per_class"] = _ratio(keys_in_enum, c["classes"])
        out["classify.merge.vperm_hit_ratio"] = _ratio(c["edges_vperm"], vperm_in_report)
        for kind in ("vperm", "orbit", "excise"):
            out["classify.merge.edges_" + kind] = c["edges_" + kind]
        out["trace.spans"] = n
        return out

    def write(self, path) -> None:
        """Spans as a gzip file: one JSON header line, then the raw arrays."""
        self._add_samples()
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["layer", "H"], ["parent", "l"], ["request", "l"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.layer, self.parent, self.request, self.start, self.end):
                arr.tofile(f)


def load_spans(path) -> tuple[dict, dict]:
    """Read a file written by :meth:`Tracer.write`: (header, arrays by name)."""
    with gzip.open(path, "rb") as f:
        header = json.loads(f.readline())
        arrays = {}
        for name, code in header["arrays"]:
            arr = array(code)
            arr.frombytes(f.read(arr.itemsize * header["spans"]))
            arrays[name] = arr
    return header, arrays


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
