"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced public function of ``renner`` with a
wrapper, in every module namespace that holds it (the defining module and
every module that imported the name), and ``uninstall`` puts the originals
back.  The package source is not modified.

Each wrapped call records a span (name, start, end, parent span, operation
id) in flat arrays kept in memory; ``write_spans`` saves them at the end of a
pass.  ``busy_s`` and ``self_s`` are derived from the spans; counters such as
``steps`` or ``true_frac`` are taken from arguments and return values at the
same boundaries.  ``calls`` counts every call; ``cones.dd.rays`` and
``cones.enumerate_points.points`` and ``yield`` count only calls that were not
answered from the cone's own cache.  ``dot``, ``mat_mul`` and ``mat_vec`` run
millions of times per pass and stay unwrapped.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

METRIC_NAME = r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$"


def _cached(attr: str):
    """Pre-hook: whether the call will be answered from a per-object cache."""
    def pre(args, kwargs):
        return getattr(args[0], attr, None) is not None
    return pre


def _point_cache_hit(args, kwargs):
    cone = args[0]
    bound = args[1] if len(args) > 1 else kwargs["height_bound"]
    return bound in getattr(cone, "_point_cache", {})


def _steps(counters, span, args, kwargs, result, hit):
    counters[span + ".steps"] += len(result[1].word)


def _count(label):
    def post(counters, span, args, kwargs, result, hit):
        counters[span + "." + label] += len(result)
    return post


def _truth(counters, span, args, kwargs, result, hit):
    counters[span + ".true"] += bool(result)


def _rays(counters, span, args, kwargs, result, hit):
    if not hit:
        counters[span + ".rays"] += len(result)


def _points(counters, span, args, kwargs, result, hit):
    if not hit:
        cone = args[0]
        bound = args[1] if len(args) > 1 else kwargs["height_bound"]
        counters[span + ".points"] += len(result)
        counters[span + ".scanned"] += (2 * bound + 1) ** cone.ambient_dim


def _weights(counters, span, args, kwargs, result, hit):
    counters[span + ".weights"] += len(result.elements)


def _bytes_out(counters, span, args, kwargs, result, hit):
    counters[span + ".bytes_out"] += len(result[1].encode())


# (module, attribute, span name, pre-hook, post-hook).  An attribute with a
# dot names a method on a class of that module.
TARGETS = [
    ("renner.root_datum", "dominant_representative", None, None, _steps),
    ("renner.root_datum", "dominance_leq", None, None, None),
    ("renner.root_datum", "simple_root_coordinates", None, None, None),
    ("renner.root_datum", "weyl_group", None, None, _count("elements")),
    ("renner.root_datum", "positive_coroots", None, None, None),
    ("renner.cones", "hilbert_basis", None, None, _count("elements")),
    ("renner.cones", "is_saturated", None, None, None),
    ("renner.cones", "RationalCone.canonical_generators", "cones.dd",
     _cached("_canonical_generators"), _rays),
    ("renner.cones", "RationalCone.canonical_halfspaces", "cones.dd",
     _cached("_canonical_halfspaces"), _rays),
    ("renner.cones", "enumerate_points", None, _point_cache_hit, _points),
    ("renner.cones", "monoid_contains", None, None, _truth),
    ("renner.parabolic_monoid", "build_parabolic", None, None, None),
    ("renner.parabolic_monoid", "in_wm_dominant", None, None, _truth),
    ("renner.parabolic_monoid", "check_duality", None, None, None),
    ("renner.parabolic_monoid", "check_intersection_lemma", None, None, None),
    ("renner.parabolic_monoid", "check_weight_hull", None, None, None),
    ("renner.parabolic_monoid", "check_saturation", None, None, None),
    ("renner.repr_weights", "dual_weyl_weights", None, None, _weights),
    ("renner.repr_weights", "check_levi_restriction", None, None, None),
    ("renner.repr_weights", "check_cor_uinv", None, None, None),
    ("renner.vinberg", "vinberg_cone", None, None, None),
    ("renner.vinberg", "lattice_pairs", None, None, _count("points")),
    ("renner.vinberg", "eval_at_cp", None, None, None),
    ("renner.vinberg", "check_image", None, None, None),
    ("renner.cli", "run", None, None, _bytes_out),
    ("renner.linalg", "matrix_rank", None, None, None),
    ("renner.linalg", "integer_kernel", None, None, None),
    ("renner.linalg", "rational_inverse", None, None, None),
]


def span_name(module: str, attr: str, explicit: str | None) -> str:
    return explicit or f"{module.removeprefix('renner.')}.{attr}"


# Per-layer metrics: span name and the fields reported for it.
PER_LAYER_FIELDS = [
    ("root_datum.dominant_representative", ("calls", "busy_s", "self_s", "steps")),
    ("root_datum.dominance_leq", ("calls", "busy_s")),
    ("root_datum.simple_root_coordinates", ("calls", "busy_s")),
    ("root_datum.weyl_group", ("calls", "busy_s", "elements")),
    ("root_datum.positive_coroots", ("calls", "busy_s")),
    ("cones.hilbert_basis", ("calls", "busy_s", "elements")),
    ("cones.is_saturated", ("calls", "busy_s")),
    ("cones.dd", ("calls", "busy_s", "rays")),
    ("cones.enumerate_points", ("calls", "busy_s", "points", "yield")),
    ("cones.monoid_contains", ("calls", "busy_s", "true_frac")),
    ("parabolic_monoid.build_parabolic", ("calls", "busy_s", "self_s")),
    ("parabolic_monoid.in_wm_dominant", ("calls", "busy_s", "self_s", "true_frac")),
    ("parabolic_monoid.check_duality", ("calls", "busy_s", "self_s")),
    ("parabolic_monoid.check_intersection_lemma", ("calls", "busy_s", "self_s")),
    ("parabolic_monoid.check_weight_hull", ("calls", "busy_s", "self_s")),
    ("parabolic_monoid.check_saturation", ("calls", "busy_s", "self_s")),
    ("repr_weights.dual_weyl_weights", ("calls", "busy_s", "self_s", "weights")),
    ("repr_weights.check_levi_restriction", ("calls", "busy_s", "self_s")),
    ("repr_weights.check_cor_uinv", ("calls", "busy_s", "self_s")),
    ("vinberg.vinberg_cone", ("calls", "busy_s", "self_s")),
    ("vinberg.lattice_pairs", ("calls", "busy_s", "self_s", "points")),
    ("vinberg.eval_at_cp", ("calls", "busy_s", "self_s")),
    ("vinberg.check_image", ("calls", "busy_s", "self_s")),
    ("cli.run", ("calls", "busy_s", "self_s", "bytes_out")),
    ("linalg.matrix_rank", ("calls", "busy_s")),
    ("linalg.integer_kernel", ("calls", "busy_s")),
    ("linalg.rational_inverse", ("calls", "busy_s")),
    ("trace", ("overhead_s",)),
]


def _unit(field: str) -> tuple[str, str]:
    if field.endswith("_s"):
        return "s", "lower"
    if field in ("yield", "true_frac"):
        return "ratio", "higher"
    return "count", "lower"


# Every per-layer metric a traced run reports, with its unit and direction.
PER_LAYER = [(f"{span}.{field}", *_unit(field))
             for span, fields in PER_LAYER_FIELDS for field in fields]

PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


class Tracer:
    """Wraps traced functions and keeps their spans in flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapper placement ---------------------------------------------------

    def _wrap(self, fn, span: str, pre, post):
        if span not in self.name_index:
            self.name_index[span] = len(self.names)
            self.names.append(span)
        index = self.name_index[span]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hit = pre(args, kwargs) if pre is not None else None
            stack = tracer.stack
            i = len(tracer.start)
            tracer.span_name.append(index)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            stack.append(i)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = perf_counter()
                stack.pop()
            if post is not None:
                post(tracer.counters, span, args, kwargs, result, hit)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in each renner namespace that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, explicit, pre, post in TARGETS:
            module = importlib.import_module(module_name)
            span = span_name(module_name, attr, explicit)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(original, span, pre, post))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span, pre, post)
            for holder in self.namespaces():
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, name, original, wrapper)

    def _patch(self, holder, name, original, wrapper) -> None:
        setattr(holder, name, wrapper)
        self._patches.append((holder, name, original))

    @staticmethod
    def namespaces():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "renner" or name.startswith("renner."))]

    def patched(self) -> list[tuple[str, str]]:
        """(namespace, attribute) of every wrapper in place."""
        return [(getattr(h, "__name__", str(h)), n) for h, n, _ in self._patches]

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy time (outermost spans of that name)
        and self time (span time not covered by child spans)."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += duration[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            index = self.span_name[i]
            entry = out[self.names[index]]
            entry["calls"] += 1
            entry["self_s"] += duration[i] - covered[i]
            p = self.parent[i]
            while p >= 0 and self.span_name[p] != index:
                p = self.parent[p]
            if p < 0:
                entry["busy_s"] += duration[i]
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the tracing overhead."""
        values: dict[str, float] = {}
        for span, entry in self.layer_times().items():
            for field, value in entry.items():
                values[f"{span}.{field}"] = value
        counters = self.counters
        values.update(counters)

        def ratio(num, den):
            return counters[num] / counters[den] if counters[den] else 0.0

        values["cones.enumerate_points.yield"] = ratio(
            "cones.enumerate_points.points", "cones.enumerate_points.scanned")
        for span in ("cones.monoid_contains", "parabolic_monoid.in_wm_dominant"):
            calls = values.get(f"{span}.calls", 0)
            values[f"{span}.true_frac"] = counters[f"{span}.true"] / calls if calls else 0.0
        return {name: float(values.get(name, 0.0))
                for name, _, _ in PER_LAYER if name != "trace.overhead_s"}

    def write_spans(self, path: str) -> None:
        """Save the spans as gzipped JSON lines (one header line first)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                 "names": self.names}) + "\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f'["{names[self.span_name[i]]}",{self.start[i]:.9f},'
                         f'{self.end[i]:.9f},{self.parent[i]},{self.op[i]}]\n')
