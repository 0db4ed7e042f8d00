"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps the public functions and methods of each pmstat layer
from outside the package.  Wrapping a function means rebinding every
module attribute that refers to it, in every pmstat module, because the
layers import each other's functions by name (`from .convergence import
lambda_set` in the harness, `from .distfn import levy_distance` in the
triangle module, ...); a call through such a name would otherwise bypass
the wrapper.  Methods are wrapped on the class that defines them.

Functions that run once per element (`evaluate`, the t-norms, the
`StepDistFn` constructors and accessors such as `FinitePMSpace.dist`) are
left unwrapped: a span costs about a microsecond, more than those calls,
and would distort the self times it is meant to measure.  Their time counts
toward the layer of the caller.

Each call becomes one span ``[name, start, end, parent, note]`` in an
in-memory list; ``note`` holds the few call facts the counters need
(rows requested, matrix kind, result size, ...).  Nothing is written until
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import weakref

LAYERS = ("distfn", "triangle", "pmspace", "summability", "convergence", "harness", "cli")

DETECTORS = (
    "ai_stat_conv_detect",
    "ai_stat_cauchy_detect",
    "lemma_cauchy_predicates",
    "lambda_set",
    "gamma_set",
    "ai_star_conv_detect",
    "stat_bounded_check",
    "strong_conv_detect",
)
DENSITY_KINDS = ("cesaro", "weighted", "squares", "block", "identity")
DENSITY_VERDICTS = ("ai_density", "ai_density_is_null", "ai_density_is_full")
REPORT_FUNCTIONS = ("validate_report", "report_to_json", "write_report", "write_csv", "render_text")

# module -> names to wrap; "Class.method" wraps a method on its class.
# The span is named "<module>.<function>" except where SPAN_NAMES says.
TARGETS = {
    "distfn": (
        "levy_distance",
        "levy_feasible",
        "levy_distance_to_zero",
        "pointwise_leq",
        "pointwise_gap",
        "pointwise_min",
        "pointwise_max",
        "weakly_converges",
    ),
    "triangle": ("apply_maximal", "apply_supconv", "check_triangle_axioms", "dominates", "TriangleFn.__call__"),
    "pmspace": (
        "FinitePMSpace.__init__",
        "FinitePMSpace.validate_axioms",
        "FinitePMSpace.strong_neighborhood",
        "FinitePMSpace.strong_vicinity",
        "FinitePMSpace.vicinity_composition_alpha",
        "FinitePMSpace.strong_closure",
        "FinitePMSpace.set_limit_points",
        "from_table",
        "build_equilateral",
        "build_metric_induced",
    ),
    "summability": (
        "IndexSet.indicator",
        "Ideal.contains",
        "check_regularity",
        "a_density_partial",
        "ideal_limit_at",
        "ideal_limit",
        "ai_nonthin",
        "matrix_from_spec",
        "ideal_from_spec",
        "index_set_from_spec",
    )
    + DENSITY_VERDICTS,
    "convergence": (
        "IndexedSequence.values",
        "IndexedSequence.value_codes",
        "constant_sequence",
        "eventually_constant",
        "alternating",
        "from_values",
        "splice",
        "visit_set",
        "visit_witnesses",
        "strong_limit_point_set",
    )
    + DETECTORS,
    "harness": (
        "generate_suite",
        "space_pool",
        "random_step_fn",
        "oracle_density",
        "run_theorem_suite",
        # the three check groups of the suite; private, but they are the
        # suite's own split of its work
        "_foundation_checks",
        "_instance_checks",
        "_control_checks",
    )
    + REPORT_FUNCTIONS,
    "cli": ("main",),
}
SPAN_NAMES = {
    "pmspace.FinitePMSpace.__init__": "pmspace.init",
    "pmspace.FinitePMSpace.validate_axioms": "pmspace.validate_axioms",
    "triangle.TriangleFn.__call__": "triangle.TriangleFn",
    "summability.IndexSet.indicator": "summability.indicator",
    "summability.Ideal.contains": "summability.Ideal.contains",
    "convergence.IndexedSequence.values": "convergence.values",
    "convergence.IndexedSequence.value_codes": "convergence.value_codes",
}


def _density_kind(matrix) -> str:
    kind = str(getattr(matrix, "name", "")).split(":")[0]
    return kind if kind in DENSITY_KINDS else "other"


def _arg(sig: inspect.Signature, args, kwargs, name: str):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


class Tracer:
    """Records spans while installed; `uninstall` restores every binding."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._codes_seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.t0 = 0.0

    # -- notes: call facts the counters need -----------------------------

    def _notes(self, span: str, fn):
        if span == "summability.density_series":
            return lambda args, kwargs, out: (
                _density_kind(args[0]),
                int(args[2] if len(args) > 2 else kwargs["n_rows"]),
            )
        if span == "summability.indicator":
            # a set without a vector form is evaluated one index at a time
            return lambda args, kwargs, out: getattr(args[0], "vec", True) is None
        if span == "convergence.value_codes":
            return self._codes_repeat
        if span == "triangle.apply_supconv":
            return lambda args, kwargs, out: len(out.jumps)
        if span.split(".")[-1] in DETECTORS:
            sig = inspect.signature(fn)
            return lambda args, kwargs, out: int(_arg(sig, args, kwargs, "horizon"))
        return None

    def _codes_repeat(self, args, kwargs, out) -> bool:
        seq = args[0]
        n = int(args[1] if len(args) > 1 else kwargs["n"])
        try:
            seen = self._codes_seen.setdefault(seq, set())
        except TypeError:  # not weak-referenceable: count nothing as a repeat
            return False
        hit = n in seen
        seen.add(n)
        return hit

    # -- wrapping --------------------------------------------------------

    def _wrap(self, span: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = self._notes(span, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [span, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"pmstat.{layer}") for layer in LAYERS}
        package = importlib.import_module("pmstat")
        originals: dict[int, tuple] = {}  # id(function) -> (function, wrapper)
        for layer, names in TARGETS.items():
            mod = modules[layer]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    if meth not in cls.__dict__:
                        raise AttributeError(f"{layer}.{name} is not defined on its class")
                    span = SPAN_NAMES.get(f"{layer}.{name}", f"{layer}.{name}")
                    self._set(cls, meth, self._wrap(span, cls.__dict__[meth]))
                else:
                    fn = getattr(mod, name)  # AttributeError: the layer changed; fix TARGETS
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        # every subclass that defines its own density_series
        summ = modules["summability"].SummMatrix
        todo, classes = [summ], []
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            if "density_series" in cls.__dict__:
                self._set(cls, "density_series", self._wrap("summability.density_series", cls.__dict__["density_series"]))
        # rebind every module-level name that refers to a wrapped function
        for mod in [package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        self.t0 = time.perf_counter()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, note in self.spans:
                row = {"name": name, "start": start - self.t0, "end": end - self.t0, "parent": parent}
                if note is not None:
                    row["note"] = note
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _has_ancestor(spans: list[list], i: int, names) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans: list[list], traced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a list of spans, as ``name -> (value, unit)``.

    Self time of a span is its duration minus the durations of its direct
    children; children nest inside their parent on one thread, so that is
    exactly the part of the interval no child covers.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    own: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + dur - child[i]
        layer_self[name.split(".")[0]] += dur - child[i]

    def c(name: str) -> int:
        return calls.get(name, 0)

    def per(total: float, n: int, scale: float = 1.0) -> float:
        return total / n * scale if n else 0.0

    def outermost(names) -> list[int]:
        return [i for i, s in enumerate(spans) if s[0] in names and not _has_ancestor(spans, i, names)]

    def under(name: str, ancestors) -> int:
        return sum(1 for i, s in enumerate(spans) if s[0] == name and _has_ancestor(spans, i, ancestors))

    m: dict[str, tuple[float, str]] = {}

    # distfn
    m["distfn.self_s"] = (layer_self["distfn"], "s")
    m["distfn.levy_distance.calls"] = (c("distfn.levy_distance"), "count")
    m["distfn.levy_distance.us_per_call"] = (per(incl.get("distfn.levy_distance", 0.0), c("distfn.levy_distance"), 1e6), "us")
    m["distfn.levy_feasible.calls"] = (c("distfn.levy_feasible"), "count")
    m["distfn.probes_per_distance"] = (per(c("distfn.levy_feasible"), c("distfn.levy_distance")), "ratio")
    m["distfn.levy_distance_to_zero.calls"] = (c("distfn.levy_distance_to_zero"), "count")
    m["distfn.pointwise.calls"] = (
        sum(c(f"distfn.pointwise_{op}") for op in ("leq", "gap", "min", "max")),
        "count",
    )

    # triangle
    jumps = [s[4] for s in spans if s[0] == "triangle.apply_supconv"]
    m["triangle.self_s"] = (layer_self["triangle"], "s")
    m["triangle.apply_supconv.calls"] = (c("triangle.apply_supconv"), "count")
    m["triangle.apply_supconv.us_per_call"] = (per(incl.get("triangle.apply_supconv", 0.0), len(jumps), 1e6), "us")
    m["triangle.supconv_jumps_out"] = (per(sum(jumps), len(jumps)), "jumps")
    m["triangle.check_triangle_axioms.calls"] = (c("triangle.check_triangle_axioms"), "count")
    m["triangle.check_triangle_axioms.s_per_call"] = (
        per(incl.get("triangle.check_triangle_axioms", 0.0), c("triangle.check_triangle_axioms")),
        "s",
    )
    m["triangle.levy_calls_per_axiom_check"] = (
        per(under("distfn.levy_distance", {"triangle.check_triangle_axioms"}), c("triangle.check_triangle_axioms")),
        "ratio",
    )

    # pmspace
    m["pmspace.self_s"] = (layer_self["pmspace"], "s")
    m["pmspace.validate_axioms.calls"] = (c("pmspace.validate_axioms"), "count")
    m["pmspace.validate_axioms.ms_per_call"] = (
        per(incl.get("pmspace.validate_axioms", 0.0), c("pmspace.validate_axioms"), 1e3),
        "ms",
    )
    m["pmspace.tau_calls_per_validation"] = (
        per(under("triangle.TriangleFn", {"pmspace.validate_axioms"}), c("pmspace.validate_axioms")),
        "ratio",
    )
    m["pmspace.init.calls"] = (c("pmspace.init"), "count")
    m["pmspace.init.ms_per_call"] = (per(incl.get("pmspace.init", 0.0), c("pmspace.init"), 1e3), "ms")

    # summability
    series = [s for s in spans if s[0] == "summability.density_series"]
    rows = sum(s[4][1] for s in series)
    series_idx = outermost({"summability.density_series"})
    indicator = [s[4] for s in spans if s[0] == "summability.indicator"]
    m["summability.self_s"] = (layer_self["summability"], "s")
    for kind in DENSITY_KINDS:
        idx = [i for i, s in enumerate(spans) if s[0] == "summability.density_series" and s[4][0] == kind]
        m[f"summability.density_series.calls.{kind}"] = (len(idx), "count")
        m[f"summability.density_series.self_s.{kind}"] = (
            sum(spans[i][2] - spans[i][1] - child[i] for i in idx),
            "s",
        )
    m["summability.rows_evaluated"] = (rows, "count")
    m["summability.ns_per_row"] = (per(sum(spans[i][2] - spans[i][1] for i in series_idx), rows, 1e9), "ns")
    m["summability.indicator.calls"] = (len(indicator), "count")
    m["summability.indicator.scalar_ratio"] = (per(sum(indicator), len(indicator)), "ratio")
    m["summability.series_per_verdict"] = (
        per(len(series), sum(c(f"summability.{v}") for v in DENSITY_VERDICTS)),
        "ratio",
    )
    m["summability.ideal_limit_at.calls"] = (c("summability.ideal_limit_at"), "count")
    m["summability.check_regularity.calls"] = (c("summability.check_regularity"), "count")
    m["summability.check_regularity.self_s"] = (own.get("summability.check_regularity", 0.0), "s")

    # convergence
    det_names = {f"convergence.{d}" for d in DETECTORS}
    top = outermost(det_names)
    codes = [s[4] for s in spans if s[0] == "convergence.value_codes"]
    m["convergence.self_s"] = (layer_self["convergence"], "s")
    m["convergence.value_codes.calls"] = (len(codes), "count")
    m["convergence.value_codes.self_s"] = (own.get("convergence.value_codes", 0.0), "s")
    m["convergence.value_codes.hit_ratio"] = (per(sum(codes), len(codes)), "ratio")
    m["convergence.indices_per_s"] = (
        per(sum(spans[i][4] for i in top), sum(spans[i][2] - spans[i][1] for i in top)),
        "1/s",
    )
    for d in DETECTORS:
        m[f"convergence.{d}.calls"] = (c(f"convergence.{d}"), "count")
        m[f"convergence.{d}.self_s"] = (own.get(f"convergence.{d}", 0.0), "s")
    m["convergence.density_verdicts_per_detector"] = (
        per(sum(under(f"summability.{v}", det_names) for v in DENSITY_VERDICTS), len(top)),
        "ratio",
    )

    # harness
    m["harness.foundations_s"] = (incl.get("harness._foundation_checks", 0.0), "s")
    m["harness.theorems_s"] = (incl.get("harness._instance_checks", 0.0), "s")
    m["harness.controls_s"] = (incl.get("harness._control_checks", 0.0), "s")
    m["harness.generate_suite_s"] = (
        sum(spans[i][2] - spans[i][1] for i in outermost({"harness.generate_suite"})),
        "s",
    )
    m["harness.report_s"] = (
        sum(spans[i][2] - spans[i][1] for i in outermost({f"harness.{f}" for f in REPORT_FUNCTIONS})),
        "s",
    )

    for layer in LAYERS[:-1]:
        m[f"{layer}.busy_share"] = (layer_self[layer] / traced_wall_s if traced_wall_s > 0 else 0.0, "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m
