"""Spans around the public entry points of each nonassoc layer, and the
per-layer metrics computed from them.

`Tracer.install` replaces every module attribute (and class attribute, for
methods) that binds a traced callable with one wrapper, so a call is
recorded whichever module it is reached through.  A span is (name, start,
end, parent span, job, measure); spans stay in memory until the run writes
them out.  Per-scalar helpers (`vec_add_into`, `vec_equal`, `mul_basis`)
are never wrapped: their call counts would dwarf the work being timed.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from time import perf_counter

# layer -> (module, traced attributes); "Class.method" names a method.
TRACED = {
    "hopf": ("hopf", (
        "check_whq", "derived_property_suite", "check_whq_morphism", "projections",
        "_projection_formulas", "_convolution_projections", "magma_of_quasigroupoid",
    )),
    "linalg": ("linalg", ("convolution", "LinearMap.compose", "LinearMap.tensor", "span_basis")),
    "bowtie": ("bowtie", ("bowtie_whq", "verify_canonical_iso")),
    "matched_pairs": ("matched_pairs", (
        "check_matched_pair", "matched_pair_identity_suite", "mixed_associativity_suite",
        "theta_identity_report", "double_cross_product", "matched_pair",
    )),
    "quasigroupoids": ("quasigroupoids", (
        "check_quasigroupoid", "derived_identity_suite", "pair_quasigroupoid",
    )),
    "factorizations": ("factorizations", (
        "enumerate_factorizations", "check_exact_factorization", "reconstruct_matched_pair",
    )),
    "quasigroups": ("quasigroups", ("check_quasigroup", "derived_inverse_suite", "is_associative")),
    # the doc_to_* and *_to_doc converters are added by `install`
    "documents": ("documents", ("parse", "emit")),
    "reports": ("reports", ("format_report",)),
}

# span name -> size recorded with each call, from (args, result)
MEASURES = {
    "hopf.check_whq": lambda args, result: args[0].dim,
    "factorizations.enumerate_factorizations": lambda args, result: len(result),
    "documents.parse": lambda args, result: len(args[0]),
    "documents.emit": lambda args, result: len(result),
    "reports.format_report": lambda args, result: len(args[0].violations),
}

LADDER_STEPS = ("hopf.check_whq", "hopf.derived_property_suite", "bowtie.verify_canonical_iso")
LADDER_ARROWS = (48, 108, 192)

# (name, unit, better) of every metric a traced run prints, in order.
PER_LAYER = [
    ("hopf.check_whq.self_s", "s", "lower"),
    ("hopf.check_whq.ns_per_n3", "ns", "lower"),
    ("hopf.check_whq.exponent", "ratio", "lower"),
    ("hopf.derived_property_suite.self_s", "s", "lower"),
    ("hopf.check_whq_morphism.self_s", "s", "lower"),
    ("hopf.projections.calls", "count", "lower"),
    ("linalg.convolution.calls", "count", "lower"),
    ("linalg.convolution.self_s", "s", "lower"),
    ("linalg.LinearMap.compose.self_s", "s", "lower"),
    ("linalg.LinearMap.tensor.self_s", "s", "lower"),
    ("linalg.span_basis.self_s", "s", "lower"),
    ("bowtie.bowtie_whq.self_s", "s", "lower"),
    ("bowtie.verify_canonical_iso.self_s", "s", "lower"),
    ("matched_pairs.check_matched_pair.self_s", "s", "lower"),
    ("matched_pairs.matched_pair_identity_suite.self_s", "s", "lower"),
    ("matched_pairs.mixed_associativity_suite.self_s", "s", "lower"),
    ("matched_pairs.theta_identity_report.self_s", "s", "lower"),
    ("matched_pairs.double_cross_product.self_s", "s", "lower"),
    ("matched_pairs.double_cross_product.calls", "count", "lower"),
    ("quasigroupoids.check_quasigroupoid.self_s", "s", "lower"),
    ("quasigroupoids.check_quasigroupoid.calls", "count", "lower"),
    ("quasigroupoids.derived_identity_suite.self_s", "s", "lower"),
    ("quasigroupoids.pair_quasigroupoid.self_s", "s", "lower"),
    ("factorizations.enumerate_factorizations.self_s", "s", "lower"),
    ("factorizations.check_exact_factorization.calls", "count", "lower"),
    ("factorizations.check_exact_factorization.self_s", "s", "lower"),
    ("factorizations.yield", "ratio", "higher"),
    ("factorizations.reconstruct_matched_pair.self_s", "s", "lower"),
    ("quasigroups.check_quasigroup.self_s", "s", "lower"),
    ("quasigroups.derived_inverse_suite.self_s", "s", "lower"),
    ("quasigroups.is_associative.self_s", "s", "lower"),
    ("documents.parse.self_s", "s", "lower"),
    ("documents.emit.self_s", "s", "lower"),
    ("documents.decode.self_s", "s", "lower"),
    ("documents.encode.self_s", "s", "lower"),
    ("documents.bytes_in", "B", "lower"),
    ("documents.bytes_out", "B", "lower"),
    ("reports.format_report.self_s", "s", "lower"),
    ("reports.violations", "count", "lower"),
    *[(f"{layer}.share", "ratio", "lower") for layer in TRACED],
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.coverage.min", "ratio", "higher"),
    *[
        (f"ladder.{step.split('.')[1]}.{n}", "s", "lower")
        for step in LADDER_STEPS
        for n in LADDER_ARROWS
    ],
]

NAME, START, END, PARENT, JOB, MEASURE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: str | None = None

    def _wrap(self, name, fn):
        spans, stack, measure = self.spans, self.stack, MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0]
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if measure:
                span[MEASURE] = measure(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced callable of the `nonassoc` modules now imported."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "nonassoc"]
        for layer, (module_name, attributes) in TRACED.items():
            module = sys.modules[f"nonassoc.{module_name}"]
            if layer == "documents":
                attributes += tuple(
                    key for key, value in vars(module).items()
                    if (key.startswith("doc_to_") or key.endswith("_to_doc"))
                    and getattr(value, "__module__", None) == module.__name__
                )
            for attribute in attributes:
                if "." in attribute:
                    cls_name, method = attribute.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, method, self._wrap(f"{layer}.{attribute}", vars(cls)[method]))
                    continue
                original = getattr(module, attribute)
                wrapper = self._wrap(f"{layer}.{attribute}", original)
                for mod in modules:
                    for key in [k for k, v in vars(mod).items() if v is original]:
                        setattr(mod, key, wrapper)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(durations, spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    inner = [0.0] * len(spans)
    for span, d in zip(spans, durations):
        if span[PARENT] >= 0:
            inner[span[PARENT]] += d
    return [d - covered for d, covered in zip(durations, inner)]


def _slope(points) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    points = [(math.log(n), math.log(s)) for n, s in points if s > 0]
    if len(points) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    den = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / den


def layer_metrics(tracer: Tracer, workload, pass_jobs: dict, scale: dict, probed,
                  untraced_pass_s: float, overhead_s: float):
    """Per-layer metrics of one traced set-up plus one traced pass.

    `pass_jobs` maps each job of the traced pass to its wall time, and
    `scale` each job (and "setup") to the factor that calibrates its times;
    every span is scaled by its job's factor after `probed(start, end)`,
    the calibration probes' time inside it, is taken out.  `overhead_s` is
    the traced pass time minus `untraced_pass_s`, both calibrated.  Layer
    shares and coverage use the pass alone; the other layer metrics also
    count the set-up.  The ladder rows and the exponent come from the jobs
    `workload.ladder` names.  Returns the metrics and, for printing, each
    job's coverage and the ladder rows.
    """
    spans = tracer.spans
    durations = [s[END] - s[START] - probed(s[START], s[END]) for s in spans]
    factor = [scale.get(span[JOB], 1.0) for span in spans]
    own = [t * f for t, f in zip(self_times(durations, spans), factor)]
    calls, self_s, measured = {}, {}, {}
    layer_self = dict.fromkeys(TRACED, 0.0)
    for span, t in zip(spans, own):
        if span[JOB] != "setup" and span[JOB] not in pass_jobs:
            continue
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        measured[name] = measured.get(name, 0) + span[MEASURE]
        if span[JOB] in pass_jobs:
            layer_self[name.split(".")[0]] += t
    traced_pass_s = sum(t * scale[job] for job, t in pass_jobs.items())

    counted = [s for s in spans if s[JOB] == "setup" or s[JOB] in pass_jobs]
    cube = sum(s[MEASURE] ** 3 for s in counted if s[NAME] == "hopf.check_whq")
    candidates = sum(
        1 for s in counted
        if s[NAME] == "factorizations.check_exact_factorization"
        and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "factorizations.enumerate_factorizations"
    )

    def duration(name, job):
        for s, d, f in zip(spans, durations, factor):
            if s[NAME] == name and s[JOB] == job:
                return d * f
        return 0.0

    ladder_rows = [
        (n, duration(LADDER_STEPS[0], suite), duration(LADDER_STEPS[1], suite),
         duration(LADDER_STEPS[2], iso) if iso else 0.0)
        for n, suite, iso in workload.ladder
    ]
    top = {job: 0.0 for job in pass_jobs}
    for s, d in zip(spans, durations):
        if s[PARENT] < 0 and s[JOB] in top:
            top[s[JOB]] += d
    coverage = {job: top[job] / t for job, t in pass_jobs.items()}

    values = {
        "hopf.check_whq.ns_per_n3": self_s.get("hopf.check_whq", 0.0) * 1e9 / cube if cube else 0.0,
        "hopf.check_whq.exponent": _slope((n, t) for n, t, _, _ in ladder_rows),
        "hopf.projections.calls": sum(calls.get(f"hopf.{name}", 0) for name in (
            "projections", "_projection_formulas", "_convolution_projections")),
        "factorizations.yield": (
            measured.get("factorizations.enumerate_factorizations", 0) / candidates
            if candidates else 0.0
        ),
        "documents.decode.self_s": sum(
            v for k, v in self_s.items() if k.startswith("documents.doc_to_")
        ),
        "documents.encode.self_s": sum(
            v for k, v in self_s.items() if k.startswith("documents.") and k.endswith("_to_doc")
        ),
        "documents.bytes_in": measured.get("documents.parse", 0),
        "documents.bytes_out": measured.get("documents.emit", 0),
        "reports.violations": measured.get("reports.format_report", 0),
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": overhead_s / untraced_pass_s,
        "trace.coverage": sum(top.values()) / sum(pass_jobs.values()),
        "trace.coverage.min": min(coverage.values()),
    }
    for layer, t in layer_self.items():
        values[f"{layer}.share"] = t / traced_pass_s
    for n, *steps in ladder_rows:
        for step, t in zip(LADDER_STEPS, steps):
            values[f"ladder.{step.split('.')[1]}.{n}"] = t  # kept for 48/108/192 only
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".calls"):
            value = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            value = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            value = 0.0  # a ROADMAP ladder rung this workload does not run
        metrics[name] = {"value": value, "unit": unit}
    return metrics, coverage, ladder_rows
