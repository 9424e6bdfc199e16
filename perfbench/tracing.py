"""Spans around calls into paulipatch's public functions, from outside the package.

``Tracer`` keeps spans (name, start, end, parent, trace id, counts) in memory.
``instrumented(tracer)`` wraps a fixed list of public functions for the
duration of a ``with`` block: each wrapped call becomes a span, with counts
read from its arguments and return value (``PropagationStats``,
``EvalLedger``, array shapes, file sizes). Every module of the package that
holds the function is patched, so calls one layer makes into another (the
Taylor builder calling the dense oracle, for instance) are spans too.

``layer_metrics`` turns the spans of one traced pass into the per-layer
metrics. A ``*_s`` metric is self time: the span's duration minus the time
its child spans cover. A ``*_per_s`` rate divides a count by the layer's
inclusive time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield attrs


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.trace_id = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        record = {"name": name, "trace": self.trace_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield attrs
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out


# --- counts read at the layer boundary ------------------------------------------------


def _stats_counts(result, args):
    stats = result.stats
    return {"mode": result.mode, "rotations": len(args["circuit"].rotations),
            "paths_expanded": stats.paths_expanded,
            "truncated_sine": stats.truncated_sine,
            "truncated_weight": stats.truncated_weight,
            "truncated_coeff": stats.truncated_coeff,
            "terms_final": stats.terms_final, "monomials_final": stats.monomials_final}


def _oracle_counts(result, args):
    circuit = args["circuit"]
    rows = len(args["alphas"])
    updates = rows * len(circuit.gates) * (1 << circuit.n)
    # computed from array sizes: each update reads and writes one complex128
    return {"rows": rows, "amplitude_updates": updates, "bytes_computed": 32 * updates}


# (module, attribute, span name, counts(result, bound arguments) or None)
TARGETS = [
    ("propagation", "backpropagate", "propagation.backpropagate", _stats_counts),
    ("propagation", "restrict_sine_order", "propagation.restrict", None),
    ("propagation", "save_artifact", "propagation.artifact.save",
     lambda r, a: {"bytes": os.path.getsize(a["path"])}),
    ("propagation", "load_artifact", "propagation.artifact.load", None),
    ("surrogate", "SurrogateEvaluator.__init__", "surrogate.evaluator_init",
     lambda r, a: {"monomials": a["self"].n_monomials}),
    ("surrogate", "SurrogateEvaluator.values", "surrogate.values",
     lambda r, a: {"points": len(a["alpha_rows"])}),
    ("surrogate", "pauli_mean_squares", "surrogate.mean_squares", None),
    ("measurement", "make_allocation", "surrogate.allocation", None),
    ("states", "exact_expectation_batch", "states.oracle", _oracle_counts),
    ("states", "exact_expectation", "states.oracle_single", None),
    ("taylor", "build_taylor", "taylor.build",
     lambda r, a: {"evaluations": r.ledger.evaluations,
                   "unique_derivatives": r.ledger.unique_derivatives}),
    ("taylor", "eval_taylor", "taylor.eval", None),
    ("measurement", "simulate_direct", "measurement.simulate_direct",
     lambda r, a: {"shots": len(r)}),
    ("measurement", "estimate", "measurement.estimate", None),
    ("measurement", "save_shot_records", "measurement.records_save",
     lambda r, a: {"bytes": os.path.getsize(a["path"])}),
    ("measurement", "load_shot_records", "measurement.records_load", None),
    ("measurement", "simulate_shadows", "measurement.simulate_shadows",
     lambda r, a: {"shots": len(r)}),
    ("measurement", "shadow_estimate", "measurement.shadow_estimate", None),
]


def _wrap(tracer: Tracer, fn, name: str, counts):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = fn(*args, **kwargs)
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs.update(counts(result, bound.arguments))
            return result

    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every TARGETS function in every paulipatch module; restore on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "paulipatch" or name.startswith("paulipatch.")]
    undo = []
    try:
        for module_name, attribute, span_name, counts in TARGETS:
            owner = sys.modules[f"paulipatch.{module_name}"]
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                undo.append((cls, method, original))
                setattr(cls, method, _wrap(tracer, original, span_name, counts))
                continue
            original = getattr(owner, attribute)
            wrapper = _wrap(tracer, original, span_name, counts)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, name, original))
                        setattr(module, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


# --- per-layer metrics ------------------------------------------------------------------


def _key(span: dict) -> str:
    mode = span["attrs"].get("mode")
    return f"{span['name']}:{mode}" if mode else span["name"]


def layer_metrics(tracer: Tracer, trace_id: str, setup_id: str = "setup") -> dict:
    """Per-layer metrics of one traced pass (plus the set-up spans)."""
    self_times = tracer.self_times()
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    counts = defaultdict(float)
    for index, span in enumerate(tracer.spans):
        if span["trace"] not in (trace_id, setup_id):
            continue
        key = _key(span)
        self_s[key] += self_times[index]
        total_s[key] += span["end"] - span["start"]
        for name, value in span["attrs"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                counts[key, name] += value

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    num = "propagation.backpropagate:numeric"
    sym = "propagation.backpropagate:symbolic"
    expanded = counts[num, "paths_expanded"]
    cut = (counts[num, "truncated_sine"] + counts[num, "truncated_weight"]
           + counts[num, "truncated_coeff"])
    m = {
        "propagation.numeric.busy_s": (self_s[num], "s"),
        "propagation.numeric.rotations_per_s":
            (rate(counts[num, "rotations"], total_s[num]), "1/s"),
        "propagation.numeric.paths_expanded": (expanded, "count"),
        "propagation.numeric.truncated_sine": (counts[num, "truncated_sine"], "count"),
        "propagation.numeric.truncated_weight": (counts[num, "truncated_weight"], "count"),
        "propagation.numeric.terms_final": (counts[num, "terms_final"], "count"),
        "propagation.numeric.kept_ratio":
            ((expanded - cut) / expanded if expanded else 0.0, "ratio"),
        "propagation.symbolic.busy_s": (self_s[sym], "s"),
        "propagation.symbolic.paths_expanded": (counts[sym, "paths_expanded"], "count"),
        "propagation.symbolic.truncated_sine": (counts[sym, "truncated_sine"], "count"),
        "propagation.symbolic.monomials_final": (counts[sym, "monomials_final"], "count"),
        "propagation.symbolic.terms_final": (counts[sym, "terms_final"], "count"),
        "propagation.artifact.save_s": (self_s["propagation.artifact.save"], "s"),
        "propagation.artifact.load_s": (self_s["propagation.artifact.load"], "s"),
        "propagation.artifact.bytes": (counts["propagation.artifact.save", "bytes"], "B"),
        "propagation.restrict.busy_s": (self_s["propagation.restrict"], "s"),
        "surrogate.evaluator_init_s": (self_s["surrogate.evaluator_init"], "s"),
        "surrogate.values_s": (self_s["surrogate.values"], "s"),
        "surrogate.points_per_s":
            (rate(counts["surrogate.values", "points"], total_s["surrogate.values"]), "1/s"),
        "surrogate.monomials": (counts["surrogate.evaluator_init", "monomials"], "count"),
        "surrogate.allocation_s": (self_s["surrogate.allocation"], "s"),
        "states.prepare_s": (self_s["states.prepare"], "s"),
        "states.oracle_s": (self_s["states.oracle"] + self_s["states.oracle_single"], "s"),
        "states.oracle_rows": (counts["states.oracle", "rows"], "count"),
        "states.oracle_amplitude_updates":
            (counts["states.oracle", "amplitude_updates"], "count"),
        "states.oracle_bytes_computed": (counts["states.oracle", "bytes_computed"], "B"),
        "taylor.build_s": (self_s["taylor.build"], "s"),
        "taylor.evaluations": (counts["taylor.build", "evaluations"], "count"),
        "taylor.unique_derivatives": (counts["taylor.build", "unique_derivatives"], "count"),
        "taylor.evals_per_s":
            (rate(counts["taylor.build", "evaluations"], total_s["taylor.build"]), "1/s"),
        "taylor.eval_s": (self_s["taylor.eval"], "s"),
        "measurement.simulate_direct_s": (self_s["measurement.simulate_direct"], "s"),
        "measurement.estimate_s": (self_s["measurement.estimate"], "s"),
        "measurement.records_io_s":
            (self_s["measurement.records_save"] + self_s["measurement.records_load"], "s"),
        "measurement.records_bytes": (counts["measurement.records_save", "bytes"], "B"),
        "measurement.shots": (counts["measurement.simulate_direct", "shots"], "count"),
        "measurement.simulate_shadows_s": (self_s["measurement.simulate_shadows"], "s"),
        "measurement.shadow_estimate_s": (self_s["measurement.shadow_estimate"], "s"),
        "measurement.shadow_shots": (counts["measurement.simulate_shadows", "shots"], "count"),
        "circuits.build_s": (self_s["circuits.build"], "s"),
    }
    return m
