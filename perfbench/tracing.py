"""Spans around calls into each gaugelab module, installed from outside.

``Tracer.install`` replaces every binding of a traced function in the
package's module namespaces (the defining module and every module that
imported it) and the traced ``GradedPoly`` and ``LinearSpan`` methods with
timing wrappers.  The package itself is not edited.  Each span is kept in
memory as ``[name, start, end, parent, verdict, count]``, with start and
end read from the clock the tracer is given; ``count`` is the
size figure the layer reports (terms, components, cells, ...) or None.
``layer_metrics`` turns the spans of one traced worker into the per-layer
metrics.
"""

from __future__ import annotations

import statistics
import sys

from gaugelab import cli, dsl, homology, jets, koszul, linalg
from gaugelab.algebra import GradedPoly, as_poly, render_poly
from gaugelab.linalg import LinearSpan


def _terms(args, result):
    return len(as_poly(result).terms)


def _components(args, result):
    return len(result.components)


def _add_terms(args, result):
    a, b = args
    return len(a.terms) + len(b.terms) if isinstance(b, GradedPoly) else 0


def _mul_pairs(args, result):
    a, b = args
    return len(a.terms) * (len(b.terms) if isinstance(b, GradedPoly) else 1)


def _cells(args, result):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


# span name -> (function, size figure of one call or None)
FUNCTIONS = {
    "cli.run_command": (cli.run_command, None),
    "dsl.load_model": (dsl.load_model, lambda args, result: len(args[0].encode())),
    "koszul.identity_defect": (koszul.identity_defect, None),
    "koszul.build_stage_differential": (koszul.build_stage_differential, _components),
    "koszul.check_nilpotency": (koszul.check_nilpotency, None),
    "koszul.extended_lagrangian": (koszul.extended_lagrangian, _terms),
    "koszul.ascent_operator": (koszul.ascent_operator, _components),
    "koszul.verify_variational_supersymmetry": (koszul.verify_variational_supersymmetry, None),
    "koszul.check_ascent_nilpotency": (koszul.check_ascent_nilpotency, None),
    "jets.apply_prolonged": (jets.apply_prolonged, _terms),
    "jets.multi_total_derivative": (jets.multi_total_derivative, None),
    "jets.partial_derivative": (jets.partial_derivative, None),
    "jets.eta": (jets.eta, None),
    "jets.euler_lagrange": (jets.euler_lagrange, None),
    "jets.is_variational_supersymmetry": (jets.is_variational_supersymmetry, None),
    "algebra.render_poly": (render_poly, None),
    "homology.chain_basis": (homology.chain_basis, lambda args, result: len(result)),
    "homology.boundary_matrix": (homology.boundary_matrix,
                                 lambda args, result: sum(map(len, result.columns))),
    "homology.kt_homology": (homology.kt_homology, None),
    "linalg.rank_fraction_free": (linalg.rank_fraction_free, _cells),
    "linalg.kernel_of_columns": (linalg.kernel_of_columns,
                                 lambda args, result: len(args[0])),
}

# span name -> (class, method, size figure)
METHODS = {
    "algebra.add": ((GradedPoly, "__add__", _add_terms),
                    (GradedPoly, "__sub__", _add_terms)),
    "algebra.mul": ((GradedPoly, "__mul__", _mul_pairs),),
    "linalg.span.add": ((LinearSpan, "add", lambda args, result: int(bool(result))),),
    "linalg.span.reduce": ((LinearSpan, "reduce", None),),
}

# per-layer metric -> (span names, statistic over one pass of the inputs)
#   calls        spans opened
#   self_s       span time not covered by child spans
#   count        sum of the spans' size figures
#   count_per_s  that sum over the spans' whole duration
#   count_share  that sum over the number of spans
LAYER_METRICS = {
    "cli.run_command.self_s": (("cli.run_command",), "self_s"),
    "dsl.load_model.self_s": (("dsl.load_model",), "self_s"),
    "dsl.load_model.bytes_per_s": (("dsl.load_model",), "count_per_s"),
    "koszul.identity_defect.calls": (("koszul.identity_defect",), "calls"),
    "koszul.identity_defect.self_s": (("koszul.identity_defect",), "self_s"),
    "koszul.build_stage_differential.self_s": (("koszul.build_stage_differential",), "self_s"),
    "koszul.build_stage_differential.components": (("koszul.build_stage_differential",), "count"),
    "koszul.check_nilpotency.self_s": (("koszul.check_nilpotency",), "self_s"),
    "koszul.extended_lagrangian.self_s": (("koszul.extended_lagrangian",), "self_s"),
    "koszul.extended_lagrangian.terms": (("koszul.extended_lagrangian",), "count"),
    "koszul.ascent_operator.self_s": (("koszul.ascent_operator",), "self_s"),
    "koszul.ascent_operator.components": (("koszul.ascent_operator",), "count"),
    "koszul.verify_variational_supersymmetry.self_s":
        (("koszul.verify_variational_supersymmetry",), "self_s"),
    "koszul.check_ascent_nilpotency.self_s": (("koszul.check_ascent_nilpotency",), "self_s"),
    "jets.apply_prolonged.calls": (("jets.apply_prolonged",), "calls"),
    "jets.apply_prolonged.self_s": (("jets.apply_prolonged",), "self_s"),
    "jets.apply_prolonged.terms_out": (("jets.apply_prolonged",), "count"),
    "jets.multi_total_derivative.calls": (("jets.multi_total_derivative",), "calls"),
    "jets.multi_total_derivative.self_s": (("jets.multi_total_derivative",), "self_s"),
    "jets.partial_derivative.calls": (("jets.partial_derivative",), "calls"),
    "jets.partial_derivative.self_s": (("jets.partial_derivative",), "self_s"),
    "jets.eta.self_s": (("jets.eta",), "self_s"),
    "jets.euler_lagrange.self_s": (("jets.euler_lagrange",), "self_s"),
    "jets.is_variational_supersymmetry.self_s": (("jets.is_variational_supersymmetry",), "self_s"),
    "algebra.add.calls": (("algebra.add",), "calls"),
    "algebra.add.terms_in": (("algebra.add",), "count"),
    "algebra.add.self_s": (("algebra.add",), "self_s"),
    "algebra.mul.calls": (("algebra.mul",), "calls"),
    "algebra.mul.term_pairs": (("algebra.mul",), "count"),
    "algebra.mul.self_s": (("algebra.mul",), "self_s"),
    "algebra.render_poly.calls": (("algebra.render_poly",), "calls"),
    "algebra.render_poly.self_s": (("algebra.render_poly",), "self_s"),
    "homology.chain_basis.self_s": (("homology.chain_basis",), "self_s"),
    "homology.chain_basis.chains": (("homology.chain_basis",), "count"),
    "homology.boundary_matrix.self_s": (("homology.boundary_matrix",), "self_s"),
    "homology.boundary_matrix.nnz": (("homology.boundary_matrix",), "count"),
    "homology.kt_homology.self_s": (("homology.kt_homology",), "self_s"),
    "linalg.rank_fraction_free.calls": (("linalg.rank_fraction_free",), "calls"),
    "linalg.rank_fraction_free.self_s": (("linalg.rank_fraction_free",), "self_s"),
    "linalg.rank_fraction_free.cells": (("linalg.rank_fraction_free",), "count"),
    "linalg.kernel_of_columns.calls": (("linalg.kernel_of_columns",), "calls"),
    "linalg.kernel_of_columns.self_s": (("linalg.kernel_of_columns",), "self_s"),
    "linalg.kernel_of_columns.columns": (("linalg.kernel_of_columns",), "count"),
    "linalg.span.self_s": (("linalg.span.add", "linalg.span.reduce"), "self_s"),
    "linalg.span.adds": (("linalg.span.add",), "calls"),
    "linalg.span.useful_ratio": (("linalg.span.add",), "count_share"),
}


class Tracer:
    """Span recorder for one single-threaded worker process."""

    def __init__(self, clock):
        self.clock = clock         # seconds; SpeedClock.now in the worker
        self.spans: list[list] = []
        self.verdict = -1          # index of the verdict being computed
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.verdict, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size is not None:
                span[5] = size(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "gaugelab" or n.startswith("gaugelab."))]
        for name, (fn, size) in FUNCTIONS.items():
            wrapper = self.wrap(name, fn, size)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
        for name, methods in METHODS.items():
            for cls, attr, size in methods:
                setattr(cls, attr, self.wrap(name, getattr(cls, attr), size))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], verdict_pass: list[int],
                  inputs: int) -> dict[str, float]:
    """Per-layer metrics of one pass over the inputs, as medians over the
    complete passes.

    ``verdict_pass`` maps a verdict index to the pass it belongs to; a pass
    is complete when it holds a verdict of each of the ``inputs`` inputs.
    """
    own = self_times(spans)
    passes = sorted(p for p in set(verdict_pass) if verdict_pass.count(p) == inputs)
    # (span name, pass) -> [calls, self_s, count, duration]
    acc: dict[tuple, list] = {}
    for span, self_s in zip(spans, own):
        name, start, end, _, verdict, count = span
        a = acc.setdefault((name, verdict_pass[verdict]), [0, 0.0, 0, 0.0])
        a[0] += 1
        a[1] += self_s
        a[2] += count or 0
        a[3] += end - start
    zero = (0, 0.0, 0, 0.0)
    out = {}
    for metric, (names, stat) in LAYER_METRICS.items():
        values = []
        for p in passes:
            calls, self_s, count, dur = (
                sum(col) for col in zip(*(acc.get((n, p), zero) for n in names)))
            values.append({
                "calls": calls,
                "self_s": self_s,
                "count": count,
                "count_per_s": count / dur if dur else 0.0,
                "count_share": count / calls if calls else 0.0,
            }[stat])
        out[metric] = statistics.median(values)
    return out


def self_s_by_input(spans: list[list], verdict_input: list[str],
                    verdict_pass: list[int]) -> dict[str, dict[str, float]]:
    """Self time per span name for each input, from the first traced pass."""
    first = min(verdict_pass)
    out: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        verdict = span[4]
        if verdict_pass[verdict] != first:
            continue
        per = out.setdefault(verdict_input[verdict], {})
        per[span[0]] = per.get(span[0], 0.0) + self_s
    return {k: dict(sorted(v.items(), key=lambda t: -t[1])) for k, v in out.items()}
