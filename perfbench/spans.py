"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder wraps public functions of the ``qgm`` layers from outside:
each target is rebound, in every ``qgm`` module that holds a reference
to it (``pipeline.caratheodory_genericity``, ``toricgit.conic_feasible``,
``exactlin.rank`` ...), to a wrapper that records a span, and methods are
rebound on their class.  ``install()`` and ``restore()`` only swap the
bindings found once at construction, so they are cheap enough to toggle
around every request.  Spans are kept in memory as
``(name, start, end, parent, request)`` tuples and written out by
``write()``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, span name); methods use "Class.method".
TARGETS = (
    ("cli", "main", "cli.main"),
    ("pipeline", "run_connectedness", "pipeline.run_connectedness"),
    ("pipeline", "builtin_toric_ideal", "pipeline.builtin_toric_ideal"),
    ("toricgit", "theta_generic_quiver", "toricgit.theta_generic_quiver"),
    ("toricgit", "caratheodory_genericity", "toricgit.caratheodory_genericity"),
    ("toricgit", "scan_full_rank_subsets", "toricgit.scan_full_rank_subsets"),
    ("toricgit", "hm_semistable", "toricgit.hm_semistable"),
    ("toricgit", "hm_stable", "toricgit.hm_stable"),
    ("toricgit", "king_semistable", "toricgit.king_semistable"),
    ("toricgit", "king_stable", "toricgit.king_stable"),
    ("toricgit", "lattice_report", "toricgit.lattice_report"),
    ("toricgit", "strong_convexity_check", "toricgit.strong_convexity_check"),
    ("toricgit", "canonical_triviality_check", "toricgit.canonical_triviality_check"),
    ("monomial", "minimal_primes", "monomial.minimal_primes"),
    ("monomial", "SquarefreeIdeal.__init__", "monomial.SquarefreeIdeal"),
    ("exactlin", "rank", "exactlin.rank"),
    ("exactlin", "solve_unique", "exactlin.solve_unique"),
    ("exactlin", "conic_feasible", "exactlin.conic_feasible"),
    ("exactlin", "strictly_conic_feasible", "exactlin.strictly_conic_feasible"),
    ("exactlin", "smith_normal_form", "exactlin.smith_normal_form"),
    ("exactlin", "integer_kernel_basis", "exactlin.integer_kernel_basis"),
    ("cubicrel", "relation_coefficients", "cubicrel.relation_coefficients"),
    ("cubicrel", "general_position_check", "cubicrel.general_position_check"),
    ("cubicrel", "to_moduli_point", "cubicrel.to_moduli_point"),
    ("multipoly", "TriPoly.__mul__", "multipoly.TriPoly.mul"),
    ("picard", "gram_matrix", "picard.gram_matrix"),
    ("picard", "verify_gram_matrix", "picard.verify_gram_matrix"),
    ("picard", "root_system_check", "picard.root_system_check"),
    ("picard", "mutation_chain_transcript", "picard.mutation_chain_transcript"),
)
TOP = "cli.main"


def _count_scan(counts, result):
    full_rank, relevant = result
    counts["toricgit.full_rank_subsets"] += full_rank
    counts["toricgit.relevant_subsets"] += len(relevant)


def _count_report(counts, report):
    n = report.component_count
    counts["pipeline.components"] += n
    counts["pipeline.edges"] += len(report.edges)
    counts["pipeline.pairs_tested"] += n * (n - 1) // 2
    counts["pipeline.minimal_primes"] += report.minimal_prime_count


def _count_primes(counts, primes):
    counts["monomial.primes"] += len(primes)


def _count_feasible(counts, solution):
    counts["exactlin.conic_feasible.feasible"] += solution is not None


# Work counts read from return values, per span name.
COUNTERS = {
    "toricgit.scan_full_rank_subsets": _count_scan,
    "pipeline.run_connectedness": _count_report,
    "monomial.minimal_primes": _count_primes,
    "exactlin.conic_feasible": _count_feasible,
}


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.request = None
        self._stack = []
        self._bindings = []  # (owner, attribute, original, wrapper)
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "qgm" or name.startswith("qgm."))}
        for module, path, span_name in TARGETS:
            owner = modules[f"qgm.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._bindings.append((cls, attr, original, self._wrap(span_name, original)))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(span_name, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original, wrapper))

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if counter is not None:
                counter(counts, result)
            return result

        return wrapper

    def install(self):
        for owner, attr, _original, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original, _wrapper in reversed(self._bindings):
            setattr(owner, attr, original)

    def bound_sites(self):
        """(owner, attribute, original) for every rebound name."""
        return [(o, a, orig) for o, a, orig, _w in self._bindings]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def summarize(spans):
    """Per span name: summed busy time (outermost spans only, so a
    function nested in itself is not counted twice), call count and self
    time (busy time minus the wrapped children); plus self time per
    module and the summed duration of the top-level spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _req in spans:
        if parent >= 0:
            child_time[parent] += end - start
    busy = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    module_self = defaultdict(float)
    top = 0.0
    for i, (name, start, end, parent, _req) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        own = duration - child_time[i]
        self_time[name] += own
        module_self[name.split(".")[0]] += own
        if parent < 0:
            top += duration
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            busy[name] += duration
    return {"busy": busy, "calls": calls, "self": self_time,
            "module_self": module_self, "top": top}


def _ratio(num, den):
    return num / den if den else 0.0


# The per-layer metrics of the traced run, with units.
PER_LAYER = (
    ("toricgit.caratheodory_genericity.s", "s"),
    ("toricgit.scan_full_rank_subsets.s", "s"),
    ("toricgit.theta_generic_quiver.s", "s"),
    ("toricgit.full_rank_subsets", "count"),
    ("toricgit.relevant_subsets", "count"),
    ("toricgit.relevant_ratio", "ratio"),
    ("pipeline.run_connectedness.s", "s"),
    ("pipeline.run_connectedness.calls", "count"),
    ("pipeline.self_s", "s"),
    ("pipeline.components", "count"),
    ("pipeline.edges", "count"),
    ("pipeline.edge_ratio", "ratio"),
    ("pipeline.prime_relevant_ratio", "ratio"),
    ("monomial.minimal_primes.s", "s"),
    ("monomial.minimal_primes.calls", "count"),
    ("monomial.primes", "count"),
    ("monomial.SquarefreeIdeal.s", "s"),
    ("exactlin.conic_feasible.s", "s"),
    ("exactlin.conic_feasible.calls", "count"),
    ("exactlin.conic_feasible.feasible_ratio", "ratio"),
    ("exactlin.strictly_conic_feasible.s", "s"),
    ("exactlin.strictly_conic_feasible.calls", "count"),
    ("exactlin.rank.s", "s"),
    ("exactlin.rank.calls", "count"),
    ("exactlin.self_s", "s"),
    ("toricgit.hm_semistable.s", "s"),
    ("toricgit.hm_stable.s", "s"),
    ("toricgit.king_semistable.s", "s"),
    ("toricgit.king_stable.s", "s"),
    ("toricgit.self_s", "s"),
    ("cubicrel.relation_coefficients.s", "s"),
    ("cubicrel.general_position_check.s", "s"),
    ("cubicrel.to_moduli_point.s", "s"),
    ("multipoly.TriPoly.mul.s", "s"),
    ("multipoly.TriPoly.mul.calls", "count"),
    ("exactlin.smith_normal_form.s", "s"),
    ("exactlin.integer_kernel_basis.s", "s"),
    ("toricgit.lattice_report.s", "s"),
    ("picard.root_system_check.s", "s"),
    ("picard.verify_gram_matrix.s", "s"),
    ("picard.mutation_chain_transcript.s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def layer_metrics(summary, counts, overhead_frac):
    """Values of every PER_LAYER metric from a summary and the counters."""
    values = {}
    for name, _unit in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = summary["module_self"].get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".s"):
            values[name] = summary["busy"].get(name[:-2], 0.0)
        elif name.endswith(".calls"):
            values[name] = summary["calls"].get(name[:-len(".calls")], 0)
        else:
            values[name] = counts.get(name, 0)
    values["toricgit.relevant_ratio"] = _ratio(counts.get("toricgit.relevant_subsets", 0),
                                               counts.get("toricgit.full_rank_subsets", 0))
    values["pipeline.edge_ratio"] = _ratio(counts.get("pipeline.edges", 0),
                                           counts.get("pipeline.pairs_tested", 0))
    values["pipeline.prime_relevant_ratio"] = _ratio(counts.get("pipeline.components", 0),
                                                     counts.get("pipeline.minimal_primes", 0))
    values["exactlin.conic_feasible.feasible_ratio"] = _ratio(
        counts.get("exactlin.conic_feasible.feasible", 0),
        summary["calls"].get("exactlin.conic_feasible", 0))
    values["trace.overhead_frac"] = overhead_frac
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
