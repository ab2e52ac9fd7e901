"""Per-layer tracing of the doublelie package, done from outside it.

Tracer.install() replaces public functions of the package with wrappers,
in every module that holds a reference to them (the benchmark's own
workloads module included).  Entry points get spans (name, start, end,
parent); hot leaf functions get counts only.  Spans stay in memory until
the run writes them out.  A layer is the module that defines the function,
and its self time is the time of its spans minus the time their child spans
cover.  The process is single-threaded, so no layer waits on another.

PER_LAYER lists every per-layer metric with the end-to-end metric and
workload it is expected to move; bench/check.py holds BENCHMARK.json to it.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from doublelie import brackets, exact, ideals, linalg, rb, report
from doublelie.matrices import LocallyFiniteOperator, StridedRayOperator

PER_LAYER = (
    # name, unit, better, what it should move
    ("rb.self_s", "s", "lower",
     "wall_s and slowest_verdict_s on battery; no change on closure_search"),
    ("rb.image_calls", "count", "lower", "as rb.self_s"),
    ("rb.image_hit_ratio", "ratio", "higher",
     "peak_rss_mb on battery (memo)"),
    ("rb.apply_image_calls", "count", "lower", "as rb.self_s"),
    ("rb.apply_image_hit_ratio", "ratio", "higher",
     "peak_rss_mb on battery (memo)"),
    ("matrices.apply_index_calls", "count", "lower", "as rb.self_s"),
    ("matrices.operators_built", "count", "lower", "as rb.self_s"),
    ("matrices.products", "count", "lower", "as rb.self_s"),
    ("matrices.self_s", "s", "lower", "as rb.self_s"),
    ("brackets.self_s", "s", "lower",
     "wall_s on battery; a little on closure_search through eval_linear"),
    ("brackets.eval_calls", "count", "lower", "as brackets.self_s"),
    ("brackets.eval_hit_ratio", "ratio", "higher",
     "peak_rss_mb on battery and closure_search (memo)"),
    ("brackets.jacobi_triples", "count", "lower", "as brackets.self_s"),
    ("brackets.closed_form_evals", "count", "lower", "as brackets.self_s"),
    ("ideals.self_s", "s", "lower",
     "wall_s on closure_search; no change on battery"),
    ("ideals.closure_calls", "count", "lower", "as ideals.self_s"),
    ("ideals.nodes_built", "count", "lower", "as ideals.self_s"),
    ("ideals.duplicate_node_share", "ratio", "lower", "as ideals.self_s"),
    ("ideals.useful_node_ratio", "ratio", "higher", "as ideals.self_s"),
    ("ideals.quotient_reduce_calls", "count", "lower", "as ideals.self_s"),
    ("linalg.self_s", "s", "lower", "as ideals.self_s"),
    ("linalg.rref_calls", "count", "lower", "as ideals.self_s"),
    ("linalg.rref_cells", "count", "lower", "as ideals.self_s"),
    ("linalg.reduce_calls", "count", "lower", "as ideals.self_s"),
    ("exact.sparse_adds", "count", "lower",
     "wall_s on all three workloads, most on closure_search"),
    ("exact.scales", "count", "lower", "as exact.sparse_adds"),
    ("grammar.self_s", "s", "lower", "wall_s on mutants"),
    ("grammar.render_calls", "count", "lower", "wall_s on mutants"),
    ("report.self_s", "s", "lower", "wall_s on mutants"),
    ("report.records", "count", "lower", "wall_s on mutants"),
    ("dmodules.self_s", "s", "lower", "wall_s on mutants"),
    ("dmodules.axiom_checks", "count", "lower", "wall_s on mutants"),
    ("cli.self_s", "s", "lower", "wall_s on mutants and battery"),
    ("trace.overhead_s", "s", "lower",
     "traced wall_s minus untraced wall_s; no end-to-end effect"),
    ("trace.named_share", "ratio", "higher",
     "share of traced wall time inside named layers other than cli; "
     "must stay >= 0.9"),
)

# Entry points that get a span, by defining module.
SPANS = {
    "cli": ("main",),
    "rb": ("check_rb_identity", "check_skew_symmetry", "remark3_suite",
           "verify_trace_functional_identities", "catalog_rb", "build_pk",
           "conjugate_by", "tensor_extend", "mutate_sign"),
    "brackets": ("check_anticommutativity", "check_jacobi", "check_leibniz",
                 "check_bracket_relations", "check_basis_independence",
                 "check_homomorphism", "catalog_bracket", "bracket_from_rb",
                 "rb_from_bracket"),
    "ideals": ("is_ideal", "ideal_closure", "simplicity_probe",
               "theorem3_replay", "quotient_bracket", "random_polynomials"),
    "dmodules": ("check_module_axioms", "rb_bimodule_split_check",
                 "proposition_equivalence", "extension_double_lie_check",
                 "induced_module_from_ideal", "mutate_action",
                 "trivial_extension_bracket", "check_submodule"),
    "linalg": ("rref",),
    "matrices": ("mul_mixed",),
    "grammar": ("render_sym", "render_vec", "render_tensor2", "render_poly",
                "parse_sym", "parse_poly", "parse_tensor2"),
}
LAYERS = ("cli", "rb", "brackets", "ideals", "dmodules", "linalg",
          "matrices", "grammar", "report")

_COUNTS = ("rb.image_calls", "rb.image_hits", "rb.apply_image_calls",
           "rb.apply_image_hits", "matrices.apply_index_calls",
           "matrices.operators_built", "brackets.eval_calls",
           "brackets.eval_hits", "brackets.jacobi_triples",
           "brackets.closed_form_evals", "ideals.closure_calls",
           "ideals.minimal_closures", "ideals.nodes_extended",
           "ideals.duplicate_nodes", "ideals.quotient_reduce_calls",
           "linalg.rref_cells", "linalg.reduce_calls", "exact.sparse_adds",
           "exact.scales", "report.records")


# Top-level modules whose references to patched functions are replaced.
NAMESPACES = ("doublelie", "workloads")


class Tracer:
    """Spans and counts of one traced run; install() and uninstall() bracket
    the traced passes."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = dict.fromkeys(_COUNTS, 0)
        self._stack = []
        self._node_keys = set()
        self._undo = []

    # ---- patching ---------------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and name.split(".")[0] in NAMESPACES]

    def _replace(self, orig, new):
        """Point every module-level reference to orig at new."""
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def _patch_method(self, cls, attr, make):
        orig = cls.__dict__[attr]
        setattr(cls, attr, make(orig))
        self._undo.append((cls, attr, orig))

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        c = self.counts
        modules = dict((m.__name__.split(".")[-1], m) for m in self._modules()
                       if m.__name__.startswith("doublelie."))
        hooks = {"ideal_closure": self._closure_done,
                 "rref": self._rref_done}
        for layer, names in SPANS.items():
            for name in names:
                fn = getattr(modules[layer], name)
                self._replace(fn, self._span("%s.%s" % (layer, name), fn,
                                             hooks.get(name)))
        self._patch_method(report.VerificationReport, "to_json",
                           lambda f: self._span("report.to_json", f))

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                c[key] += 1
                return fn(*args, **kwargs)
            wrapper.__name__ = fn.__name__
            return wrapper

        for mod, name, key in (
                (brackets, "jacobi_defect", "brackets.jacobi_triples"),
                (brackets, "divided_difference",
                 "brackets.closed_form_evals"),
                (ideals, "quotient_reduce", "ideals.quotient_reduce_calls"),
                (linalg, "reduce_vector", "linalg.reduce_calls")):
            fn = getattr(mod, name)
            self._replace(fn, counted(key, fn))
        for cls, attr, key in (
                (LocallyFiniteOperator, "apply_index",
                 "matrices.apply_index_calls"),
                (StridedRayOperator, "apply_index",
                 "matrices.apply_index_calls"),
                (LocallyFiniteOperator, "__init__",
                 "matrices.operators_built"),
                (StridedRayOperator, "__init__", "matrices.operators_built"),
                (exact._SparseMap, "__add__", "exact.sparse_adds"),
                (exact._SparseMap, "scale", "exact.scales"),
                (report.VerificationReport, "__init__", "report.records")):
            self._patch_method(cls, attr, lambda f, key=key: counted(key, f))

        def memo_counted(calls, hits, memo):
            """Count calls of a memoized method, and the calls whose
            argument tuple is already a key of the instance's memo."""
            def make(fn):
                def wrapper(obj, *args):
                    c[calls] += 1
                    if args in getattr(obj, memo):
                        c[hits] += 1
                    return fn(obj, *args)
                return wrapper
            return make

        self._patch_method(rb.RBOperator, "image", memo_counted(
            "rb.image_calls", "rb.image_hits", "_images"))
        self._patch_method(rb.RBOperator, "apply_image", memo_counted(
            "rb.apply_image_calls", "rb.apply_image_hits", "_applied"))
        self._patch_method(brackets.DoubleBracket, "eval", memo_counted(
            "brackets.eval_calls", "brackets.eval_hits", "_memo"))

        def extended(fn):
            def wrapper(subspace, vectors):
                node = fn(subspace, vectors)
                c["ideals.nodes_extended"] += 1
                key = node.key()
                if key in self._node_keys:
                    c["ideals.duplicate_nodes"] += 1
                self._node_keys.add(key)
                return node
            return wrapper

        self._patch_method(ideals.Subspace, "extended", extended)

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def _closure_done(self, args, result):
        self.counts["ideals.closure_calls"] += 1
        self.counts["ideals.minimal_closures"] += len(result[0])
        self._node_keys.clear()

    def _rref_done(self, args, result):
        rows = args[0]
        self.counts["linalg.rref_cells"] += len(rows) * (len(rows[0])
                                                        if rows else 0)

    # ---- results ----------------------------------------------------------

    def self_times(self, lo, hi):
        """Per-layer self time and the time covered by root spans, over the
        spans with index in [lo, hi).  The cli command's own time is left
        out of the covered time: cli.main wraps a whole battery pass, so
        only the layers below it show where the pass went."""
        child = [0.0] * (hi - lo)
        for rec in self.spans[lo:hi]:
            if rec[3] >= lo:
                child[rec[3] - lo] += rec[2] - rec[1]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        roots = 0.0
        for k, (name, start, end, parent) in enumerate(self.spans[lo:hi]):
            layer_self[name.split(".")[0]] += end - start - child[k]
            if parent < lo:
                roots += end - start
        return layer_self, roots - layer_self["cli"]

    def metrics(self, ranges, traced_walls, untraced_walls):
        """Per-layer metrics per traced pass (counts repeat exactly from
        pass to pass, self times are medians over the traced passes)."""
        passes = len(ranges)
        per_pass = [self.self_times(lo, hi) for lo, hi in ranges]
        c = {k: v / passes for k, v in self.counts.items()}
        names = [rec[0] for rec in self.spans]

        def span_count(pred):
            return sum(1 for n in names if pred(n)) / passes

        def ratio(num, den):
            return num / den if den else 0.0

        nodes = c["ideals.closure_calls"] + c["ideals.nodes_extended"]
        values = {
            "rb.image_calls": c["rb.image_calls"],
            "rb.image_hit_ratio": ratio(c["rb.image_hits"],
                                        c["rb.image_calls"]),
            "rb.apply_image_calls": c["rb.apply_image_calls"],
            "rb.apply_image_hit_ratio": ratio(c["rb.apply_image_hits"],
                                              c["rb.apply_image_calls"]),
            "matrices.apply_index_calls": c["matrices.apply_index_calls"],
            "matrices.operators_built": c["matrices.operators_built"],
            "matrices.products": span_count(
                lambda n: n == "matrices.mul_mixed"),
            "brackets.eval_calls": c["brackets.eval_calls"],
            "brackets.eval_hit_ratio": ratio(c["brackets.eval_hits"],
                                             c["brackets.eval_calls"]),
            "brackets.jacobi_triples": c["brackets.jacobi_triples"],
            "brackets.closed_form_evals": c["brackets.closed_form_evals"],
            "ideals.closure_calls": c["ideals.closure_calls"],
            "ideals.nodes_built": nodes,
            "ideals.duplicate_node_share": ratio(c["ideals.duplicate_nodes"],
                                                 nodes),
            "ideals.useful_node_ratio": ratio(c["ideals.minimal_closures"],
                                              nodes),
            "ideals.quotient_reduce_calls": c["ideals.quotient_reduce_calls"],
            "linalg.rref_calls": span_count(lambda n: n == "linalg.rref"),
            "linalg.rref_cells": c["linalg.rref_cells"],
            "linalg.reduce_calls": c["linalg.reduce_calls"],
            "exact.sparse_adds": c["exact.sparse_adds"],
            "exact.scales": c["exact.scales"],
            "grammar.render_calls": span_count(
                lambda n: n.startswith("grammar.render")),
            "report.records": c["report.records"],
            "dmodules.axiom_checks": span_count(
                lambda n: n == "dmodules.check_module_axioms"),
            "trace.overhead_s": statistics.median(traced_walls)
            - statistics.median(untraced_walls),
            "trace.named_share": statistics.median(
                roots / wall for (_, roots), wall in zip(per_pass,
                                                         traced_walls)),
        }
        for layer in LAYERS:
            values["%s.self_s" % layer] = statistics.median(
                s[layer] for s, _ in per_pass)
        return values

    def dump(self, path, env):
        with open(path, "w") as fh:
            json.dump({"env": env, "fields": ["name", "start", "end",
                                              "parent"],
                       "spans": self.spans, "counts": self.counts}, fh,
                      separators=(",", ":"))
