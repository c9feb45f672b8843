"""Spans around torslab's public entry points, wrapped from outside the package.

Each entry point is replaced by a wrapper on its module, or on its class for
a method, and on every torslab module that bound it by ``from .x import f``
(``reports`` binds about thirty such names, one of them under an alias).
Spans are kept in memory as (entry, start, end, parent, error, outcome) and
turned into per-layer metrics when the run ends.  A layer's self time is the
duration of its spans minus the part covered by their child spans.

Entry points called 10^5 to 10^6 times are counted but not timed, so that
their wrappers do not dominate what they measure; their time stays in the
self time of the span that called them.
"""

from __future__ import annotations

import importlib
import sys
import time

# (layer, entry point relative to the torslab package, kind, outcome)
#   kind "top":   the command and its suite; not a layer, excluded from coverage
#   kind "span":  timed
#   kind "count": counted only
#   outcome:      what the span keeps from the call, besides its times
ENTRY_POINTS = (
    ("top", "cli.main", "top", None),
    ("top", "reports.suite_numdis", "top", None),
    ("top", "reports.suite_semistable", "top", None),
    ("top", "reports.suite_scan", "top", None),
    ("reports", "reports.render_json", "span", "length"),
    ("reports", "reports._tbar_map_search", "span", None),
    ("reports", "reports._semibrick_spans", "span", None),
    ("catalogue", "catalogue.Catalogue.__init__", "span", "catalogue"),
    ("catalogue", "catalogue.Catalogue.submodule_families", "span", None),
    ("catalogue", "catalogue.Catalogue.subquot_pairs", "span", None),
    ("catalogue", "catalogue.Catalogue.find_index", "span", None),
    ("catalogue", "catalogue.Catalogue.signature", "span", None),
    ("catalogue", "catalogue.Catalogue.is_brick", "span", None),
    ("catalogue", "catalogue.Catalogue.bricks", "span", None),
    ("catalogue", "catalogue.Catalogue.semibricks", "span", "length"),
    ("catalogue", "catalogue.Catalogue.hom_basis", "count", None),
    ("torsion", "torsion.enumerate_torsion_classes", "span", "length"),
    ("torsion", "torsion.fac_closure", "span", None),
    ("torsion", "torsion.filt_closure", "span", None),
    ("torsion", "torsion.left_perp", "span", None),
    ("torsion", "torsion.right_perp", "span", None),
    ("torsion", "torsion.fac_single_witness", "span", None),
    ("torsion", "torsion.sub_single_witness", "span", None),
    ("torsion", "torsion.compact_witness", "span", None),
    ("torsion", "torsion.cocompact_witness", "span", None),
    ("torsion", "torsion.window_stable", "span", None),
    ("stability", "stability.quadruple", "span", None),
    ("stability", "stability.classes_in", "span", None),
    ("cones", "cones.cone_of_subcat", "span", None),
    ("cones", "cones.difference_cone", "span", None),
    ("cones", "cones.numerically_disjoint", "span", None),
    ("cones", "cones.intersect_trivially", "span", None),
    ("cones", "cones.is_strongly_convex", "span", None),
    ("cones", "cones.separating_functional", "span", "found"),
    ("cones", "cones.solve_program", "span", None),
    ("cones", "cones.dd_rays", "span", None),
    ("silting", "silting.enumerate_silting", "span", "vertices"),
    ("silting", "silting.mutate", "span", None),
    ("silting", "silting.rigidity", "span", None),
    ("silting", "silting.induced_torsion_pairs", "span", None),
    ("silting", "silting.direct_sum_complex", "span", None),
    ("presentations", "presentations.tbar_of_map", "span", None),
    ("presentations", "presentations.presentation_space", "span", None),
    ("presentations", "presentations.map_from_coeffs", "span", None),
    ("linalg", "linalg.rref", "count", None),
    ("algebra", "algebra.hom_space", "count", None),
)

LAYERS = ("catalogue", "torsion", "stability", "cones", "silting", "presentations", "reports")

OUTCOMES = {
    "length": lambda args, result: len(result),
    "catalogue": lambda args, result: len(args[0]),
    "found": lambda args, result: int(result is not None),
    "vertices": lambda args, result: len(result["vertices"]),
}

# Metric name -> (unit, kind, entry points).  Kinds: "self" sums self time,
# "incl" sums the spans not nested in another span of the same entry points,
# "calls" counts calls, "outcome" sums the spans' outcomes.
SPAN_METRICS = {
    "catalogue.sweep_s": ("s", "incl", ("catalogue.Catalogue.__init__",)),
    "catalogue.items": ("count", "outcome", ("catalogue.Catalogue.__init__",)),
    "catalogue.submodules_s": ("s", "self", ("catalogue.Catalogue.submodule_families", "catalogue.Catalogue.subquot_pairs")),
    "catalogue.lookup_s": ("s", "self", ("catalogue.Catalogue.find_index", "catalogue.Catalogue.signature")),
    "catalogue.bricks_s": ("s", "self", ("catalogue.Catalogue.is_brick", "catalogue.Catalogue.bricks", "catalogue.Catalogue.semibricks")),
    "catalogue.semibricks": ("count", "outcome", ("catalogue.Catalogue.semibricks",)),
    "torsion.census_s": ("s", "incl", ("torsion.enumerate_torsion_classes",)),
    "torsion.classes": ("count", "outcome", ("torsion.enumerate_torsion_classes",)),
    "torsion.fac_closure_s": ("s", "self", ("torsion.fac_closure",)),
    "torsion.fac_closure_calls": ("count", "calls", ("torsion.fac_closure",)),
    "torsion.filt_closure_s": ("s", "self", ("torsion.filt_closure",)),
    "torsion.filt_closure_calls": ("count", "calls", ("torsion.filt_closure",)),
    "torsion.perp_s": ("s", "self", ("torsion.left_perp", "torsion.right_perp")),
    "torsion.perp_calls": ("count", "calls", ("torsion.left_perp", "torsion.right_perp")),
    "torsion.witness_s": ("s", "incl", ("torsion.fac_single_witness", "torsion.sub_single_witness", "torsion.compact_witness", "torsion.cocompact_witness")),
    "torsion.ample_s": ("s", "incl", ("torsion.window_stable",)),
    "stability.quadruple_s": ("s", "self", ("stability.quadruple",)),
    "stability.quadruple_calls": ("count", "calls", ("stability.quadruple",)),
    "cones.simplex_s": ("s", "self", ("cones.solve_program",)),
    "cones.simplex_calls": ("count", "calls", ("cones.solve_program",)),
    "cones.dd_s": ("s", "self", ("cones.dd_rays",)),
    "cones.dd_calls": ("count", "calls", ("cones.dd_rays",)),
    "cones.separations": ("count", "calls", ("cones.separating_functional",)),
    "cones.separators_found": ("count", "outcome", ("cones.separating_functional",)),
    "silting.walk_s": ("s", "incl", ("silting.enumerate_silting",)),
    "silting.mutate_s": ("s", "self", ("silting.mutate",)),
    "silting.mutations": ("count", "calls", ("silting.mutate",)),
    "silting.vertices": ("count", "outcome", ("silting.enumerate_silting",)),
    "silting.rigidity_s": ("s", "self", ("silting.rigidity",)),
    "silting.rigidity_calls": ("count", "calls", ("silting.rigidity",)),
    "presentations.tbar_s": ("s", "incl", ("presentations.tbar_of_map",)),
    "presentations.tbar_calls": ("count", "calls", ("presentations.tbar_of_map",)),
    "reports.render_s": ("s", "self", ("reports.render_json",)),
    "reports.report_bytes": ("bytes", "outcome", ("reports.render_json",)),
}

# Metrics computed from several sources, with their units.
DERIVED_METRICS = {
    "catalogue.sweep_wasted_s": "s",
    "catalogue.sweep_yield": "1",
    "catalogue.hom_basis_calls": "count",
    "catalogue.hom_basis_hit_ratio": "1",
    "torsion.census_yield": "1",
    "linalg.rref_calls": "count",
    "algebra.hom_space_calls": "count",
    **{layer + ".self_s": "s" for layer in LAYERS},
    "trace.coverage": "1",
    "trace.overhead": "1",
}

UNITS = {name: spec[0] for name, spec in SPAN_METRICS.items()}
UNITS.update(DERIVED_METRICS)


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Install once in a fresh interpreter, run the command, then read metrics()."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.calls = {entry: 0 for _, entry, _, _ in ENTRY_POINTS}
        self.hom_keys = set()
        self.catalogues = []  # kept alive so that id() keys stay unique

    def install(self):
        """Wrap every entry point; raises AttributeError if one is missing."""
        package = importlib.import_module("torslab")
        modules = [m for name, m in sorted(sys.modules.items()) if m is package or name.startswith("torslab.")]
        for _, entry, kind, outcome in ENTRY_POINTS:
            modname, attr = entry.split(".", 1)
            module = importlib.import_module("torslab." + modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                setattr(owner, meth, self._wrap(entry, kind, outcome, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(entry, kind, outcome, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)

    def _wrap(self, entry, kind, outcome, original):
        calls = self.calls
        if entry == "catalogue.Catalogue.hom_basis":
            keys = self.hom_keys

            def counted_hom_basis(cat, i, j):
                calls[entry] += 1
                keys.add((id(cat), i, j))
                return original(cat, i, j)

            return counted_hom_basis
        if kind == "count":

            def counted(*args, **kwargs):
                calls[entry] += 1
                return original(*args, **kwargs)

            return counted
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        keep = OUTCOMES.get(outcome)
        catalogues = self.catalogues if entry == "catalogue.Catalogue.__init__" else None

        def timed(*args, **kwargs):
            calls[entry] += 1
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            error = None
            value = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                if keep is not None:
                    value = keep(args, result)
                if catalogues is not None:
                    catalogues.append(args[0])
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (entry, start, end, parent, error, value)

        return timed

    def metrics(self, wall_s):
        """Per-layer metrics of the finished run, by name, but trace.overhead."""
        spans = self.spans
        entries = [s[0] for s in spans]
        parents = [s[3] for s in spans]
        duration = [s[2] - s[1] for s in spans]
        self_time = list(duration)
        for k, parent in enumerate(parents):
            if parent >= 0:
                self_time[parent] -= duration[k]

        def under(k, group):
            """True when an ancestor of span k is one of the group's entry points."""
            parent = parents[k]
            while parent >= 0:
                if entries[parent] in group:
                    return True
                parent = parents[parent]
            return False

        out = {}
        for name, (_, kind, group) in SPAN_METRICS.items():
            group = set(group)
            picked = [k for k, e in enumerate(entries) if e in group]
            if kind == "self":
                out[name] = sum(self_time[k] for k in picked)
            elif kind == "incl":
                out[name] = sum(duration[k] for k in picked if not under(k, group))
            elif kind == "calls":
                out[name] = sum(self.calls[e] for e in group)
            else:
                out[name] = sum(spans[k][5] or 0 for k in picked)
        sweeps = {"catalogue.Catalogue.__init__"}
        out["catalogue.sweep_wasted_s"] = sum(
            duration[k] for k, s in enumerate(spans)
            if s[0] in sweeps and s[4] == "BudgetError" and not under(k, sweeps)
        )
        out["catalogue.sweep_yield"] = _ratio(
            out["catalogue.sweep_s"] - out["catalogue.sweep_wasted_s"], out["catalogue.sweep_s"]
        )
        hom_calls = self.calls["catalogue.Catalogue.hom_basis"]
        out["catalogue.hom_basis_calls"] = hom_calls
        out["catalogue.hom_basis_hit_ratio"] = _ratio(hom_calls - len(self.hom_keys), hom_calls)
        census = {"torsion.enumerate_torsion_classes"}
        swept = sum(
            s[5] for k, s in enumerate(spans)
            if s[0] == "catalogue.Catalogue.semibricks" and s[5] is not None and under(k, census)
        )
        out["torsion.census_yield"] = _ratio(out["torsion.classes"], swept)
        out["linalg.rref_calls"] = self.calls["linalg.rref"]
        out["algebra.hom_space_calls"] = self.calls["algebra.hom_space"]
        layer_of = {entry: layer for layer, entry, _, _ in ENTRY_POINTS}
        for layer in LAYERS:
            out[layer + ".self_s"] = 0.0
        for k, entry in enumerate(entries):
            layer = layer_of[entry]
            if layer != "top":
                out[layer + ".self_s"] += self_time[k]
        out["trace.coverage"] = _ratio(sum(out[layer + ".self_s"] for layer in LAYERS), wall_s)
        return out
