"""Spans around the calls into each crossfam module, for the traced run only.

Every listed public function is replaced, at every module attribute that
holds it (``crossfam.search.has_matching_of_size`` and
``crossfam.acceptance.has_matching_of_size`` alike), by a wrapper that times
the call.  A layer is a module; its self time is the time inside its
functions minus the time inside the traced calls they make.  A function's
first SPAN_LIMIT calls are kept as spans (id, parent id, name, start, end);
later calls of that function are aggregated under their parent span, so
kernels called 10^5 times cost a counter, not a record.
"""

from __future__ import annotations

import functools
import json
import sys
import time

SPAN_LIMIT = 10_000


def _count(name: str, value):
    def after(args, kwargs, result, seconds, counters):
        counters[name] = counters.get(name, 0) + value(args, result)
    return after


def _per_objective(args, kwargs, result, seconds, counters):
    name = f"search.maximize.{args[0].objective.removeprefix('max_')}_s"
    counters[name] = counters.get(name, 0.0) + seconds
    counters["search.nodes"] = counters.get("search.nodes", 0) + result.nodes_explored


# module -> {group: (functions, "incl" or "self", hook or None)}; a group's
# "<group>_s" is the time inside its functions, outermost calls only ("incl"),
# or that time less the traced calls they make ("self")
GROUPS = {
    "cli": {"cli.main": (["main"], "incl", None)},
    "acceptance": {"acceptance.run": (["run_all", "run_criterion"], "incl", None)},
    "formulas": {
        "formulas.eval": (["eval_formula"], "incl", None),
        "formulas.ineq": (["check_inequality"], "incl", None),
        "formulas.grid": (["inequality_grid"], "incl", None),
        "formulas.monotone": (["f_monotone_check"], "incl", None),
    },
    "transversals": {
        "transversals.matching": (["has_matching_of_size", "matching_number"], "incl", None),
        "transversals.covering": (["covering_number"], "incl", None),
        "transversals.saturate": (["saturate_pair", "saturate_t"], "incl", None),
        "transversals.basis": (["basis_pair", "basis_t"], "incl", None),
        "transversals.layer_context": (["layer_context"], "incl", None),
        "transversals.transversal": (["transversal_family", "minimal_sets", "upward_closure",
                                      "partition_by_basis"], "incl", None),
    },
    "search": {
        "search.maximize": (["maximize"], "incl", _per_objective),
        "search.randomized_check": (["randomized_check"], "incl",
                                    _count("search.randomized_trials", lambda a, r: r.trials)),
        "search.sample": (["sample_saturated_pair", "sample_saturated_pair_bits",
                           "sample_saturated_t_family", "sample_family_bits",
                           "sample_antichain"], "incl", None),
        "search.brute_count": (["brute_count"], "incl", None),
        "search.saturated_pairs": (["all_saturated_pairs"], "incl", None),
        "search.cliques": (["maximal_t_intersecting_families"], "incl", None),
        "search.corank1": (["realized_corank1_layer"], "incl", None),
        "search.canonical": (["canonical_family_key", "are_isomorphic"], "incl", None),
    },
    "branching": {
        "branching.run": (["run_branching_cross", "run_branching_t"], "self",
                          _count("branching.survivors", lambda a, r: len(r.survivors))),
        "branching.level": (["smallest_branching_level"], "incl", None),
        "branching.window": (["verify_window_closure"], "incl", None),
    },
    "families": {
        "families.parse": (["families_from_text", "family_from_text"], "incl",
                           _count("families.parse_bytes", lambda a, r: len(a[0]))),
        "families.format": (["families_to_text", "family_to_text"], "incl", None),
        "families.ops": (["wedge", "distinct_intersections", "common_members",
                          "is_cross_intersecting", "is_t_intersecting", "is_antichain",
                          "is_cross_sperner", "shade", "link_and_delete", "full_layer"],
                         "incl", None),
    },
    "constructions": {
        "constructions.build": (["star", "four_star_pair", "window_family", "triangle_family",
                                 "four_core_pair", "top_layer_antichain",
                                 "split_cross_sperner_pair", "construct",
                                 "verify_construction"], "incl", None),
    },
}


class Tracer:
    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.stack = [[0, 0.0]]  # [span id, seconds inside traced children]
        self.spans: list = [None]  # span 0 is the whole pass
        self.aggregated: dict = {}  # (parent span id, function) -> [calls, seconds]
        self.functions: dict = {}  # function -> [calls, self seconds]
        self.groups: dict = {}  # group -> [calls, incl seconds, self seconds, depth, mode]
        self.layers: dict = {}  # module -> [incl seconds, self seconds, depth]
        self.counters: dict = {}

    def install(self) -> None:
        """Wrap every listed function wherever a crossfam module refers to it."""
        wrappers = {}
        for module, groups in GROUPS.items():
            mod = sys.modules[f"crossfam.{module}"]
            for group, (names, mode, hook) in groups.items():
                for name in names:
                    fn = getattr(mod, name)
                    wrappers[id(fn)] = (fn, self._wrap(f"{module}.{name}", module, group,
                                                       mode, fn, hook))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "crossfam" and not mod_name.startswith("crossfam."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def _wrap(self, qual, layer, group, mode, fn, hook):
        clock = time.perf_counter
        stack, spans, aggregated = self.stack, self.spans, self.aggregated
        fstat = self.functions.setdefault(qual, [0, 0.0])
        gstat = self.groups.setdefault(group, [0, 0.0, 0.0, 0, mode])
        lstat = self.layers.setdefault(layer, [0.0, 0.0, 0])
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            fstat[0] += 1
            sid = None
            if fstat[0] <= SPAN_LIMIT:
                sid = len(spans)
                spans.append(None)
            frame = [parent[0] if sid is None else sid, 0.0]
            stack.append(frame)
            gstat[3] += 1
            lstat[2] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                gstat[3] -= 1
                lstat[2] -= 1
                seconds = t1 - t0
                own = seconds - frame[1]
                parent[1] += seconds
                fstat[1] += own
                gstat[0] += 1
                gstat[2] += own
                lstat[1] += own
                if not gstat[3]:
                    gstat[1] += seconds
                if not lstat[2]:
                    lstat[0] += seconds
                if sid is not None:
                    spans[sid] = (sid, parent[0], qual, t0 - self.start, t1 - self.start)
                else:
                    agg = aggregated.get((parent[0], qual))
                    if agg is None:
                        aggregated[(parent[0], qual)] = [1, seconds]
                    else:
                        agg[0] += 1
                        agg[1] += seconds
            if hook is not None:
                hook(args, kwargs, result, seconds, counters)
            return result

        return traced

    def metrics(self) -> dict:
        """Flat per-layer numbers: "<module>.self_s", "<module>.s", "<group>_calls",
        "<group>_s" and the counters the hooks keep."""
        out = {}
        for layer, (incl, own, _) in self.layers.items():
            out[f"{layer}.s"] = incl
            out[f"{layer}.self_s"] = own
        for group, (calls, incl, own, _, mode) in self.groups.items():
            out[f"{group}_calls"] = calls
            out[f"{group}_s"] = incl if mode == "incl" else own
        out.update(self.counters)
        out["trace.calls"] = sum(calls for calls, _ in self.functions.values())
        return out

    def write(self, path: str) -> None:
        self.spans[0] = (0, None, "pass", 0.0, time.perf_counter() - self.start)
        doc = {
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
            "aggregated": [{"parent": p, "name": q, "calls": c, "seconds": s}
                           for (p, q), (c, s) in sorted(self.aggregated.items())],
            "functions": {q: {"calls": c, "self_s": s}
                          for q, (c, s) in sorted(self.functions.items())},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
