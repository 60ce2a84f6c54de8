"""Per-layer timing of partspread, taken from outside the package.

``Tracer.install`` wraps the public functions of each module and rebinds
every name that refers to them, in every ``partspread`` module that imported
them, so calls made through ``from .spread import is_r_spread`` are seen as
well.  ``ExactPow`` comparisons and ``Record.make`` are wrapped on their
classes and the entries of ``extremal.PREDICATES`` are replaced in the dict.

Each wrapped call is a span.  A layer's time is self time: the span's
duration minus the time of the spans opened inside it, so nested layers are
never counted twice.  Counters come from the arguments and return values of
the wrapped calls.  The time spent computing those counters is charged to no
layer; it shows up only in the tracing overhead.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from partspread import approx, bounds, cli, encoding, exact, extremal, partitions, report
from partspread import setfam, spread, verify

# layer time metric -> functions whose self time it sums, as (owner, name)
LAYERS = {
    "partitions.enum_s": [(partitions, n) for n in (
        "enumerate_partitions", "enumerate_into_blocks", "enumerate_profiled",
        "count_derangements")],
    "partitions.pred_s": [(partitions, "t_intersect"), (partitions, "partially_t_intersect")],
    "encoding.encode_s": [(encoding, n) for n in (
        "encode_parts", "encode_edges", "encode_family_parts", "encode_family_edges",
        "count_extensions")],
    "setfam.op_s": [(setfam, n) for n in (
        "restrict", "avoid", "stars", "star_count", "covering_number")],
    "spread.scan_s": [(spread, n) for n in (
        "spread_factor", "is_r_spread", "weak_spread", "find_spread_subfamily")],
    "spread.violator_s": [(spread, "find_max_violating")],
    "exact.cmp_s": [(exact.ExactPow, "__lt__"), (exact.ExactPow, "__eq__")],
    "approx.peel_s": [(approx, "spread_approximate")],
    "approx.verify_s": [(approx, "verify_approx")],
    "approx.reduce_s": [(approx, "reduction_sequence"), (approx, "minimize_t_intersecting")],
    "approx.dominance_s": [(approx, "check_dominance")],
    "extremal.oracle_s": [(extremal, n) for n in (
        "max_compatible_family", "check_conjecture_instance", "run_catalog")],
    "extremal.canonical_s": [(extremal, "canonical_family")],
    "bounds.enclosure_s": [(bounds, n) for n in (
        "ln_enclosure", "ln2_enclosure", "log2_enclosure", "e_enclosure")],
    "bounds.log2_decide_s": [(bounds, "exceeds_log2"), (bounds, "at_least_log2")],
    "verify.check_s": [(verify, n) for n in (
        "check_bell_ratio", "check_dobinski", "check_no_singleton_bound",
        "check_stirling_growth", "check_encoded_spreadness", "check_nonintersect_count")],
    "verify.mc_s": [(verify, "check_random_containment")],
    "report.format_s": [(report, "records_to_text"), (report, "records_to_table")],
    "cli.load_s": [(cli, "load_family"), (cli, "load_subfamily")],
    # self time of the command outside every layer above: parsing, dispatch,
    # building records in the handlers and writing the report
    "cli.other_s": [(cli, "main")],
}

# call counters: function name -> counter metric
CALLS = {
    "t_intersect": "partitions.pred_calls",
    "partially_t_intersect": "partitions.pred_calls",
    "encode_parts": "encoding.members",
    "encode_edges": "encoding.members",
    "restrict": "setfam.op_calls",
    "avoid": "setfam.op_calls",
    "stars": "setfam.op_calls",
    "star_count": "setfam.op_calls",
    "covering_number": "setfam.op_calls",
    "spread_factor": "spread.scan_calls",
    "is_r_spread": "spread.scan_calls",
    "weak_spread": "spread.scan_calls",
    "find_spread_subfamily": "spread.scan_calls",
    "find_max_violating": "spread.violator_calls",
    "__lt__": "exact.cmp_calls",
    "__eq__": "exact.cmp_calls",
    "ln_enclosure": "bounds.enclosure_calls",
    "ln2_enclosure": "bounds.enclosure_calls",
    "log2_enclosure": "bounds.enclosure_calls",
    "e_enclosure": "bounds.enclosure_calls",
    "exceeds_log2": "bounds.log2_decide_calls",
    "at_least_log2": "bounds.log2_decide_calls",
    "make": "report.records",
}

COUNTERS = sorted(set(CALLS.values()) | {
    "partitions.built", "spread.candidates", "spread.scanned", "approx.peel_steps",
    "extremal.nodes", "extremal.max_cliques", "verify.mc_trials", "report.bytes", "bounds.cache_hits", "bounds.cache_misses",
})


def _candidates(args, kwargs) -> int:
    fam = args[0] if args else next(iter(kwargs.values()))
    return sum(2 ** m.bit_count() for m in fam.masks)


# function name -> counters fed from its return value, as (counter, extract)
RESULTS = {
    "enumerate_profiled": [("partitions.built", len)],
    "spread_factor": [("spread.scanned", lambda rep: rep.scanned)],
    "spread_approximate": [("approx.peel_steps", lambda res: len(res.trace))],
    "max_compatible_family": [
        ("extremal.nodes", lambda res: res.nodes),
        ("extremal.max_cliques", lambda res: len(res.all_maximum or ())),
    ],
    "check_random_containment": [("verify.mc_trials", lambda rep: rep.params["trials"])],
    "records_to_text": [("report.bytes", len)],
    "records_to_table": [("report.bytes", len)],
}

# function name -> counter fed from its arguments: candidate sets of the family scanned
ARGS = {name: ("spread.candidates", _candidates) for name in (
    "spread_factor", "is_r_spread", "weak_spread", "find_spread_subfamily")}


class Tracer:
    def __init__(self):
        self.time: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        # child-span time of each open span; the bottom entry is the top level
        self._child = [0.0]
        self._caches = []

    def span(self, fn, layer, name):
        """Wrap fn so each call adds its self time to `layer`."""
        calls = CALLS.get(name)
        on_result = RESULTS.get(name, ())
        on_args = ARGS.get(name)
        count, own, child = self.count, self.time, self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_args is not None:
                t = clock()
                count[on_args[0]] += on_args[1](args, kwargs)
                child[-1] += clock() - t
            start = clock()
            child.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own[layer] += elapsed - child.pop()
                child[-1] += elapsed
            if calls is not None:
                count[calls] += 1
            if on_result:
                t = clock()
                for counter, extract in on_result:
                    count[counter] += extract(result)
                child[-1] += clock() - t
            return result

        return wrapper

    def generator_span(self, fn, layer, counter):
        """Wrap a generator function: each next() is a span, each item counts."""
        count = self.count
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            step = tracer.span(fn(*args, **kwargs).__next__, layer, None)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                count[counter] += 1
                yield item

        return wrapper

    def install(self) -> None:
        wrapped = {}
        for layer, targets in LAYERS.items():
            for owner, name in targets:
                fn = owner.__dict__[name]
                if hasattr(fn, "cache_info"):
                    self._caches.append(fn)
                wrapped[fn] = self.span(fn, layer, name)
                if isinstance(owner, type):
                    setattr(owner, name, wrapped[fn])
        original = partitions.iter_partitions
        wrapped[original] = self.generator_span(original, "partitions.enum_s", "partitions.built")
        # Record.make is a classmethod: wrap the function underneath
        make = report.Record.__dict__["make"].__func__
        report.Record.make = classmethod(self.span(make, "report.format_s", "make"))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "partspread" or mod_name.startswith("partspread.")):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
        for key, fn in list(extremal.PREDICATES.items()):
            extremal.PREDICATES[key] = wrapped[fn]

    def summary(self, wall_s: float) -> dict[str, float]:
        """Layer times and counters of this process, plus the traced wall time."""
        for fn in self._caches:
            info = fn.cache_info()
            self.count["bounds.cache_hits"] += info.hits
            self.count["bounds.cache_misses"] += info.misses
        out = {layer: self.time.get(layer, 0.0) for layer in LAYERS}
        out.update({name: self.count.get(name, 0) for name in COUNTERS})
        out["trace.wall_s"] = wall_s
        return out
