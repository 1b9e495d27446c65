"""Span tracer for the benchmark's traced runs (--trace 1).

run.py imports this module only for a traced run. install() replaces public
functions and methods of borcherdskit, and the emit/parse helpers of
workloads.py, by wrappers that record one span per call (name, start, end,
parent span) and the count metrics of that call; uninstall() puts the
originals back. Spans stay in memory, one list per pass, until dump().

A layer's time metric is the self time of its spans: their duration minus
the part covered by child spans. The program is single-threaded, so there is
no waiting time to report.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from borcherdskit import lattice, lift, series

# span name -> time metric (self seconds per pass)
TIME_METRICS = {
    "lattice.coset_minima": "lattice.coset_minima_s",
    "lattice.discriminant_group": "lattice.discriminant_group_s",
    "lattice.enumerate_coset": "lattice.enumerate_coset_s",
    "series.mul": "series.mul_s",
    "series.phi04": "series.phi04_s",
    "series.theta_routes": "series.theta_routes_s",
    "series.direct_product": "series.direct_product_s",
    "series.theta_decompose": "series.theta_decompose_s",
    "series.recompose": "series.recompose_s",
    "lift.direct": "lift.direct_s",
    "lift.log_exp": "lift.log_exp_s",
    "lift.weyl": "lift.weyl_s",
    "io.emit": "io.emit_s",
    "io.parse": "io.parse_s",
}

# reported count metrics; direct_product_terms_out only feeds a ratio
COUNT_METRICS = (
    "lattice.coset_minima_calls", "lattice.cosets_listed",
    "lattice.enumerate_coset_calls", "lattice.vectors_enumerated",
    "series.mul_calls", "series.mul_pairs", "series.mul_terms_out",
    "series.direct_product_pairs",
    "series.components_nonzero", "series.components_total",
    "lift.monomials_out", "io.bytes_out", "io.bytes_in",
)

# ratio metric -> (numerator, denominator); 0 when the denominator is 0
RATIO_METRICS = {
    "lattice.cosets_used_ratio": ("series.components_nonzero", "lattice.cosets_listed"),
    "series.mul_keep_ratio": ("series.mul_terms_out", "series.mul_pairs"),
    "series.direct_product_keep_ratio": ("series.direct_product_terms_out",
                                         "series.direct_product_pairs"),
    "lift.route_ratio": ("lift.direct_s", "lift.log_exp_s"),
}


def self_times(spans) -> dict[str, float]:
    """Self time summed per span name. spans is a list of
    (name, start, end, parent index or -1)."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _), child in zip(spans, covered):
        out[name] += end - start - child
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.passes: list[list] = []
        self._stack: list[int] = []
        self._saved: list = []
        # lattices whose cosets were counted this pass, by id; holding them
        # keeps the ids unique
        self._listed: dict[int, object] = {}

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
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
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, name, count=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def install(self, workloads) -> None:
        c = self.counts

        def minima(args, result):
            c["lattice.coset_minima_calls"] += 1

        def disc(args, result):
            lat = args[0]
            if id(lat) not in self._listed:
                self._listed[id(lat)] = lat
                c["lattice.cosets_listed"] += len(result.representatives)

        def coset(args, result):
            c["lattice.enumerate_coset_calls"] += 1
            c["lattice.vectors_enumerated"] += len(result)

        def mul(args, result):
            if result is NotImplemented:
                return
            a, b = args
            c["series.mul_calls"] += 1
            c["series.mul_pairs"] += len(a.coeffs) * (
                len(b.coeffs) if isinstance(b, series.JacobiSeries) else 1)
            c["series.mul_terms_out"] += len(result.coeffs)

        def product(args, result):
            c["series.direct_product_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)
            c["series.direct_product_terms_out"] += len(result.coeffs)

        def decompose(args, result):
            c["series.components_total"] += len(result.components)
            c["series.components_nonzero"] += sum(1 for fg in result.components.values() if fg)

        def monomials(args, result):
            c["lift.monomials_out"] += len(result.coeffs)

        # canonical JSON is ASCII, so characters are bytes
        def emitted(args, result):
            c["io.bytes_out"] += len(result)

        def parsed(args, result):
            c["io.bytes_in"] += len(args[1])

        lat = lattice.EvenLattice
        self._patch(lat, "coset_minima", "lattice.coset_minima", minima)
        self._patch(lat, "discriminant_group", "lattice.discriminant_group", disc)
        self._patch(lat, "enumerate_coset", "lattice.enumerate_coset", coset)
        self._patch(series.JacobiSeries, "__mul__", "series.mul", mul)
        self._patch(series, "phi04", "series.phi04")
        self._patch(series, "theta_sum", "series.theta_routes")
        self._patch(series, "theta_triple_product", "series.theta_routes")
        self._patch(series, "direct_product", "series.direct_product", product)
        self._patch(series, "theta_decompose", "series.theta_decompose", decompose)
        self._patch(series, "recompose", "series.recompose")
        self._patch(lift, "lift_expansion", "lift.direct", monomials)
        self._patch(lift, "lift_expansion_log_exp", "lift.log_exp")
        self._patch(lift, "weyl_vector", "lift.weyl")
        self._patch(workloads, "emit", "io.emit", emitted)
        self._patch(workloads, "parse", "io.parse", parsed)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- passes ----------------------------------------------------------------

    def begin_pass(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._listed.clear()

    def end_pass(self, scale: float = 1.0) -> dict[str, float]:
        """Metrics of the pass just run, times multiplied by scale; keeps its
        spans for dump()."""
        self.passes.append(list(self.spans))
        metrics: dict[str, float] = {m: 0.0 for m in TIME_METRICS.values()}
        for name, seconds in self_times(self.spans).items():
            if name in TIME_METRICS:
                metrics[TIME_METRICS[name]] += seconds * scale
        for name in COUNT_METRICS:
            metrics[name] = self.counts.get(name, 0)
        for name, (num, den) in RATIO_METRICS.items():
            top = metrics[num] if num in metrics else self.counts.get(num, 0)
            bottom = metrics[den]
            metrics[name] = top / bottom if bottom else 0.0
        self._listed.clear()
        return metrics

    def dump(self, path) -> None:
        """Write every recorded span, times relative to the first one."""
        origin = min((s[1] for spans in self.passes for s in spans), default=0.0)
        doc = {"fields": ["name", "start_s", "end_s", "parent"],
               "passes": [[[n, s - origin, e - origin, p] for n, s, e, p in spans]
                          for spans in self.passes]}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
