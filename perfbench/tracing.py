"""Spans and counts at the package's layer boundaries, for the traced run.

:func:`install` wraps public functions of ``bottcoh`` at every name a
module of the package looks them up by (the package namespace included,
which is where the workloads look up their entry points).  Nothing is
installed unless the run asks for a trace.

A span is recorded per call.  Its self time is its duration minus the
spans of wrapped functions it called.  ``CohomologyClass.__mul__`` is the
one exception: it is timed and counted flat, not as a span, because it is
the arithmetic every layer does itself, so it is never subtracted from a
caller's self time.  Products formed by calling ``BottRing._raw_mul``
directly (the scan expansion, ring construction) are not seen.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, defining module, function name)
SPANS = [
    ("classify.classify_3stage", "bottcoh.classify", "classify_3stage"),
    ("search.iso_search", "bottcoh.search", "iso_search"),
    ("linalg.minors_gcd", "bottcoh.linalg", "minors_gcd"),
    ("ring.build_ring", "bottcoh.ring", "build_ring"),
    ("ring.verify_map", "bottcoh.ring", "verify_map"),
    ("ring.image_of_terms", "bottcoh.ring", "image_of_terms"),
    ("charclasses.tangent_chern", "bottcoh.charclasses", "tangent_chern"),
    ("charclasses.tangent_pontrjagin", "bottcoh.charclasses", "tangent_pontrjagin"),
    ("charclasses.wu_classes", "bottcoh.charclasses", "wu_classes"),
    ("charclasses.steenrod_square", "bottcoh.charclasses", "steenrod_square"),
    ("linalg.solve_mod", "bottcoh.linalg", "solve_mod"),
]
MUL = ("ring.mul", "bottcoh.ring", "CohomologyClass")

# per-layer metric -> (unit, what it reads, boundary it needs); it reads the
# boundary's inclusive time ("ref"), its self time ("self_ref"), its number
# of calls ("calls"), or the named counter
METRICS = {
    "classify.self_ref": ("ref", "self_ref", "classify.classify_3stage"),
    "classify.by_p1": ("count", "classify.by_p1", "classify.classify_3stage"),
    "classify.by_mod2": ("count", "classify.by_mod2", "classify.classify_3stage"),
    "classify.by_mod4": ("count", "classify.by_mod4", "classify.classify_3stage"),
    "classify.by_search": ("count", "classify.by_search", "classify.classify_3stage"),
    "search.iso_search.calls": ("count", "calls", "search.iso_search"),
    "search.iso_search.self_ref": ("ref", "self_ref", "search.iso_search"),
    "search.dfs_rows": ("count", "search.dfs_rows", "linalg.minors_gcd"),
    "search.dfs_prunes": ("count", "search.dfs_prunes", "linalg.minors_gcd"),
    "search.prune_ratio": ("ratio", "search.prune_ratio", "linalg.minors_gcd"),
    "search.witnesses": ("count", "search.witnesses", "search.iso_search"),
    "linalg.minors_gcd.ref": ("ref", "ref", "linalg.minors_gcd"),
    "ring.build_ring.calls": ("count", "calls", "ring.build_ring"),
    "ring.build_ring.ref": ("ref", "ref", "ring.build_ring"),
    "ring.mul.calls": ("count", "calls", "ring.mul"),
    "ring.mul.ref": ("ref", "ref", "ring.mul"),
    "ring.verify_map.ref": ("ref", "ref", "ring.verify_map"),
    "ring.image_of_terms.ref": ("ref", "ref", "ring.image_of_terms"),
    "charclasses.tangent_chern.ref": ("ref", "ref", "charclasses.tangent_chern"),
    "charclasses.tangent_pontrjagin.ref": ("ref", "ref", "charclasses.tangent_pontrjagin"),
    "charclasses.wu_classes.calls": ("count", "calls", "charclasses.wu_classes"),
    "charclasses.wu_classes.self_ref": ("ref", "self_ref", "charclasses.wu_classes"),
    "charclasses.steenrod_square.calls": ("count", "calls", "charclasses.steenrod_square"),
    "charclasses.steenrod_square.ref": ("ref", "ref", "charclasses.steenrod_square"),
    "linalg.solve_mod.calls": ("count", "calls", "linalg.solve_mod"),
    "linalg.solve_mod.ref": ("ref", "ref", "linalg.solve_mod"),
}

VERDICT_COUNTER = {
    "p1_content": "classify.by_p1",
    "square_zero_count_mod2": "classify.by_mod2",
    "square_zero_count_mod4": "classify.by_mod4",
}


class Tracer:
    """In-memory spans and per-boundary totals (seconds) and counts."""

    MAX_SPANS = 50_000  # spans kept for the trace file; totals count every call

    def __init__(self):
        self.seconds = defaultdict(float)  # inclusive time per boundary
        self.self_seconds = defaultdict(float)
        self.counts = Counter()
        self.spans: list = []  # (id, parent id, name, item, start, duration)
        self.keep_spans = True
        self.item = None
        self._stack: list = []  # [span id, name, child seconds]
        self._next_id = 0
        self._patched: list = []
        self.missing: set = set()

    # -- recording -----------------------------------------------------------

    def span(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [self._next_id, name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.seconds[name] += dt
                self.self_seconds[name] += dt - frame[2]
                self.counts[name] += 1
                if parent is not None:
                    parent[2] += dt
                if self.keep_spans and len(self.spans) < self.MAX_SPANS:
                    self.spans.append((frame[0], parent[0] if parent else None,
                                       name, self.item, t0, dt))
            if observe is not None:
                observe(result, parent[1] if parent else None)
            return result

        return wrapper

    def flat(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += perf_counter() - t0
                self.counts[name] += 1

        return wrapper

    def _on_verdict(self, verdict, _parent):
        if verdict.kind == "DISTINCT" and verdict.invariant is not None:
            self.counts[VERDICT_COUNTER.get(verdict.invariant[0], "classify.by_other")] += 1
        else:
            self.counts["classify.by_search"] += 1

    def _on_witness(self, witness, _parent):
        if witness is not None:
            self.counts["search.witnesses"] += 1

    def _on_minors(self, g, parent):
        if parent == "search.iso_search":
            self.counts["search.dfs_rows"] += 1
            if g != 1:
                self.counts["search.dfs_prunes"] += 1

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every boundary; a boundary that cannot be found is recorded
        in ``missing``."""
        observers = {
            "classify.classify_3stage": self._on_verdict,
            "search.iso_search": self._on_witness,
            "linalg.minors_gcd": self._on_minors,
        }
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "bottcoh" or key.startswith("bottcoh.")]
        for name, modname, attr in SPANS:
            try:
                original = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            wrapper = self.span(name, original, observers.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, wrapper)
        name, modname, clsname = MUL
        try:
            cls = getattr(importlib.import_module(modname), clsname)
            original = cls.__dict__["__mul__"]
        except (ImportError, AttributeError, KeyError):
            self.missing.add(name)
        else:
            self._patched.append((cls, "__mul__", original))
            setattr(cls, "__mul__", self.flat(name, original))

    def uninstall(self):
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    # -- reporting -----------------------------------------------------------

    def snapshot(self):
        return dict(self.seconds), dict(self.self_seconds), Counter(self.counts)

    def round_metrics(self, before, ref_seconds):
        """Per-layer metrics of the work done since ``before``, times in ref."""
        seconds, self_seconds, counts = self.snapshot()
        s0, ss0, c0 = before
        out = {}
        for name, (_, reads, boundary) in METRICS.items():
            if reads == "ref":
                out[name] = (seconds.get(boundary, 0.0) - s0.get(boundary, 0.0)) / ref_seconds
            elif reads == "self_ref":
                out[name] = (self_seconds.get(boundary, 0.0)
                             - ss0.get(boundary, 0.0)) / ref_seconds
            elif reads == "calls":
                out[name] = counts[boundary] - c0[boundary]
            else:
                out[name] = counts[reads] - c0[reads]
        rows = out["search.dfs_rows"]
        out["search.prune_ratio"] = out["search.dfs_prunes"] / rows if rows else 0.0
        return out

    def span_records(self):
        return [
            {"id": sid, "parent": parent, "name": name, "item": item,
             "start_s": start, "duration_s": dur}
            for sid, parent, name, item, start, dur in self.spans
        ]
