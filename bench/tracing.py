"""Span tracing of the library's public functions, from outside.

Tracer.installed() replaces each function or method named in SPANS by a
wrapper that records a span: its name, duration, and the nearest
enclosing traced span (its parent). Spans are aggregated in memory per
name (calls, total seconds, self seconds = duration minus the time of
child spans) and per parent -> child edge; nothing inside the library
is edited, and leaving the context restores every original.

A module-level function is replaced in every skewlie module that holds
it, because callers import names directly (lie.bracket calls its own
imported commutator). Hot scalar constructors are only counted, by
count_constructors(), in a separate pass: a timing wrapper around them
would inflate every span above.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

from skewlie import (
    lie,
    linsolve,
    localder,
    matrices,
    reporting,
    rings,
    symcheck,
    twolocal,
)

# (owner, attribute path, span name); owner is a module, the path may
# name a method as Class.method
SPANS = (
    (matrices, "commutator", "matrices.commutator"),
    (matrices, "Matrix.cache_key", "matrices.cache_key"),
    (lie, "LinearLieMap.apply", "lie.apply"),
    (lie, "decompose", "lie.decompose"),
    (linsolve, "ReducedSystem.append", "linsolve.reduce"),
    (linsolve, "ReducedSystem.solve", "linsolve.solve"),
    (linsolve, "ReducedSystem.express", "linsolve.express"),
    (twolocal, "GaugedInnerTwoLocal.query", "twolocal.query"),
    (twolocal, "reconstruct_implementer", "twolocal.reconstruct"),
    (twolocal, "verify_implementer", "twolocal.verify"),
    (twolocal, "brute_force_implementer", "twolocal.brute"),
    (twolocal, "PreparedBracketSolver.__init__", "twolocal.solver_build"),
    (localder, "GaugedInnerLocal.query", "localder.query"),
    (localder, "WitnessedLocalMap.__init__", "localder.tabulate"),
    (localder, "WitnessedLocalMap.witness", "localder.witness"),
    (localder, "build_d", "localder.build_d"),
    (localder, "verify_full", "localder.verify_full"),
    (localder, "check_eq_5_1", "localder.eq_5_1"),
    (localder, "brute_force_local", "localder.brute"),
    (symcheck, "certify_lemma", "symcheck.certify_lemma"),
    (symcheck, "certify", "symcheck.certify"),
    (reporting, "VerificationReport.add", "reporting.add"),
    (reporting, "VerificationReport.to_json", "reporting.to_json"),
)

CONSTRUCTORS = (
    (rings.GaussianRational, "gauss_normalize_calls"),
    (rings.FunctionElement, "function_element_new"),
    (rings.PolyElement, "poly_element_new"),
)


def _patch_targets(owner, path):
    """[(holder, attribute)] pairs through which `path` is reached."""
    if "." in path:
        cls_name, attr = path.split(".")
        return [(getattr(owner, cls_name), attr)]
    original = getattr(owner, path)
    return [(mod, name)
            for mod_name, mod in sorted(sys.modules.items())
            if mod_name == "skewlie" or mod_name.startswith("skewlie.")
            for name, value in sorted(vars(mod).items())
            if value is original]


@contextmanager
def _patched(replacements):
    """Set each (holder, attribute, value), restoring on exit."""
    saved = [(h, a, h.__dict__[a]) for h, a, _ in replacements]
    try:
        for holder, attr, value in replacements:
            setattr(holder, attr, value)
        yield
    finally:
        for holder, attr, value in saved:
            setattr(holder, attr, value)


class Tracer:
    """In-memory span aggregates for one traced phase."""

    def __init__(self):
        self.stats = {}     # name -> [calls, total_s, self_s]
        self.edges = {}     # (parent name or None, name) -> calls
        self.components = 0
        self.not_implied = 0
        self.distinct_pairs = 0
        self._stack = []
        self._op_witnesses = {}
        self._replacements = [
            (holder, attr, self._wrap(name, holder.__dict__[attr]))
            for owner, path, name in SPANS
            for holder, attr in _patch_targets(owner, path)]

    def _wrap(self, name, fn):
        stack = self._stack
        stats = self.stats
        edges = self.edges
        hook = {"twolocal.query": self._saw_witness,
                "symcheck.certify_lemma": self._saw_certificate}.get(name)

        @wraps(fn)
        def span(*args, **kwargs):
            key = (stack[-1][0] if stack else None, name)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                agg = stats.get(name)
                if agg is None:
                    agg = stats[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
                edges[key] = edges.get(key, 0) + 1
            if hook is not None:
                hook(out)
            return out
        return span

    def _saw_witness(self, w):
        # a central-gauge oracle memoizes one witness object per pair
        self._op_witnesses[id(w)] = w

    def _saw_certificate(self, cert):
        self.components += len(cert.components)
        self.not_implied += len(cert.counterexamples())

    def end_op(self):
        self.distinct_pairs += len(self._op_witnesses)
        self._op_witnesses = {}

    def installed(self):
        """Context in which the traced functions record into self."""
        return _patched(self._replacements)

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def edge(self, parent, name):
        return self.edges.get((parent, name), 0)

    def dump(self):
        """JSON-friendly aggregates, for the trace file."""
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "calls": k}
                      for (p, c), k in sorted(self.edges.items(),
                                              key=lambda e: (str(e[0][0]),
                                                             e[0][1]))],
        }


@contextmanager
def count_constructors(counts):
    """Count __init__ calls of the hot scalar types into counts[name]."""
    replacements = []
    for cls, name in CONSTRUCTORS:
        counts.setdefault(name, 0)
        original = cls.__dict__["__init__"]

        def counted(self, *args, _orig=original, _name=name, **kwargs):
            counts[_name] += 1
            _orig(self, *args, **kwargs)
        replacements.append((cls, "__init__", counted))
    with _patched(replacements):
        yield counts
