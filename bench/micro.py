"""Layer micro-figures: public calls timed on fixed inputs.

Every figure is the median over REPEATS samples of the mean time of one
call within a sample, at reference speed (see calibrate.py) against the
reference loops on either side of the sample. Matrix arguments are
fresh for every call, so per-matrix caches (the integer form of a
Gaussian matrix) are paid as a caller pays them. The inputs come from a
fixed seed and do not depend on the workload.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from calibrate import at_reference_speed, reference_seconds
from skewlie.lie import LinearLieMap, bracket, decompose, random_skew
from skewlie.rings import GAUSS, FunctionRing
from skewlie.symcheck import certify_lemma
from skewlie.twolocal import PreparedBracketSolver

REPEATS = 5
SIZES = (4, 6, 8)


def _median_per_call(fn, args_per_sample):
    """args_per_sample: one list of argument tuples per sample, one
    tuple per call."""
    samples = []
    before = reference_seconds()
    for batch in args_per_sample:
        t0 = perf_counter()
        for args in batch:
            fn(*args)
        dt = (perf_counter() - t0) / len(batch)
        after = reference_seconds()
        samples.append(at_reference_speed(dt, (before + after) / 2))
        before = after
    return statistics.median(samples)


def _fresh(rng, n, ring, arity, batch):
    return [[tuple(random_skew(rng, n, ring) for _ in range(arity))
             for _ in range(batch)] for _ in range(REPEATS)]


def figures():
    """{metric name: (value, unit)} for every micro-figure."""
    rng = random.Random(20220407)
    out = {}
    for n in SIZES:
        out["micro.bracket_n%d_us" % n] = 1e6 * _median_per_call(
            bracket, _fresh(rng, n, GAUSS, 2, 20))
        out["micro.decompose_n%d_us" % n] = 1e6 * _median_per_call(
            decompose, _fresh(rng, n, GAUSS, 1, 20))
        a = random_skew(rng, n)
        table = LinearLieMap.tabulate(lambda x, a=a: bracket(a, x), n)
        out["micro.apply_n%d_us" % n] = 1e6 * _median_per_call(
            table.apply, _fresh(rng, n, GAUSS, 1, 4))
    out["micro.bracket_fnring3_n4_us"] = 1e6 * _median_per_call(
        bracket, _fresh(rng, 4, FunctionRing(3), 2, 10))
    for n in SIZES:
        out["micro.solver_build_n%d_ms" % n] = 1e3 * _median_per_call(
            PreparedBracketSolver, [[(n,)]] * 3)
    out["micro.certify_5_7_n6_ms"] = 1e3 * _median_per_call(
        certify_lemma, [[("5.7", 6)]] * 3)
    out["micro.apply_over_bracket_n8"] = \
        out["micro.apply_n8_us"] / out["micro.bracket_n8_us"]
    return {name: (value, _unit(name)) for name, value in out.items()}


def _unit(name):
    for suffix in ("us", "ms"):
        if name.endswith("_" + suffix):
            return suffix
    return "ratio"
