"""Correctness checks that ride along with every timed run.

* the corruption gate: seeded criterion-10-style tampering, one witness
  per case, which the cross-witness checks must flag and localize at
  the tampered pair or index; each tampered case has an honest control
  on the same base oracle, which must pass
* oracle query counts: two-local reconstruction makes exactly
  n(n-1)/2 + 1 pair queries; a local map is tabulated with exactly n^2
  basis queries, and build_d reads exactly n + 1 witnesses. How many of
  those reads reach the oracle (the rest are served by the map's memo)
  is recorded, not asserted

All runs are over the Gaussian rationals except the reconstruction
count, which uses the workload's own ring and size.
"""

from __future__ import annotations

import random

from skewlie.lie import ie_diag, random_skew, s_elem
from skewlie.localder import (
    GaugedInnerLocal,
    TamperedLocalOracle,
    WitnessedLocalMap,
    build_d,
    check_eq_5_1,
    verify_spanning_set,
)
from skewlie.rings import GAUSS
from skewlie.twolocal import (
    GaugedInnerTwoLocal,
    TamperedPairOracle,
    check_pair_lemmas,
    reconstruct_implementer,
)

PAIR_CASES = 2
LOCAL_CASES = 2


class CountingOracle:
    """Forwards queries to a base oracle and counts them."""

    def __init__(self, base):
        self.base = base
        self.ring = base.ring
        self.n = base.n
        self.calls = 0

    def query(self, *args):
        self.calls += 1
        return self.base.query(*args)


def _pair_case(rng, seed):
    """One flipped pair witness; returns (honest ok, tampered ok)."""
    n = rng.choice((4, 5))
    base = GaugedInnerTwoLocal(random_skew(rng, n), seed=seed,
                               gauge="central")
    i, j = rng.sample(range(1, n + 1), 2)
    p = rng.choice([q for q in range(1, n + 1) if q not in (i, j)])
    honest = check_pair_lemmas(base).passed
    tampered = TamperedPairOracle(base, s_elem(n, i, p), s_elem(n, p, j),
                                  s_elem(n, i, j))
    bad = check_pair_lemmas(tampered).failures()
    caught = [r.name for r in bad] == ["corner sweep (%d,%d)" % (i, j)] \
        and bool(bad[0].payload["disagreeing_p"])
    return honest, caught


def _local_case(rng, seed):
    """One element whose witness lies consistently; returns
    (honest ok, tampered ok)."""
    n = rng.choice((3, 4, 5))
    base = GaugedInnerLocal(random_skew(rng, n), seed=seed, gauge="central")
    k, m = rng.sample(range(1, n + 1), 2)
    plain = WitnessedLocalMap(base)
    honest = check_eq_5_1(plain).passed and verify_spanning_set(plain).passed
    lmap = WitnessedLocalMap(TamperedLocalOracle(base, ie_diag(n, k),
                                                 s_elem(n, k, m)))
    rows = check_eq_5_1(lmap)
    bad_pairs = {(r.payload["i"], r.payload["k"]) for r in rows.failures()}
    span = verify_spanning_set(lmap)
    caught = (not rows.passed
              and (min(k, m), max(k, m)) in bad_pairs
              and all(k in pair for pair in bad_pairs)
              and not span.passed
              and any("Idiag[%d]" % k in r.name for r in span.failures()))
    return honest, caught


def corruption_gate(seed):
    """Replays the seeded corruption set. Returns (attempted, failed)."""
    rng = random.Random("gate:%d" % seed)
    outcomes = []
    for _ in range(PAIR_CASES):
        outcomes.extend(_pair_case(rng, rng.randrange(2 ** 32)))
    for _ in range(LOCAL_CASES):
        outcomes.extend(_local_case(rng, rng.randrange(2 ** 32)))
    return len(outcomes), outcomes.count(False)


def query_counts(workload, seed):
    """Oracle query counts measured from outside, with their expected
    values. Returns {name: (measured, expected or None)}."""
    rng = random.Random("counts:%d" % seed)
    if workload.kind == "twolocal":
        n, ring = workload.n, workload.ring
        oracle = CountingOracle(GaugedInnerTwoLocal(
            random_skew(rng, n, ring), seed=rng.randrange(2 ** 32),
            gauge="central"))
        reconstruct_implementer(oracle)
        return {"queries_per_reconstruct": (oracle.calls,
                                            n * (n - 1) // 2 + 1)}
    if workload.kind == "local":
        n = workload.n
        oracle = CountingOracle(GaugedInnerLocal(
            random_skew(rng, n, GAUSS), seed=rng.randrange(2 ** 32),
            gauge="central"))
        lmap = WitnessedLocalMap(oracle)
        tabulated = oracle.calls
        reads = []
        read = lmap.witness
        lmap.witness = lambda x: reads.append(x) or read(x)
        build_d(lmap)
        return {"tabulate_queries": (tabulated, n * n),
                "build_d_queries": (oracle.calls - tabulated, None),
                "build_d_witness_reads": (len(reads), n + 1)}
    return {}
