"""Reconstruction of two-local derivations from pair witnesses.

A two-local derivation hands out, for every pair of elements x, y, some
inner derivation that matches it on both: a witness a with mapped values
[a, x] and [a, y]. Different pairs may receive different witnesses, and
each witness is only determined up to a central summand. The functions
here rebuild one global implementer from finitely many pair queries, as
entry reads off their witnesses:

  * off-diagonal entries (i, j), (j, i): the witness for (s_{i,p}, s_{p,j})
    has them right for any third index p
  * diagonal: the witness for (s_{i_o,j_o}, staircase) has the right
    diagonal up to one common central shift, which brackets ignore

so n >= 3 is required, and the result implements the map exactly on all
of K_n even though only O(n^2) pairs were ever queried. The pair that
each read queries is chosen in one place (_corner_witness,
_diagonal_witness); reconstruct_implementer makes all its reads as one
matrices.gather, on the witnesses' integer grids, while the extract_*
functions and the consistency sweep return entry objects.
"""

from __future__ import annotations

from .errors import (
    EqualIndices,
    Infeasible,
    NeedThreeIndices,
    UnsupportedRing,
)
from .lie import (
    GaugedInnerOracle,
    basis_labels,
    bracket,
    canonical_basis,
    ie_diag,
    is_central,
    query_key,
    random_skew,
    random_skews,
    require_gauge,
    s_elem,
    staircase,
)
from .matrices import (
    at_point,
    differ_by_scalar,
    from_points,
    gather,
    probe_read,
    require_skew_adjoint,
)
from .reporting import VerificationReport, require_campaign_args, seeded_trials
from .rings import GAUSS, FunctionRing


class GaugedInnerTwoLocal(GaugedInnerOracle):
    """A two-local derivation built from one inner derivation.

    Every pair query answers with the gauged witness of lie's
    GaugedInnerOracle, keyed on the unordered pair.
    """

    seed_role = "two-local seed"

    def query(self, x, y):
        require_skew_adjoint(x, "first query argument")
        require_skew_adjoint(y, "second query argument")
        return self._witness(x, y)


class TamperedPairOracle:
    """Wrapper that corrupts the witness of one chosen pair.

    The perturbation is added after the base oracle answers, so the
    damaged witness is still skew-adjoint but no longer implements the
    map on its pair. Used to exercise failure detection.
    """

    def __init__(self, base, x, y, perturbation):
        self.base = base
        self.ring = base.ring
        self.n = base.n
        self._key = query_key(x, y)
        self.perturbation = require_skew_adjoint(perturbation, "perturbation")

    def query(self, x, y):
        w = self.base.query(x, y)
        if query_key(x, y) == self._key:
            return w + self.perturbation
        return w


def delta_eval(oracle, z):
    """The mapped value at z, read off the witness for the pair (z, z)."""
    require_skew_adjoint(z, "argument")
    return bracket(oracle.query(z, z), z)


def _corner_witness(oracle, i, j, p=None):
    """The witness of the pair (s_{i,p}, s_{p,j}), which has the entries
    (i, j), (j, i) of every implementer; p defaults to the smallest
    index outside {i, j}."""
    n = oracle.n
    if n < 3:
        raise NeedThreeIndices("corner extraction needs size at least 3")
    if i == j:
        raise EqualIndices("off-diagonal extraction needs i != j")
    if p is None:
        p = min({1, 2, 3} - {i, j})
    if p in (i, j):
        raise EqualIndices("third index %d collides with (%d, %d)" % (p, i, j))
    ring = oracle.ring
    return oracle.query(s_elem(n, i, p, ring), s_elem(n, p, j, ring))


def _diagonal_witness(oracle, i_o=1, j_o=2):
    """The witness of the pair (s_{i_o,j_o}, staircase), which has the
    diagonal of an implementer up to one central shift."""
    n = oracle.n
    if n < 3:
        raise NeedThreeIndices("diagonal extraction needs size at least 3")
    if i_o == j_o:
        raise EqualIndices("observation indices must differ")
    ring = oracle.ring
    return oracle.query(s_elem(n, i_o, j_o, ring), staircase(n, ring))


def extract_offdiagonal(oracle, i, j, p=None):
    """The entry pair (a^{ij}, a^{ji}) of any implementer.

    Reads it off the witness for the pair (s_{i,p}, s_{p,j}); any third
    index p gives the same answer.
    """
    a = _corner_witness(oracle, i, j, p)
    return a.entry(i, j), a.entry(j, i)


def extract_diagonal(oracle, i_o=1, j_o=2):
    """The n diagonal entries of an implementer, up to one central shift.

    Reads them off the witness for the pair (s_{i_o,j_o}, staircase).
    """
    c = _diagonal_witness(oracle, i_o, j_o)
    return tuple(c.entry(i, i) for i in range(1, oracle.n + 1))


def reconstruct_implementer(oracle):
    """Assemble one skew-adjoint matrix implementing the whole map.

    The witness reads of extract_diagonal and extract_offdiagonal, made
    as one matrices.gather: the diagonal off the witness of
    (s[1,2], staircase), entries (i, j), (j, i) off the witness of
    (s[i,p], s[p,j]) for the smallest free third index p, so
    n(n-1)/2 + 1 pair queries. The result can differ from any given
    implementer by a central summand only, which no bracket sees.
    """
    n = oracle.n
    if n < 3:
        raise NeedThreeIndices("reconstruction needs size at least 3")
    c = _diagonal_witness(oracle)
    reads = [((i, i), c, (i, i)) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            a = _corner_witness(oracle, i, j)
            reads += (((i, j), a, (i, j)), ((j, i), a, (j, i)))
    return require_skew_adjoint(gather(n, reads), "reconstructed implementer")


def verify_implementer(oracle, abar, elements):
    """Labels of the elements z with [w - abar, z] != 0 for w the witness
    of (z, z), i.e. mapped value != [abar, z]: one query per element.
    When w - abar is scalar at every point over equal denominators
    (differ_by_scalar, read off w and abar without forming w - abar) it
    is central, and the element passes without a bracket; this reads
    only the two matrices, whatever the oracle's gauge. The scalar test
    runs once per distinct witness object in a call: the memo, keyed on
    id(w), holds w, so no id is reused while it lives. Otherwise the
    bracket decides for each element, by its support."""
    bad = []
    scalar = {}
    for label, z in elements:
        w = oracle.query(require_skew_adjoint(z, "argument"), z)
        seen = scalar.get(id(w))
        if seen is None:
            seen = scalar[id(w)] = (w, differ_by_scalar(w, abar))
        if not seen[1] and bracket(w - abar, z)._support():
            bad.append(label)
    return bad


def check_pair_lemmas(oracle):
    """Consistency of the extraction readings across all free choices.

    For every ordered pair (i, j) the corner read through each admissible
    third index p must agree, and for every observation pair (i_o, j_o)
    the diagonal read off its staircase witness must have the same
    successive differences. Disagreements are recorded with the indices
    that exposed them; a tampered witness shows up here.
    """
    n = oracle.n
    if n < 3:
        raise NeedThreeIndices("consistency sweep needs size at least 3")
    rep = VerificationReport("pair witness consistency",
                             config={"n": n, "ring": oracle.ring.name})
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            readings = []
            for p in range(1, n + 1):
                if p in (i, j):
                    continue
                readings.append((p, extract_offdiagonal(oracle, i, j, p)))
            base_p, base = readings[0]
            mismatches = [p for p, r in readings[1:] if r != base]
            rep.add("corner sweep (%d,%d)" % (i, j), not mismatches,
                    anchor="lemma 3.41", i=i, j=j,
                    p_values=[p for p, _ in readings],
                    disagreeing_p=mismatches)
    ref = None
    for i_o in range(1, n + 1):
        for j_o in range(1, n + 1):
            if i_o == j_o:
                continue
            diag = extract_diagonal(oracle, i_o, j_o)
            diffs = tuple(u - v for u, v in zip(diag, diag[1:]))
            if ref is None:
                ref = diffs
                rep.add("diagonal reference (%d,%d)" % (i_o, j_o), True,
                        anchor="lemma 3.6", i_o=i_o, j_o=j_o)
                continue
            bad = [t + 1 for t, (u, v) in enumerate(zip(diffs, ref)) if u != v]
            rep.add("diagonal sweep (%d,%d)" % (i_o, j_o), not bad,
                    anchor="lemma 3.6", i_o=i_o, j_o=j_o,
                    disagreeing_steps=bad)
    return rep


class PreparedBracketSolver:
    """Bracket equations [c, p] = nabla(p) for the probe pair Idiag[1],
    staircase, solved by reading c off the two values.

    With u = [c, I*e_11] and v = [c, staircase], row 1 of c is
    c^{1j} = I*u^{1j} for j >= 2, and entry (k, j) of v is
    c^{k,j-1} - c^{k,j+1} - c^{k+1,j} + c^{k-1,j} (out-of-range entries
    0), which gives row k + 1 from rows k and k - 1. Only c^{11} is free,
    so the probe kernel is the central line; it is fixed by c^{11} = 0.
    This is the one place bracket equations are set up, for the
    brute-force solvers and localder.corner_implementer. The read,
    matrices.probe_read, uses only +, - and I, so it serves every ring;
    on grids it runs on integer numerators.
    """

    _cache = {}

    def __init__(self, n):
        self.n = n
        basis = canonical_basis(n)
        # the basis index of each probe, None for the staircase at n >= 3
        self._in_basis = [basis.index(p) if p in basis else None
                          for p in self.probes(GAUSS)]

    @classmethod
    def for_size(cls, n):
        solver = cls._cache.get(n)
        if solver is None:
            solver = cls._cache[n] = cls(n)
        return solver

    def probes(self, ring):
        return ie_diag(self.n, 1, ring), staircase(self.n, ring)

    def solve_values(self, nabla, ring):
        """One matrix c with [c, .] == nabla on K_n, or Infeasible.

        nabla is evaluated once per distinct basis or probe element; the
        candidate is checked on the whole basis, which is conclusive
        because the probe kernel is central.
        """
        basis = canonical_basis(self.n, ring)
        values = [nabla(b) for b in basis]
        cand = probe_read(*[nabla(p) if k is None else values[k]
                            for k, p in zip(self._in_basis,
                                            self.probes(ring))])
        for label, b, v in zip(basis_labels(self.n), basis, values):
            if bracket(cand, b) != v:
                raise Infeasible("no inner derivation matches the map at %s"
                                 % label)
        return cand


def brute_force_implementer(oracle):
    """The probe candidate from two pair queries, checked on the whole
    basis by verify_implementer."""
    n, ring = oracle.n, oracle.ring
    solver = PreparedBracketSolver.for_size(n)
    cand = probe_read(*[delta_eval(oracle, p) for p in solver.probes(ring)])
    bad = verify_implementer(oracle, cand,
                             zip(basis_labels(n), canonical_basis(n, ring)))
    if bad:
        raise Infeasible("no inner derivation matches the map at %s" % bad[0])
    return cand


class PointProjectedOracle:
    """A function-ring oracle observed at one point of its domain."""

    def __init__(self, base, point):
        if not isinstance(base.ring, FunctionRing):
            raise UnsupportedRing("projection needs a function ring oracle")
        self.base = base
        self.point = point
        self.ring = GAUSS
        self.n = base.n

    def _lift(self, x):
        return from_points([x] * self.base.ring.npoints)

    def query(self, x, y):
        w = self.base.query(self._lift(x), self._lift(y))
        return at_point(w, self.point)


def omega_instantiate(oracle, point):
    """The two-local derivation seen at one point of the function domain."""
    return PointProjectedOracle(oracle, point)


def twolocal_campaign(ring, n, trials, seed, gauge="central", p_sweep=False,
                      random_checks=50, brute_check=True):
    """Seeded end-to-end reconstruction runs, one record per trial.

    Each trial draws a fresh inner seed a0, wraps it in pair gauges,
    reconstructs an implementer from witness corners, and verifies the
    mapped values against [abar, .] on the full canonical basis plus
    random skew-adjoint elements. With brute_check the bracket-equation
    solver must land on the same map, with a central difference.
    """
    require_campaign_args(trials, random_checks)
    require_gauge(gauge)
    rep = VerificationReport(
        "two-local reconstruction campaign", anchor="theorem 2.6",
        config={"ring": ring.name, "n": n, "trials": trials, "gauge": gauge,
                "p_sweep": bool(p_sweep), "random_checks": random_checks,
                "brute_check": bool(brute_check)},
        seed=seed)
    if n < 3:
        raise NeedThreeIndices("two-local reconstruction needs size at least 3")
    basis = list(zip(basis_labels(n), canonical_basis(n, ring)))
    for trial, trial_seed, rng in seeded_trials(seed, trials):
        a0 = random_skew(rng, n, ring)
        oracle = GaugedInnerTwoLocal(a0, seed=trial_seed, gauge=gauge)
        abar = reconstruct_implementer(oracle)
        bad = verify_implementer(oracle, abar, basis + [
            ("random#%d" % k, x) for k, x in
            enumerate(random_skews(rng, n, ring, random_checks))])
        payload = {"trial": trial, "trial_seed": trial_seed}
        if bad:
            payload["failed_at"] = bad[:5]
        rep.add("reconstruct and verify #%d" % trial, not bad, **payload)
        rep.add("difference from seed is central #%d" % trial,
                is_central(abar - a0), trial=trial)
        if p_sweep:
            rep.add_report("extraction choice sweep #%d" % trial,
                           check_pair_lemmas(oracle), trial=trial)
        if brute_check:
            try:
                cand = brute_force_implementer(oracle)
            except Infeasible as exc:
                rep.add("bracket solver agrees #%d" % trial, False,
                        anchor="theorem 2.6", trial=trial, error=str(exc))
                continue
            central = is_central(cand - abar)
            rep.add("bracket solver agrees #%d" % trial, central,
                    anchor="theorem 2.6", trial=trial,
                    same_map=True, central_difference=central)
    return rep
