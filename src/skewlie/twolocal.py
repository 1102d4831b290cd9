"""Reconstruction of two-local derivations from pair witnesses.

A two-local derivation hands out, for every pair of elements x, y, some
inner derivation that matches it on both: a witness a with mapped values
[a, x] and [a, y]. Different pairs may receive different witnesses, and
each witness is only determined up to a central summand. The functions
here rebuild one global implementer from finitely many pair queries, as
one grid of entry reads:

  * off-diagonal entries (i, j), (j, i): the witness for (s_{i,p}, s_{p,j})
    has them right for any third index p
  * diagonal: the witness for (s_{i_o,j_o}, staircase) has the right
    diagonal up to one common central shift, which brackets ignore

so n >= 3 is required, and the result implements the map exactly on all
of K_n even though only O(n^2) pairs were ever queried.
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
    decompose,
    is_central,
    random_skew,
    recompose,
    require_gauge,
    s_elem,
    staircase,
)
from .linsolve import ReducedSystem
from .matrices import (
    Matrix,
    at_point,
    from_points,
    require_skew_adjoint,
)
from .reporting import VerificationReport, require_campaign_args, seeded_trials
from .rings import GAUSS, FunctionRing


def pair_key(x, y):
    """Order-free identity of a query pair."""
    return tuple(sorted((x.cache_key(), y.cache_key())))


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
        self._key = pair_key(x, y)
        self.perturbation = require_skew_adjoint(perturbation, "perturbation")

    def query(self, x, y):
        w = self.base.query(x, y)
        if pair_key(x, y) == self._key:
            return w + self.perturbation
        return w


def delta_eval(oracle, z):
    """The mapped value at z, read off the witness for the pair (z, z)."""
    require_skew_adjoint(z, "argument")
    return bracket(oracle.query(z, z), z)


def extract_offdiagonal(oracle, i, j, p=None):
    """The entry pair (a^{ij}, a^{ji}) of any implementer.

    Reads it off the witness for the pair (s_{i,p}, s_{p,j}); any third
    index p gives the same answer.
    """
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
    a = oracle.query(s_elem(n, i, p, ring), s_elem(n, p, j, ring))
    return a.entry(i, j), a.entry(j, i)


def extract_diagonal(oracle, i_o=1, j_o=2):
    """The n diagonal entries of an implementer, up to one central shift.

    Reads them off the witness for the pair (s_{i_o,j_o}, staircase).
    """
    n = oracle.n
    if n < 3:
        raise NeedThreeIndices("diagonal extraction needs size at least 3")
    if i_o == j_o:
        raise EqualIndices("observation indices must differ")
    ring = oracle.ring
    c = oracle.query(s_elem(n, i_o, j_o, ring), staircase(n, ring))
    return tuple(c.entry(i, i) for i in range(1, n + 1))


def reconstruct_implementer(oracle):
    """Assemble one skew-adjoint matrix implementing the whole map.

    One grid of entry reads: the diagonal off the witness of
    (s[1,2], staircase), entries (i, j), (j, i) through the smallest free
    third index, so n(n-1)/2 + 1 pair queries. The result can differ
    from any given implementer by a central summand only, which no
    bracket sees.
    """
    n = oracle.n
    if n < 3:
        raise NeedThreeIndices("reconstruction needs size at least 3")
    diag = extract_diagonal(oracle)
    grid = [[diag[i] if i == j else None for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            grid[i][j], grid[j][i] = extract_offdiagonal(oracle, i + 1, j + 1)
    return require_skew_adjoint(Matrix(oracle.ring, grid),
                                "reconstructed implementer")


def verify_implementer(oracle, abar, elements):
    """Labels of the elements z with [w - abar, z] != 0 for w the witness
    of (z, z), i.e. mapped value != [abar, z]: one query and one bracket
    per element, sparse whenever w - abar is central (n nonzeros). The
    bracket's nonzeros are counted on its grids."""
    bad = []
    for label, z in elements:
        w = oracle.query(require_skew_adjoint(z, "argument"), z)
        if bracket(w - abar, z)._nnz():
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
    """Bracket equations [c, b] = nabla(b) against a fixed probe set,
    row-reduced once per size.

    The unknown is the coefficient vector of c over the canonical basis;
    the probes s[k,k+1] for k = 1..n-1 and Idiag[1] already pin it down
    to the central line (rank n^2 - 1). This is the one place bracket
    equations are set up: the brute-force two-local and local solvers and
    localder.corner_implementer's block implementers all go through
    solve_values. The reduction is computed over the Gaussian rationals
    and reused for every ring, since the structure constants do not
    depend on the ring.
    """

    _cache = {}

    def __init__(self, n):
        self.n = n
        basis = canonical_basis(n)
        labels = basis_labels(n)
        # the probes are basis members, kept as their basis indices
        self.probes = [labels.index("s[%d,%d]" % (k, k + 1))
                       for k in range(1, n)] + [labels.index("Idiag[1]")]
        rows = []
        for p in self.probes:
            cols = [decompose(bracket(b, basis[p])) for b in basis]
            for m in range(n * n):
                rows.append({k: cols[k][m] for k in range(n * n)
                             if cols[k][m]})
        self.system = ReducedSystem(rows, n * n)
        if self.system.rank != n * n - 1:
            raise AssertionError("probe system rank %d, expected %d"
                                 % (self.system.rank, n * n - 1))

    @classmethod
    def for_size(cls, n):
        solver = cls._cache.get(n)
        if solver is None:
            solver = cls(n)
            cls._cache[n] = solver
        return solver

    def solve_values(self, nabla, ring):
        """One matrix c with [c, .] == nabla on K_n, or Infeasible.

        nabla is evaluated once on each canonical basis element. The
        candidate solves the probe equations exactly, with the free
        coordinate set to zero; it is then checked against the mapped
        values on the whole basis, which is conclusive because any
        solution of the full system also solves the probes and the probe
        kernel is central.
        """
        basis = canonical_basis(self.n, ring)
        values = [nabla(b) for b in basis]
        rhs = []
        for p in self.probes:
            rhs.extend(decompose(values[p]))
        coeffs = self.system.solve(rhs, ring=ring)
        cand = recompose(coeffs, self.n, ring)
        for label, b, v in zip(basis_labels(self.n), basis, values):
            if bracket(cand, b) != v:
                raise Infeasible("no inner derivation matches the map at %s"
                                 % label)
        return cand


def brute_force_implementer(oracle):
    """Solve for an implementer directly from bracket equations."""
    return PreparedBracketSolver.for_size(oracle.n).solve_values(
        lambda z: delta_eval(oracle, z), oracle.ring)


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
            ("random#%d" % k, random_skew(rng, n, ring))
            for k in range(random_checks)])
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
            # solve_values has checked cand on every basis element already
            rep.add("bracket solver agrees #%d" % trial, central,
                    anchor="theorem 2.6", trial=trial,
                    same_map=True, central_difference=central)
    return rep
