"""Reconstruction of local derivations from single-element witnesses.

A local derivation hands out, for each single element x, an inner
derivation matching it there: query(x) returns the mapped value together
with a witness a satisfying [a, x] == value. The witness may change from
element to element and is only determined up to whatever centralizes x,
so none of them can be used as a global implementer directly. The
reconstruction reads

  * diagonal of d from the witness of the staircase
  * row i of d from the witness of I*e_{i,i}

and the consistency of those reads across witnesses is exactly what the
check_* functions in this module verify on concrete runs. Everything is
finite: maps are tabulated on the n^2 canonical basis elements and all
claims are checked by exact arithmetic, so no continuity or topology
enters anywhere.
"""

from __future__ import annotations

import random

from .errors import (
    DimensionMismatch,
    EqualIndices,
    IndexOutOfRange,
    Infeasible,
    NeedThreeIndices,
    UnsupportedRing,
    WitnessContractError,
)
from .lie import (
    GaugedInnerOracle,
    LinearLieMap,
    basis_labels,
    block_basis,
    bracket,
    canonical_basis,
    ie_bar,
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
    from_points,
    gather,
    is_skew_adjoint,
    require_skew_adjoint,
    zeros,
)
from .reporting import VerificationReport, require_campaign_args, seeded_trials
from .rings import FunctionRing, GaussianField
from .twolocal import PreparedBracketSolver

FINITE_NOTE = ("all maps are tabulated on the finite canonical basis and "
               "verified by exact arithmetic; no continuity assumptions enter")


class GaugedInnerLocal(GaugedInnerOracle):
    """A point-witness oracle built from one inner derivation.

    query(x) returns ([a0, x], w) where w is the gauged witness of lie's
    GaugedInnerOracle, keyed on x: invisible to the mapped values, but
    with its own drawn scale for every element, so elements may get
    different witnesses, which is the freedom reconstruction has to
    tolerate; elements that draw the same scale share one.
    """

    seed_role = "local seed"

    def query(self, x):
        require_skew_adjoint(x, "query argument")
        return bracket(self.a0, x), self._witness(x)


class TamperedLocalOracle:
    """Wrapper that lies consistently about one chosen element.

    The witness of the matching element is shifted by a skew perturbation
    and the reported value is shifted along with it, so the per-query
    witness contract still holds; only cross-witness consistency checks
    can expose the damage.
    """

    def __init__(self, base, x, perturbation):
        self.base = base
        self.ring = base.ring
        self.n = base.n
        self._key = query_key(x)
        self.perturbation = require_skew_adjoint(perturbation, "perturbation")

    def query(self, x):
        value, w = self.base.query(x)
        if query_key(x) == self._key:
            return value + bracket(self.perturbation, x), w + self.perturbation
        return value, w


class WitnessedLocalMap:
    """A linear map on K_n together with a witness for every element.

    Construction queries the oracle on the whole canonical basis,
    verifies the witness contract on each answer, and tabulates the map
    from the returned values; a value that fails [w, b] == value or is
    not skew-adjoint raises WitnessContractError naming the basis
    element b. witness(x) re-checks the contract on every
    new element and memoizes the answer, so a witness that fails
    [w, x] == map(x) raises WitnessContractError at the point of use.
    """

    def __init__(self, oracle):
        self.oracle = oracle
        self.ring = oracle.ring
        self.n = oracle.n
        self._memo = {}
        values = []
        for label, b in zip(basis_labels(self.n),
                            canonical_basis(self.n, self.ring)):
            value, w = oracle.query(b)
            if bracket(w, b) != value:
                raise WitnessContractError(
                    "witness for %s does not implement the claimed value"
                    % label)
            if not is_skew_adjoint(value):
                raise WitnessContractError(
                    "claimed value for %s is not skew-adjoint" % label)
            self._memo[b] = w
            values.append(value)
        self.map = LinearLieMap(self.ring, self.n, values)

    def nabla(self, x):
        """The mapped value at x (linear extension off the basis)."""
        return self.map.apply(x)

    def witness(self, x):
        w = self._memo.get(x)
        if w is None:
            value, w = self.oracle.query(x)
            if bracket(w, x) != value:
                raise WitnessContractError(
                    "witness does not implement the claimed value")
            if value != self.nabla(x):
                raise WitnessContractError(
                    "claimed value disagrees with the linear extension")
            self._memo[x] = w
        return w


def make_gauged_local_map(a0, seed=0, gauge="central"):
    return WitnessedLocalMap(GaugedInnerLocal(a0, seed=seed, gauge=gauge))


def build_d(lmap):
    """Assemble the candidate implementer d.

    Diagonal entries come from the staircase witness; the off-diagonal
    entries of row i come from the witness of I*e_{i,i}. Skew-adjointness
    of the result is not forced here: it follows from (and is evidence
    for) cross-witness consistency, which the check functions verify.
    """
    n = lmap.n
    if n < 3:
        raise NeedThreeIndices("reconstruction needs size at least 3")
    ring = lmap.ring
    a2 = lmap.witness(staircase(n, ring))
    return assemble_d(a2, {i: lmap.witness(ie_diag(n, i, ring))
                           for i in range(1, n + 1)})


def assemble_d(diag_witness, row_witnesses):
    """The diagonal of diag_witness and, off the diagonal, row i of
    row_witnesses[i] (1-based), read as one matrices.gather: on the
    witnesses' grids, or on their rows over other rings (symcheck's
    matrices of linear forms)."""
    n = diag_witness.n
    return gather(n, [((i, j), diag_witness if i == j else row_witnesses[i],
                       (i, j))
                      for i in range(1, n + 1) for j in range(1, n + 1)])


def check_eq_5_1(lmap):
    """Row reads are column-consistent: for every pair i != k the witness
    of I*(e_{i,i} + e_{k,k}) ties the (i,k) and (k,i) entries of the two
    single-index witnesses together. One record per unordered pair.
    Each single-index witness is bracketed with its own I*e_{i,i} once,
    when a pair first reads it."""
    n = lmap.n
    ring = lmap.ring
    rep = VerificationReport("independence of row reads", anchor="eq 5.1",
                             config={"n": n, "ring": ring.name})
    rep.note(FINITE_NOTE)
    # i -> [a_ii, I*e_ii]; witness memoizes a_ii once its contract holds
    own = {}

    def own_bracket(i, e, a):
        v = own.get(i)
        if v is None:
            v = own[i] = bracket(a, e)
        return v

    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            try:
                e_i = ie_diag(n, i, ring)
                e_k = ie_diag(n, k, ring)
                a_ii = lmap.witness(e_i)
                a_kk = lmap.witness(e_k)
                a1 = lmap.witness(e_i + e_k)
            except WitnessContractError as exc:
                rep.add("entry reads agree (%d,%d)" % (i, k), False,
                        i=i, k=k, contract_error=str(exc))
                continue
            additive = bracket(a1, e_i + e_k) == \
                own_bracket(i, e_i, a_ii) + own_bracket(k, e_k, a_kk)
            ik = a_ii.entry(i, k) == a_kk.entry(i, k)
            ki = a_ii.entry(k, i) == a_kk.entry(k, i)
            rep.add("entry reads agree (%d,%d)" % (i, k),
                    additive and ik and ki, i=i, k=k,
                    additivity=additive, entry_ik=ik, entry_ki=ki)
    return rep


def _block_reads(S):
    """The pairs of positions (block, full) of the block on the sorted
    indices S: entry (a, b) of the block is entry (S[a-1], S[b-1])."""
    return [((a, b), (p, q)) for a, p in enumerate(S, 1)
            for b, q in enumerate(S, 1)]


def _extract_block(x, S):
    return gather(len(S), [(ab, x, pq) for ab, pq in _block_reads(S)])


def _embed_block(y, S, n):
    return gather(n, [(pq, y, ab) for ab, pq in _block_reads(S)])


def corner_implementer(lmap, i, k):
    """An implementer of the map compressed to the block of indices i, k.

    Both sides of every bracket equation are compressed to the block, so
    the unknown is a block-supported skew-adjoint matrix; it exists for
    every restriction of a local derivation and is unique up to a central
    summand of the block. It is solved by the 2 x 2
    PreparedBracketSolver, as the brute-force implementers are. Its
    probes I*e_11 and staircase(2) = s[1,2] are block basis elements,
    and a block basis element embeds as a canonical basis element of
    K_n (block_basis), so every value it reads is the map's stored image,
    cut to the block. Raises Infeasible, naming the block, when no such
    matrix exists, which is how incoherent oracles surface here.
    """
    if i == k:
        raise EqualIndices("a block needs two distinct indices")
    S = sorted((i, k))
    n = lmap.n
    for p in S:
        if not 1 <= p <= n:
            raise IndexOutOfRange("block index %d outside 1..%d" % (p, n))
    ring = lmap.ring
    embedded = {id(b): e for b, e in zip(canonical_basis(2, ring),
                                         block_basis(S, n, ring))}

    def nabla(b):
        return _extract_block(lmap.nabla(embedded[id(b)]), S)

    try:
        w_local = PreparedBracketSolver.for_size(2).solve_values(nabla, ring)
    except Infeasible as exc:
        raise Infeasible("no block implementer on indices %r" % (S,)) \
            from exc
    return _embed_block(w_local, S, n)


def assemble_abar(lmap, i, k, blocks):
    """The element carried by the rows and columns of i and k.

    Off-diagonal entries in those rows and columns are read from the
    block implementers of the corresponding pairs, each position exactly
    once; the two diagonal entries both come from the (i, k) block, so
    their difference is gauge-free. blocks maps a pair (p, q), p < q, to
    its block implementer; it is filled as blocks are solved, so
    assemblies that share it solve each block once.
    """
    n = lmap.n
    if i == k:
        raise EqualIndices("assembly needs two distinct indices")

    def block(p, q):
        key = (min(p, q), max(p, q))
        w = blocks.get(key)
        if w is None:
            w = blocks[key] = corner_implementer(lmap, *key)
        return w

    reads = [((p, q), block(p, q), (p, q))
             for p in range(1, n + 1) for q in range(1, n + 1)
             if p != q and (p in (i, k) or q in (i, k))]
    w_ik = block(i, k)
    return gather(n, reads + [((i, i), w_ik, (i, i)), ((k, k), w_ik, (k, k))])


def check_display_identities(lmap, d=None):
    """The displayed run-time identities, one record each.

    5.3: d implements the map on every I*e_{i,i}.
    5.4: d and the assembled two-row element act identically on s_{i,k}
         and I*(e_{i,k} + e_{k,i}).
    5.5: row k of the assembled element matches the witness of I*e_{k,k}.
    5.6: column i of the assembled element matches the witness of
         I*e_{i,i}.
    5.7: assembled diagonal differences match the staircase witness.
    """
    n = lmap.n
    ring = lmap.ring
    if d is None:
        d = build_d(lmap)
    rep = VerificationReport("displayed identities on witnesses",
                             anchor="eqs 5.3-5.7",
                             config={"n": n, "ring": ring.name})
    rep.note(FINITE_NOTE)
    a2 = lmap.witness(staircase(n, ring))
    zero = zeros(n, ring)
    blocks = {}
    for i in range(1, n + 1):
        e_i = ie_diag(n, i, ring)
        rep.add("d implements at Idiag[%d]" % i,
                bracket(d, e_i) == lmap.nabla(e_i), anchor="eq 5.3", i=i)
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            try:
                abar = assemble_abar(lmap, i, k, blocks)
            except Infeasible as exc:
                rep.add("assembled element exists (%d,%d)" % (i, k), False,
                        anchor="eq 5.4", i=i, k=k, error=str(exc))
                continue
            a_ii = lmap.witness(ie_diag(n, i, ring))
            a_kk = lmap.witness(ie_diag(n, k, ring))
            diff = abar - d
            ok54 = bracket(diff, s_elem(n, i, k, ring)) == zero \
                and bracket(diff, ie_bar(n, i, k, ring)) == zero
            rep.add("assembled element acts like d (%d,%d)" % (i, k), ok54,
                    anchor="eq 5.4", i=i, k=k)
            bad55 = [j for j in range(1, n + 1) if j != k
                     and abar.entry(k, j) != a_kk.entry(k, j)]
            rep.add("row read (%d,%d)" % (i, k), not bad55,
                    anchor="eq 5.5", i=i, k=k, disagreeing_columns=bad55)
            bad56 = [j for j in range(1, n + 1) if j != i
                     and abar.entry(j, i) != a_ii.entry(j, i)]
            rep.add("column read (%d,%d)" % (i, k), not bad56,
                    anchor="eq 5.6", i=i, k=k, disagreeing_rows=bad56)
            ok57 = abar.entry(i, i) - abar.entry(k, k) == \
                a2.entry(i, i) - a2.entry(k, k)
            rep.add("diagonal difference (%d,%d)" % (i, k), ok57,
                    anchor="eq 5.7", i=i, k=k)
    return rep


def verify_spanning_set(lmap, d=None):
    """d implements the map on the whole canonical basis, and the
    witness-level identities behind that claim hold. Failing records
    carry the indices that exposed them."""
    if d is None:
        d = build_d(lmap)
    rep = VerificationReport("implementer against the canonical basis",
                             anchor="theorem 4.4",
                             config={"n": lmap.n, "ring": lmap.ring.name})
    rep.note(FINITE_NOTE)
    for label, b in zip(basis_labels(lmap.n),
                        canonical_basis(lmap.n, lmap.ring)):
        rep.add("spans %s" % label, bracket(d, b) == lmap.nabla(b),
                basis=label)
    rep.extend(check_display_identities(lmap, d))
    return rep


def verify_full(lmap, d, random_checks=50, seed=0):
    """d implements the map on the basis and on random skew elements."""
    rep = verify_spanning_set(lmap, d)
    for t, x in enumerate(random_skews(random.Random(seed), lmap.n,
                                       lmap.ring, random_checks)):
        rep.add("random element #%d" % t,
                bracket(d, x) == lmap.nabla(x), anchor="theorem 4.4", index=t)
    return rep


class _LiftedOracle:
    """Pointwise assembly of finitely many Gaussian point oracles."""

    def __init__(self, point_maps):
        self.point_maps = list(point_maps)
        if not self.point_maps:
            raise DimensionMismatch("need at least one point map")
        n = self.point_maps[0].n
        for pm in self.point_maps:
            if pm.n != n:
                raise DimensionMismatch("point maps disagree on size")
            if not isinstance(pm.ring, GaussianField):
                raise UnsupportedRing("point maps must run over the "
                                      "Gaussian rationals")
        self.n = n
        self.ring = FunctionRing(len(self.point_maps))

    def query(self, x):
        values = []
        witnesses = []
        for t, pm in enumerate(self.point_maps):
            xt = at_point(x, t)
            values.append(pm.nabla(xt))
            witnesses.append(pm.witness(xt))
        return from_points(values), from_points(witnesses)


def pointwise_lift(point_maps):
    """Combine per-point local maps into one over a function ring.

    The lifted map evaluates and witnesses pointwise; reconstruction and
    verification then run over the function ring unchanged."""
    return WitnessedLocalMap(_LiftedOracle(point_maps))


def brute_force_local(lmap):
    """Solve bracket equations directly for an implementer of the map."""
    return PreparedBracketSolver.for_size(lmap.n).solve_values(lmap.nabla,
                                                               lmap.ring)


def localder_campaign(ring, n, trials, seed, gauge="central",
                      random_checks=50):
    """Seeded end-to-end runs: build d, verify it spans, compare with the
    hidden seed. One block of records per trial."""
    require_campaign_args(trials, random_checks)
    require_gauge(gauge)
    rep = VerificationReport(
        "local reconstruction campaign", anchor="theorem 4.4",
        config={"ring": ring.name, "n": n, "trials": trials, "gauge": gauge,
                "random_checks": random_checks},
        seed=seed)
    rep.note(FINITE_NOTE)
    if n < 3:
        raise NeedThreeIndices("local reconstruction needs size at least 3")
    for trial, trial_seed, rng in seeded_trials(seed, trials):
        a0 = random_skew(rng, n, ring)
        lmap = make_gauged_local_map(a0, seed=trial_seed, gauge=gauge)
        d = build_d(lmap)
        rep.add_report("build and verify #%d" % trial,
                       verify_full(lmap, d, random_checks=random_checks,
                                   seed=trial_seed),
                       trial=trial, trial_seed=trial_seed)
        rep.add("difference from seed is central #%d" % trial,
                is_central(d - a0), trial=trial)
        rep.add_report("row reads independent #%d" % trial,
                       check_eq_5_1(lmap), anchor="eq 5.1", trial=trial)
    return rep


def lift_campaign(n, omega, trials, seed, random_checks=50):
    """Pointwise lifting runs over a function ring with omega points."""
    require_campaign_args(trials, random_checks)
    rep = VerificationReport(
        "pointwise lift campaign", anchor="theorem 5.1",
        config={"n": n, "omega": omega, "trials": trials,
                "random_checks": random_checks},
        seed=seed)
    rep.note(FINITE_NOTE)
    ring = FunctionRing(omega)
    basis = canonical_basis(n, ring)
    for trial, trial_seed, rng in seeded_trials(seed, trials):
        point_maps = [make_gauged_local_map(random_skew(rng, n),
                                            seed=trial_seed + t)
                      for t in range(omega)]
        lifted = pointwise_lift(point_maps)
        d = build_d(lifted)
        first_bad = None
        for t, x in enumerate(random_skews(rng, n, ring, random_checks)):
            lhs = lifted.nabla(x)
            if lhs != bracket(d, x) or any(
                    at_point(lhs, pt) != pm.nabla(at_point(x, pt))
                    for pt, pm in enumerate(point_maps)):
                first_bad = t
                break
        rep.add("lifted map verified #%d" % trial, first_bad is None,
                trial=trial, trial_seed=trial_seed, first_failure=first_bad)
        agree = all(is_central(at_point(d, pt) - build_d(pm))
                    for pt, pm in enumerate(point_maps))
        rep.add("projections agree with point builds #%d" % trial, agree,
                trial=trial)
        rep.add("lifted difference spans nothing #%d" % trial,
                all(bracket(d, b) == lifted.nabla(b) for b in basis) and
                is_central(d - from_points([pm.oracle.a0
                                            for pm in point_maps])),
                trial=trial)
    return rep
