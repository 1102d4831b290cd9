"""Two-local reconstruction: witnesses, entry reads, verification, brute force.

The gauged oracle wraps a known inner seed a0, so every reconstruction
claim can be checked against a0 itself: off-diagonal entries must match
exactly, the diagonal up to one central shift.
"""

import random

import pytest

from skewlie import twolocal
from skewlie.cli import make_ring
from skewlie.errors import (
    ConfigError,
    DimensionMismatch,
    EqualIndices,
    Infeasible,
    NeedThreeIndices,
    NotSkewAdjoint,
)
from skewlie.lie import (
    basis_labels,
    bracket,
    canonical_basis,
    ie_diag,
    is_central,
    query_key,
    random_skew,
    s_elem,
    staircase,
)
from skewlie.matrices import (
    Matrix,
    at_point,
    differ_by_scalar,
    from_entries,
    probe_read,
    zeros,
)
from skewlie.rings import GAUSS, FunctionRing, imaginary_unit
from skewlie.twolocal import (
    GaugedInnerTwoLocal,
    PreparedBracketSolver,
    TamperedPairOracle,
    brute_force_implementer,
    check_pair_lemmas,
    delta_eval,
    extract_diagonal,
    extract_offdiagonal,
    omega_instantiate,
    reconstruct_implementer,
    twolocal_campaign,
    verify_implementer,
)


class CountingOracle:
    """Forwards queries to a base oracle and counts them."""

    def __init__(self, base):
        self.base = base
        self.ring = base.ring
        self.n = base.n
        self.calls = 0

    def query(self, x, y):
        self.calls += 1
        return self.base.query(x, y)


def make_oracle(seed, n, ring=GAUSS, gauge="central"):
    rng = random.Random(seed)
    a0 = random_skew(rng, n, ring)
    return a0, GaugedInnerTwoLocal(a0, seed=seed, gauge=gauge)


class TestOracle:
    def test_witness_deterministic_and_symmetric(self):
        _, oracle = make_oracle(1, 3)
        x, y = s_elem(3, 1, 2), s_elem(3, 2, 3)
        w1 = oracle.query(x, y)
        assert oracle.query(x, y) == w1
        assert oracle.query(y, x) == w1

    def test_witness_implements_both_arguments(self):
        a0, oracle = make_oracle(2, 4)
        x, y = s_elem(4, 1, 3), ie_diag(4, 2)
        w = oracle.query(x, y)
        assert bracket(w, x) == bracket(a0, x)
        assert bracket(w, y) == bracket(a0, y)

    def test_gauge_is_central_and_pair_dependent(self):
        a0, oracle = make_oracle(3, 3)
        w1 = oracle.query(s_elem(3, 1, 2), s_elem(3, 2, 3))
        w2 = oracle.query(s_elem(3, 1, 2), s_elem(3, 1, 3))
        assert is_central(w1 - a0)
        gauges = set()
        for j in range(2, 4):
            for i in range(1, j):
                w = oracle.query(s_elem(3, i, j), ie_diag(3, i))
                gauges.add((w - a0).entry(1, 1))
        assert len(gauges) > 1, "gauges should vary across pairs"
        assert w1 != w2 or (w1 - a0) == (w2 - a0)

    def test_rejects_non_skew_arguments(self):
        _, oracle = make_oracle(4, 3)
        with pytest.raises(NotSkewAdjoint):
            oracle.query(from_entries(3, {(1, 1): 1}), s_elem(3, 1, 2))

    def test_delta_matches_seed_derivation(self):
        a0, oracle = make_oracle(5, 3)
        rng = random.Random(55)
        for _ in range(5):
            z = random_skew(rng, 3)
            assert delta_eval(oracle, z) == bracket(a0, z)

    def test_query_key_unordered(self):
        x, y = s_elem(3, 1, 2), ie_diag(3, 1)
        assert query_key(x, y) == query_key(y, x)


class TestExtraction:
    def test_offdiagonal_equals_seed_corners_for_every_p(self):
        a0, oracle = make_oracle(6, 5)
        for i, j in ((1, 2), (2, 5), (4, 1)):
            expected = (a0.entry(i, j), a0.entry(j, i))
            for p in range(1, 6):
                if p in (i, j):
                    continue
                assert extract_offdiagonal(oracle, i, j, p) == expected

    def test_diagonal_differences_match_seed(self):
        a0, oracle = make_oracle(7, 4)
        diag = extract_diagonal(oracle, 1, 2)
        assert len(diag) == 4
        for t in range(1, 4):
            assert diag[t - 1] - diag[t] == \
                a0.entry(t, t) - a0.entry(t + 1, t + 1)

    def test_index_validation(self):
        _, oracle = make_oracle(8, 3)
        with pytest.raises(EqualIndices):
            extract_offdiagonal(oracle, 2, 2)
        with pytest.raises(EqualIndices):
            extract_offdiagonal(oracle, 1, 2, p=2)
        with pytest.raises(EqualIndices):
            extract_diagonal(oracle, 3, 3)

    def test_too_small_sizes_are_refused(self):
        _, oracle = make_oracle(9, 2)
        with pytest.raises(NeedThreeIndices):
            reconstruct_implementer(oracle)
        with pytest.raises(NeedThreeIndices):
            extract_offdiagonal(oracle, 1, 2)


class TestReconstruction:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_implements_map_and_matches_seed_up_to_center(self, n):
        a0, oracle = make_oracle(10 + n, n)
        abar = reconstruct_implementer(oracle)
        elements = list(zip(basis_labels(n), canonical_basis(n)))
        rng = random.Random(99)
        elements += [("r%d" % k, random_skew(rng, n)) for k in range(10)]
        assert verify_implementer(oracle, abar, elements) == []
        assert is_central(abar - a0)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_pair_query_count(self, n):
        # O(n^2) queries: one pair per upper corner plus the staircase pair
        _, base = make_oracle(40 + n, n)
        oracle = CountingOracle(base)
        reconstruct_implementer(oracle)
        assert oracle.calls == n * (n - 1) // 2 + 1

    def test_function_ring_reconstruction_projects_pointwise(self):
        r = FunctionRing(3)
        a0, oracle = make_oracle(20, 3, ring=r)
        abar = reconstruct_implementer(oracle)
        for k in range(3):
            proj = omega_instantiate(oracle, k)
            assert reconstruct_implementer(proj) == at_point(abar, k)


class NonSkewCornerOracle:
    """Forwards queries, adding 1 at entry (1, 2) of the witness of the
    corner pair (s[1,3], s[3,2]) only, so that the (1, 2) read is not
    the negated star of the (2, 1) read."""

    def __init__(self, base):
        self.base = base
        self.ring = base.ring
        self.n = base.n
        self._key = query_key(s_elem(base.n, 1, 3, base.ring),
                              s_elem(base.n, 3, 2, base.ring))

    def query(self, x, y):
        w = self.base.query(x, y)
        if query_key(x, y) == self._key:
            return w + from_entries(self.n, {(1, 2): 1}, self.ring)
        return w


class TestReconstructionChecks:
    @pytest.mark.parametrize("n", [1, 2])
    def test_needs_three_indices(self, n):
        _, oracle = make_oracle(45, n)
        with pytest.raises(NeedThreeIndices):
            reconstruct_implementer(oracle)

    @pytest.mark.parametrize("ring", [GAUSS, FunctionRing(2)],
                             ids=["gauss", "fnring2"])
    def test_a_read_that_is_not_skew_adjoint_is_refused(self, ring):
        _, base = make_oracle(46, 4, ring=ring)
        reconstruct_implementer(base)
        with pytest.raises(NotSkewAdjoint, match="reconstructed implementer"):
            reconstruct_implementer(NonSkewCornerOracle(base))


def old_verify_rule(oracle, abar, elements):
    """The two-bracket rule verify_implementer replaced, kept as the
    reference: the mapped value read off the witness against [abar, .]."""
    return [label for label, z in elements
            if delta_eval(oracle, z) != bracket(abar, z)]


def checked_elements(n, ring, seed, count=6):
    rng = random.Random(seed)
    return (list(zip(basis_labels(n), canonical_basis(n, ring)))
            + [("r%d" % k, random_skew(rng, n, ring)) for k in range(count)])


def _recorded_brackets(monkeypatch):
    """The second factors of the brackets twolocal takes from now on."""
    brackets = []

    def recording(a, b):
        brackets.append(b)
        return bracket(a, b)

    monkeypatch.setattr(twolocal, "bracket", recording)
    return brackets


class TestVerifyImplementer:
    # over the polynomial ring differ_by_scalar is always False, so every
    # element brackets w - abar; only the grid rings skip the bracket of
    # a central difference
    RINGS = [GAUSS, FunctionRing(2), make_ring("poly", 0)]
    GRID_RINGS = RINGS[:2]

    @pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
    def test_wrong_implementer_flags_what_the_old_rule_flags(self, ring):
        n = 4
        a0, oracle = make_oracle(50, n, ring)
        wrong = reconstruct_implementer(oracle) + s_elem(n, 1, 2, ring)
        elements = checked_elements(n, ring, 51)
        bad = verify_implementer(oracle, wrong, elements)
        assert bad == old_verify_rule(oracle, wrong, elements)
        assert "s[1,2]" not in bad and "s[1,3]" in bad and "r0" in bad

    @pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
    def test_tampered_diagonal_pair_flags_exactly_its_label(self, ring):
        n = 4
        _, base = make_oracle(52, n, ring)
        abar = reconstruct_implementer(base)
        z = s_elem(n, 2, 3, ring)
        # s[1,2] is not central and does not commute with s[2,3]
        bad = TamperedPairOracle(base, z, z, s_elem(n, 1, 2, ring))
        elements = checked_elements(n, ring, 53)
        assert verify_implementer(bad, abar, elements) == ["s[2,3]"]
        assert old_verify_rule(bad, abar, elements) == ["s[2,3]"]

    def test_wrong_size_implementer_is_refused(self):
        _, oracle = make_oracle(54, 4)
        with pytest.raises(DimensionMismatch):
            verify_implementer(oracle, zeros(3),
                               checked_elements(4, GAUSS, 55))

    @pytest.mark.parametrize("ring", GRID_RINGS, ids=lambda r: r.name)
    def test_one_query_and_no_bracket_per_element(self, ring, monkeypatch):
        n = 4
        _, base = make_oracle(56, n, ring)
        abar = reconstruct_implementer(base)
        oracle = CountingOracle(base)
        brackets = _recorded_brackets(monkeypatch)
        elements = checked_elements(n, ring, 57)
        assert verify_implementer(oracle, abar, elements) == []
        assert oracle.calls == len(elements)
        # every honest witness differs from abar by a scalar
        assert brackets == []

    @pytest.mark.parametrize("ring", GRID_RINGS, ids=lambda r: r.name)
    def test_brackets_fall_on_the_non_scalar_gaps(self, ring, monkeypatch):
        n = 4
        _, base = make_oracle(58, n, ring)
        abar = reconstruct_implementer(base)
        elements = checked_elements(n, ring, 59)
        for k in (2, -1):
            label, z = elements[k]
            bad = TamperedPairOracle(base, z, z, s_elem(n, 1, 2, ring))
            gaps = [y for _, y in elements
                    if not is_central(bad.query(y, y) - abar)]
            brackets = _recorded_brackets(monkeypatch)
            assert verify_implementer(bad, abar, elements) == [label]
            assert brackets == gaps == [z]


    @pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
    def test_shared_non_scalar_witness_brackets_every_element(self, ring):
        # one witness object for every query, not a scalar away from
        # abar: its scalar test is memoized, its bracket is not, so the
        # flagged labels are those z with [w - abar, z] != 0, which
        # s[1,2] (the first element) is not
        n = 4
        abar = random_skew(random.Random(60), n, ring)
        oracle = FixedWitnessOracle(abar + s_elem(n, 1, 2, ring))
        elements = checked_elements(n, ring, 61)
        want = [label for label, z in elements
                if bracket(s_elem(n, 1, 2, ring), z) != zeros(n, ring)]
        assert want[0] != elements[0][0] and len(want) < len(elements)
        assert verify_implementer(oracle, abar, elements) == want

    @pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
    def test_fresh_witnesses_are_tested_one_by_one(self, ring):
        # a fresh witness object on every query: for the first half of
        # the elements a scalar away from abar, then tampered, with the
        # honest copies freed at the switch. A freed witness's id may be
        # reused by a later witness, so the memo holds each witness it
        # keys
        n = 4
        abar = random_skew(random.Random(62), n, ring)
        elements = checked_elements(n, ring, 63, count=60)
        half = len(elements) // 2
        oracle = FreshCopyOracle(abar + central_shift(n, ring),
                                 abar + s_elem(n, 1, 2, ring), half)
        want = [label for label, z in elements[half:]
                if bracket(s_elem(n, 1, 2, ring), z) != zeros(n, ring)]
        assert len(want) > len(elements) // 4
        assert verify_implementer(oracle, abar, elements) == want

    def test_one_scalar_test_per_distinct_witness(self, monkeypatch):
        n = 4
        _, base = make_oracle(64, n)
        abar = reconstruct_implementer(base)
        oracle = WitnessRecordingOracle(base)
        tested = []

        def recording(w, b):
            tested.append(w)
            return differ_by_scalar(w, b)

        monkeypatch.setattr(twolocal, "differ_by_scalar", recording)
        elements = checked_elements(n, GAUSS, 65, count=40)
        assert verify_implementer(oracle, abar, elements) == []
        answered = {id(w) for w in oracle.answered}
        assert len(tested) == len({id(w) for w in tested}) == len(answered)
        # 56 queries, at most 19 scales
        assert len(answered) <= 19 < len(elements)


class FixedWitnessOracle:
    """Answers one witness object for every pair."""

    def __init__(self, w):
        self.w = w

    def query(self, x, y):
        return self.w


class FreshCopyOracle:
    """Answers a fresh copy of honest, built from rows, to its first
    switch queries and of tampered to the rest. It keeps the honest
    copies until the first tampered query and then drops them all at
    once, so their ids are free for the tampered copies to take."""

    def __init__(self, honest, tampered, switch):
        self.honest = honest
        self.tampered = tampered
        self.switch = switch
        self.calls = 0
        self.kept = []

    def query(self, x, y):
        self.calls += 1
        if self.calls <= self.switch:
            w = Matrix(self.honest.ring, self.honest.rows)
            self.kept.append(w)
            return w
        self.kept.clear()
        return Matrix(self.tampered.ring, self.tampered.rows)


class WitnessRecordingOracle:
    """Forwards pair queries and keeps every witness answered."""

    def __init__(self, base):
        self.base = base
        self.answered = []

    def query(self, x, y):
        w = self.base.query(x, y)
        self.answered.append(w)
        return w


def central_shift(n, ring):
    """2 * I * identity, central in K_n."""
    v = imaginary_unit(ring) * 2
    return from_entries(n, {(t, t): v for t in range(1, n + 1)}, ring)


class TestConsistencySweep:
    def test_clean_oracle_passes(self):
        _, oracle = make_oracle(30, 4)
        rep = check_pair_lemmas(oracle)
        assert rep.passed, rep.summary()

    def test_corrupted_corner_is_localized(self):
        _, oracle = make_oracle(31, 4)
        # damage the witness that the (1, 2) corner reads through p = 3
        bad = TamperedPairOracle(oracle, s_elem(4, 1, 3), s_elem(4, 3, 2),
                                 s_elem(4, 1, 2))
        rep = check_pair_lemmas(bad)
        assert not rep.passed
        failing = {r.name for r in rep.failures()}
        assert any("corner sweep (1,2)" in name or "corner sweep (2,1)" in name
                   for name in failing)
        assert all("diagonal" not in name for name in failing)

    def test_corrupted_diagonal_is_detected(self):
        _, oracle = make_oracle(32, 4)
        bad = TamperedPairOracle(oracle, s_elem(4, 2, 3), staircase(4),
                                 ie_diag(4, 2))
        rep = check_pair_lemmas(bad)
        failing = [r for r in rep.failures()]
        assert failing
        assert all(r.anchor == "lemma 3.6" for r in failing)
        assert any(r.payload.get("i_o") == 2 and r.payload.get("j_o") == 3
                   for r in failing)


def rows_candidate(values, ring, n):
    """The probe read as matrices.probe_read made it on rows of ring
    elements before it ran on grids, kept as the reference: c padded
    by a zero border, row 1 from I*u, row k + 1 from rows k, k - 1 and
    row k of v."""
    u, v = (x.rows for x in values)
    i_unit, zero = imaginary_unit(ring), ring.zero
    c = [[zero] * (n + 2) for _ in range(n + 1)]
    for j in range(2, n + 1):
        c[1][j] = i_unit * u[0][j - 1]
    for k in range(1, n):
        c[k + 1][1:n + 1] = [c[k][j - 1] - c[k][j + 1] + c[k - 1][j]
                             - v[k - 1][j - 1] for j in range(1, n + 1)]
    return Matrix(ring, [row[1:n + 1] for row in c[1:]])


class TestBruteForce:
    @pytest.mark.parametrize("ring,n", [
        (r, n) for r in (GAUSS, FunctionRing(2)) for n in range(2, 9)
    ] + [(make_ring("poly", 0), n) for n in range(2, 5)],
        ids=lambda v: getattr(v, "name", v))
    def test_probe_kernel_is_central(self, ring, n):
        # the read from [a0, Idiag[1]] and [a0, staircase] is a0 minus its
        # (1,1) entry times the identity, so the probes fix a0 up to the
        # center; zero values read the zero matrix
        a0 = random_skew(random.Random(70 + n), n, ring)
        solver = PreparedBracketSolver.for_size(n)
        probes = solver.probes(ring)
        shift = from_entries(n, {(k, k): a0.entry(1, 1)
                                 for k in range(1, n + 1)}, ring)
        assert probe_read(*[bracket(a0, p) for p in probes]) == a0 - shift
        assert probe_read(zeros(n, ring), zeros(n, ring)) == zeros(n, ring)

    @pytest.mark.parametrize("ring", [GAUSS, FunctionRing(1),
                                      FunctionRing(3),
                                      make_ring("poly", 0)],
                             ids=lambda r: r.name)
    def test_candidate_matches_the_rows_recurrence(self, ring):
        # u and v need not come from one c: any pair, on denominators
        # that differ from each other at every point
        rng = random.Random(71)
        for n in range(1, 7):
            solver = PreparedBracketSolver.for_size(n)
            a0 = random_skew(rng, n, ring)
            pairs = [[bracket(a0, p) for p in solver.probes(ring)]]
            for du, dv in ((3, 4), (1, 5), (6, 1)):
                pairs.append([random_skew(rng, n, ring) * (ring.one / du),
                              random_skew(rng, n, ring) * (ring.one / dv)])
            for values in pairs:
                assert probe_read(*values) == rows_candidate(values, ring, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_solve_values_evaluates_each_element_once(self, n):
        a0 = random_skew(random.Random(n), n)
        seen = []

        def nabla(z):
            seen.append(z)
            return bracket(a0, z)

        cand = PreparedBracketSolver.for_size(n).solve_values(nabla, GAUSS)
        assert is_central(cand - a0)
        # at n = 2 both probes, Idiag[1] and s[1,2], are basis members
        assert len(seen) == (4 if n == 2 else n * n + 1)

    def test_function_ring_solve_builds_no_function_elements(self, built):
        r = FunctionRing(3)
        _, warm = make_oracle(42, 4, ring=r)
        brute_force_implementer(warm)
        a0, oracle = make_oracle(43, 4, ring=r)
        built["function"] = 0
        cand = brute_force_implementer(oracle)
        assert built["function"] == 0
        assert is_central(cand - a0)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_check_names_the_tampered_element(self, n):
        _, oracle = make_oracle(44, n)
        z = s_elem(n, 1, 3)
        bad = TamperedPairOracle(oracle, z, z, ie_diag(n, 1))
        with pytest.raises(Infeasible, match=r"at s\[1,3\]$"):
            brute_force_implementer(bad)

    def test_agrees_with_reconstruction(self):
        a0, oracle = make_oracle(40, 4)
        cand = brute_force_implementer(oracle)
        assert is_central(cand - a0)
        for b in canonical_basis(4):
            assert bracket(cand, b) == delta_eval(oracle, b)

    def test_works_over_function_ring(self):
        r = FunctionRing(2)
        a0, oracle = make_oracle(41, 3, ring=r)
        cand = brute_force_implementer(oracle)
        assert all(bracket(cand - a0, b) == zeros(3, r)
                   for b in canonical_basis(3, r))

    def test_non_inner_map_is_infeasible(self):
        class ScrambledOracle:
            ring = GAUSS
            n = 3

            def query(self, x, y):
                rng = random.Random("|".join(sorted(
                    z.cache_key() for z in (x, y))))
                return random_skew(rng, 3)

        with pytest.raises(Infeasible):
            brute_force_implementer(ScrambledOracle())


class TestCampaign:
    def test_small_campaign_passes(self):
        rep = twolocal_campaign(GAUSS, 3, trials=3, seed=2026, p_sweep=True,
                                random_checks=5)
        assert rep.passed, rep.summary()
        assert rep.to_json()

    def test_campaign_over_function_ring(self):
        rep = twolocal_campaign(FunctionRing(2), 3, trials=2, seed=7,
                                random_checks=3, brute_check=True)
        assert rep.passed, rep.summary()

    def test_campaign_refuses_n2(self):
        with pytest.raises(NeedThreeIndices):
            twolocal_campaign(GAUSS, 2, trials=1, seed=0)

    def test_tampered_pair_fails_verification_and_the_solver(self,
                                                             monkeypatch):
        # the witness of (s[1,2], s[1,2]) is off by s[1,3], so the mapped
        # value at s[1,2] is wrong: verification names s[1,2], and no
        # inner derivation solves the bracket equations
        def tampered(a0, seed=0, gauge="central"):
            s12 = s_elem(a0.n, 1, 2)
            base = GaugedInnerTwoLocal(a0, seed=seed, gauge=gauge)
            return TamperedPairOracle(base, s12, s12, s_elem(a0.n, 1, 3))

        monkeypatch.setattr(twolocal, "GaugedInnerTwoLocal", tampered)
        rep = twolocal_campaign(GAUSS, 3, trials=1, seed=3, random_checks=2)
        verify, central, solver = rep.records
        assert not verify.passed and verify.payload["failed_at"] == ["s[1,2]"]
        assert central.passed
        assert not solver.passed
        assert solver.payload["error"] == \
            "no inner derivation matches the map at s[1,2]"

    @pytest.mark.parametrize("kwargs", [
        dict(trials=0), dict(trials=-1), dict(random_checks=-1),
        dict(gauge="bogus"), dict(trials=0, gauge="bogus")])
    def test_bad_arguments_fail_before_any_trial(self, kwargs, monkeypatch):
        def no_trials(*_):
            raise AssertionError("a trial started")

        monkeypatch.setattr(twolocal, "seeded_trials", no_trials)
        args = dict(trials=1, random_checks=1) | kwargs
        with pytest.raises(ConfigError):
            twolocal_campaign(GAUSS, 3, seed=1, **args)

    def test_oracle_refuses_unknown_gauge(self):
        with pytest.raises(ConfigError):
            GaugedInnerTwoLocal(random_skew(random.Random(1), 3),
                                gauge="bogus")
