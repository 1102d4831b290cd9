"""Local derivations: witness contracts, block implementers, reconstruction.

The gauged oracle hides a known seed a0, so reads can be checked against
the ground truth: off-diagonal reads must be exact, diagonals exact up
to one central shift. Tampered oracles stay contract-consistent per
query and must be caught by the cross-witness checks instead.
"""

import hashlib
import json
import random

import pytest

from skewlie import localder
from skewlie.errors import (
    ConfigError,
    DimensionMismatch,
    EqualIndices,
    IndexOutOfRange,
    Infeasible,
    NeedThreeIndices,
    UnsupportedRing,
    WitnessContractError,
)
from skewlie.lie import (
    block_basis,
    bracket,
    canonical_basis,
    ie_diag,
    is_central,
    random_skew,
    s_elem,
    staircase,
)
from skewlie.localder import (
    GaugedInnerLocal,
    TamperedLocalOracle,
    WitnessedLocalMap,
    assemble_abar,
    brute_force_local,
    build_d,
    check_display_identities,
    check_eq_5_1,
    corner_implementer,
    lift_campaign,
    localder_campaign,
    make_gauged_local_map,
    pointwise_lift,
    verify_full,
    verify_spanning_set,
)
from skewlie.matrices import at_point, from_entries, upper_pairs, zeros
from skewlie.rings import GAUSS, FunctionRing
from skewlie.twolocal import PreparedBracketSolver


class CountingOracle:
    """Forwards queries to a base oracle and counts them."""

    def __init__(self, base):
        self.base = base
        self.ring = base.ring
        self.n = base.n
        self.calls = 0

    def query(self, x):
        self.calls += 1
        return self.base.query(x)


def make_map(seed, n, ring=GAUSS, gauge="central"):
    rng = random.Random(seed)
    a0 = random_skew(rng, n, ring)
    return a0, make_gauged_local_map(a0, seed=seed, gauge=gauge)


class TestWitnessedMap:
    def test_values_match_seed_derivation(self):
        a0, lmap = make_map(1, 4)
        rng = random.Random(11)
        for _ in range(5):
            x = random_skew(rng, 4)
            assert lmap.nabla(x) == bracket(a0, x)

    def test_witness_is_memoized_and_gauged(self):
        a0, lmap = make_map(2, 3)
        x = staircase(3)
        w = lmap.witness(x)
        assert lmap.witness(x) == w
        assert is_central(w - a0)
        assert bracket(w, x) == lmap.nabla(x)

    def test_bad_witness_fails_at_construction(self):
        class BadOracle:
            ring = GAUSS
            n = 3

            def query(self, x):
                return bracket(s_elem(3, 1, 2), x), ie_diag(3, 1)

        with pytest.raises(WitnessContractError):
            WitnessedLocalMap(BadOracle())

    def test_non_skew_value_fails_at_construction(self):
        # the witness contract holds, but a non-skew witness makes a
        # value outside K_n, which is named by its basis element
        w = from_entries(3, {(1, 1): 1, (1, 2): 2})

        class HostileOracle:
            ring = GAUSS
            n = 3

            def query(self, x):
                return bracket(w, x), w

        with pytest.raises(WitnessContractError, match=r"s\[1,2\]"):
            WitnessedLocalMap(HostileOracle())

    def test_nonlinear_value_fails_on_use(self):
        # answers are witness-consistent per query but do not assemble
        # into one linear map, which the off-basis check must notice
        class PatchworkOracle:
            ring = GAUSS
            n = 3

            def __init__(self):
                self.a = s_elem(3, 1, 2)
                self.b = ie_diag(3, 3)

            def query(self, x):
                w = self.a if x._nnz() <= 2 else self.b
                return bracket(w, x), w

        lmap = WitnessedLocalMap(PatchworkOracle())
        with pytest.raises(WitnessContractError):
            lmap.witness(staircase(3))


class TestBuildD:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_seed_up_to_center(self, n):
        a0, lmap = make_map(20 + n, n)
        d = build_d(lmap)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    assert d.entry(i, j) == a0.entry(i, j)
        assert is_central(d - a0)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_query_counts(self, n):
        # n^2 queries tabulate the map; build_d reads the staircase and the
        # n basis witnesses of I*e_{i,i}, and only the staircase is new
        rng = random.Random(90 + n)
        oracle = CountingOracle(GaugedInnerLocal(random_skew(rng, n),
                                                 seed=90 + n))
        lmap = WitnessedLocalMap(oracle)
        assert oracle.calls == n * n
        reads = []
        read = lmap.witness
        lmap.witness = lambda x: reads.append(x) or read(x)
        build_d(lmap)
        assert len(reads) == n + 1
        assert oracle.calls == n * n + 1

    def test_function_ring_build(self):
        r = FunctionRing(2)
        a0, lmap = make_map(30, 3, ring=r)
        d = build_d(lmap)
        assert all(bracket(d - a0, b) == zeros(3, r)
                   for b in canonical_basis(3, r))

    def test_needs_three_indices(self):
        _, lmap = make_map(31, 2)
        with pytest.raises(NeedThreeIndices):
            build_d(lmap)


class TestBlockImplementers:
    def test_corner_implementer_matches_compressed_seed(self):
        a0, lmap = make_map(40, 4)
        w = corner_implementer(lmap, 2, 4)
        assert w.entry(2, 4) == a0.entry(2, 4)
        assert w.entry(4, 2) == a0.entry(4, 2)
        assert w.entry(2, 2) - w.entry(4, 4) == \
            a0.entry(2, 2) - a0.entry(4, 4)
        for i in (1, 3):
            assert all(not w.entry(i, j) for j in range(1, 5))

    def test_block_index_outside_1_to_n(self):
        # a typed index error, as matrices, symcheck and at_point raise
        _, lmap = make_map(43, 4)
        for S in ((0, 2), (2, 5)):
            with pytest.raises(IndexOutOfRange, match="block index"):
                corner_implementer(lmap, *S)
        with pytest.raises(EqualIndices):
            corner_implementer(lmap, 2, 2)

    def test_assemble_abar_layout(self):
        a0, lmap = make_map(42, 4)
        blocks = {}
        abar = assemble_abar(lmap, 1, 3, blocks)
        for p in range(1, 5):
            for q in range(1, 5):
                if p == q or p in (1, 3) or q in (1, 3):
                    continue
                assert not abar.entry(p, q)
        assert abar.entry(1, 4) == a0.entry(1, 4)
        assert abar.entry(2, 3) == a0.entry(2, 3)
        assert abar.entry(1, 1) - abar.entry(3, 3) == \
            a0.entry(1, 1) - a0.entry(3, 3)
        # every pair in a row or column of 1 or 3 is solved once, and kept
        assert sorted(blocks) == [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]


def _embed_apply_extract(lmap, S):
    """corner_implementer with every block value found by embedding the
    block element as a new matrix, applying the whole map's table and
    cutting the block out."""
    n = lmap.n
    w = PreparedBracketSolver.for_size(2).solve_values(
        lambda b: localder._extract_block(
            lmap.nabla(localder._embed_block(b, S, n)), S), lmap.ring)
    return localder._embed_block(w, S, n)


class TestBlockReads:
    """Block values are the map's stored images of canonical basis
    elements."""

    @pytest.mark.parametrize("ring", [GAUSS, FunctionRing(2)],
                             ids=["gauss", "fnring2"])
    def test_block_basis_embeds_as_memoized_basis_elements(self, ring):
        for n in (3, 4, 6):
            basis = canonical_basis(n, ring)
            for S in ((1, 2), (2, n), (1, 3), (1, 2, n)):
                embedded = block_basis(S, n, ring)
                assert embedded == [localder._embed_block(b, S, n) for b in
                                    canonical_basis(len(S), ring)]
                assert all(any(e is b for b in basis) for e in embedded)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_embed_apply_extract(self, n):
        _, lmap = make_map(80 + n, n)
        for S in upper_pairs(range(1, n + 1)):
            assert corner_implementer(lmap, *S) == \
                _embed_apply_extract(lmap, S)

    def test_function_ring_blocks(self):
        _, lmap = make_map(87, 4, ring=FunctionRing(2))
        for S in ((1, 3), (2, 4)):
            assert corner_implementer(lmap, *S) == \
                _embed_apply_extract(lmap, S)


class TestChecks:
    @pytest.mark.parametrize("n", [3, 4])
    def test_clean_map_passes_everything(self, n):
        _, lmap = make_map(50 + n, n)
        d = build_d(lmap)
        assert check_eq_5_1(lmap).passed
        assert check_display_identities(lmap, d).passed
        assert verify_spanning_set(lmap, d).passed
        assert verify_full(lmap, d, random_checks=10, seed=5).passed

    def test_function_ring_checks(self):
        r = FunctionRing(2)
        _, lmap = make_map(60, 3, ring=r)
        assert verify_spanning_set(lmap).passed
        assert check_eq_5_1(lmap).passed

    def test_commuting_witness_shift_is_tolerated(self):
        # a non-central perturbation that commutes with the probed
        # element is legitimate witness freedom, not corruption
        a0, lmap0 = make_map(61, 3)
        tampered = TamperedLocalOracle(lmap0.oracle, ie_diag(3, 2),
                                       ie_diag(3, 1))
        lmap = WitnessedLocalMap(tampered)
        d = build_d(lmap)
        assert verify_spanning_set(lmap, d).passed
        assert is_central(d - a0)


class TestCorruption:
    def make_tampered(self, seed=70, n=4, ring=GAUSS):
        a0, clean = make_map(seed, n, ring=ring)
        oracle = TamperedLocalOracle(clean.oracle, ie_diag(n, 2, ring),
                                     s_elem(n, 2, 3, ring))
        return a0, WitnessedLocalMap(oracle)

    @pytest.mark.parametrize("ring, digest", [
        pytest.param(
            GAUSS,
            "b26e24ed23784cbd010d0b00d7b5534747fa45d76b8cc080b495d597ea51e67e",
            id="gauss"),
        pytest.param(
            FunctionRing(2),
            "717a65ceba04d22884f430bd481768b6a508f7f3ddb172077bea82ac942f0eca",
            id="fnring2"),
    ])
    def test_failure_reports_pinned(self, ring, digest):
        """The sha256 over the reports of the three checks on the
        tampered map, each without duration_seconds as compact sorted-key
        JSON, so the failure payloads (the pairs, entries and block
        errors that name the damage) cannot change unnoticed."""
        _, lmap = self.make_tampered(ring=ring)
        h = hashlib.sha256()
        for check in (check_eq_5_1, check_display_identities,
                      verify_spanning_set):
            data = check(lmap).to_dict()
            data.pop("duration_seconds")
            h.update(json.dumps(data, sort_keys=True).encode())
        assert h.hexdigest() == digest

    def test_flipped_corner_breaks_spanning_locally(self):
        _, lmap = self.make_tampered()
        rep = verify_spanning_set(lmap)
        assert not rep.passed
        names = {r.name for r in rep.failures()}
        assert any("Idiag[2]" in name for name in names)

    def test_row_read_checks_localize_the_pair(self):
        _, lmap = self.make_tampered()
        rep = check_eq_5_1(lmap)
        bad_pairs = {(r.payload["i"], r.payload["k"]) for r in rep.failures()}
        assert (2, 3) in bad_pairs
        assert all(2 in pair for pair in bad_pairs)

    def test_block_solve_becomes_infeasible(self):
        _, lmap = self.make_tampered()
        with pytest.raises(Infeasible):
            corner_implementer(lmap, 2, 3)

    def test_joint_witness_off_the_linear_extension_is_recorded(self):
        # the value claimed at I*(e_11 + e_22) is shifted along with its
        # witness: the witness contract holds, but the value is not the
        # linear extension of the basis values, so the (1,2) read fails
        _, clean = make_map(72, 3)
        joint = ie_diag(3, 1) + ie_diag(3, 2)
        lmap = WitnessedLocalMap(TamperedLocalOracle(clean.oracle, joint,
                                                     s_elem(3, 1, 3)))
        rep = check_eq_5_1(lmap)
        assert [r.passed for r in rep.records] == [False, True, True]
        assert rep.records[0].payload == {
            "i": 1, "k": 2, "contract_error":
                "claimed value disagrees with the linear extension"}

    def test_joint_witness_off_its_value_is_recorded(self):
        # the value claimed at I*(e_11 + e_22) is honest, but its witness
        # is shifted by s[1,3], which does not commute with the query:
        # the witness contract fails at the (1,2) read
        _, clean = make_map(72, 3)
        joint = ie_diag(3, 1) + ie_diag(3, 2)
        shift = s_elem(3, 1, 3)

        class ShiftedWitness:
            ring = GAUSS
            n = 3

            def query(self, x):
                value, w = clean.oracle.query(x)
                return value, (w + shift if x == joint else w)

        rep = check_eq_5_1(WitnessedLocalMap(ShiftedWitness()))
        assert [r.passed for r in rep.records] == [False, True, True]
        assert rep.records[0].payload == {
            "i": 1, "k": 2, "contract_error":
                "witness does not implement the claimed value"}

    def test_tampering_off_basis_trips_the_contract_gate(self):
        a0, clean = make_map(71, 3)
        oracle = TamperedLocalOracle(clean.oracle, staircase(3),
                                     s_elem(3, 1, 3))
        lmap = WitnessedLocalMap(oracle)
        with pytest.raises(WitnessContractError):
            build_d(lmap)


class TestBruteForce:
    def test_agrees_with_build_d_up_to_center(self):
        _, lmap = make_map(45, 4)
        c = brute_force_local(lmap)
        d = build_d(lmap)
        assert all(bracket(c, b) == lmap.nabla(b) for b in canonical_basis(4))
        assert is_central(c - d)

    def test_unimplementable_values_are_infeasible(self):
        _, clean = make_map(46, 4)
        oracle = TamperedLocalOracle(clean.oracle, ie_diag(4, 2),
                                     s_elem(4, 2, 3))
        lmap = WitnessedLocalMap(oracle)
        with pytest.raises(Infeasible):
            brute_force_local(lmap)


class TestPointwiseLift:
    def test_lift_acts_pointwise(self):
        rng = random.Random(80)
        maps = [make_gauged_local_map(random_skew(rng, 3), seed=81 + t)
                for t in range(3)]
        lifted = pointwise_lift(maps)
        assert isinstance(lifted.ring, FunctionRing)
        x = random_skew(rng, 3, lifted.ring)
        out = lifted.nabla(x)
        for t in range(3):
            assert at_point(out, t) == maps[t].nabla(at_point(x, t))

    def test_lift_needs_gaussian_point_maps_of_one_size(self):
        rng = random.Random(84)
        small = make_gauged_local_map(random_skew(rng, 3), seed=85)
        large = make_gauged_local_map(random_skew(rng, 4), seed=86)
        with pytest.raises(DimensionMismatch, match="at least one"):
            pointwise_lift([])
        with pytest.raises(DimensionMismatch, match="disagree on size"):
            pointwise_lift([small, large])
        lifted = pointwise_lift([small, small])
        with pytest.raises(UnsupportedRing, match="Gaussian rationals"):
            pointwise_lift([small, lifted])

    def test_lifted_reconstruction_verifies(self):
        rng = random.Random(82)
        maps = [make_gauged_local_map(random_skew(rng, 3), seed=83 + t)
                for t in range(2)]
        lifted = pointwise_lift(maps)
        d = build_d(lifted)
        assert verify_full(lifted, d, random_checks=10, seed=1).passed
        for t in range(2):
            diff = at_point(d, t) - build_d(maps[t])
            assert is_central(diff)


class TestCampaigns:
    def test_local_campaign_passes(self):
        rep = localder_campaign(GAUSS, 3, trials=3, seed=2026,
                                random_checks=5)
        assert rep.passed, rep.summary()
        assert rep.to_json()

    def test_local_campaign_function_ring(self):
        rep = localder_campaign(FunctionRing(2), 3, trials=2, seed=9,
                                random_checks=3)
        assert rep.passed, rep.summary()

    def test_lift_campaign_passes(self):
        rep = lift_campaign(3, omega=2, trials=2, seed=4, random_checks=5)
        assert rep.passed, rep.summary()

    def test_lift_campaign_reports_the_first_failure(self, monkeypatch):
        # the first point map lies consistently about Idiag[2], so the
        # lifted map is no inner derivation: the first random check fails
        made = []

        def tampered(a0, seed=0, gauge="central"):
            lmap = make_gauged_local_map(a0, seed=seed, gauge=gauge)
            if made:
                return lmap
            made.append(lmap)
            return WitnessedLocalMap(TamperedLocalOracle(
                lmap.oracle, ie_diag(3, 2), s_elem(3, 2, 3)))

        monkeypatch.setattr(localder, "make_gauged_local_map", tampered)
        rep = lift_campaign(3, omega=2, trials=1, seed=4, random_checks=5)
        verified = rep.records[0]
        assert not verified.passed
        assert verified.payload["first_failure"] == 0

    def test_campaign_refuses_n2(self):
        with pytest.raises(NeedThreeIndices):
            localder_campaign(GAUSS, 2, trials=1, seed=0)

    @pytest.mark.parametrize("kwargs", [
        dict(trials=0), dict(trials=-1), dict(random_checks=-1),
        dict(gauge="bogus"), dict(trials=0, gauge="bogus")])
    def test_local_campaign_bad_arguments(self, kwargs, monkeypatch):
        def no_trials(*_):
            raise AssertionError("a trial started")

        monkeypatch.setattr(localder, "seeded_trials", no_trials)
        args = dict(trials=1, random_checks=1) | kwargs
        with pytest.raises(ConfigError):
            localder_campaign(GAUSS, 3, seed=1, **args)

    @pytest.mark.parametrize("kwargs", [
        dict(trials=0), dict(trials=-1), dict(random_checks=-1)])
    def test_lift_campaign_bad_arguments(self, kwargs, monkeypatch):
        def no_trials(*_):
            raise AssertionError("a trial started")

        monkeypatch.setattr(localder, "seeded_trials", no_trials)
        args = dict(trials=1, random_checks=1) | kwargs
        with pytest.raises(ConfigError):
            lift_campaign(3, 2, seed=1, **args)
