"""End-to-end acceptance checks, one test per criterion.

Every comparison in this module is exact; no tolerances appear anywhere.
Each test carries a `criterion` label and the conftest hook prints one
PASS/FAIL line per label after the run. The heavy campaign objects are
built once and shared between the criteria that grade different aspects
of the same runs (reconstruction on one hand, brute-force agreement on
the other), so "agrees on every run" really means every run.
"""

import random
import time

from skewlie.lie import (
    basis_labels,
    bracket,
    canonical_basis,
    ie_diag,
    is_central,
    random_skew,
    s_elem,
)
from skewlie.localder import (
    GaugedInnerLocal,
    TamperedLocalOracle,
    WitnessedLocalMap,
    brute_force_local,
    build_d,
    check_display_identities,
    check_eq_5_1,
    lift_campaign,
    make_gauged_local_map,
    verify_full,
    verify_spanning_set,
)
from skewlie.matrices import at_point
from skewlie.reporting import seeded_trials
from skewlie.rings import GAUSS, FunctionRing
from skewlie.symcheck import VARIANT_LEMMAS, certify_lemma, known_lemmas
from skewlie.twolocal import (
    GaugedInnerTwoLocal,
    TamperedPairOracle,
    check_pair_lemmas,
    omega_instantiate,
    reconstruct_implementer,
    twolocal_campaign,
    verify_implementer,
)


def criterion(label):
    def mark(fn):
        fn._criterion = label
        return fn
    return mark


# campaign runs shared between criteria; keyed by family name
_shared = {}


def _twolocal_reports():
    reps = _shared.get("twolocal")
    if reps is None:
        t0 = time.perf_counter()
        reps = {n: twolocal_campaign(GAUSS, n, trials=100, seed=1000 + n,
                                     gauge="central", random_checks=50,
                                     brute_check=True)
                for n in (3, 4, 5, 6)}
        _shared["twolocal"] = reps
        _shared["twolocal_seconds"] = time.perf_counter() - t0
    return reps


def _local_trials():
    data = _shared.get("local")
    if data is None:
        data = {}
        for n in (3, 4, 5):
            runs = []
            for _, trial_seed, rng in seeded_trials(4000 + n, 100):
                a0 = random_skew(rng, n)
                lmap = make_gauged_local_map(a0, seed=trial_seed,
                                             gauge="central")
                runs.append((trial_seed, a0, lmap, build_d(lmap)))
            data[n] = runs
        _shared["local"] = data
    return data


@criterion("1. two-local maps over the Gaussian rationals, n=3..6, "
           "100 runs each (theorem 2.6)")
def test_twolocal_reconstruction_gauss():
    for n, rep in _twolocal_reports().items():
        assert rep.passed, rep.summary()
        counts = rep.counts()
        # reconstruct/verify, central difference, solver agreement per trial
        assert counts["total"] == 300
        verified = [r for r in rep.records
                    if r.name.startswith("reconstruct and verify")]
        assert len(verified) == 100 and all(r.passed for r in verified)
        central = [r for r in rep.records
                   if r.name.startswith("difference from seed is central")]
        assert len(central) == 100 and all(r.passed for r in central)


@criterion("2. two-local maps over function rings project pointwise, "
           "|domain|=1..3, n=3..4 (theorem 2.7)")
def test_twolocal_reconstruction_function_rings():
    for omega in (1, 2, 3):
        for n in (3, 4):
            ring = FunctionRing(omega)
            basis = list(zip(basis_labels(n), canonical_basis(n, ring)))
            for _, trial_seed, rng in seeded_trials(2000 + 10 * omega + n,
                                                    100):
                a0 = random_skew(rng, n, ring)
                oracle = GaugedInnerTwoLocal(a0, seed=trial_seed,
                                             gauge="central")
                abar = reconstruct_implementer(oracle)
                elements = list(basis)
                for k in range(50):
                    elements.append(("random#%d" % k,
                                     random_skew(rng, n, ring)))
                bad = verify_implementer(oracle, abar, elements)
                assert not bad, (omega, n, trial_seed, bad[:3])
                assert is_central(abar - a0)
                for t in range(omega):
                    point_abar = reconstruct_implementer(
                        omega_instantiate(oracle, t))
                    assert at_point(abar, t) == point_abar


def _pair_sweeps():
    sweeps = _shared.get("sweeps")
    if sweeps is None:
        sweeps = []
        for n in (3, 4, 5):
            for t in range(5):
                seed = 3000 + 10 * n + t
                rng = random.Random(seed)
                oracle = GaugedInnerTwoLocal(random_skew(rng, n), seed=seed,
                                             gauge="central")
                sweeps.append((n, check_pair_lemmas(oracle)))
        _shared["sweeps"] = sweeps
    return sweeps


@criterion("3. corner reads agree across every admissible third index, "
           "n=3..5 (lemma 3.41)")
def test_corner_extraction_choice_free():
    for n, rep in _pair_sweeps():
        corner_recs = [r for r in rep.records if r.name.startswith("corner")]
        assert len(corner_recs) == n * (n - 1)
        for r in corner_recs:
            assert r.passed, rep.summary()
            assert len(r.payload["p_values"]) == n - 2


@criterion("4. diagonal reads agree across every observation pair, "
           "n=3..5 (lemma 3.6)")
def test_diagonal_extraction_choice_free():
    for n, rep in _pair_sweeps():
        diag_recs = [r for r in rep.records if r.name.startswith("diagonal")]
        assert len(diag_recs) == n * (n - 1)
        assert all(r.passed for r in diag_recs), rep.summary()


@criterion("5. local maps over the Gaussian rationals, n=3..5, "
           "100 runs each (theorem 4.4)")
def test_local_reconstruction_gauss():
    for n, runs in _local_trials().items():
        for trial_seed, a0, lmap, d in runs:
            rep = verify_full(lmap, d, random_checks=50, seed=trial_seed)
            assert rep.passed, (n, trial_seed, rep.summary())
            assert is_central(d - a0)


@criterion("6. witness display identities at every index pair, n=3..5, "
           "50 runs each (eqs 5.1, 5.3-5.7)")
def test_display_identities():
    for n in (3, 4, 5):
        pairs = n * (n - 1) // 2
        for _, trial_seed, rng in seeded_trials(6000 + n, 50):
            lmap = make_gauged_local_map(random_skew(rng, n),
                                         seed=trial_seed, gauge="central")
            rows = check_eq_5_1(lmap)
            assert rows.passed, (n, trial_seed, rows.summary())
            assert rows.counts()["total"] == pairs
            displays = check_display_identities(lmap)
            assert displays.passed, (n, trial_seed, displays.summary())
            assert displays.counts()["total"] == n + 4 * pairs


@criterion("7. pointwise lifts over function rings, |domain|=2..4, "
           "n=3..4 (theorem 5.1)")
def test_pointwise_lift():
    for omega in (2, 3, 4):
        for n in (3, 4):
            rep = lift_campaign(n, omega, trials=3,
                                seed=7000 + 10 * omega + n, random_checks=50)
            assert rep.passed, (omega, n, rep.summary())
            assert rep.counts()["total"] == 9


@criterion("8. symbolic certificates re-expand at n=3..5; probes return "
           "concrete counterexamples")
def test_symbolic_certificates():
    for lemma in known_lemmas():
        for n in (3, 4, 5):
            cert = certify_lemma(lemma, n)
            assert cert.all_implied, (lemma, n)
            for comp in cert.components:
                assert comp.to_dict()["reexpanded"] is True
    probes = [(lemma, n, None, "independent")
              for lemma in VARIANT_LEMMAS for n in (3, 4, 5)]
    probes += [("3.6", n, (1, 2), None) for n in (3, 4, 5)]
    probes += [("5.7", n, (1, 2), None) for n in (4, 5)]
    for lemma, n, indices, variant in probes:
        cert = certify_lemma(lemma, n, indices, variant=variant)
        assert not cert.all_implied, (lemma, n, indices, variant)
        refuted = cert.counterexamples()
        assert refuted
        for ce in refuted:
            assert ce.assignment, (lemma, n)
            assert ce.conclusion_value != GAUSS.zero


@criterion("9. the bracket-equation solver lands on the same map in every "
           "reconstruction run of criteria 1 and 5")
def test_brute_solver_agreement():
    for n, rep in _twolocal_reports().items():
        agreed = [r for r in rep.records
                  if r.name.startswith("bracket solver agrees")]
        assert len(agreed) == 100
        for r in agreed:
            assert r.passed, (n, r.payload)
    for n, runs in _local_trials().items():
        basis = canonical_basis(n)
        for trial_seed, _, lmap, d in runs:
            cand = brute_force_local(lmap)
            assert all(bracket(cand, b) == lmap.nabla(b) for b in basis), \
                (n, trial_seed)
            assert is_central(cand - d), (n, trial_seed)


@criterion("10. one flipped witness corner is detected and localized, "
           "20 seeded corruptions")
def test_corruption_detection():
    for t in range(10):
        seed = 9000 + t
        rng = random.Random(seed)
        n = rng.choice((4, 5))
        base = GaugedInnerTwoLocal(random_skew(rng, n), seed=seed,
                                   gauge="central")
        i, j = rng.sample(range(1, n + 1), 2)
        p = rng.choice([q for q in range(1, n + 1) if q not in (i, j)])
        tampered = TamperedPairOracle(base, s_elem(n, i, p), s_elem(n, p, j),
                                      s_elem(n, i, j))
        rep = check_pair_lemmas(tampered)
        assert not rep.passed, (seed, n, i, j, p)
        bad = rep.failures()
        assert [r.name for r in bad] == ["corner sweep (%d,%d)" % (i, j)]
        assert bad[0].payload["disagreeing_p"]
    for t in range(10):
        seed = 9500 + t
        rng = random.Random(seed)
        n = rng.choice((3, 4, 5))
        base = GaugedInnerLocal(random_skew(rng, n), seed=seed,
                                gauge="central")
        k, m = rng.sample(range(1, n + 1), 2)
        tampered = TamperedLocalOracle(base, ie_diag(n, k), s_elem(n, k, m))
        lmap = WitnessedLocalMap(tampered)
        rows = check_eq_5_1(lmap)
        assert not rows.passed, (seed, n, k, m)
        bad_pairs = {(r.payload["i"], r.payload["k"]) for r in rows.failures()}
        assert (min(k, m), max(k, m)) in bad_pairs
        assert all(k in pair for pair in bad_pairs)
        span = verify_spanning_set(lmap)
        assert not span.passed
        assert any("Idiag[%d]" % k in r.name for r in span.failures())
