"""The benchmark workloads: one seeded operation each, with its known verdict.

An operation is one seeded campaign trial, rendered to JSON, or for
`symcheck` one full certificate sweep. Every verdict is known in
advance: honest oracles must pass every check, registered certificates
must re-expand, and the refuting probes must come back with concrete
counterexamples. run(op_seed, step) returns the rendered report text
and whether the verdict matched; it calls step() between the parts of
the operation (see calibrate.StepClock).

The library is called through its module attributes (twolocal.X rather
than a name imported once) so that the traced run's wrappers see every
call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import random

from skewlie import lie, localder, symcheck, twolocal
from skewlie.matrices import zeros
from skewlie.rings import GAUSS, FunctionRing

RANDOM_CHECKS = 50


def fingerprint(text):
    """sha256 of a rendered report with its wall-clock field removed;
    None when the operation raised and rendered nothing."""
    if text is None:
        return None
    data = json.loads(text)
    if isinstance(data, dict):
        data.pop("duration_seconds", None)
    blob = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class TwoLocalCampaign:
    """twolocal_campaign with one trial per operation, central gauge."""

    kind = "twolocal"

    def __init__(self, ring, n):
        self.ring = ring
        self.n = n

    def prepare(self):
        lie.canonical_basis(self.n, self.ring)
        twolocal.PreparedBracketSolver.for_size(self.n)

    def run(self, op_seed, step=lambda: None):
        rep = twolocal.twolocal_campaign(
            self.ring, self.n, 1, op_seed, gauge="central",
            random_checks=RANDOM_CHECKS, brute_check=True)
        text = rep.to_json()
        # reconstruct-and-verify, central difference, solver agreement
        return text, rep.passed and rep.counts()["total"] == 3


class LocalCampaign:
    """localder_campaign with one trial per operation, plus the
    bracket-equation solver on the same kind of map (criterion 9)."""

    kind = "local"

    def __init__(self, n):
        self.n = n

    def prepare(self):
        lie.canonical_basis(self.n)
        twolocal.PreparedBracketSolver.for_size(self.n)

    def run(self, op_seed, step=lambda: None):
        n = self.n
        rep = localder.localder_campaign(GAUSS, n, 1, op_seed,
                                         gauge="central",
                                         random_checks=RANDOM_CHECKS)
        text = rep.to_json()
        step()
        ok = rep.passed and rep.counts()["total"] == 3
        trial_seed = rep.records[0].payload["trial_seed"]
        a0 = lie.random_skew(random.Random(trial_seed), n)
        lmap = localder.make_gauged_local_map(a0, seed=trial_seed,
                                              gauge="central")
        cand = localder.brute_force_local(lmap)
        zero = zeros(n)
        basis = lie.canonical_basis(n)
        ok = ok and all(lie.bracket(cand, b) == lmap.nabla(b) for b in basis)
        ok = ok and all(lie.bracket(cand - a0, b) == zero for b in basis)
        return text, ok


# criterion 8's refuting probes; all of them refute at n = 6
PROBES = tuple((lemma, None, "independent")
               for lemma in symcheck.VARIANT_LEMMAS) \
    + (("3.6", (1, 2), None), ("5.7", (1, 2), None))


class CertificateSweep:
    """Every registered certificate plus the refuting probes at one size.

    The inputs are fixed by the catalog, so the seed only shuffles the
    order of the sweep.
    """

    kind = "symcheck"

    def __init__(self, n):
        self.n = n

    def prepare(self):
        pass

    def run(self, op_seed, step=lambda: None):
        items = [(lemma, None, None) for lemma in symcheck.known_lemmas()]
        items += PROBES
        random.Random(op_seed).shuffle(items)
        ok = True
        certs = []
        for k, (lemma, indices, variant) in enumerate(items):
            if k:
                step()
            cert = symcheck.certify_lemma(lemma, self.n, indices,
                                          variant=variant)
            rendered = cert.to_dict()
            certs.append(rendered)
            if (indices, variant) == (None, None):
                ok = ok and cert.all_implied and all(
                    c["reexpanded"] for c in rendered["components"])
            else:
                refuted = cert.counterexamples()
                ok = ok and bool(refuted) and all(
                    ce.assignment and ce.conclusion_value != GAUSS.zero
                    for ce in refuted)
        return json.dumps(certs, sort_keys=True), ok


WORKLOADS = {
    "twolocal-gauss": lambda: TwoLocalCampaign(GAUSS, 6),
    "local-gauss": lambda: LocalCampaign(5),
    "twolocal-fnring": lambda: TwoLocalCampaign(FunctionRing(3), 4),
    "symcheck": lambda: CertificateSweep(6),
}
