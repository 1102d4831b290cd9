"""Reconstructing a two-local derivation from pair witnesses.

A two-local derivation only promises: for every PAIR of elements there
is some inner derivation [a, .] agreeing with the map at both. The
witness a may change from pair to pair, and here it deliberately does
(a hidden central gauge shifts it per pair), so no single query exposes
the implementer. The reconstruction reads each off-diagonal entry pair
and the diagonal from specially chosen pair witnesses, assembles the
entries into one matrix abar, and verification then checks [abar, .]
against the map on the whole canonical basis plus random elements. A
brute-force solver that knows nothing about the reading strategy lands
on the same map.
"""

import random

from skewlie import (
    GAUSS,
    GaugedInnerTwoLocal,
    basis_labels,
    brute_force_implementer,
    canonical_basis,
    is_central,
    random_skew,
    reconstruct_implementer,
    twolocal_campaign,
    verify_implementer,
)
from skewlie.twolocal import extract_offdiagonal

N = 4


def main():
    rng = random.Random(11)
    a0 = random_skew(rng, N)
    oracle = GaugedInnerTwoLocal(a0, seed=11, gauge="central")

    print("hidden seed a0, diagonal gauge changes per queried pair")
    w1 = oracle.query(canonical_basis(N)[0], canonical_basis(N)[1])
    w2 = oracle.query(canonical_basis(N)[2], canonical_basis(N)[5])
    print("  two witnesses differ:", w1 != w2)
    print("  both differ from a0 by a central matrix:",
          is_central(w1 - a0) and is_central(w2 - a0))

    a13, a31 = extract_offdiagonal(oracle, 1, 3)
    print("entries (1,3) and (3,1) read from one pair witness:")
    print("  ", GAUSS.format(a13), "and", GAUSS.format(a31),
          " match a0:", (a13, a31) == (a0.entry(1, 3), a0.entry(3, 1)))

    abar = reconstruct_implementer(oracle)
    mism = verify_implementer(oracle, abar,
                              zip(basis_labels(N), canonical_basis(N)))
    print("reconstructed abar implements the map on all %d basis elements: %s"
          % (N * N, not mism))
    print("abar - a0 is central:", is_central(abar - a0))

    cand = brute_force_implementer(oracle)
    print("independent bracket-equation solve agrees up to center:",
          is_central(cand - abar))

    print()
    rep = twolocal_campaign(GAUSS, N, trials=5, seed=2026, gauge="central",
                            random_checks=20)
    print(rep.summary())


if __name__ == "__main__":
    main()
