"""Symbolic certificates: identities proved for generic matrices.

The campaigns test seeded instances; the certifier closes the gap to
"for all". It builds matrices whose entries are linear forms in
independent symbols, so a statement's hypotheses and conclusions are
linear forms too (forms do not multiply), and either expresses every
conclusion component as an explicit rational combination of hypothesis
components (re-expanding the combination to confirm it) or returns a
concrete rational counterexample satisfying all hypotheses while
violating the conclusion.
"""

import json

from skewlie import GAUSS, certify_lemma, known_lemmas


def main():
    print("registered statements:", ", ".join(known_lemmas()))
    print()

    cert = certify_lemma("3.41", 4)
    print("corner read 3.41 at n=4, indices", cert.indices)
    for comp in cert.components:
        combo = ", ".join("%s x %s" % (GAUSS.format(c), hid)
                          for hid, c in comp.combination)
        print("  %s  =  %s" % (comp.label, combo))

    print()
    cert = certify_lemma("3.6", 4, (2, 3))
    print("diagonal read 3.6 at the mirror pair (2,3), n=4:",
          "implied" if cert.all_implied else "not implied")

    cert = certify_lemma("3.6", 4, (1, 2))
    ce = cert.counterexamples()[0]
    print("diagonal read 3.6 at the pair (1,2), n=4: not implied")
    print("  counterexample gives the conclusion the value",
          GAUSS.format(ce.conclusion_value))
    nonzero = {k: GAUSS.format(v) for k, v in sorted(ce.assignment.items())
               if v != GAUSS.zero}
    print("  nonzero symbols:", json.dumps(nonzero))

    print()
    # the two row displays share one witness; pretending each row had its
    # own independent witness breaks them, and the probe shows how
    cert = certify_lemma("5.5", 3, variant="independent")
    print("row display 5.5 with independent witnesses:",
          "implied" if cert.all_implied else "not implied")


if __name__ == "__main__":
    main()
