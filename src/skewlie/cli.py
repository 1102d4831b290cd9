"""Command line entry point.

Runs the verification campaigns and symbolic certificates from a shell
and writes one JSON report. Exit status: 0 when every check passed, 1
when some check failed (the report is still written), 2 for unusable
configuration, 3 when the report cannot be written.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .lie import GAUGES
from .localder import lift_campaign, localder_campaign
from .reporting import VerificationReport
from .rings import GAUSS, FunctionRing, PolynomialRing, check_ring_axioms
from .symcheck import certify_lemma, known_lemmas
from .twolocal import twolocal_campaign

# the largest --n and --omega accepted, twice the largest size the tests,
# demos and benchmark use; a campaign holds the canonical basis, n^4
# entries (45 MB at n = 32), so a larger run would spend its memory before
# any check. Certifying the whole catalog took 0.3 s and 32 MB at n = 24,
# and 0.7 to 0.8 s and 47 MB at n = 32, on a 2-vCPU VM
SIZE_LIMIT = 32


def parse_sizes(text):
    """A size argument: a single integer like "4" or a range like "3..5"."""
    raw = text.strip()
    try:
        if ".." in raw:
            lo_s, _, hi_s = raw.partition("..")
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(raw)
    except ValueError:
        raise ConfigError("cannot read %r as a size or size range "
                          "(use forms like 4 or 3..5)" % text)
    if lo > hi:
        raise ConfigError("empty size range %r" % text)
    if lo < 2:
        raise ConfigError("matrix sizes start at 2, got %d" % lo)
    if hi > SIZE_LIMIT:
        raise ConfigError("matrix sizes are at most %d, got %d"
                          % (SIZE_LIMIT, hi))
    return list(range(lo, hi + 1))


def make_ring(name, omega):
    if name == "gauss":
        return GAUSS
    if name == "fnring":
        if omega < 1:
            raise ConfigError("a function ring needs at least one point")
        if omega > SIZE_LIMIT:
            raise ConfigError("a function ring has at most %d points, got %d"
                              % (SIZE_LIMIT, omega))
        return FunctionRing(omega)
    if name == "poly":
        return PolynomialRing(("z", "zc", "w"), ((0, 1),))
    raise ConfigError("unknown ring %r" % name)


def build_parser():
    p = argparse.ArgumentParser(
        prog="skewlie",
        description="verify reconstructions of two-local and local "
                    "derivations of skew-adjoint matrices, exactly")
    p.add_argument("--mode", default="all",
                   choices=("twolocal", "local", "symcheck", "axioms", "all"),
                   help="which campaign to run (default: all)")
    p.add_argument("--n", default="3", metavar="N_OR_RANGE",
                   help="matrix size, a single value or a range a..b "
                        "(default: 3)")
    p.add_argument("--ring", default="gauss",
                   choices=("gauss", "fnring", "poly"),
                   help="scalar ring (default: gauss)")
    p.add_argument("--omega", type=int, default=2, metavar="K",
                   help="number of points of the function ring "
                        "(default: 2)")
    p.add_argument("--trials", type=int, default=10, metavar="T",
                   help="seeded trials per size (default: 10)")
    p.add_argument("--seed", type=int, default=0, metavar="S",
                   help="master seed (default: 0)")
    p.add_argument("--gauge", default="central", choices=GAUGES,
                   help="witness gauge for the hidden oracles "
                        "(default: central)")
    p.add_argument("--p-sweep", action="store_true",
                   help="re-extract every corner through all admissible "
                        "middle indices")
    p.add_argument("--lemma", default=None, metavar="ID",
                   help="certify one statement instead of all of them "
                        "(symcheck mode)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the JSON report here instead of stdout")
    return p


def _symcheck_records(rep, sizes, lemma):
    lemmas = known_lemmas() if lemma is None else [lemma]
    full = lemma is not None
    for n in sizes:
        for lem in lemmas:
            cert = certify_lemma(lem, n)
            payload = cert.to_dict() if full else {
                "indices": list(cert.indices),
                "components": len(cert.components),
                "not_implied": [c.label for c in cert.counterexamples()],
            }
            rep.add("certificate %s at n=%d" % (lem, n), cert.all_implied,
                    anchor=cert.anchor, **payload)


def run(args):
    sizes = parse_sizes(args.n)
    ring = make_ring(args.ring, args.omega)
    if args.trials < 1:
        raise ConfigError("need at least one trial, got %d" % args.trials)
    if args.lemma is not None and args.lemma not in known_lemmas():
        raise ConfigError("no certificate builder for %r (known: %s)"
                          % (args.lemma, ", ".join(known_lemmas())))
    modes = ("axioms", "twolocal", "local", "symcheck") \
        if args.mode == "all" else (args.mode,)
    if min(sizes) < 3:
        if "twolocal" in modes or "local" in modes:
            raise ConfigError(
                "size %d is too small: the reconstruction walks corners "
                "through a third index, so three distinct indices are "
                "required (n >= 3)" % min(sizes))
        if "symcheck" in modes:
            raise ConfigError("certificates are stated for sizes >= 3")
    config = {
        "mode": args.mode, "n": args.n, "ring": ring.name,
        "omega": args.omega, "trials": args.trials, "seed": args.seed,
        "gauge": args.gauge, "p_sweep": bool(args.p_sweep),
        "lemma": args.lemma,
    }
    rep = VerificationReport("skewlie %s" % args.mode, config=config,
                             seed=args.seed)
    if "axioms" in modes:
        rep.extend(check_ring_axioms(ring, seed=args.seed))
    if "twolocal" in modes:
        for n in sizes:
            rep.extend(twolocal_campaign(ring, n, args.trials, args.seed,
                                         gauge=args.gauge,
                                         p_sweep=args.p_sweep))
    if "local" in modes:
        for n in sizes:
            rep.extend(localder_campaign(ring, n, args.trials, args.seed,
                                         gauge=args.gauge))
            if isinstance(ring, FunctionRing):
                rep.extend(lift_campaign(n, args.omega, args.trials,
                                         args.seed))
    if "symcheck" in modes:
        _symcheck_records(rep, sizes, args.lemma)
    return rep


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = run(args)
    except ConfigError as e:
        print("configuration error: %s" % e, file=sys.stderr)
        return 2
    text = report.to_json()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            print("cannot write %s: %s" % (args.out, e), file=sys.stderr)
            return 3
        print(report.summary())
    else:
        print(text)
        print(report.summary(), file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
