"""Tour of the three coefficient rings.

Everything downstream is generic over a commutative ring with an
involution (written star). This script shows the three concrete rings
the package ships: Gaussian rationals with conjugation, tuple-valued
function rings with pointwise conjugation, and sparse polynomial rings
where star swaps designated variable pairs.
"""

from skewlie import GAUSS, FunctionRing, PolynomialRing, check_ring_axioms


def main():
    x = GAUSS.parse("3/4+2i")
    y = GAUSS.parse("-1/2i")
    print("gaussian rationals")
    print("  x          =", GAUSS.format(x))
    print("  y          =", GAUSS.format(y))
    print("  x*y        =", GAUSS.format(x * y))
    print("  star(x)    =", GAUSS.format(GAUSS.star(x)))
    print("  x*star(x)  =", GAUSS.format(x * GAUSS.star(x)), "(real, as it must be)")

    fn = FunctionRing(3)
    f = fn.parse("[1+1i, 0, -2]")
    g = fn.parse("[1/2, 1i, 1]")
    print("functions on a 3-point domain (pointwise operations)")
    print("  f        =", fn.format(f))
    print("  f*g      =", fn.format(f * g))
    print("  star(f)  =", fn.format(fn.star(f)))

    # star fixes w and swaps the pair (z, zc)
    poly = PolynomialRing(("z", "zc", "w"), ((0, 1),))
    z, zc, w = (poly.var(k) for k in range(3))
    p = z * zc + w * poly.scalar(GAUSS.imag)
    print("polynomials with star swapping z and zc")
    print("  p        =", poly.format(p))
    print("  star(p)  =", poly.format(poly.star(p)))

    print()
    print("axiom sweeps (seeded random samples, exact arithmetic):")
    for ring in (GAUSS, fn, poly):
        rep = check_ring_axioms(ring, seed=0)
        print(" ", rep.summary().splitlines()[0])


if __name__ == "__main__":
    main()
