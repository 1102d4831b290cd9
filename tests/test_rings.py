"""Ring layer: exact arithmetic, involutions, text round trips and formats.

Expected values below were computed by hand from the defining formulas
(Gaussian product (a+bi)(c+di) = (ac-bd) + (ad+bc)i and the gcd-reduced
triple representation) and frozen here.
"""

import random
from fractions import Fraction

import pytest

from skewlie.errors import DimensionMismatch
from skewlie.rings import (
    GAUSS,
    FunctionRing,
    GaussianRational,
    PolynomialRing,
    check_ring_axioms,
    imaginary_unit,
)


class TestGaussianRational:
    def test_normalization_reduces_gcd_and_sign(self):
        x = GaussianRational(4, -6, -8)
        assert (x.a, x.b, x.d) == (-2, 3, 4)

    def test_product_frozen_value(self):
        # (1/2 + 3/2 i)(2 - i) = 1 + 4 - ... computed by hand: (5/2 + 5/2 i)
        x = GaussianRational(1, 3, 2)
        y = GaussianRational(2, -1, 1)
        assert x * y == GaussianRational(5, 5, 2)

    def test_division_by_conjugate_norm(self):
        # (1+i)/(1-i) = i, and 1/(3+4i) = (3-4i)/25
        i = GAUSS.imag
        assert (1 + i) / (1 - i) == i
        assert GAUSS.one / GaussianRational(3, 4, 1) == GaussianRational(3, -4, 25)

    def test_int_and_fraction_mix(self):
        x = GaussianRational(1, 1, 2)
        assert 2 * x == GaussianRational(1, 1, 1)
        assert x - Fraction(1, 2) == GaussianRational(0, 1, 2)
        assert x / 2 == GaussianRational(1, 1, 4)

    def test_bool(self):
        assert not GaussianRational(0, 0, 7)
        assert GaussianRational(0, 1, 7)

    def test_re_im_are_fractions(self):
        x = GaussianRational(3, -2, 6)
        assert x.re == Fraction(1, 2)
        assert x.im == Fraction(-1, 3)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1, 1, 0)


class TestGaussFormatParse:
    @pytest.mark.parametrize("triple,text", [
        ((0, 0, 1), "0"),
        ((3, 0, 2), "3/2"),
        ((-3, 0, 2), "-3/2"),
        ((0, 1, 1), "i"),
        ((0, -1, 1), "-i"),
        ((0, -3, 1), "-3*i"),
        ((1, 3, 2), "1/2+3/2*i"),
        ((1, -3, 4), "1/4-3/4*i"),
        ((-1, -1, 1), "-1-i"),
    ])
    def test_format_frozen(self, triple, text):
        assert GAUSS.format(GaussianRational(*triple)) == text

    @pytest.mark.parametrize("text", [
        "0", "3/2", "-3/2", "i", "-i", "-3*i", "1/2+3/2*i", "1/4-3/4*i",
        "2-i", "  1 + 2*i ", "+5", "7i",
    ])
    def test_parse_round_trip(self, text):
        x = GAUSS.parse(text)
        assert GAUSS.parse(GAUSS.format(x)) == x

    def test_parse_rejects_garbage(self):
        for bad in ("", "1//2", "i+", "one"):
            with pytest.raises(ValueError):
                GAUSS.parse(bad)


class TestFunctionRing:
    def test_pointwise_product_frozen(self):
        r = FunctionRing(3)
        x = r.lift([1, 2, GaussianRational(0, 1, 1)])
        y = r.lift([GaussianRational(1, 1, 1), 3, GaussianRational(0, 1, 1)])
        assert r.format(x * y) == "[1+i,6,-1]"

    def test_project_and_lift_inverse(self):
        r = FunctionRing(2)
        x = r.lift([Fraction(1, 2), GaussianRational(0, 2, 3)])
        assert r.lift(list(x.values)) == x

    def test_arity_mismatch_raises(self):
        r = FunctionRing(2)
        with pytest.raises(DimensionMismatch):
            r.lift([1, 2, 3])
        with pytest.raises(DimensionMismatch):
            r.lift([1, 1]) + FunctionRing(3).lift([1, 1, 1])

    def test_scalar_broadcasts(self):
        r = FunctionRing(3)
        assert r.scalar(2) == r.lift([2, 2, 2])
        assert 2 * r.one == r.scalar(2)


class TestPolynomialRing:
    def make(self):
        # z0, z1 swapped by star; w fixed
        return PolynomialRing(("z0", "z1", "w"), star_pairs=((0, 1),))

    def test_star_conjugates_and_permutes(self):
        r = self.make()
        z0, z1, w = r.var(0), r.var(1), r.var(2)
        i = imaginary_unit(r)
        x = i * z0 * w + 2 * z1
        assert r.star(x) == -i * z1 * w + 2 * z0
        assert r.star(r.star(x)) == x

    def test_product_collects_monomials(self):
        r = self.make()
        z0, z1 = r.var(0), r.var(1)
        assert (z0 + z1) * (z0 - z1) == z0 * z0 - z1 * z1

    def test_format_frozen(self):
        r = self.make()
        z0, w = r.var(0), r.var(2)
        i = imaginary_unit(r)
        x = 3 * z0 * z0 * w - i * w + r.scalar(GaussianRational(1, 2, 1)) * z0
        assert r.format(x) == "(1+2*i)*z0 - i*w + 3*z0^2*w"

    def test_equality_is_structural(self):
        # equal rings built apart mix freely; rings that differ in names
        # or in star pairs do not, and mixing their elements is refused
        r, twin = self.make(), self.make()
        assert r is not twin and r == twin and hash(r) == hash(twin)
        assert r.var(0) + twin.var(2) == r.var(0) + r.var(2)
        renamed = PolynomialRing(("z0", "z1", "v"), star_pairs=((0, 1),))
        unpaired = PolynomialRing(("z0", "z1", "w"))
        for other in (renamed, unpaired):
            assert other != r
            with pytest.raises(DimensionMismatch):
                r.var(0) + other.var(0)
            with pytest.raises(DimensionMismatch):
                r.var(0) == other.var(0)

    def test_real_samples_are_star_fixed(self):
        r = self.make()
        rng = random.Random(5)
        for _ in range(20):
            x = r.random_real(rng)
            assert r.star(x) == x


@pytest.mark.parametrize("ring", [
    GAUSS,
    FunctionRing(3),
    PolynomialRing(("z0", "z1"), star_pairs=((0, 1),)),
], ids=lambda r: r.name)
def test_ring_axioms_hold(ring):
    rep = check_ring_axioms(ring, seed=11)
    assert rep.passed, rep.summary()


def test_axiom_report_shape():
    rep = check_ring_axioms(GAUSS, seed=0)
    d = rep.to_dict()
    assert d["schema_version"] == 1
    assert d["summary"]["failed"] == 0
    assert all(c["status"] == "pass" for c in d["checks"])
