"""Ring layer: exact arithmetic, involutions, operands and formats.

Expected values below were computed by hand from the defining formulas
(Gaussian product (a+bi)(c+di) = (ac-bd) + (ad+bc)i and the gcd-reduced
triple representation) and frozen here.
"""

import operator
import random
from fractions import Fraction

import pytest

from skewlie.errors import DimensionMismatch
from skewlie.rings import (
    AXIOM_SAMPLES,
    GAUSS,
    FunctionElement,
    FunctionRing,
    GaussianField,
    GaussianRational,
    PolyElement,
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

    def test_division_takes_only_gaussian_scalars(self):
        r = self.make()
        p = 2 * r.var(0) + r.var(2)
        i = GaussianRational(0, 1)
        assert p / 2 == r.var(0) + r.scalar(Fraction(1, 2)) * r.var(2)
        assert p / Fraction(1, 3) == 3 * p
        assert p / i == -i * p
        with pytest.raises(ZeroDivisionError):
            p / 0
        # a polynomial divisor, even a constant one, is refused
        with pytest.raises(TypeError):
            p / r.one

    def test_real_samples_are_star_fixed(self):
        r = self.make()
        rng = random.Random(5)
        for _ in range(20):
            x = r.random_real(rng)
            assert r.star(x) == x


def _randint_parts(rng, real=False):
    """random_parts as drawn through rng.randint."""
    a = rng.randint(-9, 9)
    b = 0 if real else rng.randint(-9, 9)
    return a, b, rng.randint(1, 5)


class TestRandomParts:
    @pytest.mark.parametrize("real", [False, True], ids=["element", "real"])
    def test_same_draws_and_state_as_randint(self, real):
        # random_parts redoes randint's getrandbits rejection; the values
        # and the generator state after them must match randint exactly
        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            drawn = [GAUSS.random_parts(rng, real=real) for _ in range(300)]
            assert drawn == [_randint_parts(ref, real) for _ in range(300)]
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("ring", [
    GAUSS,
    FunctionRing(3),
    PolynomialRing(("z0", "z1"), star_pairs=((0, 1),)),
], ids=lambda r: r.name)
def test_ring_axioms_hold(ring):
    rep = check_ring_axioms(ring, seed=11)
    assert rep.passed, rep.summary()


class _ShiftedStar(GaussianField):
    """The Gaussian rationals with star(x) = conj(x) + 1, which is not
    additive."""

    def star(self, x):
        return super().star(x) + 1


def test_axiom_sweep_reports_a_broken_law():
    rep = check_ring_axioms(_ShiftedStar(), seed=0)
    assert not rep.passed
    failed = [r.name for r in rep.failures()]
    assert failed == ["star is additive", "star is multiplicative",
                      "star is an involution",
                      "imaginary unit is skew under star"]
    additive = next(r for r in rep.records if r.name == "star is additive")
    assert additive.payload == {"trials": AXIOM_SAMPLES}
    # the ring's own laws do not read star, so they still pass
    assert {r.name for r in rep.records if r.passed} >= {
        "addition commutes", "multiplication distributes", "one half exists"}


def test_axiom_report_shape():
    rep = check_ring_axioms(GAUSS, seed=0)
    d = rep.to_dict()
    assert d["schema_version"] == 1
    assert d["summary"]["failed"] == 0
    assert all(c["status"] == "pass" for c in d["checks"])


_POLY = PolynomialRing(("z0", "z1"), star_pairs=((0, 1),))


@pytest.mark.parametrize("elem,value", [
    (GaussianRational(3), 3),
    (GaussianRational(1, 0, 2), Fraction(1, 2)),
    (GaussianRational(1, 0, 2), GaussianRational(1, 0, 2)),
    (FunctionRing(2).one, 1),
    (FunctionRing(2).scalar(Fraction(-3, 4)), Fraction(-3, 4)),
    (FunctionRing(2).zero, 0),
    (_POLY.one, 1),
    (_POLY.scalar(Fraction(5, 3)), Fraction(5, 3)),
    (_POLY.zero, 0),
], ids=repr)
def test_hash_agrees_with_equality(elem, value):
    # an element equal to a plain value must hash as that value, or a set
    # or dict holds both
    assert elem == value
    assert hash(elem) == hash(value)
    assert len({elem, value}) == 1


@pytest.mark.parametrize("ring", [GAUSS, FunctionRing(3), _POLY],
                         ids=lambda r: r.name)
def test_elements_are_immutable_and_take_plain_minus_element(ring):
    x = ring.random_element(random.Random(5))
    for value in (2, Fraction(-1, 3)):
        out = value - x
        assert type(out) is type(x)
        assert out == ring.scalar(value) - x
        assert out + x == value
    with pytest.raises(AttributeError, match="immutable"):
        x.anything = 1
    with pytest.raises(AttributeError, match="immutable"):
        setattr(x, type(x).__slots__[0], None)


_RINGS = [GAUSS, FunctionRing(3), _POLY]

# the binary operators that lift their other operand through the class's
# own _coerce, and so answer NotImplemented when it refuses
_COERCING = [
    (GaussianRational, "__add__"), (GaussianRational, "__sub__"),
    (GaussianRational, "__mul__"), (GaussianRational, "__truediv__"),
    (GaussianRational, "__rtruediv__"), (GaussianRational, "__eq__"),
    (GaussianRational, "__rsub__"),
    (FunctionElement, "__add__"), (FunctionElement, "__sub__"),
    (FunctionElement, "__mul__"), (FunctionElement, "__truediv__"),
    (FunctionElement, "__eq__"), (FunctionElement, "__rsub__"),
    (PolyElement, "__add__"), (PolyElement, "__sub__"),
    (PolyElement, "__mul__"), (PolyElement, "__eq__"),
    (PolyElement, "__rsub__"),
]


def _nonzero_element(ring, seed=5):
    rng = random.Random(seed)
    x = ring.random_element(rng)
    while not all(getattr(x, "values", (x,))):
        x = ring.random_element(rng)
    return x


class TestOperandProtocol:
    @pytest.mark.parametrize("cls,name", _COERCING,
                             ids=lambda v: getattr(v, "__name__", v))
    def test_unliftable_operand_answers_not_implemented(self, cls, name):
        ring = {GaussianRational: GAUSS, FunctionElement: FunctionRing(3),
                PolyElement: _POLY}[cls]
        x = _nonzero_element(ring)
        assert getattr(x, name)(object()) is NotImplemented

    @pytest.mark.parametrize("ring", _RINGS, ids=lambda r: r.name)
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv],
                             ids=lambda op: op.__name__)
    def test_unliftable_operand_raises_type_error(self, ring, op):
        x = _nonzero_element(ring)
        alien = object()
        with pytest.raises(TypeError):
            op(x, alien)
        with pytest.raises(TypeError):
            op(alien, x)

    @pytest.mark.parametrize("ring", _RINGS, ids=lambda r: r.name)
    def test_unliftable_operand_is_unequal(self, ring):
        x = _nonzero_element(ring)
        alien = object()
        assert (x == alien) is False and (alien == x) is False
        assert (x != alien) is True and (alien != x) is True

    @pytest.mark.parametrize("ring", _RINGS, ids=lambda r: r.name)
    @pytest.mark.parametrize("value", [2, 1, Fraction(1, 2)], ids=repr)
    def test_plain_value_on_the_left_gives_the_forward_result(self, ring,
                                                              value):
        x = _nonzero_element(ring)
        c = ring.scalar(value)
        ops = [operator.add, operator.sub, operator.mul]
        if ring is GAUSS:
            ops.append(operator.truediv)
        for op in ops:
            out = op(value, x)
            assert type(out) is type(x)
            assert out == op(c, x)

    @pytest.mark.parametrize("ring", _RINGS[1:], ids=lambda r: r.name)
    def test_gaussian_on_the_left_lifts_into_the_wider_ring(self, ring):
        # GaussianRational's operator refuses the wider element, so Python
        # runs the wider element's reflected operator
        g = GaussianRational(1, -2, 3)
        x = _nonzero_element(ring)
        c = ring.scalar(g)
        for op in (operator.add, operator.sub, operator.mul):
            out = op(g, x)
            assert type(out) is type(x)
            assert out == op(c, x)
        assert g == c and c == g
        assert g != x and x != g
