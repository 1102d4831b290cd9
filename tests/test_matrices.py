"""Matrix layer: the bracket against its entrywise definition on every
kernel, star transpose, point values, JSON.

Matrices have no associative product: commutator is the only one.
"""

import json
import random

import pytest

from skewlie.errors import DimensionMismatch, IndexOutOfRange, MalformedInput
from skewlie.lie import bracket, canonical_basis, staircase
from skewlie.matrices import (
    Matrix,
    commutator,
    from_json,
    from_points,
    is_skew_adjoint,
    matrix_unit,
    star_transpose,
    to_json,
)
from skewlie.rings import GAUSS, FunctionRing, GaussianRational, PolynomialRing


def G(a, b=0, d=1):
    return GaussianRational(a, b, d)


def gmat(rows):
    return Matrix(GAUSS, ((G(*v) if isinstance(v, tuple) else G(v)
                           for v in r) for r in rows))


def random_matrix(rng, n, ring=GAUSS):
    return Matrix(ring, ((ring.random_element(rng) for _ in range(n))
                         for _ in range(n)))


class TestBasics:
    def test_entry_is_one_based(self):
        e = matrix_unit(3, 1, 2)
        assert e.entry(1, 2) == G(1)
        assert e.entry(2, 1) == G(0)
        with pytest.raises(IndexOutOfRange):
            e.entry(0, 1)
        with pytest.raises(IndexOutOfRange):
            matrix_unit(3, 1, 4)

    def test_add_sub_neg(self):
        a = gmat([[1, 2], [3, 4]])
        b = gmat([[5, 6], [7, 8]])
        assert a + b == gmat([[6, 8], [10, 12]])
        assert b - a == gmat([[4, 4], [4, 4]])
        assert -a == gmat([[-1, -2], [-3, -4]])

    def test_scalar_multiplication_both_sides(self):
        a = gmat([[1, 2], [3, 4]])
        assert 2 * a == gmat([[2, 4], [6, 8]])
        assert a * G(0, 1) == gmat([[(0, 1), (0, 2)], [(0, 3), (0, 4)]])

    def test_ring_and_size_guards(self):
        with pytest.raises(DimensionMismatch):
            gmat([[1, 2], [3, 4]]) + matrix_unit(3, 1, 1)
        with pytest.raises(DimensionMismatch):
            commutator(matrix_unit(1, 1, 1),
                       Matrix(FunctionRing(1), [[FunctionRing(1).one]]))
        with pytest.raises(DimensionMismatch):
            Matrix(GAUSS, [[G(1), G(2)]])


def entrywise_bracket(a, b):
    """sum_p a^{ip} b^{pj} - b^{ip} a^{pj}, with the ring's + and *."""
    n, zero = a.n, a.ring.zero
    return Matrix(a.ring, ((sum((a.rows[i][p] * b.rows[p][j]
                                 - b.rows[i][p] * a.rows[p][j]
                                 for p in range(n)), zero)
                            for j in range(n)) for i in range(n)))


def _shape_pairs(shape, rng, n, ring):
    basis = canonical_basis(n, ring)
    if shape == "basis-right":
        return [(random_matrix(rng, n, ring), e) for e in basis]
    if shape == "basis-left":
        return [(e, random_matrix(rng, n, ring)) for e in basis]
    if shape == "basis-basis":
        return [(e, f) for e in basis for f in basis]
    if shape == "staircase-dense":
        return [(staircase(n, ring), random_matrix(rng, n, ring))]
    return [(random_matrix(rng, n, ring), random_matrix(rng, n, ring))
            for _ in range(3)]


class TestCommutator:
    @pytest.mark.parametrize("ring", [
        GAUSS,
        FunctionRing(2),
        PolynomialRing(("z", "zc"), ((0, 1),)),
    ], ids=["gauss", "fnring", "poly"])
    @pytest.mark.parametrize("shape", ["basis-right", "basis-left",
                                       "basis-basis", "staircase-dense",
                                       "dense-dense"])
    def test_matches_entrywise_definition(self, ring, shape):
        rng = random.Random(11)
        for n in (3, 4):
            for a, b in _shape_pairs(shape, rng, n, ring):
                assert commutator(a, b) == entrywise_bracket(a, b)

    def test_non_matrix_arguments(self):
        m = matrix_unit(2, 1, 1)
        with pytest.raises(DimensionMismatch):
            commutator(3, m)
        with pytest.raises(DimensionMismatch):
            commutator(m, 3)

    def test_no_associative_product(self):
        a = gmat([[1, 2], [3, 4]])
        with pytest.raises(TypeError):
            a * a
        with pytest.raises(TypeError):
            a @ a


class TestStarTranspose:
    def test_conjugates_and_flips(self):
        a = gmat([[(1, 2), (3, 4)], [(5, 6), (7, 8)]])
        assert star_transpose(a) == gmat([[(1, -2), (5, -6)],
                                          [(3, -4), (7, -8)]])

    def test_skew_adjoint_detection(self):
        # (i 1; -1 i) satisfies x* = -x
        x = gmat([[(0, 1), 1], [-1, (0, 1)]])
        assert is_skew_adjoint(x)
        assert not is_skew_adjoint(matrix_unit(2, 1, 1))

    def test_antimultiplicative(self):
        rng = random.Random(9)
        a = random_matrix(rng, 3)
        b = random_matrix(rng, 3)
        assert star_transpose(bracket(a, b)) == \
            bracket(star_transpose(b), star_transpose(a))


class TestPointValues:
    def test_from_points_shares_one_ring_per_size(self):
        a = gmat([[1, 2], [3, 4]])
        first = from_points([a, a, a])
        second = from_points([-a, a, a])
        assert first.ring is second.ring
        assert first.ring == FunctionRing(3)
        assert from_points([a, a]).ring == FunctionRing(2)


class TestJson:
    def test_round_trip_gauss(self):
        x = gmat([[(1, 2, 2), 0], [(0, -1), (3,)]])
        assert from_json(to_json(x)) == x

    def test_layout_is_zero_based_row_major(self):
        data = json.loads(to_json(matrix_unit(2, 1, 2)))
        assert data["n"] == 2
        assert data["entries"][0][1] == "1"
        assert data["entries"][1][0] == "0"

    def test_round_trip_function_ring(self):
        r = FunctionRing(2)
        x = Matrix(r, [[r.lift([1, 2]), r.imag], [r.zero, r.one]])
        assert from_json(to_json(x), ring=r) == x

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            from_json('{"entries": [["0"]]}')
        with pytest.raises(DimensionMismatch):
            from_json('{"n": 2, "entries": [["0", "0"]]}')

    @pytest.mark.parametrize("text, where", [
        ('{"n": 2, "entries": 5}', None),
        ('{"n": 1, "entries": [[3]]}', "(0, 0)"),
        ('{"n": 2, "entries": [["0", "0"], ["0", "x"]]}', "(1, 1)"),
        ('{"n": 1, "entries": [["0"]', None),
        ('{"n": true, "entries": [["0"]]}', None),
    ])
    def test_malformed_input(self, text, where):
        with pytest.raises(MalformedInput) as info:
            from_json(text)
        if where is not None:
            assert where in str(info.value)
