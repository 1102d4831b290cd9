"""Matrix layer: exact products along every strategy, star transpose, JSON.

The 2x2 and 3x3 products below were multiplied out by hand and frozen.
"""

import json
import random

import pytest

from skewlie.errors import DimensionMismatch, IndexOutOfRange, MalformedInput
from skewlie.matrices import (
    Matrix,
    corner,
    from_json,
    identity,
    is_skew_adjoint,
    matrix_unit,
    star_transpose,
    to_json,
    zeros,
)
from skewlie.rings import GAUSS, FunctionRing, GaussianRational, PolynomialRing


def G(a, b=0, d=1):
    return GaussianRational(a, b, d)


def gmat(rows):
    return Matrix(GAUSS, ((G(*v) if isinstance(v, tuple) else G(v)
                           for v in r) for r in rows))


def random_gauss_matrix(rng, n):
    return Matrix(GAUSS, ((GAUSS.random_element(rng) for _ in range(n))
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
            gmat([[1, 2], [3, 4]]) + identity(3)
        with pytest.raises(DimensionMismatch):
            gmat([[1, 2], [3, 4]]) * Matrix(FunctionRing(1),
                                            [[FunctionRing(1).one]])
        with pytest.raises(DimensionMismatch):
            Matrix(GAUSS, [[G(1), G(2)]])


class TestProducts:
    def test_hand_multiplied_2x2(self):
        # (1 2; 3 4)(0 1; 1 0) = (2 1; 4 3)
        a = gmat([[1, 2], [3, 4]])
        b = gmat([[0, 1], [1, 0]])
        assert a * b == gmat([[2, 1], [4, 3]])

    def test_hand_multiplied_complex(self):
        # (i 0; 0 -i)(0 1; 1 0) = (0 i; -i 0)
        a = gmat([[(0, 1), 0], [0, (0, -1)]])
        b = gmat([[0, 1], [1, 0]])
        assert a * b == gmat([[0, (0, 1)], [(0, -1), 0]])

    def test_matrix_units_compose(self):
        e12 = matrix_unit(3, 1, 2)
        e23 = matrix_unit(3, 2, 3)
        assert e12 * e23 == matrix_unit(3, 1, 3)
        assert e23 * e12 == zeros(3)

    def test_dense_and_generic_paths_agree(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            a = random_gauss_matrix(rng, n)
            b = random_gauss_matrix(rng, n)
            assert a._matmul(b) == a._mul_generic(b)

    def test_sparse_paths_agree_with_generic(self):
        rng = random.Random(8)
        a = random_gauss_matrix(rng, 4)
        e = matrix_unit(4, 2, 3)
        assert a._mul_sparse_right(e) == a._mul_generic(e)
        assert e._mul_sparse_left(a) == e._mul_generic(a)
        assert a * e == a._mul_generic(e)
        assert e * a == e._mul_generic(a)

    def test_function_ring_product_is_pointwise(self):
        r = FunctionRing(2)
        lift = r.lift
        a = Matrix(r, [[lift([1, 2]), lift([0, 1])],
                       [lift([3, 0]), lift([1, 1])]])
        b = Matrix(r, [[lift([2, 2]), lift([1, 0])],
                       [lift([0, 5]), lift([4, 4])]])
        prod = a * b
        for k in range(2):
            assert prod._at_point(k) == a._at_point(k) * b._at_point(k)

    def test_polynomial_entries_multiply(self):
        pr = PolynomialRing(("z",))
        z = pr.var(0)
        a = Matrix(pr, [[z, pr.one], [pr.zero, z]])
        assert (a * a).entry(1, 2) == 2 * z

    def test_matmul_operator(self):
        a = gmat([[1, 2], [3, 4]])
        assert a @ identity(2) == a


class TestStarTranspose:
    def test_conjugates_and_flips(self):
        a = gmat([[(1, 2), (3, 4)], [(5, 6), (7, 8)]])
        assert star_transpose(a) == gmat([[(1, -2), (5, -6)],
                                          [(3, -4), (7, -8)]])

    def test_skew_adjoint_detection(self):
        # (i 1; -1 i) satisfies x* = -x
        x = gmat([[(0, 1), 1], [-1, (0, 1)]])
        assert is_skew_adjoint(x)
        assert not is_skew_adjoint(identity(2))

    def test_antimultiplicative(self):
        rng = random.Random(9)
        a = random_gauss_matrix(rng, 3)
        b = random_gauss_matrix(rng, 3)
        assert star_transpose(a * b) == star_transpose(b) * star_transpose(a)


class TestCornersAndBlocks:
    def test_corner_picks_single_entry(self):
        a = gmat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert corner(a, 1, 3) == 3 * matrix_unit(3, 1, 3)
        assert corner(a, 2, 2) == 5 * matrix_unit(3, 2, 2)

    def test_corner_is_two_sided_unit_product(self):
        rng = random.Random(10)
        a = random_gauss_matrix(rng, 4)
        for i in (1, 3):
            for j in (2, 4):
                assert corner(a, i, j) == \
                    matrix_unit(4, i, i) * a * matrix_unit(4, j, j)


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
