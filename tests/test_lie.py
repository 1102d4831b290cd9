"""Lie layer: basis order, decomposition, brackets, gauges.

Bracket values below were expanded by hand from e_{i,j} e_{k,l} =
delta_{j,k} e_{i,l} and frozen.
"""

import random
from fractions import Fraction

import pytest

from skewlie.errors import (
    DimensionMismatch,
    EqualIndices,
    NotSkewAdjoint,
)
from skewlie.lie import (
    LinearLieMap,
    basis_labels,
    bracket,
    canonical_basis,
    decompose,
    ie_bar,
    ie_diag,
    is_central,
    random_skew,
    s_elem,
    staircase,
)
from skewlie.cli import make_ring
from skewlie.localder import GaugedInnerLocal
from skewlie.matrices import (
    Matrix,
    from_entries,
    from_points,
    is_skew_adjoint,
    zeros,
)
from skewlie.rings import (
    GAUSS,
    FunctionRing,
    GaussianRational,
    PolynomialRing,
    imaginary_unit,
)
from skewlie.twolocal import GaugedInnerTwoLocal

RINGS = [GAUSS, FunctionRing(2), PolynomialRing(("z0", "z1"), ((0, 1),))]


class TestGenerators:
    def test_s_and_ebar_shape(self):
        assert s_elem(3, 1, 2) == from_entries(3, {(1, 2): 1, (2, 1): -1})
        assert ie_bar(3, 1, 2) == from_entries(
            3, {(1, 2): GAUSS.imag, (2, 1): GAUSS.imag})
        assert s_elem(3, 2, 1) == -s_elem(3, 1, 2)
        with pytest.raises(EqualIndices):
            s_elem(3, 2, 2)
        with pytest.raises(EqualIndices):
            ie_bar(3, 2, 2)

    @pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
    def test_generators_are_skew_adjoint(self, ring):
        for x in (s_elem(3, 1, 3, ring), ie_bar(3, 2, 3, ring),
                  ie_diag(3, 2, ring), staircase(3, ring=ring)):
            assert is_skew_adjoint(x)

    def test_staircase_unit_weights(self):
        x0 = staircase(4)
        assert x0 == s_elem(4, 1, 2) + s_elem(4, 2, 3) + s_elem(4, 3, 4)


class TestBasis:
    def test_labels_frozen_for_n2(self):
        assert basis_labels(2) == ["s[1,2]", "Ibar[1,2]", "Idiag[1]", "Idiag[2]"]

    def test_order_s_then_ibar_then_diag(self):
        labels = basis_labels(3)
        assert labels[:3] == ["s[1,2]", "s[1,3]", "s[2,3]"]
        assert labels[3:6] == ["Ibar[1,2]", "Ibar[1,3]", "Ibar[2,3]"]
        assert labels[6:] == ["Idiag[1]", "Idiag[2]", "Idiag[3]"]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_basis_matches_labels(self, n):
        elems = canonical_basis(n)
        labels = basis_labels(n)
        assert len(elems) == len(labels) == n * n
        build = {"s": s_elem, "Ibar": ie_bar, "Idiag": ie_diag}
        for label, elem in zip(labels, elems):
            kind, idx = label[:-1].split("[")
            assert elem is build[kind](n, *map(int, idx.split(",")))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        assert labels == (["s[%d,%d]" % pq for pq in pairs]
                          + ["Ibar[%d,%d]" % pq for pq in pairs]
                          + ["Idiag[%d]" % i for i in range(1, n + 1)])


class TestBracket:
    def test_frozen_values(self):
        n = 3
        assert bracket(s_elem(n, 1, 2), s_elem(n, 2, 3)) == s_elem(n, 1, 3)
        assert bracket(ie_diag(n, 1), s_elem(n, 1, 2)) == ie_bar(n, 1, 2)
        assert bracket(s_elem(n, 1, 2), ie_diag(n, 1)) == -ie_bar(n, 1, 2)
        assert bracket(ie_diag(n, 1), ie_diag(n, 2)) == zeros(n)

    def test_antisymmetry_and_jacobi(self):
        rng = random.Random(3)
        a, b, c = (random_skew(rng, 3) for _ in range(3))
        assert bracket(a, b) == -bracket(b, a)
        lhs = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) \
            + bracket(c, bracket(a, b))
        assert lhs == zeros(3)

    @pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
    def test_closed_under_bracket(self, ring):
        rng = random.Random(4)
        a = random_skew(rng, 3, ring)
        b = random_skew(rng, 3, ring)
        assert is_skew_adjoint(bracket(a, b))


class TestDecompose:
    def test_frozen_coefficients(self):
        # x^{12} = 3 + 2i forces x^{21} = -3 + 2i; then the s and Ibar
        # coefficients are 3 and 2
        v = GaussianRational(3, 2, 1)
        x = Matrix(GAUSS, [[GAUSS.zero, v], [-v.conjugate(), GAUSS.zero]])
        coeffs = decompose(x)
        assert coeffs == [GAUSS.scalar(3), GAUSS.scalar(2),
                          GAUSS.zero, GAUSS.zero]

    @pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
    def test_round_trip_and_star_fixed(self, ring):
        rng = random.Random(6)
        for _ in range(5):
            x = random_skew(rng, 3, ring)
            coeffs = decompose(x)
            assert all(ring.star(c) == c for c in coeffs)
            basis = canonical_basis(3, ring)
            assert sum((c * b for c, b in zip(coeffs, basis)),
                       zeros(3, ring)) == x

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
    def test_basis_decomposes_to_unit_vectors(self, ring, n):
        elems = canonical_basis(n, ring)
        for k, b in enumerate(elems):
            coeffs = decompose(b)
            assert coeffs[k] == ring.one
            assert all(not c for m, c in enumerate(coeffs) if m != k)

    def test_rejects_non_skew(self):
        with pytest.raises(NotSkewAdjoint):
            decompose(from_entries(2, {(1, 1): 1}))


class TestLinearMaps:
    def test_tabulated_inner_derivation_agrees(self):
        # the integer table must reproduce the ring-generic recombination
        # entry for entry, on dense (one packed product) and sparse
        # (column sums) arguments alike
        rng = random.Random(8)
        for n in range(3, 7):
            a = random_skew(rng, n)
            m = LinearLieMap.tabulate(lambda x: bracket(a, x), n)
            args = [random_skew(rng, n) for _ in range(5)]
            args += canonical_basis(n) + [staircase(n), zeros(n)]
            for x in args:
                out = m.apply(x)
                assert out == bracket(a, x)
                assert out.rows == m._apply_generic(x).rows

    def test_function_ring_tables_agree(self):
        # one integer table per point must reproduce the ring-generic
        # recombination, and the Gaussian map at every point
        rng = random.Random(9)
        for npts, n in ((2, 3), (3, 4)):
            ring = FunctionRing(npts)
            a = random_skew(rng, n, ring)
            m = LinearLieMap.tabulate(lambda x: bracket(a, x), n, ring)
            args = [random_skew(rng, n, ring) for _ in range(3)]
            args += [canonical_basis(n, ring)[1], staircase(n, ring),
                     zeros(n, ring)]
            for x in args:
                out = m.apply(x)
                assert out == bracket(a, x)
                assert out.rows == m._apply_generic(x).rows

    @pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
    def test_rejects_a_non_skew_image(self, ring):
        values = canonical_basis(3, ring)
        values[3] = from_entries(3, {(1, 1): 1}, ring)
        with pytest.raises(NotSkewAdjoint, match=r"Ibar\[1,2\]"):
            LinearLieMap(ring, 3, values)

    @pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
    def test_apply_returns_the_stored_basis_images(self, ring):
        rng = random.Random(10)
        for n in (3, 4):
            a = random_skew(rng, n, ring)
            m = LinearLieMap.tabulate(lambda x: bracket(a, x), n, ring)
            for b, v in zip(canonical_basis(n, ring), m.values):
                assert m.apply(b) is v
            # an equal matrix that is not the memoized element is applied
            b = canonical_basis(n, ring)[0]
            copy = b + zeros(n, ring)
            assert copy is not b and m.apply(copy) == m.values[0]

    def test_linear_map_shape_guard(self):
        m = LinearLieMap(GAUSS, 2, canonical_basis(2))
        with pytest.raises(DimensionMismatch):
            m.apply(zeros(3))
        with pytest.raises(NotSkewAdjoint):
            m.apply(from_entries(2, {(1, 1): 1}))
        with pytest.raises(DimensionMismatch):
            LinearLieMap(GAUSS, 2, [zeros(2)])


def _big_skew(rng, n, bits):
    """A skew-adjoint Gaussian matrix with numerators and denominators
    of about bits bits."""
    def big():
        return rng.getrandbits(bits) - (1 << (bits - 1))

    rows = [[GAUSS.zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = GaussianRational(0, big(), rng.getrandbits(bits) + 1)
        for j in range(i + 1, n):
            v = GaussianRational(big(), big(), rng.getrandbits(bits) + 1)
            rows[i][j], rows[j][i] = v, -GAUSS.star(v)
    return Matrix(GAUSS, rows)


def _widths(m):
    """The slot widths, in bytes, that m's dense applies have packed its
    table for, per point."""
    return [sorted(packs) for _, _, _, packs in m._tables]


class TestPackedApply:
    """A dense argument is applied as one multiply-add of the table's
    image columns packed into integers, with slots as wide as the
    argument and the table need; the image must match the ring-generic
    recombination entry for entry at every width, size and point."""

    @staticmethod
    def _agrees(m, x):
        out = m.apply(x)
        assert out.rows == m._apply_generic(x).rows
        return out

    def test_slots_wider_than_eight_bytes(self):
        rng = random.Random(61)
        for n in (3, 5):
            a = _big_skew(rng, n, 80)
            m = LinearLieMap.tabulate(lambda x: bracket(a, x), n)
            for _ in range(3):
                x = _big_skew(rng, n, 90)
                assert self._agrees(m, x) == bracket(a, x)
            assert max(_widths(m)[0]) > 8

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_small_and_large_sizes(self, n):
        rng = random.Random(62 + n)
        a = random_skew(rng, n)
        m = LinearLieMap.tabulate(lambda x: bracket(a, x), n)
        # K_1 is abelian, so at n = 1 the bracket is the zero map; the
        # doubling map packs a nonzero table at every size
        doubling = LinearLieMap.tabulate(lambda x: x + x, n)
        for x in [random_skew(rng, n) for _ in range(3)] + [staircase(n)]:
            assert self._agrees(m, x) == bracket(a, x)
            assert self._agrees(doubling, x) == x + x
        assert _widths(m)[0] and _widths(doubling)[0]

    def test_zero_map(self):
        rng = random.Random(63)
        for n in (1, 3, 5):
            m = LinearLieMap(GAUSS, n, [zeros(n)] * (n * n))
            assert m._tables[0][2] == 0
            for x in (random_skew(rng, n), _big_skew(rng, n, 70)):
                assert self._agrees(m, x) == zeros(n)
            assert _widths(m) == [[1]]

    @pytest.mark.parametrize("big_first", [False, True])
    def test_one_table_at_two_widths(self, big_first):
        rng = random.Random(64)
        n = 4
        a = random_skew(rng, n)
        m = LinearLieMap.tabulate(lambda x: bracket(a, x), n)
        small = random_skew(rng, n)
        args = [small, small * (3 ** 50), random_skew(rng, n)]
        if big_first:
            args.reverse()
        for x in args + args:
            assert self._agrees(m, x) == bracket(a, x)
        assert len(_widths(m)[0]) >= 2

    def test_function_ring_dense_at_one_point_only(self):
        ring = FunctionRing(2)
        rng = random.Random(65)
        n = 4
        a = random_skew(rng, n, ring)
        m = LinearLieMap.tabulate(lambda x: bracket(a, x), n, ring)
        dense = random_skew(rng, n)
        for sparse in (staircase(n), canonical_basis(n)[2], zeros(n)):
            for points in ((dense, sparse), (sparse, dense)):
                x = from_points(points)
                assert self._agrees(m, x) == bracket(a, x)
        # each point's table was packed by the argument dense there
        assert all(_widths(m))


def central(lam, n, ring):
    """The central element lam * I * identity, for a star-fixed lam."""
    v = ring.scalar(lam) * imaginary_unit(ring)
    return from_entries(n, {(t, t): v for t in range(1, n + 1)}, ring)


class TestGauge:
    def test_noncentral_detected(self):
        assert not is_central(s_elem(3, 1, 2))

    def test_gauge_draw_pinned(self):
        # the sha256 scale draw is invisible to every report, so its
        # values for seed 7 are frozen here: w - a0 = lam * I * identity.
        # The draw does not depend on a0; a0 over den = 6 checks that the
        # shift is lam, not lam / den, on a grid over den
        rows = [[0, 1, 0], [-1, 0, 2], [0, -2, 0]]
        fn = FunctionRing(2)
        cases = ((GAUSS, 5, 7), (fn, fn.lift((-7, 8)), fn.lift((0, 2))))
        for den in (1, 6):
            for ring, pair_lam, local_lam in cases:
                a0 = Matrix(ring, [[ring.scalar(Fraction(v, den)) for v in r]
                                   for r in rows])
                two = GaugedInnerTwoLocal(a0, seed=7)
                w = two.query(s_elem(3, 1, 2, ring), staircase(3, ring))
                assert w - a0 == central(pair_lam, 3, ring)
                _, w = GaugedInnerLocal(a0, seed=7).query(
                    ie_diag(3, 2, ring))
                assert w - a0 == central(local_lam, 3, ring)


def bracket_is_central(x):
    """The bracket definition is_central replaced, kept as the reference:
    x commutes with every canonical basis element."""
    z = zeros(x.n, x.ring)
    return all(bracket(x, b) == z for b in canonical_basis(x.n, x.ring))


class TestIsCentral:
    @pytest.mark.parametrize(
        "ring", [GAUSS, FunctionRing(2), make_ring("poly", 0)],
        ids=lambda r: r.name)
    def test_entry_rule_matches_bracket_rule(self, ring):
        rng = random.Random(61)
        n = 3
        lam = ring.random_real(rng)
        centre = central(lam, n, ring)
        inputs = [random_skew(rng, n, ring) for _ in range(4)]
        inputs += [central(ring.random_real(rng), n, ring)
                   for _ in range(3)]
        inputs += [zeros(n, ring), central(lam, n, ring)
                   + ie_diag(n, 2, ring)]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    inputs.append(centre + s_elem(n, i, j, ring))
                    inputs.append(centre + ie_bar(n, i, j, ring))
        verdicts = [is_central(x) for x in inputs]
        assert verdicts == [bracket_is_central(x) for x in inputs]
        # both outcomes occur: the random, shifted and perturbed inputs
        # are not central, the gauges and zero are
        assert verdicts[4:8] == [True] * 4
        assert not any(verdicts[:4]) and not any(verdicts[8:])
