"""Matrix layer: the bracket against its entrywise definition on every
kernel, reduced entries out of the integer-grid kernels, which kernel
each ring takes, star transpose and the skew-adjoint check, point
values, and the stored forms: canonical Gaussian grids, per-point
function-ring matrices, and entry objects built only when rows is read.

Matrices have no associative product: commutator is the only one.
"""

import random
from math import gcd, lcm

import pytest

from skewlie import matrices
from skewlie.errors import DimensionMismatch, IndexOutOfRange
from skewlie.lie import (
    LinearLieMap,
    bracket,
    canonical_basis,
    is_central,
    random_skew,
    staircase,
)
from skewlie.localder import localder_campaign
from skewlie.matrices import (
    Matrix,
    commutator,
    from_points,
    is_skew_adjoint,
    matrix_unit,
    star_transpose,
    zeros,
)
from skewlie.rings import (
    GAUSS,
    FunctionElement,
    FunctionRing,
    GaussianRational,
    PolynomialRing,
)
from skewlie.twolocal import GaugedInnerTwoLocal, twolocal_campaign

RINGS = [GAUSS, FunctionRing(2), PolynomialRing(("z", "zc"), ((0, 1),))]
RING_IDS = ["gauss", "fnring", "poly"]
SHAPES = ["basis-right", "basis-left", "basis-basis", "staircase-dense",
          "dense-dense", "central-difference", "mixed-denominators"]


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


def _nonzero_element(rng, ring):
    while True:
        v = ring.random_element(rng)
        if v:
            return v


def _diagonal(ring, values):
    n = len(values)
    return Matrix(ring, ((values[i] if i == j else ring.zero
                          for j in range(n)) for i in range(n)))


def _scaled(ring, m, k):
    """m with every entry divided by the integer k."""
    return m * (ring.one / k)


def _shape_pairs(shape, rng, n, ring):
    basis = canonical_basis(n, ring)
    if shape == "central-difference":
        # a dense matrix minus a gauged copy of itself: n nonzeros, all on
        # the diagonal, as in the two-local verification bracket
        pairs = []
        for _ in range(3):
            x = random_matrix(rng, n, ring)
            c = _nonzero_element(rng, ring)
            diff = x - (x + _diagonal(ring, [c] * n))
            pairs.append((diff, random_matrix(rng, n, ring)))
        return pairs
    if shape == "mixed-denominators":
        # denominators that share no factor, and integer against fractional
        x = _scaled(ring, random_matrix(rng, n, ring), 7)
        y = _scaled(ring, random_matrix(rng, n, ring), 6)
        ints = Matrix(ring, ((ring.scalar(rng.randint(-9, 9))
                              for _ in range(n)) for _ in range(n)))
        sparse = _diagonal(ring, [_nonzero_element(rng, ring) / 3]
                           + [ring.zero] * (n - 1))
        return [(x, y), (x, sparse), (ints, y),
                (ints, _scaled(ring, sparse, 5))]
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


def _reduced(v):
    """A Gaussian entry in lowest terms; zero as (0, 0, 1)."""
    return v.d > 0 and gcd(v.a, v.b, v.d) == 1 and (v or v.d == 1)


def _entries_reduced(m):
    if m.ring is GAUSS:
        return all(_reduced(v) for r in m.rows for v in r)
    return all(_reduced(p) for r in m.rows for v in r for p in v.values)


class TestCommutator:
    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_entrywise_definition(self, ring, shape):
        # both argument orders: the kernel folds the sign of [b, a] = -[a, b]
        # into whichever factor it walks
        rng = random.Random(11)
        for n in (3, 4):
            for a, b in _shape_pairs(shape, rng, n, ring):
                assert commutator(a, b) == entrywise_bracket(a, b)
                assert commutator(b, a) == entrywise_bracket(b, a)

    @pytest.mark.parametrize("ring", RINGS[:2], ids=RING_IDS[:2])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_integer_grid_results_are_reduced(self, ring, shape):
        # cache_key() renders a, b, d, so an unreduced entry would give an
        # equal matrix a second key
        rng = random.Random(12)
        for n in (3, 4):
            for a, b in _shape_pairs(shape, rng, n, ring):
                for m in (commutator(a, b), commutator(b, a), a - b, b - a):
                    assert _entries_reduced(m)

    def test_non_matrix_arguments(self):
        m = matrix_unit(2, 1, 1)
        with pytest.raises(DimensionMismatch):
            commutator(3, m)
        with pytest.raises(DimensionMismatch):
            commutator(m, 3)

    def test_gaussian_difference_over_mixed_denominators(self):
        a = gmat([[(1, 1, 2), (1, 0, 3)], [(0, 2, 5), 4]])
        b = gmat([[(1, 1, 2), (1, 0, 6)], [(0, 1, 5), (1, 0, 7)]])
        diff = a - b
        assert diff == Matrix(GAUSS, ((x - y for x, y in zip(ra, rb))
                                      for ra, rb in zip(a.rows, b.rows)))
        assert diff.rows[0][0] is GAUSS.zero
        assert (diff.rows[0][1].a, diff.rows[0][1].b, diff.rows[0][1].d) \
            == (1, 0, 6)

    def test_no_associative_product(self):
        a = gmat([[1, 2], [3, 4]])
        with pytest.raises(TypeError):
            a * a
        with pytest.raises(TypeError):
            a @ a


class TestKernelRouting:
    """Gaussian and function-ring brackets run on integer grids; only
    polynomial rings take the ring-generic sparse loop."""

    @pytest.fixture
    def generic_calls(self, monkeypatch):
        calls = []
        original = matrices._sparse_commutator

        def counting(a, b):
            calls.append(a.ring)
            return original(a, b)

        monkeypatch.setattr(matrices, "_sparse_commutator", counting)
        return calls

    @pytest.mark.parametrize("ring", RINGS[:2], ids=RING_IDS[:2])
    def test_campaign_trials_never_take_the_generic_loop(self, ring,
                                                         generic_calls):
        assert twolocal_campaign(ring, 3, 1, 5, random_checks=5).passed
        assert localder_campaign(ring, 3, 1, 5, random_checks=5).passed
        assert generic_calls == []

    def test_polynomial_brackets_take_the_generic_loop(self, generic_calls):
        ring = RINGS[2]
        rng = random.Random(3)
        a = random_matrix(rng, 3, ring)
        e = canonical_basis(3, ring)[0]
        for x, y in ((a, e), (e, a), (a, random_matrix(rng, 3, ring))):
            assert commutator(x, y) == entrywise_bracket(x, y)
        assert len(generic_calls) == 3


def _star_rule(x):
    """x* == -x checked entry by entry with the ring's star."""
    star, rows = x.ring.star, x.rows
    return all(star(rows[j][i]) == -rows[i][j]
               for i in range(x.n) for j in range(i, x.n))


def _perturbed(x, i, j, delta):
    rows = [list(r) for r in x.rows]
    rows[i][j] = rows[i][j] + delta
    return Matrix(x.ring, rows)


class TestSkewAdjointCheck:
    def _inputs(self):
        rng = random.Random(21)
        skew = [random_skew(rng, n) for n in (1, 2, 3, 4, 5) for _ in range(3)]
        # one denominator per entry: 1, 2, 3, 5, 7 over the upper triangle
        mixed = Matrix(GAUSS, [[G(0, 1, 2), G(1, 2, 3), G(3, 0, 5)],
                               [G(-1, 2, 3), G(0, 0), G(2, -1, 7)],
                               [G(-3, 0, 5), G(-2, -1, 7), G(0, -4, 9)]])
        skew.append(mixed)
        broken = []
        for x in skew[3:]:
            n = x.n
            i, j = rng.sample(range(n), 2)
            broken += [
                _perturbed(x, i, j, G(1, 0, rng.randint(1, 4))),
                _perturbed(x, i, j, G(0, 1, rng.randint(1, 4))),
                _perturbed(x, i, i, G(1, 0, rng.randint(1, 4))),
            ]
        return skew, broken

    def test_integer_grids_agree_with_the_star_rule(self):
        skew, broken = self._inputs()
        for x in skew:
            assert is_skew_adjoint(x) and _star_rule(x)
        for x in broken:
            assert not is_skew_adjoint(x) and not _star_rule(x)

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



def _lcm_form(rows):
    """(den, re, im) of Gaussian rows over the lcm of their denominators."""
    den = lcm(*(v.d for r in rows for v in r))
    return (den,
            tuple(tuple(v.a * (den // v.d) for v in r) for r in rows),
            tuple(tuple(v.b * (den // v.d) for v in r) for r in rows))


def _gauged_witness(a0, seed, *elements):
    return GaugedInnerTwoLocal(a0, seed=seed, gauge="central").query(
        *elements)


class TestStoredGrid:
    """A Gaussian matrix stores (den, re, im) with den the lcm of its
    entry denominators, however it was made."""

    def _made_every_way(self):
        rng = random.Random(31)
        n = 4
        a, b = random_skew(rng, n), random_skew(rng, n)
        basis = canonical_basis(n)
        table = LinearLieMap.tabulate(lambda x: bracket(a, x), n)
        made = {
            "constructor": gmat([[(1, 1, 2), (1, 0, 3)], [(0, 2, 5), 4]]),
            "random_skew": a,
            "sparse commutator": commutator(a, basis[0]),
            "sparse commutator, sparse left": commutator(basis[3], a),
            "dense commutator": commutator(a, b),
            "difference": a - b,
            "central difference": a - (a + 3 * zeros(n) + _diagonal(
                GAUSS, [G(0, 5, 6)] * n)),
            "apply": table.apply(b),
            "sparse apply": table.apply(basis[2]),
            "gauged witness": _gauged_witness(a, 7, basis[0], basis[1]),
        }
        # scaled inputs, so that the kernels meet common factors to cancel
        half = a * G(1, 0, 2)
        made["difference, cancelling"] = half - (half - a * G(1, 0, 6))
        made["commutator, cancelling"] = commutator(half * 3, b * G(2, 0, 3))
        return made

    def test_grids_are_reduced_lcm_forms(self):
        for how, m in self._made_every_way().items():
            den, re, im = m.grid
            assert den > 0, how
            assert gcd(den, *(v for r in re + im for v in r)) == 1, how
            assert m.grid == _lcm_form(m.rows), how

    def test_equal_matrices_have_equal_grids_and_hashes(self):
        rng = random.Random(32)
        for n in (3, 4):
            a = random_skew(rng, n)
            same = Matrix(GAUSS, a.rows)
            assert a - a == zeros(n)
            assert (a - a).grid == zeros(n).grid == (1, ((0,) * n,) * n,
                                                     ((0,) * n,) * n)
            assert same == a and same.grid == a.grid
            assert hash(same) == hash(a)
            twice = a + a
            assert twice - a == a and hash(twice - a) == hash(a)
            assert (twice - a).cache_key() == a.cache_key()

    def test_rows_are_built_once_on_first_read(self):
        rng = random.Random(33)
        a, b = random_skew(rng, 3), random_skew(rng, 3)
        c = commutator(a, b)
        assert c._rows is None
        assert c.entry(1, 2) == entrywise_bracket(a, b).entry(1, 2)
        assert c._rows is None
        assert c.rows is c.rows
        assert c.rows == entrywise_bracket(a, b).rows


class TestPointStorage:
    def test_function_ring_matrix_keeps_one_gaussian_matrix_per_point(self):
        ring = FunctionRing(3)
        rng = random.Random(34)
        x = random_skew(rng, 3, ring)
        assert len(x.points) == 3
        assert all(p.ring is GAUSS and p.grid is not None for p in x.points)
        assert x == from_points(x.points)
        assert Matrix(ring, x.rows) == x
        assert Matrix(ring, x.rows).points == x.points
        assert x.cache_key() == ";".join(
            ",".join(ring.element_key(v) for v in r) for r in x.rows)


def _reference_skew(rng, n, ring):
    """random_skew as drawn entry object by entry object."""
    grid = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = ring.imag * ring.random_real(rng)
        for j in range(i + 1, n):
            v = ring.random_element(rng)
            grid[i][j] = v
            grid[j][i] = -ring.star(v)
    return Matrix(ring, grid)


class TestGridDraws:
    @pytest.mark.parametrize("ring", [GAUSS, FunctionRing(2),
                                      FunctionRing(3)],
                             ids=["gauss", "fnring2", "fnring3"])
    def test_same_values_and_same_rng_state(self, ring):
        for seed in range(5):
            for n in (1, 3, 4):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                x = random_skew(rng, n, ring)
                ref = _reference_skew(ref_rng, n, ring)
                assert rng.getstate() == ref_rng.getstate()
                assert x == ref and x.rows == ref.rows
                assert x.cache_key() == ref.cache_key()


@pytest.fixture
def built(monkeypatch):
    """Counts of FunctionElement and GaussianRational constructions."""
    counts = {"function": 0, "gauss": 0}
    fe_init = FunctionElement.__init__
    gr_init = GaussianRational.__init__
    gr_raw = GaussianRational._raw

    def fe_counting(self, values):
        counts["function"] += 1
        fe_init(self, values)

    def gr_counting(self, a=0, b=0, d=1):
        counts["gauss"] += 1
        gr_init(self, a, b, d)

    def raw_counting(a, b, d):
        counts["gauss"] += 1
        return gr_raw(a, b, d)

    monkeypatch.setattr(FunctionElement, "__init__", fe_counting)
    monkeypatch.setattr(GaussianRational, "__init__", gr_counting)
    monkeypatch.setattr(GaussianRational, "_raw", staticmethod(raw_counting))
    return counts


class TestNoMaterialization:
    """Kernels, checks and keys read the stored forms: no entry object is
    built until rows is read."""

    def test_function_ring_operations_build_no_function_elements(self,
                                                                 built):
        ring = FunctionRing(3)
        rng = random.Random(35)
        n = 4
        a, b = random_skew(rng, n, ring), random_skew(rng, n, ring)
        e = canonical_basis(n, ring)[0]
        built["function"] = 0
        dense, sparse, diff = commutator(a, b), commutator(a, e), a - b
        assert is_skew_adjoint(dense) and is_skew_adjoint(diff)
        assert not is_central(diff) and is_central(diff - diff)
        assert dense != sparse and diff == a - b
        assert len({dense.cache_key(), sparse.cache_key()}) == 2
        w = _gauged_witness(a, 5, e, b)
        assert is_central(w - a) and w.cache_key() != a.cache_key()
        assert built["function"] == 0
        assert dense.rows
        assert built["function"] == n * n

    def test_gaussian_kernels_build_no_entries_until_rows(self, built):
        rng = random.Random(36)
        n = 4
        a, b = random_skew(rng, n), random_skew(rng, n)
        e = canonical_basis(n)[n]
        table = LinearLieMap.tabulate(lambda x: bracket(a, x), n)
        built["gauss"] = 0
        made = [commutator(a, b), commutator(a, e), commutator(e, a),
                a - b, table.apply(b), table.apply(e)]
        assert all(is_skew_adjoint(m) for m in made)
        assert built["gauss"] == 0
        for m in made:
            assert m.rows
        assert built["gauss"] > 0
