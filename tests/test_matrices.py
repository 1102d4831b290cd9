"""Matrix layer: the bracket against its entrywise definition on every
kernel, reduced entries out of the integer-grid kernels, which kernel
each ring takes, star transpose and the skew-adjoint check, point
values, and the stored form: canonical integer grids, one per point,
cache keys equal exactly when the matrices are, and entry objects built
only when rows is read.

Matrices have no associative product: commutator is the only one.
"""

import random
from fractions import Fraction
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
    at_point,
    commutator,
    differ_by_scalar,
    from_entries,
    from_points,
    is_skew_adjoint,
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
from skewlie.twolocal import (
    GaugedInnerTwoLocal,
    reconstruct_implementer,
    twolocal_campaign,
)

RINGS = [GAUSS, FunctionRing(2), PolynomialRing(("z", "zc"), ((0, 1),))]
RING_IDS = ["gauss", "fnring", "poly"]
SHAPES = ["basis-right", "basis-left", "basis-basis", "staircase-dense",
          "dense-dense", "central-difference", "mixed-denominators",
          "mixed-support"]


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
        e = from_entries(3, {(1, 2): 1})
        assert e.entry(1, 2) == G(1)
        assert e.entry(2, 1) == G(0)
        with pytest.raises(IndexOutOfRange):
            e.entry(0, 1)
        with pytest.raises(IndexOutOfRange):
            from_entries(3, {(1, 4): 1})

    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    def test_from_entries(self, ring):
        # the listed 1-based positions take their values, lifted by
        # ring.scalar; every other entry is zero
        m = from_entries(3, {(1, 3): 2, (3, 1): -2, (2, 2): ring.one}, ring)
        assert m == Matrix(ring, [[0, 0, 2], [0, 1, 0], [-2, 0, 0]])
        assert from_entries(2, {}, ring) == Matrix(ring, [[0, 0], [0, 0]])
        for bad in ((0, 1), (1, 4), (4, 4)):
            with pytest.raises(IndexOutOfRange):
                from_entries(3, {bad: 1}, ring)

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
            gmat([[1, 2], [3, 4]]) + from_entries(3, {(1, 1): 1})
        with pytest.raises(DimensionMismatch):
            commutator(from_entries(1, {(1, 1): 1}),
                       Matrix(FunctionRing(1), [[FunctionRing(1).one]]))
        with pytest.raises(DimensionMismatch):
            Matrix(GAUSS, [[G(1), G(2)]])

    def test_entries_are_lifted_by_ring_scalar(self):
        ident = from_entries(2, {(1, 1): 1, (2, 2): 1})
        m = Matrix(GAUSS, [[1, 0], [0, 1]])
        assert m == ident and m.rows == ident.rows
        assert all(isinstance(v, GaussianRational) for r in m.rows for v in r)
        ring = FunctionRing(2)
        lifted = Matrix(ring, ident.rows)
        assert lifted == from_entries(2, {(1, 1): ring.one,
                                          (2, 2): ring.one}, ring)
        assert lifted.rows == ((ring.one, ring.zero), (ring.zero, ring.one))
        for r in RINGS:
            # plain ints and the ring's own elements give one matrix: the
            # same key, equal, and the same hash
            ints = Matrix(r, [[1, 0], [0, 1]])
            own = Matrix(r, [[r.one, r.zero], [r.zero, r.one]])
            assert ints.cache_key() == own.cache_key()
            assert ints == own and hash(ints) == hash(own)
            with pytest.raises(TypeError):
                Matrix(r, [["1", 0], [0, 1]])


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
    if shape == "mixed-support":
        # over a function ring: a basis element at point 0 and dense at
        # the others, so the factor walked, picked on the support over all
        # points, is not the one point 0 alone would pick; over the other
        # rings: n + 1 nonzeros, one past the count at which b is walked
        # whatever a is
        if isinstance(ring, FunctionRing):
            mixed = [from_points([at_point(e, 0)]
                                 + [at_point(random_matrix(rng, n, ring), t)
                                    for t in range(1, ring.npoints)])
                     for e in basis[::n]]
        else:
            mixed = [_diagonal(ring, [_nonzero_element(rng, ring)] * n)
                     + from_entries(n, {(1, 2): ring.one}, ring)]
        return [(x, y) for x in mixed
                for y in (random_matrix(rng, n, ring), basis[-1], x)]
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


def _grids_reduced(m):
    """Every grid of m over den >= 1 with gcd(den, every numerator) == 1."""
    return all(den >= 1 and gcd(den, *re, *im) == 1
               for den, re, im in m.grids)


class TestCommutator:
    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_entrywise_definition(self, ring, shape):
        # both argument orders: the kernel folds the sign of [b, a] = -[a, b]
        # into whichever factor it walks
        rng = random.Random(11)
        for n in (2, 3, 4):
            for a, b in _shape_pairs(shape, rng, n, ring):
                assert commutator(a, b) == entrywise_bracket(a, b)
                assert commutator(b, a) == entrywise_bracket(b, a)

    @pytest.mark.parametrize("ring", RINGS[:2], ids=RING_IDS[:2])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_integer_grid_results_are_reduced(self, ring, shape):
        # cache_key() is the repr of the grids, so an unreduced grid would
        # give an equal matrix a second key
        rng = random.Random(12)
        for n in (2, 3, 4):
            for a, b in _shape_pairs(shape, rng, n, ring):
                for m in (commutator(a, b), commutator(b, a), a - b, b - a):
                    assert _entries_reduced(m)
                    assert _grids_reduced(m)

    def test_non_matrix_arguments(self):
        m = from_entries(2, {(1, 1): 1})
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


def _walk_signs(monkeypatch):
    """The signs of the per-point walks commutator makes from now on."""
    signs = []
    original = matrices._grid_sparse_commutator

    def recording(ga, gb, sign, *skew):
        signs.append(sign)
        return original(ga, gb, sign, *skew)

    monkeypatch.setattr(matrices, "_grid_sparse_commutator", recording)
    return signs


class TestKernelRouting:
    """Gaussian and function-ring brackets run on integer grids; only
    polynomial rings take the ring-generic loop. Both walk b, unless b has
    more than n nonzeros and a has fewer, and then walk a with the sign
    folded in."""

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

    def test_dense_against_staircase_walks_the_staircase(self, monkeypatch):
        # the staircase has 2(n - 1) > n nonzeros, fewer than a dense
        # factor's n^2, so it is walked in either argument order
        signs = _walk_signs(monkeypatch)
        rng = random.Random(7)
        for n in range(4, 9):
            st, dense = staircase(n), random_skew(rng, n)
            for a, b, sign in ((dense, st, 1), (st, dense, -1)):
                signs.clear()
                assert commutator(a, b) == entrywise_bracket(a, b)
                assert signs == [sign]

    def test_polynomial_brackets_take_the_generic_loop(self, generic_calls):
        ring = RINGS[2]
        rng = random.Random(3)
        a = random_matrix(rng, 3, ring)
        e = canonical_basis(3, ring)[0]
        for x, y in ((a, e), (e, a), (a, random_matrix(rng, 3, ring))):
            assert commutator(x, y) == entrywise_bracket(x, y)
        assert len(generic_calls) == 3


def _walk_modes(monkeypatch):
    """(sign, skew) of each per-point walk commutator makes from now on."""
    modes = []
    original = matrices._grid_sparse_commutator

    def recording(ga, gb, sign, skew=False):
        modes.append((sign, skew))
        return original(ga, gb, sign, skew)

    monkeypatch.setattr(matrices, "_grid_sparse_commutator", recording)
    return modes


def _unflagged(x):
    """x without its cached facts, so is_skew_adjoint reads the entries."""
    if x.grids is None:
        return Matrix._of_rows(x.ring, x.rows)
    return Matrix._of_grids(x.ring, x.grids)


class TestSkewBracket:
    """Two skew-adjoint factors whose walked factor has more than n
    nonzeros take the one-product walk, [a, b] = P - P* for P = ab; every
    other grid bracket walks both sides. Results known to be skew-adjoint
    carry the flag, and no flag is ever wrong."""

    @pytest.mark.parametrize("ring", [GAUSS, FunctionRing(3)],
                             ids=["gauss", "fnring3"])
    def test_one_product_matches_the_reference(self, ring, monkeypatch):
        modes = _walk_modes(monkeypatch)
        rng = random.Random(51)
        points = len(zeros(1, ring).grids)
        for n in range(3, 9):
            x, y = random_skew(rng, n, ring), random_skew(rng, n, ring)
            st = staircase(n, ring)
            # the staircase is walked in either argument order; a dense
            # factor drawn with a zero entry may be walked against another;
            # an unflagged factor is checked on its grids
            for a, b in ((x, y), (y, x), (x, st), (st, x),
                         (_unflagged(x), y), (st, _unflagged(y))):
                sign = -1 if n < b._nnz() > a._nnz() else 1
                modes.clear()
                got = commutator(a, b)
                assert got == entrywise_bracket(a, b)
                assert modes == [(sign, True)] * points
                assert got._cache.get("skew")

    @pytest.mark.parametrize("ring", [GAUSS, FunctionRing(3)],
                             ids=["gauss", "fnring3"])
    def test_other_pairs_walk_both_sides(self, ring, monkeypatch):
        modes = _walk_modes(monkeypatch)
        rng = random.Random(52)
        for n in range(3, 7):
            m, x = random_matrix(rng, n, ring), random_skew(rng, n, ring)
            assert not is_skew_adjoint(m)
            e = canonical_basis(n, ring)[n]
            for a, b in ((m, random_matrix(rng, n, ring)), (m, x), (x, m),
                         (x, e), (e, x)):
                modes.clear()
                got = commutator(a, b)
                assert got == entrywise_bracket(a, b)
                assert modes and not any(skew for _, skew in modes)
                if m is a or m is b:
                    assert not got._cache.get("skew")

    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    def test_skew_flags_are_never_wrong(self, ring):
        rng = random.Random(53)
        n = 4
        skews = [random_skew(rng, n, ring) for _ in range(3)]
        factors = skews + [random_matrix(rng, n, ring), staircase(n, ring),
                           canonical_basis(n, ring)[0], _unflagged(skews[0])]
        made = list(skews)
        for a in factors:
            made.append(matrices._shift_diagonal(a, lambda t: t + 2))
            for b in factors:
                made += [commutator(a, b), a + b, a - b]
        # between known skew-adjoint factors the flag travels
        assert all(m._cache.get("skew") for a in skews for b in skews
                   for m in (commutator(a, b), a + b, a - b,
                             matrices._shift_diagonal(a, lambda t: -t)))
        table = LinearLieMap.tabulate(lambda x: bracket(skews[0], x), n, ring)
        made += [table.apply(x) for x in skews + [staircase(n, ring)]]
        for m in made:
            if m._cache.get("skew"):
                assert is_skew_adjoint(_unflagged(m)) and _star_rule(m)


def _scalar_factors(ring, rng, n):
    """Skew-adjoint scalars lam*I*1; over a function ring also one that is
    scalar at every point but zero at the last."""
    out = [_diagonal(ring, [ring.imag * ring.random_real(rng)] * n)
           for _ in range(2)]
    if isinstance(ring, FunctionRing):
        points = [at_point(out[0], t) for t in range(ring.npoints - 1)]
        out.append(from_points(points + [zeros(n)]))
    return out


def _scalar_gap(a, b):
    """The reference for differ_by_scalar, read off a - b: equal
    denominators at every point and a scalar difference."""
    return (all(ga[0] == gb[0] for ga, gb in zip(a.grids, b.grids))
            and is_central(a - b))


class TestScalarShortcut:
    """differ_by_scalar(a, b) is True only when a and b have the same
    denominator at every point and a - b is scalar there, read without
    forming a - b; two-local verification skips its bracket on it. The
    bracket itself has no scalar shortcut: a scalar factor is walked,
    to the reference zero, and so is any other factor with n
    nonzeros."""

    @pytest.mark.parametrize("ring", [GAUSS, FunctionRing(3)],
                             ids=["gauss", "fnring3"])
    def test_scalar_factor_gives_the_reference_zero(self, ring,
                                                    monkeypatch):
        signs = _walk_signs(monkeypatch)
        rng = random.Random(41)
        n = 3
        for c in _scalar_factors(ring, rng, n):
            assert c._nnz() == n
            for other in (random_skew(rng, n, ring),
                          random_matrix(rng, n, ring)):
                shifted = matrices._shift_diagonal(other, lambda t: t - 1)
                assert differ_by_scalar(shifted, other)
                assert differ_by_scalar(other, shifted)
                x = other + c
                for a, b in ((x, other), (other, x), (x, x)):
                    assert differ_by_scalar(a, b) == _scalar_gap(a, b)
                for a, b in ((c, other), (other, c)):
                    signs.clear()
                    ref = entrywise_bracket(a, b)
                    got = commutator(a, b)
                    assert got == ref == zeros(n, ring)
                    assert hash(got) == hash(ref)
                    assert got.cache_key() == ref.cache_key()
                    assert is_skew_adjoint(got)
                    assert signs == [-1 if a is c else 1] * len(c.grids)

    @pytest.mark.parametrize("ring", [GAUSS, FunctionRing(3)],
                             ids=["gauss", "fnring3"])
    def test_non_scalar_factor_with_n_nonzeros_is_walked(self, ring,
                                                         monkeypatch):
        signs = _walk_signs(monkeypatch)
        rng = random.Random(42)
        n = 3
        i_unit = ring.imag
        lam = i_unit * ring.one
        factors = [
            # diag(I, 2I, 3I)
            _diagonal(ring, [i_unit * k for k in (1, 2, 3)]),
            # the zero diagonal of the zero scalar, and n nonzeros off it
            from_entries(n, {(1, 2): lam, (2, 1): lam, (1, 3): lam}, ring),
        ]
        if isinstance(ring, FunctionRing):
            # scalar at two points, diag(I, 2I, 3I) at the third
            scalar = _scalar_factors(ring, rng, n)[0]
            factors.append(from_points(
                [at_point(scalar, 0), at_point(scalar, 1),
                 at_point(factors[0], 2)]))
        for d in factors:
            assert d._nnz() == n
            other = random_skew(rng, n, ring)
            assert not differ_by_scalar(other + d, other)
            for a, b in ((d, other), (other, d)):
                signs.clear()
                got = commutator(a, b)
                assert got == entrywise_bracket(a, b) != zeros(n, ring)
                assert signs == [-1 if a is d else 1] * len(d.grids)

    def test_unequal_denominators_give_false(self):
        n = 3
        x = canonical_basis(n)[0]
        half = _diagonal(GAUSS, [G(0, 1, 2)] * n)
        # the gap I/2 * 1 is scalar, but x + half is over 2 and x over 1
        assert is_central((x + half) - x)
        assert not differ_by_scalar(x + half, x)
        assert not differ_by_scalar(x, x + half)
        # equal numerators over 2 and over 1: the gap -x/2 is not scalar
        half_x = x * G(1, 0, 2)
        assert half_x.grids[0][1:] == x.grids[0][1:]
        assert not differ_by_scalar(half_x, x)

    def test_incompatible_matrices_are_refused(self):
        with pytest.raises(DimensionMismatch):
            differ_by_scalar(zeros(4), zeros(3))
        with pytest.raises(DimensionMismatch):
            differ_by_scalar(zeros(3), zeros(3, FunctionRing(2)))

    def test_function_ring_gap_must_be_scalar_at_every_point(self):
        ring = FunctionRing(3)
        n = 3
        other = random_skew(random.Random(43), n, ring)
        diagonals = [[1, 1, 1], [-2, -2, -2], [1, 2, 3]]
        last_off = from_points(_diagonal(GAUSS, [G(0, k) for k in ks])
                               for ks in diagonals)
        assert not differ_by_scalar(other + last_off, other)
        everywhere = from_points(_diagonal(GAUSS, [G(0, ks[0])] * n)
                                 for ks in diagonals)
        assert differ_by_scalar(other + everywhere, other)

    @pytest.mark.parametrize("ring", [GAUSS, FunctionRing(3)],
                             ids=["gauss", "fnring3"])
    def test_ungauged_witness_has_a_zero_gap(self, ring):
        n = 4
        a0 = random_skew(random.Random(44), n, ring)
        oracle = GaugedInnerTwoLocal(a0, seed=44, gauge="none")
        abar = reconstruct_implementer(oracle)
        for z in canonical_basis(n, ring)[::5] + [staircase(n, ring)]:
            w = oracle.query(z, z)
            assert w - abar == zeros(n, ring)
            assert differ_by_scalar(w, abar)

    def test_polynomial_ring_gives_false(self):
        ring = RINGS[2]
        x = random_matrix(random.Random(45), 3, ring)
        assert x.grids is None and is_central(x - x)
        assert not differ_by_scalar(x, x)


class TestGridSums:
    """Sums and differences on the flattened grids: the reduced lcm form
    of the entrywise result."""

    def _pairs(self, rng, n):
        def ints():
            return gmat([[(rng.randint(-9, 9), rng.randint(-9, 9))
                          for _ in range(n)] for _ in range(n)])

        x, y = ints(), ints()
        halves = ints() * G(1, 0, 2) + x * G(1, 0, 2)
        # denominators 7 and 6, 10 and 15; halves + rest has no
        # denominator left, and halves - halves and x + (-x) are zero
        rest = y - halves
        return [(x * G(1, 0, 7), y * G(1, 0, 6)),
                (x * G(1, 0, 10), y * G(1, 0, 15)),
                (halves, rest), (halves, halves), (x, -x)]

    def test_gaussian_sums_and_differences_match_the_reference(self):
        rng = random.Random(43)
        dens = set()
        for n in (1, 3, 4):
            results = []
            for a, b in self._pairs(rng, n):
                for sign, op in ((1, lambda u, v: u + v),
                                 (-1, lambda u, v: u - v)):
                    ref = Matrix(GAUSS, ((op(u, v) for u, v in zip(ra, rb))
                                         for ra, rb in zip(a.rows, b.rows)))
                    got = matrices._grid_combine(a.grids[0], b.grids[0],
                                                 sign)
                    assert got == _lcm_form(ref.rows) == ref.grids[0]
                    results.append(got)
            assert (1, (0,) * (n * n), (0,) * (n * n)) in results
            dens.update(den for den, _, _ in results)
        assert {1, 30, 42} <= dens

    def test_function_ring_sums_match_the_reference(self):
        ring = FunctionRing(3)
        rng = random.Random(44)
        for n in (2, 3):
            x = _scaled(ring, random_matrix(rng, n, ring), 7)
            y = random_matrix(rng, n, ring)
            for a, b in ((x, y), (x, x), (y, x - y)):
                for got, op in ((a + b, lambda u, v: u + v),
                                (a - b, lambda u, v: u - v)):
                    ref = Matrix(ring, ((op(u, v) for u, v in zip(ra, rb))
                                        for ra, rb in zip(a.rows, b.rows)))
                    assert got.grids == ref.grids


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
        # unflagged, so that is_skew_adjoint checks the grids
        skew = [_unflagged(random_skew(rng, n))
                for n in (1, 2, 3, 4, 5) for _ in range(3)]
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
            assert "skew" not in x._cache
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
        assert not is_skew_adjoint(from_entries(2, {(1, 1): 1}))

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
    """(den, re, im) of Gaussian rows over the lcm of their denominators,
    re and im row-major."""
    den = lcm(*(v.d for r in rows for v in r))
    return (den,
            tuple(v.a * (den // v.d) for r in rows for v in r),
            tuple(v.b * (den // v.d) for r in rows for v in r))


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
            (den, re, im), = m.grids
            assert den > 0, how
            assert len(re) == len(im) == m.n * m.n, how
            assert gcd(den, *re, *im) == 1, how
            assert m.grids == (_lcm_form(m.rows),), how

    def test_equal_matrices_have_equal_grids_and_hashes(self):
        rng = random.Random(32)
        for n in (3, 4):
            a = random_skew(rng, n)
            same = Matrix(GAUSS, a.rows)
            assert a - a == zeros(n)
            assert (a - a).grids == zeros(n).grids == (
                (1, (0,) * (n * n), (0,) * (n * n)),)
            assert same == a and same.grids == a.grids
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
        points = [at_point(x, k) for k in range(3)]
        assert len(x.grids) == 3
        assert all(p.ring is GAUSS and p.grids == (g,)
                   for p, g in zip(points, x.grids))
        assert x == from_points(points)
        assert Matrix(ring, x.rows) == x
        assert Matrix(ring, x.rows).grids == x.grids
        assert x.cache_key() == from_points(points).cache_key() \
            == Matrix(ring, x.rows).cache_key() != (-x).cache_key()

    def test_one_point_ring_stays_a_function_ring(self):
        # one grid, as over the Gaussian rationals, but function-ring entries
        ring = FunctionRing(1)
        x = random_skew(random.Random(38), 3, ring)
        g = at_point(x, 0)
        assert x.grids == g.grids
        assert isinstance(x.entry(1, 2), FunctionElement)
        assert all(isinstance(v, FunctionElement) for r in x.rows for v in r)
        assert x.cache_key() == from_points([g]).cache_key() \
            == Matrix(ring, x.rows).cache_key() != (-x).cache_key()
        assert x != g and g != x
        assert from_points([g]) == x
        assert localder_campaign(ring, 3, 1, 38).passed


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


class TestCacheKey:
    """cache_key() is the repr of the stored form. It is canonical only
    because every grid is reduced over den >= 1, however it was made."""

    @pytest.mark.parametrize("ring", [GAUSS, FunctionRing(3)],
                             ids=["gauss", "fnring3"])
    def test_every_path_keeps_grids_reduced(self, ring):
        rng = random.Random(36)
        made = []
        for n in (1, 2, 3, 4):
            a, b = random_skew(rng, n, ring), random_skew(rng, n, ring)
            half = a * (ring.one / 2)
            made += [a, b, half]
            made += [matrices._shift_diagonal(x, lam) for x in (a, half)
                     for lam in (lambda t: 0, lambda t: t - 1,
                                 lambda t: 3 * t + 2)]
            table = LinearLieMap.tabulate(lambda x: bracket(half, x), n, ring)
            made += [table.apply(b), table.apply(half)]
            if isinstance(ring, FunctionRing):
                points = [at_point(half, k) for k in range(ring.npoints)]
            else:
                points = [half, a, b * G(1, 0, 3)]
            joined = from_points(points)
            made += points + [joined]
            made += [at_point(joined, k) for k in range(len(points))]
        # entries given as unreduced fractions and Gaussian triples
        made.append(Matrix(ring, [[Fraction(6, 4), Fraction(-10, 15)],
                                  [Fraction(4, 2), 0]]))
        made.append(Matrix(ring, [[Fraction(2, 6), Fraction(3, 6)],
                                  [Fraction(9, 6), Fraction(12, 6)]]))
        made.append(Matrix(ring, [[G(2, 4, 6), G(0, 3, 9)],
                                  [G(-4, 0, 6), G(5, 5, 10)]]))
        for m in made:
            assert _grids_reduced(m), m.grids

    @pytest.mark.parametrize("ring", [GAUSS, FunctionRing(3), RINGS[2]],
                             ids=["gauss", "fnring3", "poly"])
    def test_keys_equal_exactly_when_matrices_are(self, ring):
        rng = random.Random(37)
        n = 3
        a, b = random_skew(rng, n, ring), random_skew(rng, n, ring)
        e = canonical_basis(n, ring)[0]
        half = ring.one / 2
        # matrices in one group are equal, built by different paths;
        # matrices in different groups differ
        groups = [
            [a, Matrix(ring, a.rows), (a + b) - b, b - (b - a), -(-a),
             a * ring.one, (a + a) * half,
             matrices._shift_diagonal(a, lambda t: 0)],
            [b],
            [zeros(n, ring), a - a],
            [commutator(a, b), -commutator(b, a), entrywise_bracket(a, b)],
            [commutator(a, e)],
            [e],
            [e + e, e * 2],
            [matrices._shift_diagonal(a, lambda t: t + 1) - a,
             matrices._shift_diagonal(zeros(n, ring), lambda t: t + 1)],
        ]
        if isinstance(ring, FunctionRing):
            points = [at_point(a, k) for k in range(ring.npoints)]
            groups[0].append(from_points(points))
            # a at point 0 only, so a key that read one point would match
            groups.append([from_points(points[:1] + [
                at_point(b, k) for k in range(1, ring.npoints)])])
        made = [(k, m) for k, group in enumerate(groups) for m in group]
        for k, p in made:
            for j, q in made:
                assert (p == q) == (k == j)
                assert (p.cache_key() == q.cache_key()) == (k == j)


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
