"""Reduction, provenance, kernels and ring-valued right hand sides.

Small systems here were solved by hand and the answers frozen; the
invariant tests check random systems against the definitions.
"""

import random
from fractions import Fraction

import pytest

from skewlie.errors import DimensionMismatch, Infeasible
from skewlie.linsolve import ReducedSystem
from skewlie.rings import GAUSS, FunctionRing, GaussianRational


def G(a, b=0, d=1):
    return GaussianRational(a, b, d)


class TestReduction:
    def test_identity_system(self):
        sys = ReducedSystem([{0: 1}, {1: 2}], ncols=2)
        assert sys.rank == 2
        assert sys.solve([G(3), G(4)]) == [G(3), G(2)]

    def test_hand_solved_two_by_two(self):
        # x + y = 5, x - y = 1  ->  x = 3, y = 2
        sys = ReducedSystem([{0: 1, 1: 1}, {0: 1, 1: -1}], ncols=2)
        assert sys.solve([G(5), G(1)]) == [G(3), G(2)]

    def test_complex_pivot(self):
        # i*x = 1 -> x = -i
        sys = ReducedSystem([{0: G(0, 1)}], ncols=1)
        assert sys.solve([G(1)]) == [G(0, -1)]

    def test_rank_and_free_columns(self):
        sys = ReducedSystem([{0: 1, 1: 1, 2: 1}, {0: 2, 1: 2, 2: 2}], ncols=3)
        assert sys.rank == 1
        assert sys.free_cols == [1, 2]

    def test_dependent_rhs_must_match(self):
        sys = ReducedSystem([{0: 1, 1: 1}, {0: 2, 1: 2}], ncols=2)
        assert sys.solve([G(1), G(2)]) == [G(1), G(0)]
        with pytest.raises(Infeasible):
            sys.solve([G(1), G(3)])

    def test_underdetermined_takes_free_zero(self):
        # x + 2y = 4 with y free -> x = 4
        sys = ReducedSystem([{0: 1, 1: 2}], ncols=2)
        assert sys.solve([G(4)]) == [G(4), G(0)]


class TestExpress:
    def test_membership_with_combination(self):
        h1 = {0: 1, 1: 1}
        h2 = {1: 1, 2: -1}
        sys = ReducedSystem([h1, h2], ncols=3)
        target = {0: 2, 1: 3, 2: -1}   # 2*h1 + 1*h2
        res, comb = sys.express(target)
        assert res == {}
        assert comb == {0: G(2), 1: G(1)}

    def test_non_membership_has_residual(self):
        sys = ReducedSystem([{0: 1, 1: 1}], ncols=3)
        res, comb = sys.express({2: 1})
        assert res == {2: G(1)}
        assert comb == {}

    def test_column_outside_the_system(self):
        sys = ReducedSystem([{0: 1}], ncols=1)
        with pytest.raises(DimensionMismatch):
            sys.express({5: 1})
        with pytest.raises(DimensionMismatch):
            sys.append({-1: 1})
        assert sys.nrows == 1


class TestNullspace:
    def test_kernel_vectors_annihilate_rows(self):
        rows = [{0: 1, 1: 2, 2: 3}, {1: 1, 2: 1}]
        sys = ReducedSystem(rows, ncols=3)
        basis = sys.nullspace()
        assert len(basis) == 1
        v = basis[0]
        for row in rows:
            acc = GAUSS.zero
            for c, coeff in row.items():
                acc = acc + G(coeff) * v.get(c, GAUSS.zero)
            assert acc == GAUSS.zero


class TestRingValuedRhs:
    def test_function_ring_rhs(self):
        r = FunctionRing(2)
        # x + y = f, x - y = g pointwise
        sys = ReducedSystem([{0: 1, 1: 1}, {0: 1, 1: -1}], ncols=2)
        f = r.lift([4, 6])
        g = r.lift([2, 0])
        x, y = sys.solve([f, g], ring=r)
        assert x == r.lift([3, 3])
        assert y == r.lift([1, 3])

    def test_infeasible_detected_pointwise(self):
        r = FunctionRing(2)
        sys = ReducedSystem([{0: 1}, {0: 1}], ncols=1)
        with pytest.raises(Infeasible):
            sys.solve([r.lift([1, 2]), r.lift([1, 3])], ring=r)


# coefficients with complex, non-unit and fractional values, so that
# leads need the conj(lead) / |lead|^2 normalisation and rows carry
# denominators
POOL = (1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), G(2, 1), G(1, -2),
        G(0, 1), G(3, 1, 2), G(-1, 4, 5))


def random_rows(rng, nrows, ncols):
    """Sparse random rows; about a third are combinations of earlier
    rows, so that the system has dependencies."""
    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and rng.random() < 0.35:
            out = {}
            for row in rng.sample(rows, 2):
                f = G(1) * rng.choice(POOL)
                for c, v in row.items():
                    out[c] = out.get(c, GAUSS.zero) + f * v
            rows.append({c: v for c, v in out.items() if v})
        else:
            cols = rng.sample(range(ncols), rng.randint(1, ncols))
            rows.append({c: rng.choice(POOL) for c in cols})
    return rows


def apply_rows(rows, x, zero=GAUSS.zero):
    out = []
    for row in rows:
        acc = zero
        for c, v in row.items():
            acc = acc + G(1) * v * x[c]
        out.append(acc)
    return out


SEEDS = range(12)


class TestInvariants:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_express_recombines(self, seed):
        rng = random.Random(seed)
        ncols = rng.randint(2, 6)
        rows = random_rows(rng, rng.randint(1, 7), ncols)
        sys = ReducedSystem(rows, ncols)
        pivots = set(range(ncols)) - set(sys.free_cols)
        assert len(pivots) == sys.rank
        for target in random_rows(rng, 4, ncols) + rows:
            res, comb = sys.express(target)
            assert not pivots & set(res)
            total = dict(res)
            for j, coeff in comb.items():
                for c, v in rows[j].items():
                    total[c] = total.get(c, GAUSS.zero) + coeff * v
            assert {c: v for c, v in total.items() if v} == \
                {c: G(1) * v for c, v in target.items() if v}
        for row in rows:
            assert sys.express(row)[0] == {}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kernel_annihilates_rows(self, seed):
        rng = random.Random(seed)
        ncols = rng.randint(2, 6)
        rows = random_rows(rng, rng.randint(1, 5), ncols)
        sys = ReducedSystem(rows, ncols)
        kernel = sys.nullspace()
        assert len(kernel) == ncols - sys.rank
        for v in kernel:
            x = [v.get(c, GAUSS.zero) for c in range(ncols)]
            assert apply_rows(rows, x) == [GAUSS.zero] * len(rows)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_solve_satisfies_the_system(self, seed):
        rng = random.Random(seed)
        ncols = rng.randint(2, 6)
        rows = random_rows(rng, rng.randint(1, 7), ncols)
        sys = ReducedSystem(rows, ncols)
        x0 = [GAUSS.random_element(rng) for _ in range(ncols)]
        rhs = apply_rows(rows, x0)
        assert apply_rows(rows, sys.solve(rhs)) == rhs
        fn = FunctionRing(2)
        x0 = [fn.random_element(rng) for _ in range(ncols)]
        rhs = apply_rows(rows, x0, fn.zero)
        assert apply_rows(rows, sys.solve(rhs, ring=fn), fn.zero) == rhs

    @pytest.mark.parametrize("seed", SEEDS)
    def test_broken_dependency_is_infeasible(self, seed):
        rng = random.Random(seed)
        ncols = rng.randint(2, 6)
        rows = random_rows(rng, rng.randint(1, 5), ncols)
        a, b = rows[0], rows[-1]
        f, g = G(1) * rng.choice(POOL), G(1) * rng.choice(POOL)
        dep = {c: f * a.get(c, 0) + g * b.get(c, 0)
               for c in set(a) | set(b)}
        rows.append({c: v for c, v in dep.items() if v})
        sys = ReducedSystem(rows, ncols)
        x0 = [GAUSS.random_element(rng) for _ in range(ncols)]
        rhs = apply_rows(rows, x0)
        sys.solve(rhs)
        rhs[-1] = rhs[-1] + G(1, 1)
        with pytest.raises(Infeasible):
            sys.solve(rhs)
        fn = FunctionRing(2)
        lifted = [fn.scalar(v) for v in rhs[:-1]]
        lifted.append(fn.lift([rhs[-1] - G(1, 1), rhs[-1]]))
        with pytest.raises(Infeasible):
            sys.solve(lifted, ring=fn)
