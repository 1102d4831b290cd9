"""Exact linear algebra over the Gaussian rationals.

ReducedSystem brings a sparse coefficient matrix to row echelon form
once. Each row is reduced against the pivots in rising column order,
the columns a pivot row brings in included; a new pivot does not clear
its column from the earlier pivots. For every original row the
reduction keeps an elimination record: the steps (pivot col,
multiplier) it took and, for a new pivot, the factor that normalised
its lead to 1. express expands its combination over the original rows
from these records, touching only the pivots it reaches; nullvector
back-substitutes on integers; solve runs the records forward on the
right hand side and then back-substitutes. The right hand sides may
live in a larger ring than the coefficients: solving only ever
multiplies ring elements by Gaussian rational scalars.

Rows come in as sparse Gaussian integers {col: (re, im)}, the format
of symcheck's linear forms. They are reduced as sparse numerators
(re, im) over one shared positive denominator, kept gcd-reduced as
Matrix grids are, so a reduction step is the integer update
r := r*den_p - (fa + fb*i)*p against a pivot row p with denominator
den_p, and a new pivot is normalised by multiplying by conj(lead) over
|lead|^2. GaussianRational scalars are built only where results leave
the reduction: express, nullvector and solve.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm

from .errors import DimensionMismatch, Infeasible
from .rings import GAUSS, GaussianRational


def _int_row(row, ncols):
    """A copy of the sparse row {col: (re, im)} without its (0, 0)
    entries; raises DimensionMismatch on a column outside 0..ncols-1."""
    for c in row:
        if not 0 <= c < ncols:
            raise DimensionMismatch("column %d outside 0..%d" % (c, ncols - 1))
    return {c: v for c, v in row.items() if v != (0, 0)}


def _reduced(den, nums):
    """Divide den and every numerator of the sparse dict by their gcd;
    returns the new den."""
    if den == 1:
        return 1
    g = gcd(den, *chain.from_iterable(nums.values()))
    if g > 1:
        den //= g
        for c, (a, b) in nums.items():
            nums[c] = (a // g, b // g)
    return den


def _gauss(nums, den):
    return {c: GaussianRational(a, b, den) for c, (a, b) in nums.items()}


class ReducedSystem:
    """Row echelon form of a matrix, with an elimination record per row.

    rows: iterable of sparse rows of Gaussian integers, each a dict
    column -> (re, im) of ints for the coefficient re + im*i. Columns
    are 0-based and must be below ncols. A row with rational
    coefficients is fed times the lcm of its denominators, which keeps
    its kernel and span; solve then takes its right hand side times the
    same factor.
    """

    def __init__(self, rows, ncols):
        self.ncols = ncols
        self.nrows = 0
        # pivot col -> (den, row numerators, (original row, steps, 1/lead
        # as (re, im, den))), in insertion order, which is the order of
        # the original rows
        self._pivots = {}
        self._null = []     # (original row, steps) of rows that reduced to 0
        for row in rows:
            self.append(row)

    def _eliminate(self, den, r):
        """Clear every pivot column from r in rising column order, the
        columns that a pivot row brings in included. Returns r's new den
        and the steps taken, each (pivot col, fa, fb, den) for the
        multiplier (fa + fb*i)/den of that pivot's row."""
        pivots = self._pivots
        steps = []
        heap = [c for c in r if c in pivots]
        heapify(heap)
        # a queued column stays on the heap until it is popped, so one
        # that cancels and comes back is not pushed twice
        queued = set(heap)
        while heap:
            pc = heappop(heap)
            g = r.get(pc)
            if g is None:
                continue
            fa, fb = g
            steps.append((pc, fa, fb, den))
            # r := pden*r - (fa + fb*i)*prow, which clears column pc
            pden, prow, _ = pivots[pc]
            if pden != 1:
                for c, (a, b) in r.items():
                    r[c] = (pden * a, pden * b)
            for c, (a, b) in prow.items():
                t = r.get(c)
                if t is None:
                    r[c] = (fb * b - fa * a, -fa * b - fb * a)
                    if c in pivots and c not in queued:
                        queued.add(c)
                        heappush(heap, c)
                else:
                    re = t[0] - fa * a + fb * b
                    im = t[1] - fa * b - fb * a
                    if re or im:
                        r[c] = (re, im)
                    else:
                        del r[c]
            den = _reduced(den * pden, r)
        return den, steps

    def append(self, row):
        """Feed one more original row into the reduction."""
        r = _int_row(row, self.ncols)
        orig = self.nrows
        self.nrows += 1
        den, steps = self._eliminate(1, r)
        if not r:
            self._null.append((orig, steps))
            return
        pc = min(r)
        la, lb = r[pc]
        # r/den over its lead (la + lb*i)/den is r*conj(lead)/|lead|^2
        norm = la * la + lb * lb
        if (la, lb) != (1, 0):
            for c, (a, b) in r.items():
                r[c] = (la * a + lb * b, la * b - lb * a)
        self._pivots[pc] = (_reduced(norm, r), r, (
            orig, steps, (den * la, -den * lb, norm)))

    @property
    def rank(self):
        return len(self._pivots)

    @property
    def free_cols(self):
        return [c for c in range(self.ncols) if c not in self._pivots]

    def express(self, row):
        """Reduce an external row against the pivots.

        Returns (residual, combination): residual is the sparse remainder
        and combination maps original row indices to coefficients such
        that row == sum(combination[j] * original_row_j) + residual.
        An empty residual certifies span membership.
        """
        r = _int_row(row, self.ncols)
        den, steps = self._eliminate(1, r)
        # row - residual is sum(mult * pivot row); a pivot row is its
        # original row less its own steps, over its lead, and refers only
        # to pivots inserted before it, so expand the latest pivot first.
        # A pivot's coefficient stays an unreduced (re, im, den) triple
        # until the pivot is expanded
        pivots = self._pivots
        coeff = {pc: (fa, fb, d) for pc, fa, fb, d in steps}
        heap = [(-pivots[pc][2][0], pc) for pc in coeff]
        heapify(heap)
        comb = {}
        while heap:
            pc = heappop(heap)[1]
            ca, cb, cd = coeff.pop(pc)
            if not (ca or cb):
                continue
            orig, psteps, (sa, sb, sd) = pivots[pc][2]
            c = GaussianRational(ca * sa - cb * sb, ca * sb + cb * sa, cd * sd)
            comb[orig] = c
            ca, cb, cd = c.a, c.b, c.d
            for j, fa, fb, d in psteps:
                # subtract c times the step's multiplier (fa + fb*i)/d
                ta, tb, td = ca * fa - cb * fb, ca * fb + cb * fa, cd * d
                old = coeff.get(j)
                if old is None:
                    coeff[j] = (-ta, -tb, td)
                    heappush(heap, (-pivots[j][2][0], j))
                else:
                    oa, ob, od = old
                    coeff[j] = (oa * td - ta * od, ob * td - tb * od, od * td)
        return _gauss(r, den), comb

    def nullvector(self, free_col):
        """The kernel basis vector attached to one free column."""
        den, nums = self.int_nullvector(free_col)
        return _gauss(nums, den)

    def int_nullvector(self, free_col):
        """nullvector as gcd-reduced (den, {col: (re, im)}),
        back-substituted on (re, im, den) triples."""
        pivots = self._pivots
        if free_col in pivots or not 0 <= free_col < self.ncols:
            raise DimensionMismatch("column %d is not free" % free_col)
        x = {free_col: (1, 0, 1)}
        # a pivot row's other columns all lie right of its pivot
        for pc in sorted(pivots, reverse=True):
            pden, prow, _ = pivots[pc]
            re, im, den = 0, 0, 1
            for c, (a, b) in prow.items():
                t = x.get(c)
                if t is None:
                    continue
                xa, xb, xd = t
                ta, tb = a * xa - b * xb, a * xb + b * xa
                if xd != den:
                    m = lcm(den, xd)
                    re, im, den = re * (m // den), im * (m // den), m
                    ta, tb = ta * (m // xd), tb * (m // xd)
                re += ta
                im += tb
            if re or im:
                # x[pc] = -(sum of prow[c] * x[c]) / pden
                den *= pden
                g = gcd(re, im, den)
                x[pc] = (-re // g, -im // g, den // g)
        den = lcm(*(d for _, _, d in x.values()))
        return den, {c: (a * (den // d), b * (den // d))
                     for c, (a, b, d) in sorted(x.items())}

    def _back_substitute(self, x, zero):
        """Solve the pivot rows for their pivot variables in place. On
        entry x holds each pivot row's right hand side at its pivot
        column and the free variables elsewhere. A pivot row's other
        columns all lie right of its pivot, so go right to left."""
        pivots = self._pivots
        for pc in sorted(pivots, reverse=True):
            pden, prow, _ = pivots[pc]
            acc = x[pc]
            for c, (a, b) in prow.items():
                if c != pc and x[c] != zero:
                    acc = acc - GaussianRational(a, b, pden) * x[c]
            x[pc] = acc

    def nullspace(self):
        return [self.nullvector(c) for c in self.free_cols]

    def solve(self, rhs, ring=GAUSS):
        """Solve A x = rhs for the matrix this system was built from.

        rhs is a sequence of ring elements, one per original row. Free
        variables are zero. The recorded steps run forward on rhs, giving
        each pivot row's right hand side, and back-substitution gives the
        pivot variables. Raises Infeasible when a dependency among the
        rows is not matched by the right hand side.
        """
        if len(rhs) != self.nrows:
            raise DimensionMismatch("expected %d right hand side entries, got %d"
                                    % (self.nrows, len(rhs)))
        zero = ring.zero
        # x first holds each pivot row's right hand side at its pivot
        x = [zero] * self.ncols

        def forward(orig, steps):
            acc = rhs[orig]
            for pc, fa, fb, d in steps:
                acc = acc - GaussianRational(fa, fb, d) * x[pc]
            return acc

        for pc, (_, _, (orig, steps, scale)) in self._pivots.items():
            x[pc] = GaussianRational(*scale) * forward(orig, steps)
        for orig, steps in self._null:
            if forward(orig, steps) != zero:
                raise Infeasible("right hand side breaks a row dependency")
        self._back_substitute(x, zero)
        return x
