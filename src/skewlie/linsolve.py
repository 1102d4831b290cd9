"""Exact linear algebra over the Gaussian rationals.

ReducedSystem row-reduces a sparse coefficient matrix once and remembers,
for every surviving row, which combination of the original rows produced
it. That provenance lets one reduction serve many right hand sides, and
the right hand sides may live in a larger ring than the coefficients:
solving only ever multiplies ring elements by Gaussian rational scalars.

Rows are reduced on Gaussian integers. Each row and its provenance are
stored together as sparse numerators (re, im) over one shared positive
denominator, kept gcd-reduced as Matrix grids are, so a reduction step
is the integer update r := r*den_p - (fa + fb*i)*p against a pivot row p
with denominator den_p, and a new pivot is normalised by multiplying by
conj(lead) over |lead|^2. GaussianRational scalars are built only where
results leave the class: express, nullvector and solve.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm

from .errors import DimensionMismatch, Infeasible
from .rings import GAUSS, GaussianRational


def _int_row(row, ncols):
    """A sparse row as (den, {col: (re, im)}), gcd-reduced; raises
    DimensionMismatch on a column outside 0..ncols-1."""
    parts = {}
    for c, v in row.items():
        if not 0 <= c < ncols:
            raise DimensionMismatch("column %d outside 0..%d" % (c, ncols - 1))
        g = GaussianRational._coerce(v)
        if g is None:
            raise TypeError("coefficient %r is not a Gaussian rational" % (v,))
        if g:
            parts[c] = g
    den = lcm(*(g.d for g in parts.values()))
    return den, {c: (g.a * (den // g.d), g.b * (den // g.d))
                 for c, g in parts.items()}


def _update(target, scale, fa, fb, source):
    """target := scale*target - (fa + fb*i)*source on sparse numerator
    dicts, dropping created zeros."""
    if scale != 1:
        _scale(target, scale, 0)
    for c, (a, b) in source.items():
        ta, tb = target.get(c, (0, 0))
        re = ta - fa * a + fb * b
        im = tb - fa * b - fb * a
        if re or im:
            target[c] = (re, im)
        else:
            del target[c]


def _scale(target, fa, fb):
    """target := (fa + fb*i)*target on a sparse numerator dict, for a
    nonzero factor."""
    for c, (a, b) in target.items():
        target[c] = (fa * a - fb * b, fa * b + fb * a)


def _reduced(den, *parts):
    """Divide den and every numerator of the sparse dicts by their gcd;
    returns the new den."""
    if den == 1:
        return 1
    g = gcd(den, *chain.from_iterable(chain.from_iterable(
        p.values() for p in parts)))
    if g > 1:
        den //= g
        for p in parts:
            for c, (a, b) in p.items():
                p[c] = (a // g, b // g)
    return den


def _gauss(nums, den):
    return {c: GaussianRational(a, b, den) for c, (a, b) in nums.items()}


class ReducedSystem:
    """Reduced row echelon form of a matrix, with provenance.

    rows: iterable of sparse rows, each a dict column -> coefficient
    (int, Fraction or GaussianRational). Columns are 0-based and must be
    below ncols.
    """

    def __init__(self, rows, ncols):
        self.ncols = ncols
        self.nrows = 0
        self._pivots = {}   # pivot col -> [den, row, provenance] (numerators)
        self._null = []     # (den, provenance) of rows that reduced to zero
        self._exits = None  # solve's GaussianRational provenance, lazily
        for row in rows:
            self.append(row)

    def append(self, row):
        """Feed one more original row into the reduction."""
        den, r = _int_row(row, self.ncols)
        prov = {self.nrows: (den, 0)}
        self.nrows += 1
        self._exits = None
        pivots = self._pivots
        for pc in sorted(c for c in r if c in pivots):
            fa, fb = r[pc]
            pden, prow, pprov = pivots[pc]
            _update(r, pden, fa, fb, prow)
            _update(prov, pden, fa, fb, pprov)
            den = _reduced(den * pden, r, prov)
        if not r:
            self._null.append((den, prov))
            return
        pc = min(r)
        la, lb = r[pc]
        # r/den over its lead (la + lb*i)/den is r*conj(lead)/|lead|^2
        if (la, lb) != (1, 0):
            _scale(r, la, -lb)
            _scale(prov, la, -lb)
        den = _reduced(la * la + lb * lb, r, prov)
        # clear the new pivot column from the rows already in echelon form
        for entry in pivots.values():
            g = entry[1].get(pc)
            if g:
                _update(entry[1], den, g[0], g[1], r)
                _update(entry[2], den, g[0], g[1], prov)
                entry[0] = _reduced(entry[0] * den, entry[1], entry[2])
        pivots[pc] = [den, r, prov]

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
        den, r = _int_row(row, self.ncols)
        comb = {}
        pivots = self._pivots
        for pc in sorted(c for c in r if c in pivots):
            fa, fb = r[pc]
            pden, prow, pprov = pivots[pc]
            _update(r, pden, fa, fb, prow)
            _update(comb, pden, -fa, -fb, pprov)
            den = _reduced(den * pden, r, comb)
        return _gauss(r, den), _gauss(comb, den)

    def nullvector(self, free_col):
        """The kernel basis vector attached to one free column."""
        if free_col in self._pivots or not 0 <= free_col < self.ncols:
            raise DimensionMismatch("column %d is not free" % free_col)
        x = {free_col: GAUSS.one}
        for pc, (pden, prow, _) in self._pivots.items():
            g = prow.get(free_col)
            if g:
                x[pc] = GaussianRational(-g[0], -g[1], pden)
        return x

    def nullspace(self):
        return [self.nullvector(c) for c in self.free_cols]

    def solve(self, rhs, ring=GAUSS):
        """Solve A x = rhs for the matrix this system was built from.

        rhs is a sequence of ring elements, one per original row. Free
        variables are zero, so each pivot variable is its row's
        provenance applied to rhs. Raises Infeasible when a dependency
        among the rows is not matched by the right hand side.
        """
        if len(rhs) != self.nrows:
            raise DimensionMismatch("expected %d right hand side entries, got %d"
                                    % (self.nrows, len(rhs)))
        if self._exits is None:
            self._exits = (
                [list(_gauss(prov, den).items()) for den, prov in self._null],
                [(pc, list(_gauss(pprov, pden).items()))
                 for pc, (pden, _, pprov) in self._pivots.items()])
        nulls, pivots = self._exits
        zero = ring.zero

        def combine(prov):
            acc = zero
            for j, coeff in prov:
                acc = acc + coeff * rhs[j]
            return acc

        for prov in nulls:
            if combine(prov) != zero:
                raise Infeasible("right hand side breaks a row dependency")
        x = [zero] * self.ncols
        for pc, pprov in pivots:
            x[pc] = combine(pprov)
        return x
