"""Exact linear algebra over the Gaussian rationals.

ReducedSystem row-reduces a sparse coefficient matrix once and remembers,
for every surviving row, which combination of the original rows produced
it. That provenance lets one reduction serve many right hand sides, and
the right hand sides may live in a larger ring than the coefficients:
solving only ever multiplies ring elements by Gaussian rational scalars.
"""

from __future__ import annotations

from .errors import DimensionMismatch, Infeasible
from .rings import GAUSS, GaussianRational


def _coerce_coeff(v):
    g = GaussianRational._coerce(v)
    if g is None:
        raise TypeError("coefficient %r is not a Gaussian rational" % (v,))
    return g


def _axpy(target, coeff, source):
    """target += coeff * source on sparse dicts, dropping created zeros."""
    for c, v in source.items():
        w = target.get(c, GAUSS.zero) + coeff * v
        if w:
            target[c] = w
        elif c in target:
            del target[c]


class ReducedSystem:
    """Reduced row echelon form of a matrix, with provenance.

    rows: iterable of sparse rows, each a dict column -> coefficient
    (ints and Fractions are accepted and coerced). Columns are 0-based
    and must be below ncols.
    """

    def __init__(self, rows, ncols):
        self.ncols = ncols
        self.nrows = 0
        self._pivots = {}   # pivot col -> (row dict, provenance dict)
        self._null = []     # provenance of rows that reduced to zero
        for row in rows:
            self.append(row)

    def append(self, row):
        """Feed one more original row into the reduction."""
        idx = self.nrows
        self.nrows += 1
        r = {}
        for c, v in row.items():
            if not 0 <= c < self.ncols:
                raise DimensionMismatch("column %d outside 0..%d"
                                        % (c, self.ncols - 1))
            g = _coerce_coeff(v)
            if g:
                r[c] = g
        prov = {idx: GAUSS.one}
        self._reduce_in_place(r, prov)
        if not r:
            self._null.append(prov)
            return
        pc = min(r)
        lead = r[pc]
        if lead != GAUSS.one:
            inv = GAUSS.one / lead
            r = {c: inv * v for c, v in r.items()}
            prov = {j: inv * v for j, v in prov.items()}
        # clear the new pivot column from the rows already in echelon form
        for prow, pprov in self._pivots.values():
            g = prow.get(pc)
            if g:
                _axpy(prow, -g, r)
                _axpy(pprov, -g, prov)
        self._pivots[pc] = (r, prov)

    def _reduce_in_place(self, r, prov):
        for pc in sorted(c for c in r if c in self._pivots):
            f = r.get(pc)
            if not f:
                continue
            prow, pprov = self._pivots[pc]
            _axpy(r, -f, prow)
            _axpy(prov, -f, pprov)

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
        r = {}
        for c, v in row.items():
            g = _coerce_coeff(v)
            if g:
                r[c] = g
        comb = {}
        for pc in sorted(c for c in r if c in self._pivots):
            f = r.get(pc)
            if not f:
                continue
            prow, pprov = self._pivots[pc]
            _axpy(r, -f, prow)
            _axpy(comb, f, pprov)
        return r, comb

    def nullvector(self, free_col):
        """The kernel basis vector attached to one free column."""
        if free_col in self._pivots or not 0 <= free_col < self.ncols:
            raise DimensionMismatch("column %d is not free" % free_col)
        x = {free_col: GAUSS.one}
        for pc, (prow, _) in self._pivots.items():
            g = prow.get(free_col)
            if g:
                x[pc] = -g
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
        zero = ring.zero

        def combine(prov):
            acc = zero
            for j, coeff in prov.items():
                acc = acc + coeff * rhs[j]
            return acc

        for prov in self._null:
            if combine(prov) != zero:
                raise Infeasible("right hand side breaks a row dependency")
        x = [zero] * self.ncols
        for pc, (_, pprov) in self._pivots.items():
            x[pc] = combine(pprov)
        return x
