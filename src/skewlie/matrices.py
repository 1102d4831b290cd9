"""Square matrices over a commutative involutive ring.

Matrices are immutable, carry their ring, and index entries 1-based to
match the usual e_{i,j} conventions. The skew-adjoint matrices form a
Lie ring under the bracket [a, b] = ab - ba but are not closed under
the associative product, so commutator is the only matrix product.

What a matrix stores depends on its ring:

  * Gaussian rational entries: one integer grid, grid = (den, re, im)
    with entry (i, j) equal to (re[i][j] + im[i][j]*i) / den. The
    denominator den > 0 is the lcm of the entry denominators, so
    gcd(den, every numerator) == 1 and equal matrices have equal grids
  * function ring entries: points, one Gaussian matrix per point of the
    domain
  * any other ring (polynomials): the rows of ring elements

For the first two, rows builds the entry objects (GaussianRational,
FunctionElement) lazily, once; entry(i, j) before that builds only its
own. Brackets, sums, differences, equality, hashing, the skew-adjoint
check and cache keys read the stored form:

  * Gaussian brackets accumulate integer real and imaginary parts. A
    sparse factor (at most n nonzeros) is walked entry by entry, so
    brackets against basis elements and central differences cost O(n^2);
    two dense factors are multiplied as integer matrices (three real
    products per complex product). Every result grid is reduced by one
    common gcd
  * function-ring operations run the Gaussian ones point by point
  * polynomial brackets use the ring's own + and *, walking one factor's
    nonzeros

so no bracket over the Gaussian rationals or a function ring reduces a
fraction in its inner loop.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub

from .errors import DimensionMismatch, IndexOutOfRange, NotSkewAdjoint
from .rings import (
    GAUSS,
    FunctionElement,
    FunctionRing,
    GaussianField,
    GaussianRational,
)


def _check_index(n, i):
    if not 1 <= i <= n:
        raise IndexOutOfRange("index %d outside 1..%d" % (i, n))


def _int_matprod(a, b):
    """Product of two integer matrices given as sequences of rows."""
    cols = tuple(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _int_matsub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _int_matadd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _gauss_entries(grid):
    """The GaussianRational rows of a grid; zero entries share GAUSS.zero."""
    den, re, im = grid
    zero = GAUSS.zero
    # over den == 1 every nonzero entry is already reduced
    make = GaussianRational._raw if den == 1 else GaussianRational
    return tuple(tuple(make(a, b, den) if a or b else zero
                       for a, b in zip(ra, ia))
                 for ra, ia in zip(re, im))


def _entry_keys(grid):
    """GAUSS.element_key of every entry of a grid, as rows of strings."""
    den, re, im = grid
    out = []
    for ra, ia in zip(re, im):
        row = []
        for a, b in zip(ra, ia):
            g = gcd(a, b, den)
            row.append("%d,%d,%d" % (a // g, b // g, den // g))
        out.append(row)
    return out


class Matrix:
    """An n x n matrix over ring, built from rows of ring elements.

    Exactly one of grid (Gaussian rationals), points (function rings)
    and rows (other rings) is the stored form; see the module docstring.
    """

    __slots__ = ("ring", "n", "grid", "points", "_rows", "_cache")

    def __init__(self, ring, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise DimensionMismatch("expected %d entries per row, got %d"
                                        % (n, len(r)))
        grid = points = None
        if isinstance(ring, GaussianField):
            den = lcm(*(v.d for r in rows for v in r))
            grid = (den,
                    tuple(tuple(v.a * (den // v.d) for v in r) for r in rows),
                    tuple(tuple(v.b * (den // v.d) for v in r) for r in rows))
        elif isinstance(ring, FunctionRing):
            points = tuple(Matrix(GAUSS, ((v.values[k] for v in r)
                                          for r in rows))
                           for k in range(ring.npoints))
        Matrix._init(self, ring, n, grid, points, rows)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def _init(out, ring, n, grid, points, rows):
        put = object.__setattr__
        put(out, "ring", ring)
        put(out, "n", n)
        put(out, "grid", grid)
        put(out, "points", points)
        put(out, "_rows", rows)
        put(out, "_cache", {})
        return out

    @staticmethod
    def _of_rows(ring, rows):
        # internal, other rings only: rows must be a square tuple of tuples
        return Matrix._init(object.__new__(Matrix), ring, len(rows),
                            None, None, rows)

    @staticmethod
    def _of_grid(ring, den, re, im):
        """The Gaussian matrix (re + im*i) / den for den > 0, stored after
        one common gcd reduction; re and im are sequences of rows."""
        if den != 1:
            g = gcd(den, *chain.from_iterable(re), *chain.from_iterable(im))
            if g > 1:
                den //= g
                re = [[v // g for v in r] for r in re]
                im = [[v // g for v in r] for r in im]
        grid = (den, tuple(map(tuple, re)), tuple(map(tuple, im)))
        return Matrix._init(object.__new__(Matrix), ring, len(grid[1]),
                            grid, None, None)

    @staticmethod
    def _of_points(ring, mats):
        """The function-ring matrix with Gaussian point values mats."""
        return Matrix._init(object.__new__(Matrix), ring, mats[0].n,
                            None, tuple(mats), None)

    @property
    def rows(self):
        rows = self._rows
        if rows is None:
            if self.grid is not None:
                rows = _gauss_entries(self.grid)
            else:
                rows = tuple(tuple(map(FunctionElement, zip(*point_rows)))
                             for point_rows in zip(*(p.rows
                                                     for p in self.points)))
            object.__setattr__(self, "_rows", rows)
        return rows

    def entry(self, i, j):
        """1-based entry access."""
        _check_index(self.n, i)
        _check_index(self.n, j)
        if self._rows is not None:
            return self._rows[i - 1][j - 1]
        if self.grid is not None:
            den, re, im = self.grid
            a, b = re[i - 1][j - 1], im[i - 1][j - 1]
            return GaussianRational(a, b, den) if a or b else GAUSS.zero
        return FunctionElement(p.entry(i, j) for p in self.points)

    def _nnz(self):
        nnz = self._cache.get("nnz")
        if nnz is None:
            if self.grid is not None:
                _, re, im = self.grid
                nnz = sum(1 for ra, ia in zip(re, im)
                          for a, b in zip(ra, ia) if a or b)
            elif self.points is not None:
                # entries nonzero at some point
                grids = [p.grid for p in self.points]
                nnz = sum(1 for i in range(self.n) for j in range(self.n)
                          if any(g[1][i][j] or g[2][i][j] for g in grids))
            else:
                nnz = sum(1 for r in self.rows for v in r if v)
            self._cache["nnz"] = nnz
        return nnz

    def _nonzeros(self):
        out = []
        for i, r in enumerate(self.rows):
            for j, v in enumerate(r):
                if v:
                    out.append((i, j, v))
        return out

    def cache_key(self):
        """The entries' ring.element_key texts, joined by "," within a row
        and ";" between rows."""
        key = self._cache.get("key")
        if key is None:
            if self.grid is not None:
                rows = _entry_keys(self.grid)
            elif self.points is not None:
                # a function element's key joins its point keys with "|"
                rows = [map("|".join, zip(*point_rows))
                        for point_rows in zip(*(_entry_keys(p.grid)
                                                for p in self.points))]
            else:
                ek = self.ring.element_key
                rows = [map(ek, r) for r in self.rows]
            key = ";".join(map(",".join, rows))
            self._cache["key"] = key
        return key

    def _check_compatible(self, other):
        if not isinstance(other, Matrix):
            return None
        if other.ring != self.ring:
            raise DimensionMismatch("matrices over different rings")
        if other.n != self.n:
            raise DimensionMismatch("matrix sizes %d and %d differ"
                                    % (self.n, other.n))
        return other

    def __add__(self, other):
        o = self._check_compatible(other)
        if o is None:
            return NotImplemented
        return _combine(self, o, 1)

    def __sub__(self, other):
        o = self._check_compatible(other)
        if o is None:
            return NotImplemented
        return _combine(self, o, -1)

    def __neg__(self):
        if self.grid is not None:
            den, re, im = self.grid
            return Matrix._of_grid(self.ring, den,
                                   [[-v for v in r] for r in re],
                                   [[-v for v in r] for r in im])
        if self.points is not None:
            return Matrix._of_points(self.ring, [-p for p in self.points])
        return Matrix._of_rows(self.ring, tuple(tuple(-v for v in r)
                                                for r in self.rows))

    def __mul__(self, other):
        return self._scale(other)

    def __rmul__(self, other):
        # scalars commute, so scalar * matrix == matrix * scalar
        return self._scale(other)

    def _scale(self, value):
        try:
            s = self.ring.scalar(value)
        except TypeError:
            return NotImplemented
        return Matrix(self.ring, ((s * v for v in r) for r in self.rows))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring != other.ring:
            return False
        if self.grid is not None:
            return self.grid == other.grid
        if self.points is not None:
            return self.points == other.points
        return self.rows == other.rows

    def __hash__(self):
        if self.grid is not None:
            return hash(self.grid)
        if self.points is not None:
            return hash(self.points)
        return hash((self.n, self.rows))

    def __repr__(self):
        return "Matrix(%s, n=%d)" % (self.ring.name, self.n)


def _combine(a, b, sign):
    """a + sign*b for compatible a and b, sign = 1 or -1."""
    if a.grid is not None:
        da, are, aim = a.grid
        db, bre, bim = b.grid
        d = lcm(da, db)
        fa, fb = d // da, sign * (d // db)
        return Matrix._of_grid(
            a.ring, d,
            [[x * fa + y * fb for x, y in zip(ra, rb)]
             for ra, rb in zip(are, bre)],
            [[x * fa + y * fb for x, y in zip(ra, rb)]
             for ra, rb in zip(aim, bim)])
    if a.points is not None:
        return Matrix._of_points(a.ring, [_combine(p, q, sign) for p, q
                                          in zip(a.points, b.points)])
    op = add if sign > 0 else sub
    return Matrix._of_rows(a.ring, tuple(tuple(map(op, ra, rb))
                                         for ra, rb in zip(a.rows, b.rows)))


def _gauss_int_product(a, b):
    """Integer real and imaginary parts of a*b and the joint denominator."""
    da, are, aim = a.grid
    db, bre, bim = b.grid
    # (P + iQ)(R + iS) with three integer products
    p1 = _int_matprod(are, bre)
    p2 = _int_matprod(aim, bim)
    p3 = _int_matprod(_int_matadd(are, aim), _int_matadd(bre, bim))
    cre = _int_matsub(p1, p2)
    cim = _int_matsub(_int_matsub(p3, p1), p2)
    return cre, cim, da * db


def _gauss_dense_commutator(a, b):
    lre, lim, d = _gauss_int_product(a, b)
    rre, rim, d2 = _gauss_int_product(b, a)
    if d2 != d:
        raise AssertionError("commutator denominators diverged")
    return Matrix._of_grid(a.ring, d, _int_matsub(lre, rre),
                           _int_matsub(lim, rim))


def _gauss_sparse_commutator(a, b, sign):
    """sign * (a*b - b*a) for Gaussian a and b on integer grids, walking
    only b's nonzeros; the sign is folded into b's entries."""
    da, are, aim = a.grid
    db, bre, bim = b.grid
    n = a.n
    nz = [(p, q, sign * r, sign * s)
          for p, (rr, ri) in enumerate(zip(bre, bim))
          for q, (r, s) in enumerate(zip(rr, ri)) if r or s]
    cre = [[0] * n for _ in range(n)]
    cim = [[0] * n for _ in range(n)]
    for p, j, r, s in nz:
        # column j of a*b gains column p of a times b^{pj}
        for i in range(n):
            x = are[i][p]
            y = aim[i][p]
            cre[i][j] += x * r - y * s
            cim[i][j] += x * s + y * r
    for i, p, r, s in nz:
        # row i of b*a gains b^{ip} times row p of a
        ore, oim = cre[i], cim[i]
        for j, (x, y) in enumerate(zip(are[p], aim[p])):
            ore[j] -= r * x - s * y
            oim[j] -= r * y + s * x
    return Matrix._of_grid(a.ring, da * db, cre, cim)


def _gauss_commutator(a, b):
    n = a.n
    if b._nnz() <= n:
        return _gauss_sparse_commutator(a, b, 1)
    if a._nnz() <= n:
        return _gauss_sparse_commutator(b, a, -1)
    return _gauss_dense_commutator(a, b)


def _sparse_commutator(a, b):
    """a*b - b*a accumulated in one grid; only b's nonzeros are walked."""
    zero = a.ring.zero
    n = a.n
    out = [[zero] * n for _ in range(n)]
    arows = a.rows
    nz = b._nonzeros()
    for p, j, v in nz:
        for i in range(n):
            x = arows[i][p]
            if x:
                out[i][j] = out[i][j] + x * v
    for i, p, v in nz:
        row = arows[p]
        for j in range(n):
            y = row[j]
            if y:
                out[i][j] = out[i][j] - v * y
    return Matrix._of_rows(a.ring, tuple(map(tuple, out)))


def commutator(a, b):
    """The bracket ab - ba, fusing the two products where the shapes allow
    it."""
    if not isinstance(a, Matrix) or not isinstance(b, Matrix):
        raise DimensionMismatch("commutator needs two matrices")
    a._check_compatible(b)
    if a.grid is not None:
        return _gauss_commutator(a, b)
    if a.points is not None:
        return Matrix._of_points(a.ring, [_gauss_commutator(p, q) for p, q
                                          in zip(a.points, b.points)])
    if b._nnz() > a.n and a._nnz() <= a.n:
        return -_sparse_commutator(b, a)
    return _sparse_commutator(a, b)


def zeros(n, ring=GAUSS):
    z = ring.zero
    return Matrix(ring, ((z,) * n for _ in range(n)))


def matrix_unit(n, i, j, ring=GAUSS):
    """e_{i,j}: single one at 1-based position (i, j)."""
    _check_index(n, i)
    _check_index(n, j)
    z, o = ring.zero, ring.one
    return Matrix(ring, ((o if (r, c) == (i - 1, j - 1) else z
                          for c in range(n)) for r in range(n)))


def star_transpose(x):
    """(x*)^{i,j} = star of x^{j,i}."""
    star = x.ring.star
    return Matrix(x.ring, ((star(x.rows[j][i]) for j in range(x.n))
                           for i in range(x.n)))


def is_skew_adjoint(x):
    ok = x._cache.get("skew")
    if ok is None:
        n = x.n
        if x.grid is not None:
            # x^{ji} = -conj(x^{ij}) on the grid over one denominator
            _, re, im = x.grid
            ok = all(re[j][i] == -re[i][j] and im[j][i] == im[i][j]
                     for i in range(n) for j in range(i, n))
        elif x.points is not None:
            ok = all(map(is_skew_adjoint, x.points))
        else:
            star = x.ring.star
            rows = x.rows
            ok = all(star(rows[j][i]) == -rows[i][j]
                     for i in range(n) for j in range(i, n))
        x._cache["skew"] = ok
    return ok


def require_skew_adjoint(x, what="matrix"):
    if not is_skew_adjoint(x):
        raise NotSkewAdjoint("%s is not skew-adjoint" % what)
    return x


def at_point(x, k):
    """Values of a function-ring matrix at one point, as a Gaussian matrix."""
    if not isinstance(x.ring, FunctionRing):
        raise DimensionMismatch("at_point needs a function ring matrix")
    if not 0 <= k < x.ring.npoints:
        raise IndexOutOfRange("point index %d outside 0..%d"
                              % (k, x.ring.npoints - 1))
    return x.points[k]


# one ring per domain size, so that matrices assembled by from_points
# share their ring object
_fnrings = {}


def from_points(mats):
    """Assemble a function-ring matrix from its per-point Gaussian values."""
    mats = tuple(mats)
    if not mats:
        raise DimensionMismatch("need at least one point matrix")
    n = mats[0].n
    for m in mats:
        if m.n != n:
            raise DimensionMismatch("point matrices disagree on size")
        if not isinstance(m.ring, GaussianField):
            raise DimensionMismatch("point matrices must be Gaussian")
    ring = _fnrings.get(len(mats))
    if ring is None:
        ring = _fnrings[len(mats)] = FunctionRing(len(mats))
    return Matrix._of_points(ring, mats)
