"""Square matrices over a commutative involutive ring.

Matrices are immutable, carry their ring, and index entries 1-based to
match the usual e_{i,j} conventions; the JSON exchange format is 0-based
row-major (see to_json). The skew-adjoint matrices form a Lie ring under
the bracket [a, b] = ab - ba but are not closed under the associative
product, so commutator is the only matrix product. Its kernels work
on integer grids wherever the ring has them:

  * Gaussian rational entries: clear denominators once (Matrix._int_form)
    and accumulate integer real and imaginary parts. A sparse factor
    (at most n nonzeros) is walked entry by entry, so brackets against
    basis elements and central differences cost O(n^2); two dense
    factors are multiplied as integer matrices (three real products per
    complex product)
  * function ring entries: the same Gaussian kernels applied pointwise
  * any other ring (polynomials): the ring's own + and *, walking one
    factor's nonzeros

so no bracket over the Gaussian rationals or a function ring reduces a
fraction in its inner loop. Gaussian differences and the skew-adjoint
check read the same integer grids.
"""

from __future__ import annotations

import json
from math import lcm
from operator import mul

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    MalformedInput,
    NotSkewAdjoint,
)
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
    """Product of two integer matrices given as tuples of row tuples."""
    cols = tuple(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _int_matsub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _int_matadd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


class Matrix:
    __slots__ = ("ring", "n", "rows", "_cache")

    def __init__(self, ring, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise DimensionMismatch("expected %d entries per row, got %d"
                                        % (n, len(r)))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def _make(ring, rows):
        # internal: rows must already be a square tuple of tuples
        out = object.__new__(Matrix)
        object.__setattr__(out, "ring", ring)
        object.__setattr__(out, "n", len(rows))
        object.__setattr__(out, "rows", rows)
        object.__setattr__(out, "_cache", {})
        return out

    def entry(self, i, j):
        """1-based entry access."""
        _check_index(self.n, i)
        _check_index(self.n, j)
        return self.rows[i - 1][j - 1]

    def _nnz(self):
        nnz = self._cache.get("nnz")
        if nnz is None:
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

    # scaled integer form for Gaussian rational entries:
    # entry[i][j] == (re[i][j] + im[i][j]*i) / den
    def _int_form(self):
        form = self._cache.get("ints")
        if form is None:
            den = 1
            for r in self.rows:
                for v in r:
                    den = lcm(den, v.d)
            re = tuple(tuple(v.a * (den // v.d) for v in r) for r in self.rows)
            im = tuple(tuple(v.b * (den // v.d) for v in r) for r in self.rows)
            form = (den, re, im)
            self._cache["ints"] = form
        return form

    def _at_point(self, k):
        """Gaussian matrix of values at one point of a function ring."""
        pts = self._cache.get("points")
        if pts is None:
            pts = {}
            self._cache["points"] = pts
        m = pts.get(k)
        if m is None:
            m = Matrix(GAUSS, tuple(tuple(v.values[k] for v in r)
                                    for r in self.rows))
            pts[k] = m
        return m

    def cache_key(self):
        key = self._cache.get("key")
        if key is None:
            ek = self.ring.element_key
            key = ";".join(",".join(ek(v) for v in r) for r in self.rows)
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
        return Matrix._make(self.ring,
                            tuple(tuple(a + b for a, b in zip(ra, rb))
                                  for ra, rb in zip(self.rows, o.rows)))

    def __sub__(self, other):
        o = self._check_compatible(other)
        if o is None:
            return NotImplemented
        if self.ring is GAUSS:
            return _gauss_difference(self, o)
        return Matrix._make(self.ring,
                            tuple(tuple(a - b for a, b in zip(ra, rb))
                                  for ra, rb in zip(self.rows, o.rows)))

    def __neg__(self):
        return Matrix._make(self.ring, tuple(tuple(-v for v in r)
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
        return self.ring == other.ring and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return "Matrix(%s, n=%d)" % (self.ring.name, self.n)


def _gauss_int_product(a, b):
    """Integer real and imaginary parts of a*b and the joint denominator."""
    da, are, aim = a._int_form()
    db, bre, bim = b._int_form()
    # (P + iQ)(R + iS) with three integer products
    p1 = _int_matprod(are, bre)
    p2 = _int_matprod(aim, bim)
    p3 = _int_matprod(_int_matadd(are, aim), _int_matadd(bre, bim))
    cre = _int_matsub(p1, p2)
    cim = _int_matsub(_int_matsub(p3, p1), p2)
    return cre, cim, da * db


def _gauss_of_ints(cre, cim, d):
    """The Gaussian matrix (cre + cim*i) / d with reduced entries; zero
    entries share GAUSS.zero."""
    zero = GAUSS.zero
    if d == 1:
        raw = GaussianRational._raw
        return Matrix._make(GAUSS, tuple(
            tuple(raw(re_v, im_v, 1) if re_v or im_v else zero
                  for re_v, im_v in zip(rr, ri))
            for rr, ri in zip(cre, cim)))
    return Matrix._make(GAUSS, tuple(
        tuple(GaussianRational(re_v, im_v, d) if re_v or im_v else zero
              for re_v, im_v in zip(rr, ri))
        for rr, ri in zip(cre, cim)))


def _gauss_difference(a, b):
    """a - b on the integer grids, over lcm of the two denominators."""
    da, are, aim = a._int_form()
    db, bre, bim = b._int_form()
    d = lcm(da, db)
    fa, fb = d // da, d // db
    return _gauss_of_ints(
        [[x * fa - y * fb for x, y in zip(ra, rb)]
         for ra, rb in zip(are, bre)],
        [[x * fa - y * fb for x, y in zip(ra, rb)]
         for ra, rb in zip(aim, bim)],
        d)


def _gauss_dense_commutator(a, b):
    lre, lim, d = _gauss_int_product(a, b)
    rre, rim, d2 = _gauss_int_product(b, a)
    if d2 != d:
        raise AssertionError("commutator denominators diverged")
    return _gauss_of_ints(_int_matsub(lre, rre), _int_matsub(lim, rim), d)


def _gauss_sparse_ints(a, b, sign):
    """sign * (a*b - b*a) for Gaussian a and b on integer grids, walking
    only b's nonzeros; the sign is folded into b's entries."""
    da, are, aim = a._int_form()
    db, bre, bim = b._int_form()
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
    return _gauss_of_ints(cre, cim, da * db)


def _gauss_commutator(a, b):
    n = a.n
    if b._nnz() <= n:
        return _gauss_sparse_ints(a, b, 1)
    if a._nnz() <= n:
        return _gauss_sparse_ints(b, a, -1)
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
    return Matrix._make(a.ring, tuple(map(tuple, out)))


def commutator(a, b):
    """The bracket ab - ba, fusing the two products where the shapes allow
    it."""
    if not isinstance(a, Matrix) or not isinstance(b, Matrix):
        raise DimensionMismatch("commutator needs two matrices")
    a._check_compatible(b)
    ring = a.ring
    if ring is GAUSS:
        return _gauss_commutator(a, b)
    if isinstance(ring, FunctionRing):
        return from_points(_gauss_commutator(a._at_point(k), b._at_point(k))
                           for k in range(ring.npoints))
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
        if x.ring is GAUSS:
            # x^{ji} = -conj(x^{ij}) on the grids over one denominator
            _, re, im = x._int_form()
            ok = all(re[j][i] == -re[i][j] and im[j][i] == im[i][j]
                     for i in range(n) for j in range(i, n))
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
    return x._at_point(k)


# one ring per domain size: from_points runs once per dense function-ring
# bracket, and each FunctionRing builds its three constant elements
_fnrings = {}


def from_points(mats):
    """Assemble a function-ring matrix from its per-point Gaussian values."""
    mats = list(mats)
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
    return Matrix(ring, ((FunctionElement(m.rows[i][j] for m in mats)
                          for j in range(n)) for i in range(n)))


def to_json(x):
    """Serialize as {"n": ..., "entries": [[...]]} with 0-based row-major
    entries rendered by the ring's text format."""
    fmt = x.ring.format
    return json.dumps({"n": x.n, "entries": [[fmt(v) for v in r]
                                             for r in x.rows]},
                      indent=2, sort_keys=True)


def from_json(text, ring=GAUSS):
    """Unreadable input raises MalformedInput, naming a bad entry's 0-based
    (row, col); entries that are no n by n grid raise DimensionMismatch."""
    try:
        data = json.loads(text) if isinstance(text, str) else text
    except json.JSONDecodeError as exc:
        raise MalformedInput("matrix JSON does not parse: %s" % exc) from exc
    if not isinstance(data, dict) or "n" not in data or "entries" not in data:
        raise MalformedInput("matrix JSON needs keys 'n' and 'entries'")
    n = data["n"]
    entries = data["entries"]
    if type(n) is not int or n < 1:
        raise MalformedInput("matrix size must be a positive integer")
    if not isinstance(entries, list) or \
            not all(isinstance(r, list) for r in entries):
        raise MalformedInput("entries must be a list of rows")
    if len(entries) != n or any(len(r) != n for r in entries):
        raise DimensionMismatch("entries do not form an %d by %d grid" % (n, n))
    return Matrix(ring, ((_parse_entry(ring, i, j, v)
                          for j, v in enumerate(row))
                         for i, row in enumerate(entries)))


def _parse_entry(ring, i, j, v):
    if not isinstance(v, str):
        raise MalformedInput("entry (%d, %d) is not a string" % (i, j))
    try:
        return ring.parse(v)
    except (ValueError, ZeroDivisionError, DimensionMismatch) as exc:
        raise MalformedInput("entry (%d, %d) does not parse: %s"
                             % (i, j, exc)) from exc
