"""Square matrices over a commutative involutive ring.

Matrices are immutable, carry their ring, and index entries 1-based to
match the usual e_{i,j} conventions. The skew-adjoint matrices form a
Lie ring under the bracket [a, b] = ab - ba but are not closed under
the associative product, so commutator is the only matrix product.

What a matrix stores depends on its ring:

  * Gaussian rationals and function rings: grids, a tuple of integer
    grids (den, re, im), one per point of the domain: one for the
    Gaussian rationals, k for FunctionRing(k). re and im are row-major
    tuples of n*n numerators: at a point, the 0-based entry (i, j) is
    (re[i*n + j] + im[i*n + j]*i) / den. The denominator den > 0 is the
    lcm of that point's entry denominators, so gcd(den, every
    numerator) == 1 and equal matrices have equal grids
  * any other ring (polynomials, and the linear forms of symcheck's
    unknowns): the rows of ring elements

cache_key is the repr of the stored form. Reduced grids and polynomial
rows are canonical, so over those rings two matrices have equal keys
exactly when they are equal.

With grids, rows builds the entry objects (GaussianRational,
FunctionElement) lazily, once; entry(i, j) before that builds only its
own. The grid format is private to this module. Brackets, sums,
differences, equality, hashing, cache keys, the skew-adjoint and scalar
checks, the tables of linear maps, the witness diagonal shift and
random draws read or write the grids here, each as one kernel on one
grid mapped over the points, reading the numerators as stored:

  * a bracket walks the nonzeros of one factor entry by entry,
    accumulating integer real and imaginary parts: b, unless b has more
    than n nonzeros and a has fewer. Nonzeros are counted once per
    bracket over the support at all points, so brackets against basis
    elements and central differences cost O(n^2) per point and two dense
    factors O(n^3). Every result grid is reduced by one common gcd
  * differ_by_scalar tells whether a - b is scalar at every point
    without forming a - b: over equal denominators it subtracts the
    numerators with map and counts zeros, by the same per-grid scalar
    rule that is_central reads, so a caller can skip a bracket with a
    central difference
  * when the walked factor has more than n nonzeros and both factors
    are skew-adjoint, only P = ab is walked: ba = (ab)*, so the bracket
    is P - P*, formed on the numerators with map and one memoized
    transpose per n. Whether a matrix is skew-adjoint is cached with
    it, and set without a check on random_skew draws, on brackets, sums
    and differences of two known skew-adjoint factors, on
    _shift_diagonal of one and on the images that linear-map tables
    return; an unknown factor is checked once, on its grids in C
  * the table of a linear map on K_n holds the n^2 real coordinates
    (the lie.decompose coefficients) of every basis image, n^2 x n^2
    integers per point, and apply rebuilds the skew-adjoint image grid
    from the n^2 coordinates it computes
  * sums and differences work on the numerators of both grids with
    map, so the arithmetic and the one gcd run in C
  * brackets over other rings walk the same factor with the ring's own
    + and *; symcheck brackets its unknowns (matrices of linear forms)
    with its own kernel, symcheck.bracket, which reads a Gaussian-integer
    second factor off its grid and accumulates each entry in one dict

so no bracket over the Gaussian rationals or a function ring reduces a
fraction in its inner loop.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import gcd, isqrt, lcm
from operator import add, floordiv, itemgetter, mul, neg, or_, sub

from .errors import DimensionMismatch, IndexOutOfRange, NotSkewAdjoint
from .rings import (
    GAUSS,
    FunctionElement,
    FunctionRing,
    GaussianField,
    GaussianRational,
    imaginary_unit,
)


def _check_index(n, i):
    if not 1 <= i <= n:
        raise IndexOutOfRange("index %d outside 1..%d" % (i, n))


def _flat_grid(den, re, im):
    """The grid (re + im*i) / den for den > 0 after one common gcd
    reduction; re and im are row-major sequences of n*n numerators."""
    if den != 1:
        g = gcd(den, *re, *im)
        if g > 1:
            return (den // g, tuple(map(floordiv, re, repeat(g))),
                    tuple(map(floordiv, im, repeat(g))))
    return den, tuple(re), tuple(im)


def _split_rows(flat, n):
    """The rows of n entries each of a row-major iterable, as a tuple of
    tuples."""
    return tuple(zip(*[iter(flat)] * n))


def _lcm_grid(rows):
    """The grid of rows of GaussianRationals, over the lcm of their
    denominators."""
    flat = list(chain.from_iterable(rows))
    den = lcm(*(v.d for v in flat))
    return (den, tuple([v.a * (den // v.d) for v in flat]),
            tuple([v.b * (den // v.d) for v in flat]))


def _gauss_entries(grid):
    """The GaussianRational entries of a grid, row-major; zero entries
    share GAUSS.zero."""
    den, re, im = grid
    zero = GAUSS.zero
    # over den == 1 every nonzero entry is already reduced
    make = GaussianRational._raw if den == 1 else GaussianRational
    return [make(a, b, den) if a or b else zero for a, b in zip(re, im)]


def _gauss_entry(grid, k):
    den, re, im = grid
    a, b = re[k], im[k]
    return GaussianRational(a, b, den) if a or b else GAUSS.zero


class Matrix:
    """An n x n matrix over ring, built from rows of ring elements or of
    values that ring.scalar lifts into it.

    grids (Gaussian rationals and function rings, one integer grid per
    point) or rows (other rings) is the stored form; see the module
    docstring.
    """

    __slots__ = ("ring", "n", "grids", "_rows", "_cache")

    def __init__(self, ring, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise DimensionMismatch("expected %d entries per row, got %d"
                                        % (n, len(r)))
        grids = None
        if isinstance(ring, GaussianField):
            # ring.scalar returns a GaussianRational unchanged
            if not all(map(isinstance, chain.from_iterable(rows),
                           repeat(GaussianRational))):
                rows = tuple(tuple(map(ring.scalar, r)) for r in rows)
            grids = (_lcm_grid(rows),)
        else:
            rows = tuple(tuple(map(ring.scalar, r)) for r in rows)
            if isinstance(ring, FunctionRing):
                grids = tuple(_lcm_grid([[v.values[t] for v in r]
                                         for r in rows])
                              for t in range(ring.npoints))
        Matrix._init(self, ring, n, grids, rows)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def _init(out, ring, n, grids, rows):
        put = object.__setattr__
        put(out, "ring", ring)
        put(out, "n", n)
        put(out, "grids", grids)
        put(out, "_rows", rows)
        put(out, "_cache", {})
        return out

    @staticmethod
    def _of_rows(ring, rows):
        # internal, rings without grids: rows must be a square tuple of tuples
        return Matrix._init(object.__new__(Matrix), ring, len(rows),
                            None, rows)

    @staticmethod
    def _of_grids(ring, grids):
        # internal: grids must be reduced, one per point of ring
        return Matrix._init(object.__new__(Matrix), ring,
                            isqrt(len(grids[0][1])), grids, None)

    @property
    def rows(self):
        rows = self._rows
        if rows is None:
            points = [_gauss_entries(g) for g in self.grids]
            entries = (map(FunctionElement, zip(*points))
                       if isinstance(self.ring, FunctionRing) else points[0])
            rows = _split_rows(entries, self.n)
            object.__setattr__(self, "_rows", rows)
        return rows

    def entry(self, i, j):
        """1-based entry access."""
        _check_index(self.n, i)
        _check_index(self.n, j)
        if self._rows is not None:
            return self._rows[i - 1][j - 1]
        k = (i - 1) * self.n + j - 1
        if isinstance(self.ring, FunctionRing):
            return FunctionElement(_gauss_entry(g, k) for g in self.grids)
        return _gauss_entry(self.grids[0], k)

    def _nnz(self):
        """How many entries are nonzero at some point."""
        nnz = self._cache.get("nnz")
        if nnz is None:
            if self.grids is None:
                nnz = sum(1 for r in self.rows for v in r if v)
            else:
                # x | y == 0 only when x == y == 0
                (_, re, im), *rest = self.grids
                support = map(or_, re, im)
                for _, re, im in rest:
                    support = map(or_, map(or_, support, re), im)
                nnz = self.n * self.n - list(support).count(0)
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
        """repr of what the matrix stores: its grids, or its rows over a
        ring without grids. Over one ring, equal keys mean equal
        matrices; over the Gaussian rationals, function rings and
        polynomial rings, whose stored forms are canonical, equal
        matrices have equal keys too."""
        key = self._cache.get("key")
        if key is None:
            key = repr(self._rows if self.grids is None else self.grids)
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
        if self.grids is None:
            return Matrix._of_rows(self.ring, tuple(tuple(-v for v in r)
                                                    for r in self.rows))
        # negation keeps a grid reduced
        return Matrix._of_grids(self.ring, tuple(
            (den, tuple(map(neg, re)), tuple(map(neg, im)))
            for den, re, im in self.grids))

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
        if self.grids is None:
            return self.rows == other.rows
        return self.grids == other.grids

    def __hash__(self):
        if self.grids is None:
            return hash((self.n, self.rows))
        return hash(self.grids)

    def __repr__(self):
        return "Matrix(%s, n=%d)" % (self.ring.name, self.n)


def _combine(a, b, sign):
    """a + sign*b for compatible a and b, sign = 1 or -1; known
    skew-adjoint when a and b are."""
    if a.grids is None:
        op = add if sign > 0 else sub
        out = Matrix._of_rows(a.ring, tuple(
            tuple(map(op, ra, rb)) for ra, rb in zip(a.rows, b.rows)))
    else:
        out = Matrix._of_grids(a.ring, tuple(
            map(_grid_combine, a.grids, b.grids, repeat(sign))))
    if a._cache.get("skew") and b._cache.get("skew"):
        out._cache["skew"] = True
    return out


def _grid_combine(ga, gb, sign):
    """a + sign*b for the grids of a and b at one point, summed on their
    numerators."""
    da, are, aim = ga
    db, bre, bim = gb
    d = lcm(da, db)
    fa, fb = repeat(d // da), repeat(sign * (d // db))
    return _flat_grid(
        d, tuple(map(add, map(mul, are, fa), map(mul, bre, fb))),
        tuple(map(add, map(mul, aim, fa), map(mul, bim, fb))))


def _grid_sparse_commutator(ga, gb, sign, skew=False):
    """sign * (a*b - b*a) for the grids of a and b at one point, walking
    only b's nonzeros; the sign is folded into b's entries. With skew
    (a and b skew-adjoint) only P = sign*a*b is walked: b*a = (a*b)*,
    so the bracket is P - P*, re = P_re - P_re^T and im = P_im + P_im^T."""
    da, are, aim = ga
    db, bre, bim = gb
    size = len(are)
    n = isqrt(size)
    nz = [(k // n, k % n, sign * r, sign * s)
          for k, (r, s) in enumerate(zip(bre, bim)) if r or s]
    cre = [0] * size
    cim = [0] * size
    for p, j, r, s in nz:
        # column j of a*b gains column p of a times b^{pj}: entry ip of
        # that column of a goes to entry ip + j - p of the product
        d = j - p
        for ip in range(p, size, n):
            x = are[ip]
            y = aim[ip]
            cre[ip + d] += x * r - y * s
            cim[ip + d] += x * s + y * r
    if skew:
        tr = _transpose(n)
        return _flat_grid(da * db, tuple(map(sub, cre, tr(cre))),
                          tuple(map(add, cim, tr(cim))))
    for i, p, r, s in nz:
        # row i of b*a gains b^{ip} times row p of a
        d = (i - p) * n
        for pj in range(p * n, p * n + n):
            x = are[pj]
            y = aim[pj]
            cre[pj + d] -= r * x - s * y
            cim[pj + d] -= r * y + s * x
    return _flat_grid(da * db, cre, cim)


def _sparse_commutator(a, b):
    """a*b - b*a over a's ring, accumulated in one grid; only b's nonzeros
    are walked. b may be a Gaussian matrix whose entries scale a's, the
    reference that symcheck.bracket is tested against."""
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
    """The bracket ab - ba in one pass over the nonzeros of one factor:
    b, unless b has more than n nonzeros and a has fewer, in which case
    a is walked and the sign of [b, a] = -[a, b] folded in. On grids,
    when the walked factor has more than n nonzeros and both factors are
    skew-adjoint, only their product is walked (_grid_sparse_commutator
    with skew). The bracket of two known skew-adjoint factors is known
    skew-adjoint."""
    if not isinstance(a, Matrix) or not isinstance(b, Matrix):
        raise DimensionMismatch("commutator needs two matrices")
    a._check_compatible(b)
    n = a.n
    nnz_b = b._nnz()
    swap = nnz_b > n and a._nnz() < nnz_b
    if a.grids is None:
        out = -_sparse_commutator(b, a) if swap \
            else _sparse_commutator(a, b)
    else:
        walked = a if swap else b
        skew = repeat(walked._nnz() > n and is_skew_adjoint(a)
                      and is_skew_adjoint(b))
        if swap:
            grids = map(_grid_sparse_commutator, b.grids, a.grids,
                        repeat(-1), skew)
        else:
            grids = map(_grid_sparse_commutator, a.grids, b.grids,
                        repeat(1), skew)
        out = Matrix._of_grids(a.ring, tuple(grids))
    if a._cache.get("skew") and b._cache.get("skew"):
        out._cache["skew"] = True
    return out


def from_entries(n, entries, ring=GAUSS):
    """The n x n matrix with entries[(i, j)] at each 1-based position (i, j)
    of the mapping entries and zero everywhere else; values are lifted by
    ring.scalar."""
    grid = [[ring.zero] * n for _ in range(n)]
    for (i, j), v in entries.items():
        _check_index(n, i)
        _check_index(n, j)
        grid[i - 1][j - 1] = v
    return Matrix(ring, grid)


def zeros(n, ring=GAUSS):
    return from_entries(n, {}, ring)


def star_transpose(x):
    """(x*)^{i,j} = star of x^{j,i}."""
    star = x.ring.star
    return Matrix(x.ring, ((star(x.rows[j][i]) for j in range(x.n))
                           for i in range(x.n)))


def is_skew_adjoint(x):
    ok = x._cache.get("skew")
    if ok is None:
        n = x.n
        if x.grids is None:
            star = x.ring.star
            rows = x.rows
            ok = all(star(rows[j][i]) == -rows[i][j]
                     for i in range(n) for j in range(i, n))
        else:
            ok = all(map(_grid_is_skew, x.grids))
        x._cache["skew"] = ok
    return ok


def _grid_is_skew(grid):
    """x^{ji} = -conj(x^{ij}) on a grid over one denominator: re + re^T
    is zero and im^T == im, compared on the numerators."""
    _, re, im = grid
    tr = _transpose(isqrt(len(re)))
    return tr(im) == im and not any(map(add, re, tr(re)))


def require_skew_adjoint(x, what="matrix"):
    if not is_skew_adjoint(x):
        raise NotSkewAdjoint("%s is not skew-adjoint" % what)
    return x


def _is_scalar(x):
    """Whether x is a multiple of the identity by a ring element."""
    if x.grids is None:
        return all(v == x.rows[0][0] if i == j else not v
                   for i, r in enumerate(x.rows) for j, v in enumerate(r))
    return all(_grid_is_scalar(re, im) for _, re, im in x.grids)


def _grid_is_scalar(re, im):
    """Whether the row-major numerators re and im of n*n entries are a
    multiple of the identity: the diagonal slice holds one value n
    times, and every zero off it is counted, n*n - n of them."""
    n = isqrt(len(re))
    off = len(re) - n
    for flat in (re, im):
        diag = flat[::n + 1]
        if diag.count(diag[0]) != n or flat.count(0) - diag.count(0) != off:
            return False
    return True


def differ_by_scalar(a, b):
    """Whether a and b (compatible matrices) have the same denominator at
    every point and a - b is a multiple of the identity there, decided on
    the numerators without forming a - b. False over a ring without
    grids, and wherever the denominators differ: a - b may still be
    scalar there, and a caller that needs to know forms it."""
    a._check_compatible(b)
    return a.grids is not None and all(map(_grids_differ_by_scalar,
                                           a.grids, b.grids))


def _grids_differ_by_scalar(ga, gb):
    """differ_by_scalar at one point, for the grids of a and b there."""
    da, are, aim = ga
    db, bre, bim = gb
    if da != db:
        return False
    return _grid_is_scalar(list(map(sub, are, bre)), list(map(sub, aim, bim)))


def _shift_diagonal(x, lam):
    """x + lam(t) * I * identity at each point t, for integers lam(t):
    lam(t)*den added to the imaginary diagonal of point t's grid, which
    keeps it reduced. Over a ring without grids, lam(0) is the scale.
    The shift is skew-adjoint, so the result is known skew-adjoint when
    x is."""
    if x.grids is None:
        v = x.ring.scalar(lam(0)) * imaginary_unit(x.ring)
        out = Matrix(x.ring, (r[:i] + (r[i] + v,) + r[i + 1:]
                              for i, r in enumerate(x.rows)))
    else:
        step = x.n + 1
        grids = []
        for t, (den, re, im) in enumerate(x.grids):
            im = list(im)
            im[::step] = map(add, im[::step], repeat(lam(t) * den))
            grids.append((den, re, tuple(im)))
        out = Matrix._of_grids(x.ring, tuple(grids))
    if x._cache.get("skew"):
        out._cache["skew"] = True
    return out


def upper_pairs(S):
    """The pairs p < q of the sorted indices S, in lexicographic order:
    the order of the s and Ibar members of lie's canonical basis, and so
    of every coordinate list read or written against it."""
    return [(p, q) for a, p in enumerate(S) for q in S[a + 1:]]


# per size n, the row-major positions that the n^2 coordinates of a
# skew-adjoint grid are read from and written back to; see _skew_layout
_layouts = {}
# per size n, the transpose of row-major n x n entries; see _transpose
_transposes = {}


def _transpose(n):
    """The transpose of row-major n x n entries, as a function that
    returns a tuple: an itemgetter over the positions of x^T, built once
    per n (tuple itself at n = 1, where itemgetter returns a bare
    item)."""
    tr = _transposes.get(n)
    if tr is None:
        tr = _transposes[n] = tuple if n == 1 else itemgetter(
            *[j * n + i for i in range(n) for j in range(n)])
    return tr


def _skew_layout(n):
    """Index lists that move the n^2 coordinates of a skew-adjoint grid
    (lie's basis order: Re x^{ij}, then Im x^{ij}, over upper_pairs,
    then Im x^{ii}) to and from its row-major numerators, built once
    per n.

    The coordinates are read as Re at the positions upper (the
    upper_pairs) and Im at coords_im (upper, then the diagonal).
    re_from and im_from write them back: entry f of re is
    ext[re_from[f]] for ext = s + (-s) + [0], s the Re coordinates, and
    entry f of im is t[im_from[f]], t the Im coordinates.
    """
    out = _layouts.get(n)
    if out is None:
        pairs = upper_pairs(range(n))
        index = {pq: k for k, pq in enumerate(pairs)}
        half = len(pairs)
        upper = [i * n + j for i, j in pairs]
        re_from, im_from = [], []
        for i in range(n):
            for j in range(n):
                if i == j:
                    re_from.append(2 * half)
                    im_from.append(half + i)
                else:
                    k = index[min(i, j), max(i, j)]
                    re_from.append(k if i < j else half + k)
                    im_from.append(k)
        out = _layouts[n] = (upper, upper + [i * (n + 1) for i in range(n)],
                             re_from, im_from)
    return out


def _gauss_coeff_ints(grid):
    """lie.decompose of a skew-adjoint grid as (den, numerators) in basis
    order, Re then Im of the entries at upper_pairs, then Im of the
    diagonal: skew-adjointness makes those the coefficients, so they are
    read straight off the grid."""
    den, re, im = grid
    upper, coords_im, _, _ = _skew_layout(isqrt(len(re)))
    return den, (list(map(re.__getitem__, upper))
                 + list(map(im.__getitem__, coords_im)))


def _skew_grid(den, coords):
    """The reduced grid of the skew-adjoint matrix with the n^2
    coordinates coords / den in basis order (the inverse of
    _gauss_coeff_ints)."""
    n = isqrt(len(coords))
    if den != 1:
        g = gcd(den, *coords)
        if g > 1:
            den //= g
            coords = [v // g for v in coords]
    _, _, re_from, im_from = _skew_layout(n)
    half = n * (n - 1) // 2
    s = coords[:half]
    ext = s + list(map(neg, s)) + [0]
    return (den, tuple(map(ext.__getitem__, re_from)),
            tuple(map(coords[half:].__getitem__, im_from)))


def _gauss_decompose(x):
    """lie.decompose of a skew-adjoint Gaussian matrix."""
    den, nums = _gauss_coeff_ints(x.grids[0])
    return [GaussianRational(c, 0, den) for c in nums]


def _coord_table(grids):
    """The images of a linear map on K_n at one point, given by their
    skew-adjoint grids there, as the n^2 x n^2 integer matrix of their
    coordinates.

    Returns (den, rows, cols), all numerators over den. cols[k] holds
    the coordinates of image k; rows[m] holds coordinate m of every
    image. Both layouts are kept so that apply can walk whichever is
    shorter for its argument.
    """
    coords = list(map(_gauss_coeff_ints, grids))
    den = lcm(*(d for d, _ in coords))
    cols = tuple(tuple(den // d * v for v in c) for d, c in coords)
    return den, tuple(zip(*cols)), cols


def _map_tables(values):
    """One _coord_table per point for the skew-adjoint basis images
    values; None over a ring without grids."""
    if values[0].grids is None:
        return None
    return tuple(map(_coord_table, zip(*(v.grids for v in values))))


def _apply_table(table, grid):
    """The image of a skew-adjoint grid under the map that _coord_table
    tabulated at its point."""
    den, rows, cols = table
    den_x, c = _gauss_coeff_ints(grid)
    picked = [k for k, ck in enumerate(c) if ck]
    if 2 * len(picked) < len(c):
        # a sparse argument (basis elements, staircases): summing the
        # few image columns it picks beats n^2 full-length dot products
        out = repeat(0, len(c))
        for k in picked:
            out = map(add, out, map(mul, cols[k], repeat(c[k])))
    else:
        out = [sum(map(mul, c, row)) for row in rows]
    return _skew_grid(den * den_x, list(out))


def _apply_tables(tables, x):
    """The image of a skew-adjoint x under the map _map_tables tabulated,
    known skew-adjoint."""
    out = Matrix._of_grids(x.ring, tuple(map(_apply_table, tables, x.grids)))
    out._cache["skew"] = True
    return out


def _random_skew_grids(rng, n, ring):
    """lie.random_skew over a ring with grids: the draws go straight into
    row-major numerator and denominator lists of each point, entry
    by entry with all points of an entry in a row, in the order in which
    the ring's random_real and random_element take them; each point is
    then scaled to the lcm of its denominators and reduced once."""
    parts = GAUSS.random_parts
    npoints = ring.npoints if isinstance(ring, FunctionRing) else 1
    size = n * n
    cells = [([0] * size, [0] * size, [1] * size) for _ in range(npoints)]
    for i in range(n):
        ii = i * (n + 1)
        for _, im, d in cells:
            im[ii], _, d[ii] = parts(rng, real=True)
        for ij, ji in zip(range(ii + 1, (i + 1) * n), range(ii + n, size, n)):
            for re, im, d in cells:
                a, b, e = parts(rng)
                re[ij], re[ji] = a, -a
                im[ij] = im[ji] = b
                d[ij] = d[ji] = e
    grids = []
    for re, im, d in cells:
        den = lcm(*d)
        scale = list(map(floordiv, repeat(den), d))
        grids.append(_flat_grid(den, list(map(mul, re, scale)),
                                list(map(mul, im, scale))))
    out = Matrix._of_grids(ring, tuple(grids))
    out._cache["skew"] = True
    return out


def at_point(x, k):
    """Values of a function-ring matrix at one point, as a Gaussian matrix."""
    if not isinstance(x.ring, FunctionRing):
        raise DimensionMismatch("at_point needs a function ring matrix")
    if not 0 <= k < x.ring.npoints:
        raise IndexOutOfRange("point index %d outside 0..%d"
                              % (k, x.ring.npoints - 1))
    return Matrix._of_grids(GAUSS, (x.grids[k],))


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
    return Matrix._of_grids(ring, tuple(m.grids[0] for m in mats))
