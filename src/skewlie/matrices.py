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
own. Outside this module, only symcheck.bracket reads grids. Brackets,
sums, differences, equality, hashing, cache keys, the skew-adjoint and
scalar checks, the tables of linear maps, the witness diagonal shift
and random draws read or write the grids here, each as one kernel on
one grid mapped over the points, reading the numerators as stored:

  * a bracket walks the nonzeros of one factor entry by entry,
    accumulating integer real and imaginary parts: b, unless b has more
    than n nonzeros and a has fewer. Each matrix reads its support (the
    positions nonzero at some point) once and caches it, and the walk
    visits only those positions, so a memoized basis element is scanned
    once per process, brackets against basis elements and central
    differences cost O(n^2) per point and two dense factors O(n^3).
    Every result grid is reduced by one common gcd
  * differ_by_scalar tells whether a - b is scalar at every point
    without forming a - b: over equal denominators it subtracts the
    numerators with map and counts zeros, by the same per-grid scalar
    rule that is_central reads, so a caller can skip a bracket with a
    central difference
  * when the walked factor has more than n nonzeros and both factors
    are skew-adjoint, only P = ab is walked: ba = (ab)*, so the bracket
    is P - P*, formed on the numerators with map and one memoized
    transpose per n. is_skew_adjoint reads a matrix's grids once, in C,
    and caches the answer with it; only random_skews draws, skew-adjoint
    by construction, are cached as such without a check
  * the table of a linear map on K_n holds the n^2 real coordinates
    (the lie.decompose coefficients) of every basis image, n^2 x n^2
    integers per point, and apply rebuilds the skew-adjoint image grid
    from the n^2 coordinates it computes. A sparse argument sums the
    image columns it picks; a dense one takes a single multiply-add
    over the columns packed into integers of n^2 fixed-width slots,
    each wide enough for its coordinate, and reads the coordinates
    back off the bytes of the sum
  * sums and differences work on the numerators of both grids with
    map, so the arithmetic and the one gcd run in C
  * brackets over other rings walk the same factor with the ring's own
    + and *; symcheck brackets its unknowns (matrices of linear forms)
    with its own kernel, symcheck.bracket, which reads a Gaussian-integer
    second factor off its grid and accumulates each entry in one dict

so no bracket over the Gaussian rationals or a function ring reduces a
fraction in its inner loop.

lie.random_skews draws its matrices in one pass over rng's 32-bit
words, read from getrandbits(32 * k) with k never more than the draws
still owed, so no word is drawn that is not used. A word's top byte t
decides its draw as random_parts' randint does: a numerator
(randint(-9, 9)) takes t < 152 as (t >> 3) - 9, a denominator
(randint(1, 5)) takes t < 160 as (t >> 5) + 1, and any other t is
rejected. The values and the rng state after them are those of the
same draws made one by one, entry by entry.
"""

from __future__ import annotations

from itertools import chain, compress, count, repeat
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

    def _support(self):
        """The row-major positions of the entries nonzero at some point,
        as a tuple, read once and cached with the matrix."""
        support = self._cache.get("support")
        if support is None:
            if self.grids is None:
                flags = chain.from_iterable(self.rows)
            else:
                # x | y == 0 only when x == y == 0
                (_, re, im), *rest = self.grids
                flags = map(or_, re, im)
                for _, re, im in rest:
                    flags = map(or_, map(or_, flags, re), im)
            support = tuple(compress(count(), flags))
            self._cache["support"] = support
        return support

    def _nnz(self):
        """How many entries are nonzero at some point."""
        return len(self._support())

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
    """a + sign*b for compatible a and b, sign = 1 or -1."""
    if a.grids is None:
        op = add if sign > 0 else sub
        return Matrix._of_rows(a.ring, tuple(
            tuple(map(op, ra, rb)) for ra, rb in zip(a.rows, b.rows)))
    return Matrix._of_grids(a.ring, tuple(
        map(_grid_combine, a.grids, b.grids, repeat(sign))))


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


def _grid_sparse_commutator(ga, gb, sign, support, skew=False):
    """sign * (a*b - b*a) for the grids of a and b at one point, walking
    only b's nonzeros, read at the row-major positions support (b's
    Matrix._support, which covers them at every point); the sign is
    folded into b's entries. With skew (a and b skew-adjoint) only
    P = sign*a*b is walked: b*a = (a*b)*, so the bracket is P - P*,
    re = P_re - P_re^T and im = P_im + P_im^T."""
    da, are, aim = ga
    db, bre, bim = gb
    size = len(are)
    n = isqrt(size)
    nz = [(k // n, k % n, sign * bre[k], sign * bim[k])
          for k in support if bre[k] or bim[k]]
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
    """a*b - b*a over a's ring, accumulated in rows of ring elements; only
    b's nonzeros are walked. b may be a Gaussian matrix whose entries
    scale a's, the reference that symcheck.bracket is tested against."""
    zero = a.ring.zero
    n = a.n
    out = [[zero] * n for _ in range(n)]
    arows = a.rows
    nz = [(i, j, v) for i, r in enumerate(b.rows)
          for j, v in enumerate(r) if v]
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
    a is walked and the sign of [b, a] = -[a, b] folded in. On grids the
    walk reads the walked factor's cached support, and when that factor
    has more than n nonzeros and both factors are skew-adjoint, only
    their product is walked (_grid_sparse_commutator with skew)."""
    if not isinstance(a, Matrix) or not isinstance(b, Matrix):
        raise DimensionMismatch("commutator needs two matrices")
    a._check_compatible(b)
    n = a.n
    nnz_b = b._nnz()
    swap = nnz_b > n and a._nnz() < nnz_b
    if a.grids is None:
        return -_sparse_commutator(b, a) if swap else _sparse_commutator(a, b)
    walked = a if swap else b
    support = walked._support()
    skew = repeat(len(support) > n and is_skew_adjoint(a)
                  and is_skew_adjoint(b))
    if swap:
        grids = map(_grid_sparse_commutator, b.grids, a.grids,
                    repeat(-1), repeat(support), skew)
    else:
        grids = map(_grid_sparse_commutator, a.grids, b.grids,
                    repeat(1), repeat(support), skew)
    return Matrix._of_grids(a.ring, tuple(grids))


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
    """Whether x* == -x, read off x's grids (its rows over other rings)
    on the first call and cached with x."""
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
    keeps it reduced. Over a ring without grids, lam(0) is the scale."""
    if x.grids is None:
        v = x.ring.scalar(lam(0)) * imaginary_unit(x.ring)
        return Matrix(x.ring, (r[:i] + (r[i] + v,) + r[i + 1:]
                               for i, r in enumerate(x.rows)))
    step = x.n + 1
    grids = []
    for t, (den, re, im) in enumerate(x.grids):
        im = list(im)
        im[::step] = map(add, im[::step], repeat(lam(t) * den))
        grids.append((den, re, tuple(im)))
    return Matrix._of_grids(x.ring, tuple(grids))


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

    Returns (den, cols, l1, packs), numerators over den. cols[k] holds
    the coordinates of image k; l1 is the largest sum of |cols[k][m]|
    over k, for any coordinate m, so that no coordinate of an image
    exceeds max|c| * l1 for integer coefficients c; packs caches
    _packed_cols of cols per slot width.
    """
    coords = list(map(_gauss_coeff_ints, grids))
    den = lcm(*(d for d, _ in coords))
    cols = tuple(tuple(den // d * v for v in c) for d, c in coords)
    l1 = max(sum(map(abs, row)) for row in zip(*cols))
    return den, cols, l1, {}


def _map_tables(values):
    """One _coord_table per point for the skew-adjoint basis images
    values; None over a ring without grids."""
    if values[0].grids is None:
        return None
    return tuple(map(_coord_table, zip(*(v.grids for v in values))))


def _packed_cols(cols, width):
    """cols packed into integers of len(cols) slots of width bytes each:
    column k as the sum of cols[k][m] * 256**(width*m). Returns those
    integers, the bias that adds half a slot to every slot, and the
    slices that cut the slots out of little-endian bytes. Every entry
    must be below half a slot in absolute value."""
    size = len(cols)
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * size, "little")
    packed = [int.from_bytes(b"".join(map(
        int.to_bytes, map(add, col, repeat(half)), repeat(width),
        repeat("little"))), "little") - bias for col in cols]
    return packed, bias, [slice(m, m + width)
                          for m in range(0, size * width, width)]


def _apply_table(table, grid):
    """The image of a skew-adjoint grid under the map that _coord_table
    tabulated at its point."""
    den, cols, l1, packs = table
    den_x, c = _gauss_coeff_ints(grid)
    picked = [k for k, ck in enumerate(c) if ck]
    if 2 * len(picked) < len(c):
        # a sparse argument (basis elements, staircases): summing the
        # few image columns it picks beats a product over all of them
        out = repeat(0, len(c))
        for k in picked:
            out = map(add, out, map(mul, cols[k], repeat(c[k])))
    else:
        # a dense argument: one multiply-add of the packed columns in C.
        # Every coordinate of the image is at most max|c| * l1 < half a
        # slot in absolute value, so slot m of the biased sum holds
        # coordinate m plus half a slot, with no carry into slot m + 1
        width = (max(map(abs, c)) * l1).bit_length() // 8 + 1
        pack = packs.get(width)
        if pack is None:
            pack = packs[width] = _packed_cols(cols, width)
        packed, bias, cuts = pack
        raw = (sum(map(mul, c, packed)) + bias).to_bytes(
            len(c) * width, "little")
        out = map(sub, map(int.from_bytes, map(raw.__getitem__, cuts),
                           repeat("little")), repeat(1 << (8 * width - 1)))
    return _skew_grid(den * den_x, list(out))


def _apply_tables(tables, x):
    """The image of a skew-adjoint x under the map _map_tables tabulated."""
    return Matrix._of_grids(x.ring, tuple(map(_apply_table, tables, x.grids)))


def _word_draw(lo, hi):
    """(lo, w, s) for randint(lo, hi), of width w = hi - lo + 1 and
    s = 8 - w.bit_length(): CPython's randint takes a 32-bit word whose
    top byte t is below w << s, as lo + (t >> s), and otherwise draws
    again, since getrandbits(8 - s) is t >> s."""
    width = hi - lo + 1
    return lo, width, 8 - width.bit_length()


# random_parts' ranges: a numerator takes a top byte below 19 << 3 = 152,
# a denominator one below 5 << 5 = 160
_NUM_LO, _NUM_WIDTH, _NUM_SHIFT = _word_draw(-9, 9)
_DEN_LO, _DEN_WIDTH, _DEN_SHIFT = _word_draw(1, 5)
_NUM_LIMIT = _NUM_WIDTH << _NUM_SHIFT
_DEN_LIMIT = _DEN_WIDTH << _DEN_SHIFT
_UNTAKEN = bytes(range(_DEN_LIMIT, 256))
_MARGINAL = bytes(_NUM_LIMIT <= t < _DEN_LIMIT for t in range(256))
# the key of a numerator byte t over a denominator byte u is
# (t >> 3) * 5 + (u >> 5) < _KEYS, made for every numerator at once as
# the sum of the integers of two translated byte strings: taken bytes
# are below 160, so no byte of the sum exceeds 99 and none carries. A
# negated numerator's key is _KEYS higher, and the key 2 * _KEYS reads 0
_KEYS = _NUM_WIDTH * _DEN_WIDTH
_NUM_KEY = bytes((t >> _NUM_SHIFT) * _DEN_WIDTH for t in range(256))
_DEN_KEY = bytes(t >> _DEN_SHIFT for t in range(256))
_DEN_OF = bytes((t >> _DEN_SHIFT) + _DEN_LO for t in range(256))
_NEGATED = bytes((k + _KEYS) % 256 for k in range(256))
_ZERO = bytes([2 * _KEYS])
# per (n, points), where one draw's words go; see _draw_layout
_draw_layouts = {}
# per lcm of a point's denominators, the numerator of every key over it
_key_tables = {}


def _picker(positions):
    """An itemgetter over positions that returns a tuple however many
    there are (none for a draw at n = 0)."""
    if len(positions) < 2:
        return lambda seq: tuple(seq[k] for k in positions)
    return itemgetter(*positions)


def _key_table(den):
    """The numerator over den that each key reads: a numerator byte's
    value times den over its denominator byte's, negated from _KEYS on,
    then 0. Built on first use."""
    table = _key_tables.get(den)
    if table is None:
        table = [(k // _DEN_WIDTH + _NUM_LO)
                 * (den // (k % _DEN_WIDTH + _DEN_LO)) for k in range(_KEYS)]
        table = _key_tables[den] = table + list(map(neg, table)) + [0]
    return table


def _draw_layout(n, npoints):
    """Where the words of one skew-adjoint draw go, built once per (n,
    npoints). For each i the draw takes the diagonal (i, i) at every
    point (a numerator, a denominator), then for each j > i the entry
    (i, j) at every point (real and imaginary numerators, a
    denominator): the order of random_real and random_element. Returns
    each word's kind (1 numerator, 0 denominator) and per point three
    pickers over _random_skew_grids' block of one draw: of the
    denominators, and of the keys of the row-major real and imaginary
    numerators."""
    layout = _draw_layouts.get((n, npoints))
    if layout is not None:
        return layout
    kinds = bytearray()
    at = [([], {}, {}) for _ in range(npoints)]
    for i in range(n):
        for dens, num, _ in at:
            num[i, i] = len(kinds)
            dens.append(len(kinds) + 1)
            kinds += b"\x01\x00"
        for j in range(i + 1, n):
            for dens, num, real in at:
                real[i, j] = len(kinds)
                num[i, j] = num[j, i] = len(kinds) + 1
                dens.append(len(kinds) + 2)
                kinds += b"\x01\x01\x00"
    # the block: the keys over the next word and over the second next,
    # the latter negated, the denominators, the zero key
    size = len(kinds)
    square = [(i, j) for i in range(n) for j in range(n)]
    points = tuple((
        _picker([3 * size + k for k in dens]),
        _picker([4 * size if i == j else size + real[i, j] if i < j
                 else 2 * size + real[j, i] for i, j in square]),
        _picker([num[ij] for ij in square]))
        for dens, num, real in at)
    layout = _draw_layouts[n, npoints] = (bytes(kinds), points)
    return layout


def _taken_top_bytes(rng, kinds, draws):
    """The top bytes of the words that `draws` draws of kinds take, in
    draw order, read off rng as randint reads them. The words come from
    getrandbits(32 * k), k successive words with the first in the low
    bits, k never more than the draws still owed: a word makes at most
    one draw, so none is left unread and rng ends where sequential
    draws leave it. Bytes no draw takes are deleted with one translate;
    one only a denominator takes is dropped where it falls on a
    numerator."""
    size = len(kinds)
    total = size * draws
    taken = bytearray()
    while len(taken) < total:
        owed = total - len(taken)
        tops = rng.getrandbits(32 * owed).to_bytes(4 * owed, "little")
        tops = tops[3::4].translate(None, _UNTAKEN)
        marks = tops.translate(_MARGINAL)
        start = 0
        q = marks.find(1)
        while q >= 0:
            if kinds[(len(taken) + q - start) % size]:
                taken += tops[start:q]
                start = q + 1
            q = marks.find(1, q + 1)
        taken += tops[start:]
    return bytes(taken)


def _random_skew_grids(rng, n, ring, draws):
    """lie.random_skews over a ring with grids: `draws` draws off rng's
    words in one pass (_taken_top_bytes), each value decided by its
    word's top byte t, (t >> 3) - 9 for a numerator and (t >> 5) + 1
    for a denominator, so the values and the rng state are those of as
    many draws of random_real and random_element entry by entry. Each
    point reads its numerators off the key table of the lcm of its
    denominators, row-major, and is reduced once. The draws are
    skew-adjoint by construction, so is_skew_adjoint's answer is cached
    with them without a check."""
    npoints = ring.npoints if isinstance(ring, FunctionRing) else 1
    kinds, points = _draw_layout(n, npoints)
    size = len(kinds)
    tops = _taken_top_bytes(rng, kinds, draws)
    nums = int.from_bytes(tops.translate(_NUM_KEY), "little")
    dens = int.from_bytes(tops.translate(_DEN_KEY), "little")
    over_next = (nums + (dens >> 8)).to_bytes(len(tops), "little")
    over_second = (nums + (dens >> 16)).to_bytes(len(tops), "little")
    streams = (over_next, over_second, over_second.translate(_NEGATED),
               tops.translate(_DEN_OF))
    out = []
    for k in range(draws):
        start = k * size
        block = b"".join([s[start:start + size] for s in streams] + [_ZERO])
        grids = []
        for dens_at, re_at, im_at in points:
            den = lcm(*set(dens_at(block)))
            table = _key_table(den)
            grids.append(_flat_grid(
                den, tuple(map(table.__getitem__, re_at(block))),
                tuple(map(table.__getitem__, im_at(block)))))
        x = Matrix._of_grids(ring, tuple(grids))
        x._cache["skew"] = True
        out.append(x)
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
