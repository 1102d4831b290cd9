"""The Lie ring of skew-adjoint matrices and its canonical basis.

Elements are n x n matrices x with star_transpose(x) == -x over a ring
containing an imaginary unit and 1/2. The canonical basis has n^2 members,
listed in a fixed order used everywhere coefficients travel as flat lists:

    s[i,j]    = e_{i,j} - e_{j,i}          for i < j, lexicographic
    Ibar[i,j] = I*(e_{i,j} + e_{j,i})      for i < j, lexicographic
    Idiag[i]  = I*e_{i,i}                  for i = 1..n

Every skew-adjoint matrix decomposes over this basis with star-fixed
coefficients, provided the ring contains 1/2.
"""

from __future__ import annotations

from hashlib import sha256
from itertools import repeat
from math import lcm
from operator import add, mul

from .errors import ComplexWeight, ConfigError, DimensionMismatch, EqualIndices
from .matrices import (
    Matrix,
    commutator,
    from_points,
    matrix_unit,
    require_skew_adjoint,
    zeros,
)
from .rings import (
    GAUSS,
    FunctionRing,
    GaussianField,
    GaussianRational,
    imaginary_unit,
)


# basis elements are immutable and requested constantly, so the
# constructors below share one instance per (shape, ring)
_elem_memo = {}


def _memoized(kind, n, ring, key, build):
    full = (kind, n, ring, key)
    m = _elem_memo.get(full)
    if m is None:
        m = _elem_memo[full] = build()
    return m


def s_elem(n, i, j, ring=GAUSS):
    """s_{i,j} = e_{i,j} - e_{j,i}. Defined for i != j; s_{j,i} = -s_{i,j}."""
    if i == j:
        raise EqualIndices("s element needs two distinct indices, got %d" % i)
    return _memoized("s", n, ring, (i, j), lambda:
                     matrix_unit(n, i, j, ring) - matrix_unit(n, j, i, ring))


def ebar_elem(n, i, j, ring=GAUSS):
    """The symmetric unit e_{i,j} + e_{j,i} for i != j."""
    if i == j:
        raise EqualIndices("ebar element needs two distinct indices, got %d" % i)
    return _memoized("ebar", n, ring, (i, j), lambda:
                     matrix_unit(n, i, j, ring) + matrix_unit(n, j, i, ring))


def ie_bar(n, i, j, ring=GAUSS):
    """I*(e_{i,j} + e_{j,i})."""
    return _memoized("iebar", n, ring, (i, j), lambda:
                     imaginary_unit(ring) * ebar_elem(n, i, j, ring))


def ie_diag(n, i, ring=GAUSS):
    """I*e_{i,i}."""
    return _memoized("iediag", n, ring, i, lambda:
                     imaginary_unit(ring) * matrix_unit(n, i, i, ring))


def basis_labels(n):
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append("s[%d,%d]" % (i, j))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append("Ibar[%d,%d]" % (i, j))
    for i in range(1, n + 1):
        out.append("Idiag[%d]" % i)
    return out


def canonical_basis(n, ring=GAUSS):
    def build():
        out = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                out.append(s_elem(n, i, j, ring))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                out.append(ie_bar(n, i, j, ring))
        for i in range(1, n + 1):
            out.append(ie_diag(n, i, ring))
        return tuple(out)
    return list(_memoized("basis", n, ring, (), build))


def staircase(n, ring=GAUSS):
    """The unit staircase, the sum of s[k,k+1] for k = 1..n-1."""
    def build():
        out = zeros(n, ring)
        for k in range(1, n):
            out = out + s_elem(n, k, k + 1, ring)
        return out
    return _memoized("staircase", n, ring, (), build)


def bracket(a, b):
    """[a, b] = ab - ba."""
    return commutator(a, b)


def _gauss_coeff_ints(x):
    """decompose(x) for a skew-adjoint Gaussian x, as integers over one
    denominator: returns (den, numerators) in basis order.

    Skew-adjointness makes the coefficients Re x^{ij} and Im x^{ij} for
    i < j and Im x^{ii}, so they are read straight off x.grid.
    """
    den, re, im = x.grid
    n = x.n
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return den, ([re[i][j] for i, j in upper] + [im[i][j] for i, j in upper]
                 + [im[i][i] for i in range(n)])


def decompose(x):
    """Coefficients of a skew-adjoint matrix over the canonical basis.

    Returns a flat list in basis order. Coefficients are star-fixed:
    (x^{ij} - x^{ji})/2 for s[i,j], -I(x^{ij} + x^{ji})/2 for Ibar[i,j]
    and -I*x^{ii} for Idiag[i].
    """
    require_skew_adjoint(x)
    ring = x.ring
    if isinstance(ring, GaussianField):
        den, nums = _gauss_coeff_ints(x)
        return [GaussianRational(c, 0, den) for c in nums]
    n = x.n
    minus_i = -imaginary_unit(ring)
    half = ring.one / 2
    coeffs = []
    for i in range(n):
        for j in range(i + 1, n):
            coeffs.append((x.rows[i][j] - x.rows[j][i]) * half)
    for i in range(n):
        for j in range(i + 1, n):
            coeffs.append(minus_i * (x.rows[i][j] + x.rows[j][i]) * half)
    for i in range(n):
        coeffs.append(minus_i * x.rows[i][i])
    return coeffs


def recompose(coeffs, n, ring=GAUSS):
    """Inverse of decompose: rebuild the matrix entries directly."""
    if len(coeffs) != n * n:
        raise DimensionMismatch("expected %d coefficients, got %d"
                                % (n * n, len(coeffs)))
    i_unit = imaginary_unit(ring)
    grid = [[ring.zero] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            c = coeffs[k]
            grid[i][j] = grid[i][j] + c
            grid[j][i] = grid[j][i] - c
            k += 1
    for i in range(n):
        for j in range(i + 1, n):
            ci = coeffs[k] * i_unit
            grid[i][j] = grid[i][j] + ci
            grid[j][i] = grid[j][i] + ci
            k += 1
    for i in range(n):
        grid[i][i] = coeffs[k] * i_unit
        k += 1
    return Matrix(ring, grid)


def _gauss_table(values):
    """The images of a Gaussian map as one integer structure matrix.

    Returns (den, re_rows, im_rows, re_cols, im_cols), all numerators
    over den. Column k holds image k flattened row-major; row p*n + q
    holds the (p, q) entry of every image. Both layouts are kept so that
    apply can walk whichever is shorter for its argument.
    """
    forms = [v.grid for v in values]
    den = lcm(*(d for d, _, _ in forms))
    re_cols = tuple(tuple(den // d * v for r in re for v in r)
                    for d, re, _ in forms)
    im_cols = tuple(tuple(den // d * v for r in im for v in r)
                    for d, _, im in forms)
    return den, tuple(zip(*re_cols)), tuple(zip(*im_cols)), re_cols, im_cols


def _apply_table(table, x):
    """The image of a skew-adjoint Gaussian matrix x under the map that
    _gauss_table tabulated."""
    den, re_rows, im_rows, re_cols, im_cols = table
    den_x, c = _gauss_coeff_ints(x)
    picked = [k for k, ck in enumerate(c) if ck]
    if 2 * len(picked) < len(c):
        # a sparse argument (basis elements, staircases): summing the
        # few image columns it picks beats n^2 full-length dot products
        re = repeat(0, len(c))
        im = repeat(0, len(c))
        for k in picked:
            re = map(add, re, map(mul, re_cols[k], repeat(c[k])))
            im = map(add, im, map(mul, im_cols[k], repeat(c[k])))
    else:
        re = [sum(map(mul, c, row)) for row in re_rows]
        im = [sum(map(mul, c, row)) for row in im_rows]
    re, im = list(re), list(im)
    n = x.n
    return Matrix._of_grid(x.ring, den * den_x,
                           [re[p * n:(p + 1) * n] for p in range(n)],
                           [im[p * n:(p + 1) * n] for p in range(n)])


class LinearLieMap:
    """A linear map tabulated on the canonical basis.

    values[k] is the image of canonical_basis(n)[k]. Applying the map to
    an arbitrary skew-adjoint matrix decomposes it and recombines the
    tabulated images with the same coefficients.

    Over the Gaussian rationals the images are tabulated once, at
    construction, as an integer structure matrix: one shared denominator
    D and, for each of the n^2 output entries, a row of n^2 integer
    numerators for its real part and one for its imaginary part (2n^2 by
    n^2 in all). apply(x) reads the integer coefficients of x off its
    grid, over its denominator den_x, and builds each output entry from
    two integer dot products over D*den_x: 2n^4 integer multiply-adds
    and one gcd reduction of the result grid per call, where the
    entry-by-entry recombination pays a reduction per multiply-add. An
    argument with fewer than n^2/2 nonzero coefficients sums the image
    columns it picks instead, 2n^2 multiply-adds per coefficient. Over a
    function ring the map keeps one such table per point, built from the
    images' point values, and applies each to the argument's value at
    that point. Polynomial rings recombine entry by entry
    (_apply_generic), which is also the reference the tables are tested
    against.
    """

    def __init__(self, ring, n, values):
        values = list(values)
        if len(values) != n * n:
            raise DimensionMismatch("expected %d basis images, got %d"
                                    % (n * n, len(values)))
        self.ring = ring
        self.n = n
        self.values = values
        if isinstance(ring, GaussianField):
            self._tables = (_gauss_table(values),)
        elif isinstance(ring, FunctionRing):
            self._tables = tuple(_gauss_table([v.points[k] for v in values])
                                 for k in range(ring.npoints))
        else:
            self._tables = None

    @classmethod
    def tabulate(cls, fn, n, ring=GAUSS):
        return cls(ring, n, [fn(b) for b in canonical_basis(n, ring)])

    def apply(self, x):
        if x.n != self.n or x.ring != self.ring:
            raise DimensionMismatch("map and argument disagree on shape")
        if self._tables is None:
            return self._apply_generic(x)
        require_skew_adjoint(x)
        if x.points is None:
            return _apply_table(self._tables[0], x)
        return from_points(_apply_table(t, p)
                           for t, p in zip(self._tables, x.points))

    def _apply_generic(self, x):
        # the ring-generic recombination; the reference for the tables
        n = self.n
        grid = [[self.ring.zero] * n for _ in range(n)]
        for c, img in zip(decompose(x), self.values):
            if not c:
                continue
            for i, row in enumerate(img.rows):
                for j, v in enumerate(row):
                    if v:
                        grid[i][j] = grid[i][j] + c * v
        return Matrix(self.ring, grid)


def centralizer_gauge(lam, n, ring=GAUSS):
    """The central skew-adjoint element lam * I * identity.

    lam must be star-fixed so the result stays skew-adjoint; such
    elements commute with everything and are invisible to brackets.
    """
    lam = ring.scalar(lam)
    if ring.star(lam) != lam:
        raise ComplexWeight("gauge scale must be star-fixed")
    v, z = lam * imaginary_unit(ring), ring.zero
    return Matrix(ring, ((v if i == j else z for j in range(n))
                         for i in range(n)))


# the witness gauges that the oracles, campaigns and CLI accept
GAUGES = ("none", "central")


def require_gauge(gauge):
    if gauge not in GAUGES:
        raise ConfigError("unknown gauge %r (known: %s)"
                          % (gauge, ", ".join(GAUGES)))
    return gauge


class GaugedInnerOracle:
    """The witness-gauge model shared by the gauged inner-derivation oracles.

    Every witness is a0 plus a central summand lam * I * identity (the
    value of centralizer_gauge), made by shifting a0's diagonal only:
    lam*den is added to the imaginary diagonal of a0's grid (of each
    point's grid over a function ring), and the other rows are shared. The
    scale lam is an integer drawn from sha256 of the seed, the order-free
    key of the queried elements and, over a function ring, the point, so
    it varies from query to query and from point to point. The mapped
    values are those of [a0, .]; the gauges exercise exactly the freedom
    reconstruction has to cope with. Witnesses are memoized per key, so
    a repeated query returns the same object. gauge="none" answers a0
    itself; a gauge outside GAUGES raises ConfigError. Subclasses define
    query and name their seed in seed_role.
    """

    seed_role = "oracle seed"

    def __init__(self, a0, seed=0, gauge="central"):
        self.a0 = require_skew_adjoint(a0, self.seed_role)
        self.ring = a0.ring
        self.n = a0.n
        self.seed = seed
        self.gauge = require_gauge(gauge)
        self._witnesses = {}

    def _draw(self, key, point):
        """The integer scale lam for a query key at one point."""
        msg = "|".join((str(self.seed),) + key + (str(point),))
        h = sha256(msg.encode()).digest()
        return int.from_bytes(h[:4], "big") % 19 - 9

    def _witness(self, *elements):
        """The witness answered for a query on elements."""
        if self.gauge == "none":
            return self.a0
        key = tuple(sorted(z.cache_key() for z in elements))
        w = self._witnesses.get(key)
        if w is None:
            a0 = self.a0
            if a0.grid is not None:
                w = _shift_diagonal(a0, self._draw(key, 0))
            elif a0.points is not None:
                w = Matrix._of_points(self.ring, [
                    _shift_diagonal(p, self._draw(key, t))
                    for t, p in enumerate(a0.points)])
            else:
                v = self.ring.scalar(self._draw(key, 0)) \
                    * imaginary_unit(self.ring)
                w = Matrix(self.ring, (r[:i] + (r[i] + v,) + r[i + 1:]
                                       for i, r in enumerate(a0.rows)))
            self._witnesses[key] = w
        return w


def _shift_diagonal(x, lam):
    """x + lam * I * identity for a Gaussian x and an integer lam: lam*den
    added to the imaginary diagonal of x's grid, which keeps it reduced."""
    den, re, im = x.grid
    return Matrix._of_grid(x.ring, den, re, [
        r[:i] + (r[i] + lam * den,) + r[i + 1:] for i, r in enumerate(im)])


def is_central(x):
    """Whether x commutes with K_n. With 1/2 and I in the ring, K_n + I*K_n
    = M_n (e_ij = (s[i,j] - I*Ibar[i,j])/2, e_ii = -I*Idiag[i]), so that is
    [x, e_ij] == 0 for all i, j: x is scalar, read off its entries (its
    grid over the Gaussian rationals, each point over a function ring)."""
    if x.grid is not None:
        _, re, im = x.grid
        a0, b0 = re[0][0], im[0][0]
        return all(a == a0 and b == b0 if i == j else not (a or b)
                   for i, (ra, ia) in enumerate(zip(re, im))
                   for j, (a, b) in enumerate(zip(ra, ia)))
    if x.points is not None:
        return all(map(is_central, x.points))
    return all(v == x.rows[0][0] if i == j else not v
               for i, r in enumerate(x.rows) for j, v in enumerate(r))


def random_skew(rng, n, ring=GAUSS):
    """A random skew-adjoint matrix: free entries above the diagonal,
    imaginary-unit multiples of star-fixed samples on it.

    Over the Gaussian rationals and function rings the draws go straight
    into the integer grid of each point, in the order in which the
    ring's random_real and random_element take them.
    """
    if isinstance(ring, GaussianField):
        return _random_skew_grids(rng, n, ring, 1)[0]
    if isinstance(ring, FunctionRing):
        return Matrix._of_points(ring, _random_skew_grids(rng, n, GAUSS,
                                                          ring.npoints))
    i_unit = imaginary_unit(ring)
    grid = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = i_unit * ring.random_real(rng)
        for j in range(i + 1, n):
            v = ring.random_element(rng)
            grid[i][j] = v
            grid[j][i] = -ring.star(v)
    return Matrix(ring, grid)


def _random_skew_grids(rng, n, ring, npoints):
    """One random skew-adjoint Gaussian matrix per point, drawn entry by
    entry with all points of an entry in a row."""
    parts = GAUSS.random_parts
    cells = [[[None] * n for _ in range(n)] for _ in range(npoints)]
    for i in range(n):
        for cell in cells:
            a, _, d = parts(rng, real=True)
            cell[i][i] = (0, a, d)
        for j in range(i + 1, n):
            for cell in cells:
                a, b, d = parts(rng)
                cell[i][j] = (a, b, d)
                cell[j][i] = (-a, b, d)
    out = []
    for cell in cells:
        den = lcm(*(d for row in cell for _, _, d in row))
        out.append(Matrix._of_grid(
            ring, den, [[a * (den // d) for a, _, d in row] for row in cell],
            [[b * (den // d) for _, b, d in row] for row in cell]))
    return out
