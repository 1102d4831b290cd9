"""The Lie ring of skew-adjoint matrices and its canonical basis.

Elements are n x n matrices x with star_transpose(x) == -x over a ring
containing an imaginary unit and 1/2. The canonical basis has n^2 members,
listed in a fixed order used everywhere coefficients travel as flat lists:

    s[i,j]    = e_{i,j} - e_{j,i}          for i < j, in upper_pairs order
    Ibar[i,j] = I*(e_{i,j} + e_{j,i})      for i < j, in upper_pairs order
    Idiag[i]  = I*e_{i,i}                  for i = 1..n

Every skew-adjoint matrix decomposes over this basis with star-fixed
coefficients, provided the ring contains 1/2.

The order is a contract, not a convention: LinearLieMap stores the image
of basis element k in column k of its coordinate table, and apply reads
an argument's coordinates (decompose, matrices._gauss_coeff_ints) in the
same order, so two orders would compute a different map. It is written
once, in matrices.upper_pairs; basis_labels, block_basis (and with it
canonical_basis), decompose and the grid layout of the tables all read
it.
"""

from __future__ import annotations

from hashlib import sha256

from .errors import ConfigError, DimensionMismatch, EqualIndices
from .matrices import (
    Matrix,
    _apply_tables,
    _gauss_decompose,
    _is_scalar,
    _map_tables,
    _random_skew_grids,
    _shift_diagonal,
    commutator,
    from_entries,
    require_skew_adjoint,
    upper_pairs,
)
from .rings import GAUSS, FunctionRing, GaussianField, imaginary_unit


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
    return _memoized("s", n, ring, (i, j), lambda: from_entries(
        n, {(i, j): ring.one, (j, i): -ring.one}, ring))


def ie_bar(n, i, j, ring=GAUSS):
    """I*(e_{i,j} + e_{j,i}). Defined for i != j."""
    if i == j:
        raise EqualIndices("Ibar element needs two distinct indices, got %d"
                           % i)
    unit = imaginary_unit(ring)
    return _memoized("iebar", n, ring, (i, j), lambda: from_entries(
        n, {(i, j): unit, (j, i): unit}, ring))


def ie_diag(n, i, ring=GAUSS):
    """I*e_{i,i}."""
    return _memoized("iediag", n, ring, i, lambda: from_entries(
        n, {(i, i): imaginary_unit(ring)}, ring))


def basis_labels(n):
    pairs = upper_pairs(range(1, n + 1))
    return (["s[%d,%d]" % pq for pq in pairs]
            + ["Ibar[%d,%d]" % pq for pq in pairs]
            + ["Idiag[%d]" % i for i in range(1, n + 1)])


def block_basis(S, n, ring=GAUSS):
    """The canonical basis elements of K_n on the block of sorted indices
    S, in the block's basis order: s[p,q], then Ibar[p,q] over the
    upper_pairs of S, then Idiag[p]. These are the memoized objects
    whose images a LinearLieMap stores; they are the embeddings of the
    block's own basis, member by member."""
    pairs = upper_pairs(S)
    return ([s_elem(n, p, q, ring) for p, q in pairs]
            + [ie_bar(n, p, q, ring) for p, q in pairs]
            + [ie_diag(n, p, ring) for p in S])


def canonical_basis(n, ring=GAUSS):
    return list(_memoized("basis", n, ring, (), lambda: tuple(
        block_basis(range(1, n + 1), n, ring))))


def staircase(n, ring=GAUSS):
    """The unit staircase, the sum of s[k,k+1] for k = 1..n-1."""
    def build():
        entries = {}
        for k in range(1, n):
            entries[k, k + 1], entries[k + 1, k] = ring.one, -ring.one
        return from_entries(n, entries, ring)
    return _memoized("staircase", n, ring, (), build)


# [a, b] = ab - ba
bracket = commutator


def decompose(x):
    """Coefficients of a skew-adjoint matrix over the canonical basis.

    Returns a flat list in basis order. Coefficients are star-fixed:
    (x^{ij} - x^{ji})/2 for s[i,j], -I(x^{ij} + x^{ji})/2 for Ibar[i,j]
    and -I*x^{ii} for Idiag[i].
    """
    require_skew_adjoint(x)
    ring = x.ring
    if isinstance(ring, GaussianField):
        return _gauss_decompose(x)
    rows = x.rows
    minus_i = -imaginary_unit(ring)
    half = ring.one / 2
    pairs = upper_pairs(range(x.n))
    return ([(rows[i][j] - rows[j][i]) * half for i, j in pairs]
            + [minus_i * (rows[i][j] + rows[j][i]) * half for i, j in pairs]
            + [minus_i * rows[i][i] for i in range(x.n)])


class LinearLieMap:
    """A linear map on K_n tabulated on the canonical basis.

    values[k] is the image of canonical_basis(n)[k]; every image must be
    skew-adjoint (NotSkewAdjoint otherwise), so the map takes K_n into
    itself. Applying the map to an arbitrary skew-adjoint matrix
    decomposes it and recombines the tabulated images with the same
    coefficients; applied to a canonical basis element itself it
    returns the stored image.

    Over the Gaussian rationals and function rings the images are
    tabulated once, at construction, as one n^2 x n^2 integer matrix
    per point of the domain: the n^2 real coordinates of every image
    (its decomposition), over one shared denominator D. apply(x) reads
    the integer coordinates of x at each point off its grid there, over
    its denominator den_x, takes n^2 integer dot products over D*den_x
    for the coordinates of the image, and rebuilds its skew-adjoint
    grid from them with one gcd reduction: n^4 integer multiply-adds per
    point and call, where the entry-by-entry recombination pays a
    reduction per multiply-add. An argument with fewer than n^2/2
    nonzero coefficients at a point sums the image columns it picks
    there instead, n^2 multiply-adds per coefficient. Polynomial rings
    recombine entry by entry (_apply_generic), which is also the
    reference the tables are tested against.
    """

    def __init__(self, ring, n, values):
        values = list(values)
        if len(values) != n * n:
            raise DimensionMismatch("expected %d basis images, got %d"
                                    % (n * n, len(values)))
        for label, v in zip(basis_labels(n), values):
            require_skew_adjoint(v, "image of %s" % label)
        self.ring = ring
        self.n = n
        self.values = values
        # the basis is memoized, so its members are told apart by identity
        self._basis_index = {id(b): k for k, b in
                             enumerate(canonical_basis(n, ring))}
        self._tables = _map_tables(values)

    @classmethod
    def tabulate(cls, fn, n, ring=GAUSS):
        return cls(ring, n, [fn(b) for b in canonical_basis(n, ring)])

    def apply(self, x):
        if x.n != self.n or x.ring != self.ring:
            raise DimensionMismatch("map and argument disagree on shape")
        k = self._basis_index.get(id(x))
        if k is not None:
            return self.values[k]
        if self._tables is None:
            return self._apply_generic(x)
        require_skew_adjoint(x)
        return _apply_tables(self._tables, x)

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


# the witness gauges that the oracles, campaigns and CLI accept
GAUGES = ("none", "central")


def require_gauge(gauge):
    if gauge not in GAUGES:
        raise ConfigError("unknown gauge %r (known: %s)"
                          % (gauge, ", ".join(GAUGES)))
    return gauge


class GaugedInnerOracle:
    """The witness-gauge model shared by the gauged inner-derivation oracles.

    Every witness is a0 plus a central summand lam * I * identity, made
    by shifting a0's diagonal only: lam*den is added to the imaginary
    diagonal of a0's grid at each point, and the other rows are shared.
    The scale lam is an integer drawn from sha256 of the seed, the
    order-free key of the queried elements (query_key, the reprs of
    what they store) and, over a function ring, the point, so it varies
    from query to query and from point to point.
    The mapped values are those of [a0, .]; the gauges exercise exactly
    the freedom reconstruction has to cope with. Witnesses are memoized
    per key, so a repeated query returns the same object. gauge="none"
    answers a0 itself; a gauge outside GAUGES raises ConfigError.
    Subclasses define query and name their seed in seed_role.
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
        key = query_key(*elements)
        w = self._witnesses.get(key)
        if w is None:
            w = _shift_diagonal(self.a0, lambda t: self._draw(key, t))
            self._witnesses[key] = w
        return w


def query_key(*elements):
    """The order-free identity of a query on elements: their sorted
    cache keys, the reprs of what each stores. Two queries get one key
    exactly when they are on equal elements."""
    return tuple(sorted(z.cache_key() for z in elements))


def is_central(x):
    """Whether x commutes with K_n. With 1/2 and I in the ring, K_n + I*K_n
    = M_n (e_ij = (s[i,j] - I*Ibar[i,j])/2, e_ii = -I*Idiag[i]), so that is
    [x, e_ij] == 0 for all i, j: x is scalar, read off its entries (its
    grids over the Gaussian rationals and function rings)."""
    return _is_scalar(x)


def random_skew(rng, n, ring=GAUSS):
    """A random skew-adjoint matrix: free entries above the diagonal,
    imaginary-unit multiples of star-fixed samples on it, in the order
    in which the ring's random_element and random_real take them. The
    result is known skew-adjoint to the bracket, without a check.
    """
    if isinstance(ring, (GaussianField, FunctionRing)):
        return _random_skew_grids(rng, n, ring)
    i_unit = imaginary_unit(ring)
    grid = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = i_unit * ring.random_real(rng)
        for j in range(i + 1, n):
            v = ring.random_element(rng)
            grid[i][j] = v
            grid[j][i] = -ring.star(v)
    out = Matrix(ring, grid)
    out._cache["skew"] = True
    return out
