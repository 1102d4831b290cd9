"""Commutative rings with involution, in exact arithmetic.

Three concrete rings are provided, all containing an imaginary unit I with
I*I == -1 and star(I) == -I, and all containing 1/2:

  * GaussianField        rational complex numbers a + b*i, star = conjugation
  * FunctionRing(k)      k-tuples of Gaussian rationals, pointwise operations
  * PolynomialRing(...)  polynomials over the Gaussian rationals whose star
                         conjugates coefficients and permutes the variables

Ring instances expose a uniform surface (name, zero, one, imag, star,
scalar, random_element, random_real, format) so the matrix and Lie layers
never care which ring they run over. Elements overload +, -, *, / and
compare by value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import gcd

from .errors import DimensionMismatch, UnsupportedRing


def _frac_str(fr):
    return "%d/%d" % (fr.numerator, fr.denominator) if fr.denominator != 1 \
        else str(fr.numerator)


def _coerced(op):
    """The binary operator op(self, o) on the other operand lifted by the
    class's own _coerce; NotImplemented when _coerce refuses it (returns
    None), so Python tries the reflected operator."""
    @wraps(op)
    def lifted(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else op(self, o)
    return lifted


class _Element:
    """What the three element classes share: they are immutable (each
    __init__ sets its slots through object.__setattr__), every binary
    operator but PolyElement.__truediv__ lifts its other operand through
    _coerced, and other - self is the lifted other's __sub__."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @_coerced
    def __rsub__(self, o):
        return o - self


class GaussianRational(_Element):
    """a/d + (b/d)*i with integer a, b and positive integer d, gcd-reduced.

    Immutable. Arithmetic accepts int and Fraction on either side, so code
    like 2 * x or x / 2 works without explicit coercion.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=1):
        if d == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(gcd(abs(a), abs(b)), d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @staticmethod
    def _raw(a, b, d):
        # internal: caller guarantees the triple is already reduced
        out = object.__new__(GaussianRational)
        object.__setattr__(out, "a", a)
        object.__setattr__(out, "b", b)
        object.__setattr__(out, "d", d)
        return out

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def conjugate(self):
        return self._raw(self.a, -self.b, self.d)

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, int):
            return GaussianRational(other)
        if isinstance(other, Fraction):
            return GaussianRational(other.numerator, 0, other.denominator)
        return None

    @_coerced
    def __add__(self, o):
        if self.d == 1 and o.d == 1:
            return self._raw(self.a + o.a, self.b + o.b, 1)
        return GaussianRational(self.a * o.d + o.a * self.d,
                                self.b * o.d + o.b * self.d, self.d * o.d)

    __radd__ = __add__

    def __neg__(self):
        return self._raw(-self.a, -self.b, self.d)

    @_coerced
    def __sub__(self, o):
        if self.d == 1 and o.d == 1:
            return self._raw(self.a - o.a, self.b - o.b, 1)
        return GaussianRational(self.a * o.d - o.a * self.d,
                                self.b * o.d - o.b * self.d, self.d * o.d)

    @_coerced
    def __mul__(self, o):
        if self.d == 1 and o.d == 1:
            return self._raw(self.a * o.a - self.b * o.b,
                             self.a * o.b + self.b * o.a, 1)
        return GaussianRational(self.a * o.a - self.b * o.b,
                                self.a * o.b + self.b * o.a, self.d * o.d)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, o):
        n = o.a * o.a + o.b * o.b
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # 1/o = conj(o) * d / (a^2 + b^2)
        return self * GaussianRational(o.a * o.d, -o.b * o.d, n)

    @_coerced
    def __rtruediv__(self, o):
        return o / self

    @_coerced
    def __eq__(self, o):
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        # a real value equals its Fraction, so it hashes as one
        if not self.b:
            return hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return "GaussianRational(%d, %d, %d)" % (self.a, self.b, self.d)

    def __str__(self):
        return GAUSS.format(self)


def _gauss_format(x):
    if not x:
        return "0"
    re, im = x.re, x.im
    if im == 0:
        return _frac_str(re)
    if im == 1:
        itxt = "i"
    elif im == -1:
        itxt = "-i"
    else:
        itxt = "%s*i" % _frac_str(im)
    if re == 0:
        return itxt
    if itxt.startswith("-"):
        return "%s-%s" % (_frac_str(re), itxt[1:])
    return "%s+%s" % (_frac_str(re), itxt)


class GaussianField:
    """The rational complex numbers. Every nonzero element is invertible."""

    name = "gauss"

    def __init__(self):
        self.zero = GaussianRational(0)
        self.one = GaussianRational(1)
        self.imag = GaussianRational(0, 1)

    def __eq__(self, other):
        return isinstance(other, GaussianField)

    def __hash__(self):
        return hash("gauss")

    def __repr__(self):
        return "GaussianField()"

    def star(self, x):
        return x.conjugate()

    def scalar(self, value):
        out = GaussianRational._coerce(value)
        if out is None:
            raise TypeError("cannot embed %r into the Gaussian rationals" % (value,))
        return out

    def random_parts(self, rng, real=False):
        """The integers (a, b, d) of one random draw (a + b*i)/d, not
        reduced; a real draw takes no b from rng and has b = 0.

        a and b are rng.randint(-9, 9) and d is rng.randint(1, 5), drawn
        as randint draws them, so values and rng state match it: CPython's
        randint(lo, hi) is lo + r for r = getrandbits(k), k the bit length
        of the width hi - lo + 1, drawn again while r is not below it."""
        bits = rng.getrandbits
        a = bits(5)
        while a >= 19:
            a = bits(5)
        b = 0
        if not real:
            b = bits(5)
            while b >= 19:
                b = bits(5)
            b -= 9
        d = bits(3)
        while d >= 5:
            d = bits(3)
        return a - 9, b, d + 1

    def random_element(self, rng):
        return GaussianRational(*self.random_parts(rng))

    def random_real(self, rng):
        return GaussianRational(*self.random_parts(rng, real=True))

    def format(self, x):
        return _gauss_format(x)


GAUSS = GaussianField()


class FunctionElement(_Element):
    """A tuple of Gaussian rationals under pointwise operations."""

    __slots__ = ("values",)

    def __init__(self, values):
        object.__setattr__(self, "values", tuple(values))

    def _coerce(self, other):
        if isinstance(other, FunctionElement):
            if len(other.values) != len(self.values):
                raise DimensionMismatch(
                    "function elements on %d and %d points"
                    % (len(self.values), len(other.values)))
            return other
        g = GaussianRational._coerce(other)
        if g is None:
            return None
        return FunctionElement((g,) * len(self.values))

    @_coerced
    def __add__(self, o):
        return FunctionElement(a + b for a, b in zip(self.values, o.values))

    __radd__ = __add__

    def __neg__(self):
        return FunctionElement(-v for v in self.values)

    @_coerced
    def __sub__(self, o):
        return FunctionElement(a - b for a, b in zip(self.values, o.values))

    @_coerced
    def __mul__(self, o):
        return FunctionElement(a * b for a, b in zip(self.values, o.values))

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, o):
        return FunctionElement(a / b for a, b in zip(self.values, o.values))

    @_coerced
    def __eq__(self, o):
        return self.values == o.values

    def __hash__(self):
        # a constant function equals its value, so it hashes as one
        if len(set(self.values)) == 1:
            return hash(self.values[0])
        return hash(self.values)

    def __bool__(self):
        return any(self.values)

    def __repr__(self):
        return "FunctionElement(%r)" % (self.values,)


class FunctionRing:
    """Gaussian-rational valued functions on a finite set of k points.

    Not a field once k > 1: an element is invertible only when it vanishes
    nowhere.
    """

    def __init__(self, npoints):
        if npoints < 1:
            raise DimensionMismatch("need at least one point, got %d" % npoints)
        self.npoints = npoints
        self.name = "fnring[%d]" % npoints
        self.zero = FunctionElement((GAUSS.zero,) * npoints)
        self.one = FunctionElement((GAUSS.one,) * npoints)
        self.imag = FunctionElement((GAUSS.imag,) * npoints)

    def __eq__(self, other):
        return isinstance(other, FunctionRing) and other.npoints == self.npoints

    def __hash__(self):
        return hash(("fnring", self.npoints))

    def __repr__(self):
        return "FunctionRing(%d)" % self.npoints

    def star(self, x):
        return FunctionElement(v.conjugate() for v in x.values)

    def scalar(self, value):
        if isinstance(value, FunctionElement):
            if len(value.values) != self.npoints:
                raise DimensionMismatch("element lives on %d points, ring on %d"
                                        % (len(value.values), self.npoints))
            return value
        return FunctionElement((GAUSS.scalar(value),) * self.npoints)

    def lift(self, values):
        vals = tuple(GAUSS.scalar(v) for v in values)
        if len(vals) != self.npoints:
            raise DimensionMismatch("expected %d values, got %d"
                                    % (self.npoints, len(vals)))
        return FunctionElement(vals)

    def random_element(self, rng):
        return FunctionElement(GAUSS.random_element(rng)
                               for _ in range(self.npoints))

    def random_real(self, rng):
        return FunctionElement(GAUSS.random_real(rng)
                               for _ in range(self.npoints))

    def format(self, x):
        return "[%s]" % ",".join(GAUSS.format(v) for v in x.values)


class PolyElement(_Element):
    """A polynomial as a dict: monomial (sorted tuple of variable indices,
    repetition encodes powers) to its nonzero Gaussian coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms",
                           {m: c for m, c in terms.items() if c})

    def _coerce(self, other):
        if isinstance(other, PolyElement):
            if other.ring != self.ring:
                raise DimensionMismatch("polynomials from different rings")
            return other
        g = GaussianRational._coerce(other)
        if g is None:
            return None
        return PolyElement(self.ring, {(): g})

    @_coerced
    def __add__(self, o):
        out = dict(self.terms)
        for m, c in o.terms.items():
            out[m] = out.get(m, GAUSS.zero) + c
        return PolyElement(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return PolyElement(self.ring, {m: -c for m, c in self.terms.items()})

    @_coerced
    def __sub__(self, o):
        return self + (-o)

    @_coerced
    def __mul__(self, o):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = tuple(sorted(m1 + m2))
                c = out.get(m, GAUSS.zero) + c1 * c2
                if c:
                    out[m] = c
                elif m in out:
                    del out[m]
        return PolyElement(self.ring, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = GaussianRational._coerce(other)
        if g is None:
            return NotImplemented
        if not g:
            raise ZeroDivisionError("division by zero polynomial")
        return self * (GAUSS.one / g)

    @_coerced
    def __eq__(self, o):
        return self.terms == o.terms

    def __hash__(self):
        # a constant polynomial equals its value, so it hashes as one
        if self.terms.keys() <= {()}:
            return hash(self.terms.get((), GAUSS.zero))
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return "PolyElement(%s)" % self.ring.format(self)


class PolynomialRing:
    """Polynomials over the Gaussian rationals with an involution that
    conjugates coefficients and swaps variables according to star_pairs.

    star_pairs lists index pairs (p, q) meaning star maps variable p to
    variable q and back; unlisted variables are star-fixed. Variable names
    must be distinct, start with a letter, and avoid the reserved letter i.
    """

    def __init__(self, var_names, star_pairs=()):
        names = tuple(var_names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for nm in names:
            if not nm or nm == "i" or not nm[0].isalpha() \
                    or not nm.replace("_", "").isalnum():
                raise ValueError("bad variable name %r" % nm)
        self.var_names = names
        self._index = {nm: k for k, nm in enumerate(names)}
        perm = list(range(len(names)))
        for p, q in star_pairs:
            perm[p], perm[q] = q, p
        if sorted(perm) != list(range(len(names))):
            raise ValueError("star_pairs is not an involution on the variables")
        self.star_perm = tuple(perm)
        self.name = "poly[%s]" % ",".join(names)
        self.zero = PolyElement(self, {})
        self.one = PolyElement(self, {(): GAUSS.one})
        self.imag = PolyElement(self, {(): GAUSS.imag})

    def __eq__(self, other):
        return isinstance(other, PolynomialRing) \
            and other.var_names == self.var_names \
            and other.star_perm == self.star_perm

    def __hash__(self):
        return hash(("poly", self.var_names, self.star_perm))

    def __repr__(self):
        return "PolynomialRing(%r)" % (self.var_names,)

    def var(self, k):
        if not 0 <= k < len(self.var_names):
            raise DimensionMismatch("no variable with index %d" % k)
        return PolyElement(self, {(k,): GAUSS.one})

    def star(self, x):
        out = {}
        for m, c in x.terms.items():
            mm = tuple(sorted(self.star_perm[v] for v in m))
            out[mm] = out.get(mm, GAUSS.zero) + c.conjugate()
        return PolyElement(self, out)

    def scalar(self, value):
        if isinstance(value, PolyElement):
            if value.ring != self:
                raise DimensionMismatch("polynomial from a different ring")
            return value
        return PolyElement(self, {(): GAUSS.scalar(value)})

    def random_element(self, rng):
        nv = len(self.var_names)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(0, 2)
            m = tuple(sorted(rng.randrange(nv) for _ in range(deg))) if nv else ()
            terms[m] = GAUSS.random_element(rng)
        return PolyElement(self, terms)

    def random_real(self, rng):
        # star-fixed combination: q * (m + star(m)) with rational q
        x = self.random_element(rng)
        y = x + self.star(x)
        return y * GaussianRational(1, 0, 2)

    def _format_monomial(self, m):
        parts = []
        k = 0
        while k < len(m):
            j = k
            while j < len(m) and m[j] == m[k]:
                j += 1
            nm = self.var_names[m[k]]
            parts.append(nm if j - k == 1 else "%s^%d" % (nm, j - k))
            k = j
        return "*".join(parts)

    def format(self, x):
        if not x.terms:
            return "0"
        chunks = []
        for m in sorted(x.terms, key=lambda mm: (len(mm), mm)):
            c = x.terms[m]
            mono = self._format_monomial(m)
            if c.im and c.re:
                coef = "(%s)" % _gauss_format(c)
                neg = False
            else:
                neg = (c.re < 0) or (c.im < 0)
                mag = -c if neg else c
                if mono and mag == GAUSS.one:
                    coef = ""
                else:
                    coef = _gauss_format(mag)
            body = "*".join(p for p in (coef, mono) if p)
            chunks.append(("-" if neg else "+", body or "1"))
        # first term keeps a bare minus, later terms join with spaced signs
        sign0, body0 = chunks[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sign, body in chunks[1:]:
            text += " %s %s" % (sign, body)
        return text


def imaginary_unit(ring):
    """The distinguished element I of the ring, with I*I == -1, star(I) == -I."""
    im = getattr(ring, "imag", None)
    if im is None:
        raise UnsupportedRing("ring %r has no imaginary unit" % ring)
    return im


AXIOM_SAMPLES = 25


def check_ring_axioms(ring, seed=0):
    """Spot-check the commutative involutive ring laws on AXIOM_SAMPLES
    random samples.

    Returns a VerificationReport with one record per law; each record's
    payload counts the trials performed.
    """
    import random

    from .reporting import VerificationReport

    rng = random.Random(seed)
    rep = VerificationReport("ring axioms for %s" % ring.name,
                             anchor="ring axioms",
                             config={"ring": ring.name,
                                     "sample_count": AXIOM_SAMPLES},
                             seed=seed)
    samples = [ring.random_element(rng) for _ in range(AXIOM_SAMPLES)]
    zero, one, i_unit = ring.zero, ring.one, imaginary_unit(ring)

    def law(name, pred3):
        ok = True
        for k in range(AXIOM_SAMPLES):
            x = samples[k]
            y = samples[(k * 7 + 3) % AXIOM_SAMPLES]
            z = samples[(k * 11 + 5) % AXIOM_SAMPLES]
            if not pred3(x, y, z):
                ok = False
                break
        rep.add(name, ok, trials=AXIOM_SAMPLES)

    law("addition commutes", lambda x, y, z: x + y == y + x)
    law("addition associates", lambda x, y, z: (x + y) + z == x + (y + z))
    law("zero is neutral", lambda x, y, z: x + zero == x)
    law("negation cancels", lambda x, y, z: x + (-x) == zero)
    law("multiplication commutes", lambda x, y, z: x * y == y * x)
    law("multiplication associates", lambda x, y, z: (x * y) * z == x * (y * z))
    law("one is neutral", lambda x, y, z: x * one == x)
    law("multiplication distributes", lambda x, y, z: x * (y + z) == x * y + x * z)
    law("star is additive", lambda x, y, z: ring.star(x + y) == ring.star(x) + ring.star(y))
    law("star is multiplicative", lambda x, y, z: ring.star(x * y) == ring.star(x) * ring.star(y))
    law("star is an involution", lambda x, y, z: ring.star(ring.star(x)) == x)
    rep.add("imaginary unit squares to minus one", i_unit * i_unit == -one,
            trials=1)
    rep.add("imaginary unit is skew under star", ring.star(i_unit) == -i_unit,
            trials=1)
    rep.add("one half exists", (one / 2) + (one / 2) == one, trials=1)
    return rep
