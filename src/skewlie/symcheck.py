"""Symbolic certificates for component identities.

The statements this package relies on at run time all have the same
shape: a handful of skew-adjoint unknowns, hypotheses saying that some
bracket expressions vanish componentwise, and conclusions that certain
entry combinations vanish too. Every bracket pairs one unknown with a
concrete Gaussian matrix, so all of these are linear in the unknowns'
entries: an unknown is a matrix of linear forms over the variables of
its symbol table, and forms have no product. A conclusion is certified
by exhibiting an exact linear combination of hypotheses (and their
stars) that re-expands to it. When no combination exists the failure is
made concrete: a Gaussian-rational assignment of all variables that
satisfies every hypothesis while the conclusion is nonzero, and that
respects the involution (paired variables take conjugate values,
star-fixed ones real values), so it describes actual skew-adjoint
matrices.

Star closure matters: hypotheses are augmented with their images under
the involution before solving. That is sound (a vanishing form has
vanishing star) and necessary, both for completeness of the certificates
and for the counterexample, which is read off a kernel vector of the
same star-closed system.
"""

from __future__ import annotations

from math import lcm

from .errors import (
    DimensionMismatch,
    EqualIndices,
    IndexOutOfRange,
    UnknownLemma,
)
from .lie import ie_bar, ie_diag, s_elem, staircase
from .linsolve import ReducedSystem
from .localder import assemble_d
from .matrices import Matrix, _split_rows
from .rings import GAUSS, GaussianRational


class Form(dict):
    """A linear form: variable index -> nonzero Gaussian integer (re, im),
    the row format of ReducedSystem. Forms add, subtract, negate and scale
    by Gaussian integers; two forms do not multiply, and a scalar with a
    denominator raises TypeError."""

    __slots__ = ()

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        out = Form(self)
        for v, (a, b) in other.items():
            c, d = out.pop(v, (0, 0))
            if a + c or b + d:
                out[v] = (a + c, b + d)
        return out

    def __neg__(self):
        return Form({v: (-a, -b) for v, (a, b) in self.items()})

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        out = Form(self)
        for v, (a, b) in other.items():
            c, d = out.pop(v, (0, 0))
            if c - a or d - b:
                out[v] = (c - a, d - b)
        return out

    def __mul__(self, value):
        g = GaussianRational._coerce(value)
        if g is None:
            return NotImplemented
        if g.d != 1:
            raise TypeError("%r is not a Gaussian integer" % (value,))
        return self.times(g.a, g.b)

    __rmul__ = __mul__

    def times(self, fa, fb):
        """(fa + fb*i) * self for integers fa, fb."""
        return Form({v: (fa * a - fb * b, fa * b + fb * a)
                     for v, (a, b) in self.items()} if fa or fb else {})

    def evaluate(self, values):
        """The value (re, im) at a list of (re, im) values by variable."""
        re = im = 0
        for v, (a, b) in self.items():
            c, d = values[v]
            re += a * c - b * d
            im += a * d + b * c
        return re, im


def _add_times(acc, form, r, s):
    """acc += (r + s*i)*form in place on a dict of (re, im) values: each
    variable of form, in form's order, is popped and re-inserted at the
    end unless its sum is zero."""
    for v, (a, b) in form.items():
        c, d = acc.pop(v, (0, 0))
        c += r * a - s * b
        d += r * b + s * a
        if c or d:
            acc[v] = (c, d)


def bracket(x, g):
    """[x, g] = x*g - g*x for a matrix x of forms and a Gaussian-integer
    matrix g, walking g's nonzeros as integer pairs (r, s) off its grid.

    Each output entry accumulates (r + s*i)*form in one dict that pops
    and re-inserts a variable as Form.__add__ does, so every entry has
    the values and the item order of the ring-generic walk
    (matrices._sparse_commutator) without a Form per product or sum.
    Raises TypeError unless g has exactly one grid over denominator 1:
    a form has no product with a form, a function element or a
    non-integer."""
    grids = g.grids
    if grids is None:
        raise TypeError("bracket needs a Gaussian second factor, got a "
                        "matrix over %s" % g.ring.name)
    if len(grids) != 1:
        raise TypeError("bracket needs a Gaussian second factor, got one "
                        "with %d points" % len(grids))
    (den, re, im), = grids
    if den != 1:
        raise TypeError("bracket needs Gaussian-integer entries, got a "
                        "denominator %d" % den)
    n = x.n
    xrows = x.rows
    nz = [(k // n, k % n, r, s)
          for k, (r, s) in enumerate(zip(re, im)) if r or s]
    out = [{} for _ in range(n * n)]
    for p, j, r, s in nz:
        # column j of x*g gains column p of x times g^{pj}
        for i in range(n):
            f = xrows[i][p]
            if f:
                _add_times(out[i * n + j], f, r, s)
    for i, p, r, s in nz:
        # row i of g*x loses g^{ip} times row p of x
        for j, f in enumerate(xrows[p]):
            if f:
                _add_times(out[i * n + j], f, -r, -s)
    zero = x.ring.zero
    return Matrix._of_rows(x.ring, _split_rows(
        [Form(acc) if acc else zero for acc in out], n))


class SkewSymbols:
    """A symbol table of named generic skew-adjoint matrices, and the ring
    of linear forms over its variables that their entries live in.

    diagonal modes: "imag" puts I times a star-fixed variable at (i, i),
    the diagonal of every skew-adjoint unknown the paper reads; "zero"
    leaves the diagonal empty. support keeps only the block S x S of the
    given indices S, diagonal included, and zeroes every other entry
    (used for block unknowns). Off the diagonal, (i, j) holds the
    variable name_i_j and (j, i) minus its star partner namec_i_j."""

    name = "forms"

    def __init__(self, n):
        self.n = n
        self.zero = Form()
        self._decls = []

    def declare(self, name, diagonal="imag", support=None):
        if diagonal not in ("imag", "zero"):
            raise ValueError("unknown diagonal mode %r" % diagonal)
        if any(name == d[0] for d in self._decls):
            raise ValueError("unknown %r is already declared" % name)
        sup = frozenset(support) if support is not None else None
        self._decls.append((name, diagonal, sup))
        return self

    def build(self):
        """Returns (ring, matrices): this table as the ring of forms over
        its variables, and one generic matrix per name."""
        n = self.n
        names, perm, mats = [], [], {}
        for name, diagonal, sup in self._decls:
            grid = [[self.zero] * n for _ in range(n)]
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if sup is not None and not (i in sup and j in sup):
                        continue
                    v = len(names)
                    names += ["%s_%d_%d" % (name, i, j),
                              "%sc_%d_%d" % (name, i, j)]
                    perm += [v + 1, v]
                    grid[i - 1][j - 1] = Form({v: (1, 0)})
                    grid[j - 1][i - 1] = Form({v + 1: (-1, 0)})
            for i in range(1, n + 1):
                if diagonal == "imag" and (sup is None or i in sup):
                    perm.append(len(names))
                    grid[i - 1][i - 1] = Form({len(names): (0, 1)})
                    names.append("%s_d%d" % (name, i))
            mats[name] = Matrix._of_rows(self, tuple(map(tuple, grid)))
        # declare rejects equal names; this catches derived ones, such as
        # the partner "ac_1_2" of unknown "a" against unknown "ac"
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.var_names, self.star_perm = tuple(names), tuple(perm)
        return self, mats

    def scalar(self, value):
        if not isinstance(value, Form):
            raise TypeError("%r is not a linear form" % (value,))
        return value

    def star(self, form):
        """Permutes the variables by star_perm, conjugating coefficients."""
        perm = self.star_perm
        return Form({perm[v]: (a, -b) for v, (a, b) in form.items()})


def hypothesis_components(lhs, rhs=None):
    """The entrywise difference of two matrices of forms as
    [("(r,c)", form)] over all n^2 positions, dropping zeros."""
    diff = lhs if rhs is None else lhs - rhs
    return [("(%d,%d)" % (r, c), p)
            for r, row in enumerate(diff.rows, 1)
            for c, p in enumerate(row, 1) if p]


class ComponentCertificate:
    """One conclusion with its exact derivation from the hypotheses."""

    def __init__(self, label, combination):
        self.label = label
        self.implied = True
        self.combination = combination

    def to_dict(self):
        return {"conclusion": self.label, "implied": True,
                "reexpanded": True,
                "combination": [{"hypothesis": hid,
                                 "coefficient": GAUSS.format(c)}
                                for hid, c in self.combination]}


class NotImplied:
    """One conclusion with a verified star-compatible counterexample."""

    def __init__(self, label, assignment, conclusion_value):
        self.label = label
        self.implied = False
        self.assignment = assignment
        self.conclusion_value = conclusion_value

    def to_dict(self):
        return {"conclusion": self.label, "implied": False,
                "counterexample": {
                    "assignment": {k: GAUSS.format(v)
                                   for k, v in sorted(self.assignment.items())},
                    "conclusion_value": GAUSS.format(self.conclusion_value)}}


def certify(ring, hypotheses, conclusions):
    """Decide each conclusion against the star-closed hypothesis span.

    hypotheses and conclusions are lists of (id, form). Returns a
    list of ComponentCertificate and NotImplied objects, one per
    conclusion, in order. Certificates are re-expanded on integers, as
    sum((den*c_j) * h_j) == den * form for the lcm den of the c_j, and
    counterexamples re-evaluated before being returned. One reduced
    system of the star-closed hypotheses serves both: a conclusion
    outside its span gets a star-compatible counterexample from the
    kernel vector of its residual's lowest column.
    """
    hyps = list(hypotheses)
    hyps += [("star:%s" % hid, ring.star(h)) for hid, h in hypotheses]
    # a row equal to +-h for an earlier row h reduces to zero, so it never
    # becomes a pivot and no combination uses it; feeding it would only
    # cost its elimination
    fed, seen = [], set()
    for hid, h in hyps:
        key = frozenset(h.items())
        if key not in seen:
            fed.append((hid, h))
            neg = frozenset((v, (-a, -b)) for v, (a, b) in h.items())
            seen.update((key, neg))
    sys = ReducedSystem((h for _, h in fed), len(ring.var_names))
    results = []
    for label, form in conclusions:
        residual, comb = sys.express(form)
        if not residual:
            combination = sorted(comb.items())
            den = lcm(*(c.d for _, c in combination))
            total = {}
            for j, c in combination:
                _add_times(total, fed[j][1], c.a * (den // c.d),
                           c.b * (den // c.d))
            if Form(total) != form.times(den, 0):
                raise AssertionError("certificate for %r fails re-expansion"
                                     % label)
            results.append(ComponentCertificate(
                label, [(fed[j][0], c) for j, c in combination]))
        else:
            results.append(_counterexample(ring, sys, hyps, label, form,
                                           min(residual)))
    return results


def _counterexample(ring, sys, hyps, label, form, free):
    """A star-compatible solution of the hypotheses on which form is
    nonzero, built from the kernel vector x of one free column of form's
    residual.

    The hypotheses are star-closed, so the mirror x'[v] =
    conj(x[star v]) solves them too; x + x' and (x - x')/I then satisfy
    value[star v] = conj(value[v]) and add up to 2x with weights 1 and
    I, so form is nonzero on at least one of them."""
    den, kernel = sys.int_nullvector(free)
    x = [kernel.get(v, (0, 0)) for v in range(sys.ncols)]
    x_star = [x[p] for p in ring.star_perm]
    for values in ([(a + c, b - d) for (a, b), (c, d) in zip(x, x_star)],
                   [(b + d, c - a) for (a, b), (c, d) in zip(x, x_star)]):
        value = form.evaluate(values)
        if any(value):
            break
    else:
        raise AssertionError("no star-compatible counterexample separates %r"
                             % label)
    for hid, h in hyps:
        if any(h.evaluate(values)):
            raise AssertionError("counterexample violates hypothesis %s" % hid)
    assignment = {name: GaussianRational(a, b, den) if a or b else GAUSS.zero
                  for name, (a, b) in zip(ring.var_names, values)}
    return NotImplied(label, assignment, GaussianRational(*value, den))


class LemmaCertificate:
    """Certification outcome for one registered statement."""

    def __init__(self, lemma, n, indices, components, notes, variant=None):
        self.lemma = lemma
        self.n = n
        self.indices = tuple(indices)
        self.components = components
        self.notes = list(notes)
        self.variant = variant

    @property
    def all_implied(self):
        return all(c.implied for c in self.components)

    def counterexamples(self):
        return [c for c in self.components if not c.implied]

    @property
    def anchor(self):
        """The identity-catalog anchor of the statement."""
        return _BUILDERS[self.lemma][2]

    def to_dict(self):
        return {
            "lemma": self.lemma,
            "n": self.n,
            "indices": list(self.indices),
            # one diagonal model only; the key stays because certificate
            # JSON is a published report format
            "general_diagonal": False,
            "variant": self.variant,
            "all_implied": self.all_implied,
            "notes": self.notes,
            "components": [c.to_dict() for c in self.components],
        }


def _eq(label, lhs, rhs=None):
    """The nonzero components of lhs - rhs, each labelled label % "(r,c)"."""
    return [(label % pos, p) for pos, p in hypothesis_components(lhs, rhs)]


def _display(labels, n, indices, pos, sign, aux, w_e, w):
    """The two equations of the display behind eqs 5.5-5.10 at the anchor
    t = indices[pos], for e = I*e_t and (i, k) = indices: [u1, e + sign*s]
    = [w_e, e] + [w, sign*s] with s = s[i,k], labelled labels[0], and
    [u2, e + Ibar] = [w_e, e] + [w, Ibar] with Ibar = Ibar[i,k], labelled
    labels[1], for aux = (u1, u2). The sign scales the Gaussian factor:
    a matrix of forms cannot be scaled."""
    e = ie_diag(n, indices[pos])
    s, ibar = sign * s_elem(n, *indices), ie_bar(n, *indices)
    u1, u2 = aux
    base = bracket(w_e, e)
    return (_eq(labels[0], bracket(u1, e + s), base + bracket(w, s))
            + _eq(labels[1], bracket(u2, e + ibar), base + bracket(w, ibar)))


def _check_indices(n, indices):
    if len(set(indices)) != len(indices):
        raise EqualIndices("indices %r are not distinct" % (indices,))
    for i in indices:
        if not 1 <= i <= n:
            raise IndexOutOfRange("index %d outside 1..%d" % (i, n))


def _build_3_4_1(n, indices):
    i, j = indices
    ring, m = SkewSymbols(n).declare("a").declare("b").build()
    a, b = m["a"], m["b"]
    hyps = _eq("commute@%s", bracket(a - b, s_elem(n, i, j)))
    concl = [
        ("offdiagonal sum (%d,%d)" % (i, j),
         a.entry(i, j) + a.entry(j, i) - b.entry(i, j) - b.entry(j, i)),
        ("diagonal difference (%d,%d)" % (i, j),
         a.entry(i, i) - a.entry(j, j) - b.entry(i, i) + b.entry(j, j)),
    ]
    return ring, hyps, concl, []


def _two_witnesses(n, s1, s2):
    """Unknowns a, b and x with the hypotheses [a - x, s1] = 0 and
    [b - x, s2] = 0: two witnesses that share the witness x of a pair."""
    ring, m = SkewSymbols(n).declare("a").declare("b") \
                            .declare("x").build()
    a, b, x = m["a"], m["b"], m["x"]
    hyps = _eq("eq1@%s", bracket(a - x, s1))
    hyps += _eq("eq2@%s", bracket(b - x, s2))
    return ring, a, b, hyps


def _build_3_4_2(n, indices):
    i, j, p = indices
    ring, a, b, hyps = _two_witnesses(n, s_elem(n, i, j), s_elem(n, i, p))
    concl = [("offdiagonal sums agree (%d,%d)" % (i, j),
              a.entry(i, j) + a.entry(j, i)
              - b.entry(i, j) - b.entry(j, i))]
    return ring, hyps, concl, []


def _build_3_41(n, indices):
    i, j, p = indices
    ring, a, b, hyps = _two_witnesses(n, s_elem(n, i, p), s_elem(n, p, j))
    concl = [
        ("entry (%d,%d)" % (i, j), a.entry(i, j) - b.entry(i, j)),
        ("entry (%d,%d)" % (j, i), a.entry(j, i) - b.entry(j, i)),
    ]
    return ring, hyps, concl, []


def _build_2_5(n, indices):
    i, j = indices
    ring, m = SkewSymbols(n).declare("d") \
                            .declare("a", "zero").build()
    d, a = m["d"], m["a"]
    hyps = []
    for k in range(1, n + 1):
        if k in (i, j):
            continue
        hyps.append(("row%d_col%d" % (k, i), d.entry(k, i) - a.entry(k, i)))
        hyps.append(("row%d_col%d" % (k, j), d.entry(k, j) - a.entry(k, j)))
        hyps.append(("row%d_col%d" % (i, k), d.entry(i, k) - a.entry(i, k)))
        hyps.append(("row%d_col%d" % (j, k), d.entry(j, k) - a.entry(j, k)))
    hyps.append(("offdiagonal_sum",
                 d.entry(i, j) + d.entry(j, i)
                 - a.entry(i, j) - a.entry(j, i)))
    s = s_elem(n, i, j)
    # (d^{ii} - d^{jj}) * (e_{i,j} + e_{j,i})
    delta = d.entry(i, i) - d.entry(j, j)
    shift = Matrix(ring, ((delta if {r, c} == {i, j} else ring.zero
                           for c in range(1, n + 1)) for r in range(1, n + 1)))
    concl = _eq("component %s", bracket(d, s) - bracket(a, s) - shift)
    notes = ["both corner coefficients are d^{ii} - d^{jj}, as "
             "skew-adjointness of the two sides forces"]
    return ring, hyps, concl, notes


def _build_3_6(n, indices):
    k, l = indices
    ring, m = SkewSymbols(n).declare("c").declare("b").build()
    c, b = m["c"], m["b"]
    hyps = _eq("commute@%s", bracket(c - b, staircase(n)))
    concl = [("diagonal difference (%d,%d)" % (k, l),
              c.entry(k, k) - c.entry(l, l)
              - b.entry(k, k) + b.entry(l, l))]
    notes = ["implied for the extreme pair (1,%d) at every size (the "
             "cross terms telescope away); boundary-adjacent pairs such "
             "as (1,2) admit counterexamples like I times the square of "
             "the staircase" % n]
    return ring, hyps, concl, notes


def _build_5_1(n, indices):
    i, k = indices
    ring, m = SkewSymbols(n).declare("aii").declare("akk") \
                            .declare("a1").build()
    aii, akk, a1 = m["aii"], m["akk"], m["a1"]
    e_i, e_k = ie_diag(n, i), ie_diag(n, k)
    hyps = _eq("additive@%s",
               bracket(a1, e_i + e_k) - bracket(aii, e_i) - bracket(akk, e_k))
    concl = [
        ("entry (%d,%d)" % (i, k), aii.entry(i, k) - akk.entry(i, k)),
        ("entry (%d,%d)" % (k, i), aii.entry(k, i) - akk.entry(k, i)),
    ]
    notes = ["the joint witness is queried at I*(e_%d,%d + e_%d,%d)"
             % (i, i, k, k)]
    return ring, hyps, concl, notes


def _build_5_2(n, indices):
    i, k = indices
    ring, m = SkewSymbols(n).declare("aii").build()
    concl = [("definition of d at (%d,%d)" % (i, k), ring.zero)]
    return ring, [], concl, ["definitional: d takes its (%d,%d) entry "
                             "from the witness of I*e_%d,%d" % (i, k, i, i)]


def _declare_d_parts(sym, n):
    for t in range(1, n + 1):
        sym.declare("a%d%d" % (t, t))
    sym.declare("a2")


def _build_5_3(n, indices):
    i, = indices
    # [d, I*e_ii] reads only row and column i of d, and d^{ji} is row j's
    # read, so eq 5.1 is needed only at the n - 1 pairs that contain i
    pairs = [(min(i, j), max(i, j)) for j in range(1, n + 1) if j != i]
    sym = SkewSymbols(n)
    _declare_d_parts(sym, n)
    for p, q in pairs:
        sym.declare("y%d%d" % (p, q))
    ring, m = sym.build()
    rows = {t: m["a%d%d" % (t, t)] for t in range(1, n + 1)}
    hyps = []
    for p, q in pairs:
        e_p, e_q = ie_diag(n, p), ie_diag(n, q)
        hyps += _eq("pair(%d,%d)@%%s" % (p, q),
                    bracket(m["y%d%d" % (p, q)], e_p + e_q)
                    - bracket(rows[p], e_p) - bracket(rows[q], e_q))
    d = assemble_d(m["a2"], rows)
    e_i = ie_diag(n, i)
    concl = _eq("component %s", bracket(d, e_i), bracket(rows[i], e_i))
    return ring, hyps, concl, []


def _build_5_4(n, indices):
    i, k = indices
    ring, m = SkewSymbols(n).declare("A").declare("D").build()
    a, d = m["A"], m["D"]
    hyps = []
    for j in range(1, n + 1):
        if j != k:
            hyps.append(("eq5.5[%d]" % j, a.entry(k, j) - d.entry(k, j)))
        if j != i:
            hyps.append(("eq5.6[%d]" % j, a.entry(j, i) - d.entry(j, i)))
    hyps.append(("eq5.7", a.entry(i, i) - a.entry(k, k)
                 - d.entry(i, i) + d.entry(k, k)))
    diff = a - d
    concl = _eq("s-bracket %s", bracket(diff, s_elem(n, i, k)))
    concl += _eq("Ibar-bracket %s", bracket(diff, ie_bar(n, i, k)))
    notes = ["star closure of the row hypotheses supplies the mirrored "
             "column entries"]
    return ring, hyps, concl, notes


def _build_55_56_510(n, indices, variant):
    shared = variant != "independent"
    sym = SkewSymbols(n).declare("A").declare("aii") \
                        .declare("akk")
    if shared:
        sym.declare("a3k").declare("a3i")
        aux_k, aux_i = ("a3k", "a3k"), ("a3i", "a3i")
    else:
        sym.declare("a3k1").declare("a3k2")
        sym.declare("a3i1").declare("a3i2")
        aux_k, aux_i = ("a3k1", "a3k2"), ("a3i1", "a3i2")
    ring, m = sym.build()
    hyps = _display(("eq1@%s", "eq2@%s"), n, indices, 1, -1,
                    [m[u] for u in aux_k], m["akk"], m["A"])
    hyps += _display(("eq3@%s", "eq4@%s"), n, indices, 0, 1,
                     [m[u] for u in aux_i], m["aii"], m["A"])
    notes = ["each auxiliary witness serves both equations of its "
             "display" if shared else
             "independent auxiliary witnesses per equation: the "
             "conclusions are expected to fail"]
    return ring, m, hyps, notes


def _build_5_5(n, indices, variant=None):
    i, k = indices
    ring, m, hyps, notes = _build_55_56_510(n, indices, variant)
    concl = [("row entry (%d,%d)" % (k, j),
              m["A"].entry(k, j) - m["akk"].entry(k, j))
             for j in range(1, n + 1) if j != k]
    return ring, hyps, concl, notes


def _build_5_6(n, indices, variant=None):
    i, k = indices
    ring, m, hyps, notes = _build_55_56_510(n, indices, variant)
    concl = [("column entry (%d,%d)" % (j, i),
              m["A"].entry(j, i) - m["aii"].entry(j, i))
             for j in range(1, n + 1) if j != i]
    notes = notes + ["stated against the witness of I*e_%d,%d; the built "
                     "implementer d carries the same entries by the row "
                     "read identities" % (i, i)]
    return ring, hyps, concl, notes


def _build_5_10(n, indices, variant=None):
    i, k = indices
    ring, m, hyps, notes = _build_55_56_510(n, indices, variant)
    a3k = m["a3k"] if variant != "independent" else m["a3k1"]
    concl = [
        ("entry (%d,%d)" % (i, k), a3k.entry(i, k) - m["A"].entry(i, k)),
        ("entry (%d,%d)" % (k, i), a3k.entry(k, i) - m["A"].entry(k, i)),
    ]
    return ring, hyps, concl, notes


def _build_58_59(n, indices, pos, sign):
    """Eq 5.8 (pos=1, sign=-1: the anchor is the row index k) or eq 5.9
    (pos=0, sign=1: the anchor is the column index i)."""
    t = indices[pos]
    sym = SkewSymbols(n).declare("A")
    _declare_d_parts(sym, n)
    sym.declare("a3")
    ring, m = sym.build()
    rows = {u: m["a%d%d" % (u, u)] for u in range(1, n + 1)}
    d = assemble_d(m["a2"], rows)
    e = ie_diag(n, t)
    aux = (m["a3"], m["a3"])
    hyps = _display(("additive1@%s", "additive2@%s"), n, indices, pos, sign,
                    aux, rows[t], m["A"])
    hyps += _eq("eq5.3[%d]@%%s" % t, bracket(d, e), bracket(rows[t], e))
    concl = _display(("s-form %s", "Ibar-form %s"), n, indices, pos, sign,
                     aux, d, m["A"])
    notes = ["the displayed right hand side uses the built implementer d; "
             "the derivation routes through the single-index witness and "
             "the prior identity at index %d" % t]
    return ring, hyps, concl, notes


def _build_5_7(n, indices):
    i, k = indices
    sym = SkewSymbols(n)
    for t in range(1, n):
        sym.declare("w%d" % t, support=(t, t + 1))
    # the shared unknowns A and a2 are declared last, so their columns
    # come last and a row does not cascade through the earlier links'
    # pivots
    ring, m = sym.declare("A").declare("a2").build()
    lhs = bracket(m["a2"], staircase(n))
    # link t reads [a2, x0] = [w_t, s[t,t+1]] + [b_t, x_t] at (t, t+1)
    # only, where x_t = x0 - s[t-1,t] - s[t,t+1] - s[t+1,t+2] has a zero
    # row t and a zero column t+1: [b_t, x_t] vanishes there, so the
    # link's own unknown b_t is never stated
    hyps = [("chain%d@(%d,%d)" % (t, t, t + 1),
             lhs.entry(t, t + 1)
             - bracket(m["w%d" % t], s_elem(n, t, t + 1)).entry(t, t + 1))
            for t in range(1, n)]
    for t in range(1, n - 1):
        hyps.append(("coherence%d" % t,
                     m["w%d" % t].entry(t + 1, t + 1)
                     - m["w%d" % (t + 1)].entry(t + 1, t + 1)))
    hyps.append(("anchor_top", m["w1"].entry(1, 1) - m["A"].entry(1, 1)))
    hyps.append(("anchor_bottom",
                 m["w%d" % (n - 1)].entry(n, n) - m["A"].entry(n, n)))
    concl = [("diagonal difference (%d,%d)" % (i, k),
              m["A"].entry(i, i) - m["A"].entry(k, k)
              - m["a2"].entry(i, i) + m["a2"].entry(k, k))]
    notes = ["the chain walks the staircase once; the cross terms of the "
             "staircase witness cancel only over the full walk, so the "
             "difference is certified for the extreme pair (1,%d)" % n]
    return ring, hyps, concl, notes


# id: (builder, default indices at size n, catalog anchor)
_BUILDERS = {
    "3.4.1": (_build_3_4_1, lambda n: (1, 2), "lemma 3.4 part 1"),
    "3.4.2": (_build_3_4_2, lambda n: (1, 2, 3), "lemma 3.4 part 2"),
    "3.41": (_build_3_41, lambda n: (1, 2, 3), "lemma 3.41"),
    "2.5": (_build_2_5, lambda n: (1, 2), "lemma 2.5"),
    "3.6": (_build_3_6, lambda n: (1, n), "lemma 3.6"),
    "5.1": (_build_5_1, lambda n: (1, 2), "eq 5.1"),
    "5.2": (_build_5_2, lambda n: (1, 2), "eq 5.2"),
    "5.3": (_build_5_3, lambda n: (1,), "eq 5.3"),
    "5.4": (_build_5_4, lambda n: (1, 2), "eq 5.4"),
    "5.5": (_build_5_5, lambda n: (1, 2), "eq 5.5"),
    "5.6": (_build_5_6, lambda n: (1, 2), "eq 5.6"),
    "5.7": (_build_5_7, lambda n: (1, n), "eq 5.7"),
    "5.8": (lambda n, idx: _build_58_59(n, idx, 1, -1), lambda n: (1, 2),
            "eq 5.8"),
    "5.9": (lambda n, idx: _build_58_59(n, idx, 0, 1), lambda n: (1, 2),
            "eq 5.9"),
    "5.10": (_build_5_10, lambda n: (1, 2), "eq 5.10"),
}

VARIANT_LEMMAS = ("5.5", "5.6", "5.10")


def known_lemmas():
    return sorted(_BUILDERS)


def certify_lemma(lemma, n, indices=None, variant=None):
    """Certify one registered statement at the given size and indices.

    lemma is a string id from known_lemmas(); anything else raises
    UnknownLemma. Every unknown has I times a star-fixed variable on its
    diagonal. indices must be as many as the lemma's defaults
    (DimensionMismatch otherwise). variant="independent" (where
    supported) replaces each shared auxiliary witness with per-equation
    copies, a deliberate probe whose conclusions come back NotImplied;
    any other variant raises UnknownLemma.
    """
    entry = _BUILDERS.get(lemma)
    if entry is None:
        raise UnknownLemma("no certificate builder for %r (known: %s)"
                           % (lemma, ", ".join(known_lemmas())))
    builder, default_idx, _ = entry
    if n < 3:
        raise IndexOutOfRange("certificates are stated for sizes >= 3")
    idx = tuple(indices) if indices is not None else default_idx(n)
    if len(idx) != len(default_idx(n)):
        raise DimensionMismatch("lemma %s takes %d indices, got %d"
                                % (lemma, len(default_idx(n)), len(idx)))
    _check_indices(n, idx)
    if variant not in (None, "independent"):
        raise UnknownLemma("no variant %r (the only one is 'independent')"
                           % (variant,))
    if lemma in VARIANT_LEMMAS:
        ring, hyps, concl, notes = builder(n, idx, variant=variant)
    else:
        if variant is not None:
            raise UnknownLemma("lemma %s has no variant %r" % (lemma, variant))
        ring, hyps, concl, notes = builder(n, idx)
    components = certify(ring, hyps, concl)
    return LemmaCertificate(lemma, n, idx, components, notes,
                            variant=variant)
