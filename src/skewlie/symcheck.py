"""Symbolic certificates for component identities.

The statements this package relies on at run time all have the same
shape: a handful of skew-adjoint unknowns, hypotheses saying that some
bracket expressions vanish componentwise, and conclusions that certain
entry combinations vanish too. Here the unknowns become matrices of
polynomial variables, the hypotheses become linear polynomials, and a
conclusion is certified by exhibiting an exact linear combination of
hypotheses (and their stars) that re-expands to it. When no combination
exists the failure is made concrete: a Gaussian-rational assignment of
all variables that satisfies every hypothesis while the conclusion is
nonzero, and that respects the involution (paired variables take
conjugate values, star-fixed ones real values), so it describes actual
skew-adjoint matrices.

Star closure matters: hypotheses are augmented with their images under
the involution before solving. That is sound (a vanishing polynomial has
vanishing star) and necessary, both for completeness of the certificates
and for the counterexample, which is read off a kernel vector of the
same star-closed system.
"""

from __future__ import annotations

from .errors import (
    DimensionMismatch,
    EqualIndices,
    IndexOutOfRange,
    NonLinearHypothesis,
    UnknownLemma,
)
from .lie import bracket, ie_bar, ie_diag, s_elem, staircase
from .linsolve import ReducedSystem
from .localder import assemble_d
from .matrices import Matrix, matrix_unit
from .rings import GAUSS, PolynomialRing, imaginary_unit


class SkewSymbols:
    """Declares named generic skew-adjoint matrices over one shared
    polynomial ring.

    diagonal modes: "imag" puts I times a star-fixed variable at (i, i),
    the diagonal of every skew-adjoint unknown the paper reads; "zero"
    leaves the diagonal empty. support restricts nonzero entries to the
    rows and columns of the given indices (used for block unknowns)."""

    def __init__(self, n):
        self.n = n
        self._decls = []

    def declare(self, name, diagonal="imag", support=None):
        if diagonal not in ("imag", "zero"):
            raise ValueError("unknown diagonal mode %r" % diagonal)
        sup = frozenset(support) if support is not None else None
        self._decls.append((name, diagonal, sup))
        return self

    def build(self):
        """Returns (ring, matrices) with one generic matrix per name."""
        names = []
        star_pairs = []
        slots = {}

        def add_var(nm):
            slots[nm] = len(names)
            names.append(nm)
            return slots[nm]

        for name, diagonal, sup in self._decls:
            for i in range(1, self.n + 1):
                for j in range(i + 1, self.n + 1):
                    if sup is not None and not (i in sup and j in sup):
                        continue
                    v = add_var("%s_%d_%d" % (name, i, j))
                    w = add_var("%sc_%d_%d" % (name, i, j))
                    star_pairs.append((v, w))
            for i in range(1, self.n + 1):
                if sup is not None and i not in sup:
                    continue
                if diagonal == "imag":
                    add_var("%s_d%d" % (name, i))
        ring = PolynomialRing(names, star_pairs)
        i_unit = imaginary_unit(ring)
        mats = {}
        for name, diagonal, sup in self._decls:
            grid = [[ring.zero] * self.n for _ in range(self.n)]
            for i in range(1, self.n + 1):
                for j in range(i + 1, self.n + 1):
                    if sup is not None and not (i in sup and j in sup):
                        continue
                    z = ring.var(slots["%s_%d_%d" % (name, i, j)])
                    zc = ring.var(slots["%sc_%d_%d" % (name, i, j)])
                    grid[i - 1][j - 1] = z
                    grid[j - 1][i - 1] = -zc
            for i in range(1, self.n + 1):
                if sup is not None and i not in sup:
                    continue
                if diagonal == "imag":
                    grid[i - 1][i - 1] = i_unit * \
                        ring.var(slots["%s_d%d" % (name, i)])
            mats[name] = Matrix(ring, grid)
        return ring, mats


def hypothesis_components(lhs, rhs=None):
    """Entrywise difference of two matrices as labeled linear polynomials.

    Returns [("(r,c)", poly)] for all n^2 positions, dropping zeros.
    Raises NonLinearHypothesis when an entry is not homogeneous linear.
    """
    diff = lhs if rhs is None else lhs - rhs
    out = []
    for r in range(1, diff.n + 1):
        for c in range(1, diff.n + 1):
            p = diff.entry(r, c)
            if not p:
                continue
            _require_linear(p)
            out.append(("(%d,%d)" % (r, c), p))
    return out


def _require_linear(poly):
    for mono in poly.terms:
        if len(mono) == 0:
            raise NonLinearHypothesis("constant term in a hypothesis")
        if len(mono) > 1:
            raise NonLinearHypothesis("degree %d term in a hypothesis"
                                      % len(mono))


def _linear_vector(poly):
    _require_linear(poly)
    return {mono[0]: c for mono, c in poly.terms.items()}


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


def _eval_linear(poly, values):
    total = GAUSS.zero
    for mono, c in poly.terms.items():
        v = c
        for idx in mono:
            v = v * values[idx]
        total = total + v
    return total


def certify(ring, hypotheses, conclusions):
    """Decide each conclusion against the star-closed hypothesis span.

    hypotheses and conclusions are lists of (id, polynomial). Returns a
    list of ComponentCertificate and NotImplied objects, one per
    conclusion, in order. Certificates are re-expanded symbolically and
    counterexamples re-evaluated before being returned. One reduced
    system of the star-closed hypotheses serves both: a conclusion
    outside its span gets a star-compatible counterexample from the
    kernel vector of its residual's lowest column.
    """
    hyps = list(hypotheses)
    hyps += [("star:%s" % hid, ring.star(h)) for hid, h in hypotheses]
    nvars = len(ring.var_names)
    sys = ReducedSystem((_linear_vector(h) for _, h in hyps), nvars)
    results = []
    for label, poly in conclusions:
        vec = _linear_vector(poly)
        residual, comb = sys.express(vec)
        if not residual:
            combination = [(hyps[j][0], coeff)
                           for j, coeff in sorted(comb.items())]
            total = ring.zero
            for j, coeff in comb.items():
                total = total + ring.scalar(coeff) * hyps[j][1]
            if total != poly:
                raise AssertionError("certificate for %r fails re-expansion"
                                     % label)
            results.append(ComponentCertificate(label, combination))
        else:
            results.append(_counterexample(ring, sys, hyps, label, poly,
                                           min(residual)))
    return results


def _counterexample(ring, sys, hyps, label, poly, free):
    """A star-compatible solution of the hypotheses on which poly is
    nonzero, built from the kernel vector x of one free column of poly's
    residual.

    The hypotheses are star-closed, so the mirror x'[v] =
    conj(x[star v]) solves them too; x + x' and (x - x')/I then satisfy
    value[star v] = conj(value[v]) and add up to 2x with weights 1 and
    I, so poly is nonzero on at least one of them."""
    kernel = sys.nullvector(free)
    x = [kernel.get(v, GAUSS.zero) for v in range(len(ring.var_names))]
    mirror = [x[p].conjugate() for p in ring.star_perm]
    for values in ([u + w for u, w in zip(x, mirror)],
                   [-GAUSS.imag * (u - w) for u, w in zip(x, mirror)]):
        value = _eval_linear(poly, values)
        if value:
            break
    else:
        raise AssertionError("no star-compatible counterexample separates %r"
                             % label)
    for hid, h in hyps:
        if _eval_linear(h, values):
            raise AssertionError("counterexample violates hypothesis %s" % hid)
    assignment = {ring.var_names[v]: val for v, val in enumerate(values)}
    return NotImplied(label, assignment, value)


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


def _eq(eq_id, lhs, rhs=None):
    return [("%s@%s" % (eq_id, pos), p)
            for pos, p in hypothesis_components(lhs, rhs)]


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
    hyps = _eq("commute", bracket(a - b, s_elem(n, i, j, ring)))
    concl = [
        ("offdiagonal sum (%d,%d)" % (i, j),
         a.entry(i, j) + a.entry(j, i) - b.entry(i, j) - b.entry(j, i)),
        ("diagonal difference (%d,%d)" % (i, j),
         a.entry(i, i) - a.entry(j, j) - b.entry(i, i) + b.entry(j, j)),
    ]
    return ring, hyps, concl, []


def _build_3_4_2(n, indices):
    i, j, p = indices
    ring, m = SkewSymbols(n).declare("a").declare("b") \
                            .declare("x").build()
    a, b, x = m["a"], m["b"], m["x"]
    hyps = _eq("eq1", bracket(a - x, s_elem(n, i, j, ring)))
    hyps += _eq("eq2", bracket(b - x, s_elem(n, i, p, ring)))
    concl = [("offdiagonal sums agree (%d,%d)" % (i, j),
              a.entry(i, j) + a.entry(j, i)
              - b.entry(i, j) - b.entry(j, i))]
    return ring, hyps, concl, []


def _build_3_41(n, indices):
    i, j, p = indices
    ring, m = SkewSymbols(n).declare("a").declare("b") \
                            .declare("x").build()
    a, b, x = m["a"], m["b"], m["x"]
    hyps = _eq("eq1", bracket(a - x, s_elem(n, i, p, ring)))
    hyps += _eq("eq2", bracket(b - x, s_elem(n, p, j, ring)))
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
    s = s_elem(n, i, j, ring)
    shift = (d.entry(i, i) - d.entry(j, j)) * \
        (matrix_unit(n, i, j, ring) + matrix_unit(n, j, i, ring))
    concl = _eq("identity", bracket(d, s) - bracket(a, s) - shift)
    concl = [("component %s" % pos.split("@")[1], p) for pos, p in concl]
    notes = ["both corner coefficients are d^{ii} - d^{jj}, as "
             "skew-adjointness of the two sides forces"]
    return ring, hyps, concl, notes


def _build_3_6(n, indices):
    k, l = indices
    ring, m = SkewSymbols(n).declare("c").declare("b").build()
    c, b = m["c"], m["b"]
    hyps = _eq("commute", bracket(c - b, staircase(n, ring=ring)))
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
    e_i, e_k = ie_diag(n, i, ring), ie_diag(n, k, ring)
    hyps = _eq("additive",
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
    sym = SkewSymbols(n)
    _declare_d_parts(sym, n)
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            sym.declare("y%d%d" % (p, q))
    ring, m = sym.build()
    rows = {t: m["a%d%d" % (t, t)] for t in range(1, n + 1)}
    hyps = []
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            e_p, e_q = ie_diag(n, p, ring), ie_diag(n, q, ring)
            hyps += _eq("pair(%d,%d)" % (p, q),
                        bracket(m["y%d%d" % (p, q)], e_p + e_q)
                        - bracket(rows[p], e_p) - bracket(rows[q], e_q))
    d = assemble_d(m["a2"], rows)
    e_i = ie_diag(n, i, ring)
    concl = [("component %s" % pos, p) for pos, p in
             hypothesis_components(bracket(d, e_i), bracket(rows[i], e_i))]
    if not concl:
        concl = [("identity at %d" % i, ring.zero)]
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
    concl = [("s-bracket %s" % pos, p) for pos, p in
             hypothesis_components(bracket(diff, s_elem(n, i, k, ring)))]
    concl += [("Ibar-bracket %s" % pos, p) for pos, p in
              hypothesis_components(bracket(diff, ie_bar(n, i, k, ring)))]
    notes = ["star closure of the row hypotheses supplies the mirrored "
             "column entries"]
    return ring, hyps, concl, notes


def _hyps_58_59(n, i, k, ring, m, shared):
    a, aii, akk = m["A"], m["aii"], m["akk"]
    e_i, e_k = ie_diag(n, i, ring), ie_diag(n, k, ring)
    s = s_elem(n, i, k, ring)
    ibar = ie_bar(n, i, k, ring)
    if shared:
        a3k1 = a3k2 = m["a3k"]
        a3i1 = a3i2 = m["a3i"]
    else:
        a3k1, a3k2 = m["a3k1"], m["a3k2"]
        a3i1, a3i2 = m["a3i1"], m["a3i2"]
    hyps = _eq("eq1", bracket(a3k1, e_k - s),
               bracket(akk, e_k) - bracket(a, s))
    hyps += _eq("eq2", bracket(a3k2, e_k + ibar),
                bracket(akk, e_k) + bracket(a, ibar))
    hyps += _eq("eq3", bracket(a3i1, e_i + s),
                bracket(aii, e_i) + bracket(a, s))
    hyps += _eq("eq4", bracket(a3i2, e_i + ibar),
                bracket(aii, e_i) + bracket(a, ibar))
    return hyps


def _build_55_56_510(n, indices, variant):
    i, k = indices
    shared = variant != "independent"
    sym = SkewSymbols(n).declare("A").declare("aii") \
                        .declare("akk")
    if shared:
        sym.declare("a3k").declare("a3i")
    else:
        sym.declare("a3k1").declare("a3k2")
        sym.declare("a3i1").declare("a3i2")
    ring, m = sym.build()
    hyps = _hyps_58_59(n, i, k, ring, m, shared)
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


def _build_58_59(n, indices, which):
    i, k = indices
    sym = SkewSymbols(n).declare("A")
    _declare_d_parts(sym, n)
    sym.declare("a3")
    ring, m = sym.build()
    rows = {t: m["a%d%d" % (t, t)] for t in range(1, n + 1)}
    d = assemble_d(m["a2"], rows)
    s = s_elem(n, i, k, ring)
    ibar = ie_bar(n, i, k, ring)
    if which == "5.8":
        e = ie_diag(n, k, ring)
        aw = rows[k]
        probe1, probe2 = e - s, e + ibar
        rhs1 = bracket(aw, e) - bracket(m["A"], s)
        rhs2 = bracket(aw, e) + bracket(m["A"], ibar)
        drhs1 = bracket(d, e) - bracket(m["A"], s)
        drhs2 = bracket(d, e) + bracket(m["A"], ibar)
        anchor = k
    else:
        e = ie_diag(n, i, ring)
        aw = rows[i]
        probe1, probe2 = e + s, e + ibar
        rhs1 = bracket(aw, e) + bracket(m["A"], s)
        rhs2 = bracket(aw, e) + bracket(m["A"], ibar)
        drhs1 = bracket(d, e) + bracket(m["A"], s)
        drhs2 = bracket(d, e) + bracket(m["A"], ibar)
        anchor = i
    hyps = _eq("additive1", bracket(m["a3"], probe1), rhs1)
    hyps += _eq("additive2", bracket(m["a3"], probe2), rhs2)
    hyps += _eq("eq5.3[%d]" % anchor, bracket(d, e), bracket(aw, e))
    concl = [("s-form %s" % pos, p) for pos, p in
             hypothesis_components(bracket(m["a3"], probe1), drhs1)]
    concl += [("Ibar-form %s" % pos, p) for pos, p in
              hypothesis_components(bracket(m["a3"], probe2), drhs2)]
    notes = ["the displayed right hand side uses the built implementer d; "
             "the derivation routes through the single-index witness and "
             "the prior identity at index %d" % anchor]
    return ring, hyps, concl, notes


def _build_5_8(n, indices):
    return _build_58_59(n, indices, "5.8")


def _build_5_9(n, indices):
    return _build_58_59(n, indices, "5.9")


def _build_5_7(n, indices):
    i, k = indices
    sym = SkewSymbols(n).declare("A").declare("a2")
    for t in range(1, n):
        sym.declare("w%d" % t, support=(t, t + 1))
        sym.declare("b%d" % t)
    ring, m = sym.build()
    x0 = staircase(n, ring=ring)
    hyps = []
    for t in range(1, n):
        x_t = x0 - s_elem(n, t, t + 1, ring)
        if t > 1:
            x_t = x_t - s_elem(n, t - 1, t, ring)
        if t + 2 <= n:
            x_t = x_t - s_elem(n, t + 1, t + 2, ring)
        hyps += _eq("chain%d" % t,
                    bracket(m["a2"], x0),
                    bracket(m["w%d" % t], s_elem(n, t, t + 1, ring))
                    + bracket(m["b%d" % t], x_t))
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
    "5.8": (_build_5_8, lambda n: (1, 2), "eq 5.8"),
    "5.9": (_build_5_9, lambda n: (1, 2), "eq 5.9"),
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
