"""Symbolic certificate machinery.

Frozen combinations below were computed once by hand from the bracket
component tables and cross-checked against the solver output; the suite
fails if the certificates drift.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from skewlie import GAUSS, lie, matrices, symcheck
from skewlie.errors import (
    DimensionMismatch,
    EqualIndices,
    IndexOutOfRange,
    UnknownLemma,
)
from skewlie.lie import bracket, ie_diag, s_elem, staircase
from skewlie.linsolve import ReducedSystem
from skewlie.matrices import Matrix, from_entries, star_transpose
from skewlie.rings import (
    FunctionRing,
    GaussianField,
    GaussianRational,
    PolyElement,
)
from skewlie.symcheck import (
    VARIANT_LEMMAS,
    SkewSymbols,
    certify,
    certify_lemma,
    hypothesis_components,
    known_lemmas,
)

ALL_LEMMAS = ("2.5", "3.4.1", "3.4.2", "3.41", "3.6", "5.1", "5.2", "5.3",
              "5.4", "5.5", "5.6", "5.7", "5.8", "5.9", "5.10")


def combo_dict(component):
    return {h: c for h, c in component.combination}


def assert_star_compatible(ring, ce):
    """Paired variables take conjugate values, star-fixed ones real
    values, so the assignment describes skew-adjoint matrices."""
    names = ring.var_names
    for v, p in enumerate(ring.star_perm):
        value = ce.assignment[names[v]]
        if p == v:
            assert value.im == 0, names[v]
        else:
            assert ce.assignment[names[p]] == value.conjugate(), names[v]


class TestSkewSymbols:
    def test_matrix_is_skew_adjoint(self):
        ring, m = SkewSymbols(3).declare("a").build()
        a = m["a"]
        assert star_transpose(a) == -a

    def test_zero_diagonal_mode(self):
        ring, m = SkewSymbols(3).declare("a", "zero").build()
        a = m["a"]
        assert all(not a.entry(i, i) for i in range(1, 4))
        assert star_transpose(a) == -a

    def test_support_restricts_entries(self):
        ring, m = SkewSymbols(4).declare("w", support=(2, 3)).build()
        w = m["w"]
        for i in range(1, 5):
            for j in range(1, 5):
                inside = i in (2, 3) and j in (2, 3) and i != j or \
                    i == j and i in (2, 3)
                assert bool(w.entry(i, j)) == inside

    def test_shared_ring_across_matrices(self):
        ring, m = SkewSymbols(3).declare("a").declare("b").build()
        assert m["a"].ring is ring and m["b"].ring is ring
        assert m["a"] != m["b"]

    def test_bad_diagonal_mode(self):
        with pytest.raises(ValueError):
            SkewSymbols(3).declare("a", "funky")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            SkewSymbols(3).declare("a").declare("a")

    def test_derived_variable_clash_rejected(self):
        # the star partner of a_1_2 is ac_1_2, which unknown "ac" also names
        with pytest.raises(ValueError):
            SkewSymbols(3).declare("a").declare("ac").build()

    def test_star_permutes_and_conjugates(self):
        ring, m = SkewSymbols(3).declare("a").build()
        a = m["a"]
        z = a.entry(1, 2) * (1 + 2 * GAUSS.imag) + a.entry(1, 1)
        starred = ring.star(z)
        assert starred == -a.entry(2, 1) * (1 - 2 * GAUSS.imag) \
            - a.entry(1, 1)
        assert ring.star(starred) == z

    def test_form_arithmetic_drops_zeros(self):
        ring, m = SkewSymbols(3).declare("a").build()
        x, y = m["a"].entry(1, 2), m["a"].entry(1, 3)
        assert (x + y) - y == x
        assert x - x == ring.zero and 0 * x == ring.zero
        assert (x * GAUSS.imag).evaluate([(1, 0)] * 9) == (0, 1)
        assert (x + y).evaluate([(2, 1)] * 9) == (4, 2)

    def test_form_scalars_are_gaussian_integers(self):
        ring, m = SkewSymbols(3).declare("a").build()
        x = m["a"].entry(1, 2)
        assert x * GaussianRational(4, -2, 2) == x * (2 - GAUSS.imag)
        with pytest.raises(TypeError):
            x * GaussianRational(1, 0, 2)
        with pytest.raises(TypeError):
            Fraction(1, 3) * x


class TestHypothesisComponents:
    def test_labels_and_count(self):
        ring, m = SkewSymbols(3).declare("a").build()
        comps = hypothesis_components(m["a"])
        assert ("(1,2)", m["a"].entry(1, 2)) in comps
        assert len(comps) == 9

    def test_zero_components_dropped(self):
        ring, m = SkewSymbols(3).declare("a").build()
        assert hypothesis_components(m["a"], m["a"]) == []

    def test_quadratic_entry_rejected(self):
        # forms have no product, so bracketing two unknowns cannot build
        ring, m = SkewSymbols(3).declare("a").declare("b").build()
        with pytest.raises(TypeError):
            bracket(m["a"], m["b"])

    def test_constant_entry_rejected(self):
        ring, m = SkewSymbols(3).declare("a").build()
        with pytest.raises(TypeError):
            Matrix(ring, [[GAUSS.one if r == c else ring.zero
                           for c in range(3)] for r in range(3)])
        with pytest.raises(TypeError):
            ring.scalar(GAUSS.one)


def _chain_elements(n):
    """The eq 5.7 chain elements x_t = x0 - s[t-1,t] - s[t,t+1] -
    s[t+1,t+2] for t = 1..n-1, dropping the terms outside 1..n."""
    x0 = staircase(n)
    chain = []
    for t in range(1, n):
        x_t = x0 - s_elem(n, t, t + 1)
        if t > 1:
            x_t = x_t - s_elem(n, t - 1, t)
        if t + 2 <= n:
            x_t = x_t - s_elem(n, t + 1, t + 2)
        chain.append(x_t)
    return chain


def _bracket_factors(n):
    """The Gaussian factors the catalog brackets unknowns with: every
    canonical basis element, the staircase, the eq 5.7 chain elements
    x_t, e + sign*s for e = I*e_t at both ends of s = s[i,k], and an
    integer matrix of non-unit entries such as 2 - i."""
    x0 = staircase(n)
    chain = _chain_elements(n)
    displays = [ie_diag(n, (i, k)[pos]) + sign * s_elem(n, i, k)
                for i, k in ((1, 2), (1, n), (2, n))
                for pos, sign in ((0, 1), (1, -1))]
    non_units = from_entries(n, {
        (i, j): GaussianRational(3 + i - 2 * j, i * j - 2)
        for i in range(1, n + 1) for j in range(1, n + 1)})
    assert non_units.entry(1, 1) == 2 - GAUSS.imag
    return (list(lie.canonical_basis(n)) + [x0] + chain + displays
            + [(2 - GAUSS.imag) * x0, non_units])


class TestBracketKernel:
    """symcheck.bracket against the ring-generic walk it replaces."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_generic_walk_form_by_form(self, n):
        sym = SkewSymbols(n).declare("a").declare("w", support=(2, n)) \
                            .declare("z", "zero")
        ring, m = sym.build()
        factors = _bracket_factors(n)
        for name in ("a", "w", "z"):
            # a difference of unknowns has forms of two terms
            for x in (m[name], m[name] - m["a" if name != "a" else "z"]):
                for g in factors:
                    got = symcheck.bracket(x, g)
                    want = matrices._sparse_commutator(x, g)
                    assert got.ring is ring and got.n == n
                    assert [[list(f.items()) for f in r] for r in got.rows] \
                        == [[list(f.items()) for f in r] for r in want.rows]

    def test_two_unknowns_rejected(self):
        ring, m = SkewSymbols(3).declare("a").declare("b").build()
        with pytest.raises(TypeError, match="Gaussian second factor"):
            symcheck.bracket(m["a"], m["b"])

    def test_function_ring_factor_rejected(self):
        ring, m = SkewSymbols(3).declare("a").build()
        with pytest.raises(TypeError, match="2 points"):
            symcheck.bracket(m["a"], staircase(3, FunctionRing(2)))

    def test_denominator_rejected(self):
        # the rule of Form * GaussianRational(1, 0, 2)
        ring, m = SkewSymbols(3).declare("a").build()
        with pytest.raises(TypeError, match="denominator 2"):
            symcheck.bracket(m["a"], GaussianRational(1, 0, 2)
                             * s_elem(3, 1, 2))


class TestCertifyCore:
    def test_star_closure_is_used(self):
        ring, m = SkewSymbols(3).declare("a").build()
        a = m["a"]
        # knowing entry (1,2) vanishes forces entry (2,1) via the star
        out = certify(ring, [("h", a.entry(1, 2))],
                      [("mirror", a.entry(2, 1))])
        assert out[0].implied
        assert list(combo_dict(out[0])) == ["star:h"]

    def test_counterexample_is_realizable(self):
        ring, m = SkewSymbols(3).declare("a").build()
        a = m["a"]
        out = certify(ring, [("h", a.entry(1, 2))],
                      [("other", a.entry(1, 3))])
        ce = out[0]
        assert not ce.implied
        assert ce.conclusion_value != GAUSS.zero
        assert ce.assignment["a_1_2"] == GAUSS.zero
        assert_star_compatible(ring, ce)

    def test_counterexample_from_the_imaginary_branch(self):
        # a + a' vanishes on this conclusion, so only (x - x')/I separates
        ring, m = SkewSymbols(3).declare("a").build()
        a = m["a"]
        ce, = certify(ring, [], [("sum", a.entry(1, 2) + a.entry(2, 1))])
        assert not ce.implied
        assert ce.assignment["a_1_2"] == -GAUSS.imag
        assert ce.assignment["ac_1_2"] == GAUSS.imag
        assert ce.conclusion_value == -2 * GAUSS.imag
        assert_star_compatible(ring, ce)

    def test_star_rows_in_the_span_are_skipped(self):
        # star:h1 == -h2 and star:h2 == -h1 do not enter the system, so its
        # fourth row is star:h3, the sixth of the star-closed hypotheses
        ring, m = SkewSymbols(3).declare("a").build()
        a = m["a"]
        hyps = [("h1", a.entry(1, 2)), ("h2", a.entry(2, 1)),
                ("h3", a.entry(1, 3))]
        out = certify(ring, hyps,
                      [("mirror", a.entry(3, 1)),
                       ("sum", a.entry(1, 2) + 2 * a.entry(3, 1)),
                       ("free", a.entry(2, 3))])
        assert combo_dict(out[0]) == {"star:h3": -GAUSS.one}
        assert combo_dict(out[1]) == {"h1": GAUSS.one,
                                      "star:h3": -2 * GAUSS.one}
        ce = out[2]
        assert not ce.implied
        names = ring.var_names
        for _, h in hyps:
            for form in (h, ring.star(h)):
                assert sum((GaussianRational(re, im) * ce.assignment[names[v]]
                            for v, (re, im) in form.items()),
                           GAUSS.zero) == GAUSS.zero
        assert_star_compatible(ring, ce)

    def test_empty_conclusion_certifies_empty(self):
        ring, m = SkewSymbols(3).declare("a").build()
        out = certify(ring, [], [("nothing", ring.zero)])
        assert out[0].implied and out[0].combination == []

    def test_wrong_combination_fails_re_expansion(self, monkeypatch):
        # a combination that does not add up to the conclusion is caught
        # by the integer re-expansion, not returned as a certificate
        ring, m = SkewSymbols(3).declare("a").build()
        a = m["a"]
        express = ReducedSystem.express

        def doubled(self, row):
            residual, comb = express(self, row)
            return residual, {j: 2 * c for j, c in comb.items()}

        monkeypatch.setattr(ReducedSystem, "express", doubled)
        with pytest.raises(AssertionError, match="certificate for 'mirror' "
                                                 "fails re-expansion"):
            certify(ring, [("h", a.entry(1, 2))],
                    [("mirror", a.entry(2, 1))])

    def test_counterexample_breaking_a_hypothesis_is_caught(self,
                                                            monkeypatch):
        # a kernel vector that is nonzero on the hypothesis a_1_2 = 0
        # gives a counterexample that breaks it, which is not returned
        ring, m = SkewSymbols(3).declare("a").build()
        a = m["a"]
        monkeypatch.setattr(ReducedSystem, "int_nullvector",
                            lambda self, free: (1, {v: (1, 0) for v in
                                                    range(self.ncols)}))
        with pytest.raises(AssertionError,
                           match="counterexample violates hypothesis h$"):
            certify(ring, [("h", a.entry(1, 2))],
                    [("other", a.entry(1, 3))])


class TestCanonicalCertificates:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("lemma", ALL_LEMMAS)
    def test_all_lemmas_certify(self, lemma, n):
        assert certify_lemma(lemma, n).all_implied

    def test_certificates_build_no_polynomials(self, monkeypatch):
        # unknowns are forms and every bracket partner is a shared
        # Gaussian basis element, so no polynomial or per-table basis copy
        # is ever made
        memo = {}
        monkeypatch.setattr(lie, "_elem_memo", memo)
        made = []
        init = PolyElement.__init__

        def counting_init(self, *args):
            made.append(1)
            init(self, *args)

        monkeypatch.setattr(PolyElement, "__init__", counting_init)
        for n in (3, 4, 5):
            for lemma in known_lemmas():
                assert certify_lemma(lemma, n).all_implied
        assert memo
        assert all(isinstance(key[2], GaussianField) for key in memo)
        assert made == []

    def test_registry_is_complete(self):
        assert set(known_lemmas()) == set(ALL_LEMMAS)

    def test_frozen_3_4_1(self):
        cert = certify_lemma("3.4.1", 3)
        offsum, diagdiff = cert.components
        assert combo_dict(offsum) == {"commute@(1,1)": -GAUSS.one}
        assert combo_dict(diagdiff) == {"commute@(1,2)": GAUSS.one}

    def test_frozen_5_1(self):
        cert = certify_lemma("5.1", 3)
        first, second = cert.components
        assert combo_dict(first) == {"additive@(1,2)": -GAUSS.imag}
        assert combo_dict(second) == {"additive@(2,1)": GAUSS.imag}

    def test_frozen_5_7_telescopes(self):
        cert = certify_lemma("5.7", 3)
        combo = combo_dict(cert.components[0])
        assert combo == {"chain1@(1,2)": -GAUSS.one,
                         "chain2@(2,3)": -GAUSS.one,
                         "coherence1": GAUSS.one,
                         "anchor_top": -GAUSS.one,
                         "anchor_bottom": GAUSS.one}

    def test_3_41_all_middle_indices(self):
        for p in (3, 4):
            assert certify_lemma("3.41", 4, (1, 2, p)).all_implied

    def test_2_5_certifies_every_component(self):
        cert = certify_lemma("2.5", 4)
        assert all(c.implied for c in cert.components)
        labels = {c.label for c in cert.components}
        # the corner components vanish identically: the diagonal shift
        # absorbs them, with the same coefficient on both corners
        assert "component (1,2)" not in labels
        assert "component (2,1)" not in labels
        assert "component (1,1)" in labels
        assert "component (3,1)" in labels
        # positions away from rows and columns 1, 2 never appear at all
        assert "component (3,4)" not in labels

    def test_5_4_needs_star_closure(self):
        cert = certify_lemma("5.4", 3)
        used = set()
        for comp in cert.components:
            used.update(combo_dict(comp))
        assert any(h.startswith("star:") for h in used)

    def test_5_2_is_definitional(self):
        cert = certify_lemma("5.2", 3)
        assert cert.all_implied
        assert cert.components[0].combination == []
        assert any("definitional" in note for note in cert.notes)


class TestProbes:
    def test_3_6_fails_off_the_extreme_pair(self):
        cert = certify_lemma("3.6", 4, (1, 2))
        ce = cert.components[0]
        assert not ce.implied
        assert ce.conclusion_value != GAUSS.zero

    def test_3_6_counterexample_reassembles(self):
        # rebuild concrete matrices from the assignment and recheck the
        # hypothesis and the violated conclusion at the matrix level
        cert = certify_lemma("3.6", 4, (1, 2))
        ce = cert.components[0]
        vals = ce.assignment

        def concrete(name):
            grid = [[GAUSS.zero] * 4 for _ in range(4)]
            for i in range(1, 5):
                grid[i - 1][i - 1] = GAUSS.imag * vals["%s_d%d" % (name, i)]
                for j in range(i + 1, 5):
                    grid[i - 1][j - 1] = vals["%s_%d_%d" % (name, i, j)]
                    grid[j - 1][i - 1] = -vals["%sc_%d_%d" % (name, i, j)]
            return Matrix(GAUSS, grid)

        c, b = concrete("c"), concrete("b")
        assert star_transpose(c) == -c and star_transpose(b) == -b
        x0 = staircase(4)
        diff = c - b
        assert bracket(diff, x0) == bracket(diff, x0) * 0
        assert diff.entry(1, 1) - diff.entry(2, 2) == ce.conclusion_value

    def test_3_6_symmetric_interior_pair_is_forced(self):
        # at n=4 the commutation also pins the mirror pair (2,3)
        assert certify_lemma("3.6", 4, (2, 3)).all_implied

    def test_5_7_fails_off_the_extreme_pair(self):
        cert = certify_lemma("5.7", 4, (1, 2))
        assert not cert.all_implied
        assert cert.components[0].conclusion_value != GAUSS.zero

    @pytest.mark.parametrize("lemma", ["5.5", "5.6", "5.10"])
    def test_independent_witnesses_break_the_displays(self, lemma):
        cert = certify_lemma(lemma, 3, variant="independent")
        assert not cert.all_implied
        for ce in cert.counterexamples():
            assert ce.conclusion_value != GAUSS.zero

    @pytest.mark.parametrize("lemma", ["5.5", "5.6", "5.10"])
    def test_shared_witnesses_certify(self, lemma):
        assert certify_lemma(lemma, 3).all_implied


class TestEq57Chain:
    """The staircase chain behind eq 5.7."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_verdict_at_every_pair(self, n):
        # the chain telescopes only over the full walk: exactly the
        # extreme pairs (1,n) and (n,1) are implied, and every other
        # ordered pair comes back with a concrete counterexample
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                if i == k:
                    continue
                cert = certify_lemma("5.7", n, (i, k))
                assert cert.all_implied == ({i, k} == {1, n}), (i, k)
                for ce in cert.counterexamples():
                    assert ce.conclusion_value != GAUSS.zero, (i, k)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_link_unknown_misses_the_read_entry(self, n):
        # x_t has a zero row t and a zero column t+1, so [b, x_t] vanishes
        # at (t, t+1) for every skew-adjoint b: a link's own unknown never
        # reaches the one entry the certificate reads
        ring, m = SkewSymbols(n).declare("b").build()
        for t, x_t in enumerate(_chain_elements(n), 1):
            assert all(x_t.entry(t, j) == GAUSS.zero
                       for j in range(1, n + 1))
            assert all(x_t.entry(j, t + 1) == GAUSS.zero
                       for j in range(1, n + 1))
            assert symcheck.bracket(m["b"], x_t).entry(t, t + 1) == ring.zero


class TestLemmaInterface:
    def test_unknown_lemma(self):
        with pytest.raises(UnknownLemma):
            certify_lemma("9.9", 3)

    def test_numeric_id_rejected(self):
        # str(5.10) is "5.1": a float must not certify another statement
        with pytest.raises(UnknownLemma):
            certify_lemma(5.10, 3)

    def test_equal_indices(self):
        with pytest.raises(EqualIndices):
            certify_lemma("5.1", 3, (2, 2))

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            certify_lemma("5.1", 3, (1, 7))

    def test_too_small(self):
        with pytest.raises(IndexOutOfRange):
            certify_lemma("5.1", 2)

    def test_variant_rejected_elsewhere(self):
        with pytest.raises(UnknownLemma):
            certify_lemma("5.1", 3, variant="independent")

    @pytest.mark.parametrize("lemma,indices,expected", [
        ("3.41", (1, 2), 3),
        ("2.5", (1, 2, 3), 2),
        ("5.3", (1, 2), 1),
    ])
    def test_wrong_index_count(self, lemma, indices, expected):
        with pytest.raises(DimensionMismatch) as exc:
            certify_lemma(lemma, 4, indices)
        assert "%d indices, got %d" % (expected, len(indices)) \
            in str(exc.value)

    def test_unknown_variant(self):
        with pytest.raises(UnknownLemma):
            certify_lemma("5.5", 3, variant="foo")

    def test_json_shape(self):
        d = certify_lemma("3.4.1", 3).to_dict()
        assert d["lemma"] == "3.4.1" and d["n"] == 3
        assert d["all_implied"] is True
        assert d["indices"] == [1, 2]
        comp = d["components"][0]
        assert comp["reexpanded"] is True
        assert {"hypothesis", "coefficient"} == set(comp["combination"][0])

    def test_counterexample_json_shape(self):
        d = certify_lemma("3.6", 4, (1, 2)).to_dict()
        comp = d["components"][0]
        assert comp["implied"] is False
        ce = comp["counterexample"]
        assert ce["conclusion_value"] != "0"
        assert isinstance(ce["assignment"], dict)


def test_refuting_probes_fingerprint():
    """The sha256 of criterion 8's refuting probes at n = 4, as sorted-key
    JSON, so a change to any counterexample assignment is seen. A
    deliberate change updates the pin and is logged in CHANGES.md."""
    probes = [(lemma, None, "independent") for lemma in VARIANT_LEMMAS]
    probes += [("3.6", (1, 2), None), ("5.7", (1, 2), None)]
    text = json.dumps([certify_lemma(lemma, 4, idx, variant=v).to_dict()
                       for lemma, idx, v in probes], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "0a4d5e7744538f0410a9d2aafe8dbfa41bbcdb4e0f5083b1f416d1a5460adffa"


def test_catalog_fingerprint_n6():
    """The sha256 of every registered certificate at n = 6, as sorted-key
    JSON. It covers the largest system the catalog builds (5.3 states 90
    hypotheses over 432 variables; 5.5, 5.6 and 5.10 state 80 over 180),
    so any change to a combination coefficient or a counterexample is
    seen."""
    text = json.dumps([certify_lemma(lemma, 6).to_dict()
                       for lemma in known_lemmas()], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "266dab85b45bbbc75eee0be2e62b64e437deb432c7661d4bbbc8a38af621b4d7"


def test_display_fingerprint_off_default_indices():
    """The sha256 of the display statements 5.5, 5.6, 5.8, 5.9 and 5.10,
    and of the independent probes of 5.5, 5.6 and 5.10, at n = 5 with the
    indices (2, 4) and (4, 2), as sorted-key JSON. The other pins take
    these statements at their default indices (1, 2) only; here both
    indices are interior and the row index k comes both after and before
    the column index i."""
    displays = ("5.5", "5.6", "5.8", "5.9", "5.10")
    runs = [(lemma, idx, None) for lemma in displays
            for idx in ((2, 4), (4, 2))]
    runs += [(lemma, idx, "independent") for lemma in VARIANT_LEMMAS
             for idx in ((2, 4), (4, 2))]
    text = json.dumps([certify_lemma(lemma, 5, idx, variant=v).to_dict()
                       for lemma, idx, v in runs], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "6e41ec5b6b82c13bea6b3fa075c0948c1127186f49f2e89b181e38e7c31b1384"


def test_catalog_fingerprint_n3_to_n8():
    """One sha256 over n = 3..8, updated in order with the sorted-key JSON
    of every registered certificate at its defaults, then the independent
    probes, then 3.6 and 5.7 at (1, 2) and (2, 3). It pins every
    combination and counterexample of the catalog at every size the
    acceptance tests and the bench reach."""
    digest = hashlib.sha256()
    for n in range(3, 9):
        runs = [(lemma, None, None) for lemma in known_lemmas()]
        runs += [(lemma, None, "independent") for lemma in VARIANT_LEMMAS]
        runs += [(lemma, idx, None) for lemma in ("3.6", "5.7")
                 for idx in ((1, 2), (2, 3))]
        for lemma, idx, v in runs:
            cert = certify_lemma(lemma, n, idx, variant=v)
            digest.update(json.dumps(cert.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == \
        "d3323bd98af930cc3274aabcd745a3412c63ee9035d2b6314f2f071778bc9d8f"


def test_catalog_fingerprint_n10_n12():
    """One sha256 over n = 10 and 12, built as the n = 3..8 pin is. At
    n = 12 the eq 5.3 system alone states 462 hypotheses over 3,456
    variables, so the pin covers row reductions far longer than the bench
    and the other Tier-1 tests reach."""
    digest = hashlib.sha256()
    for n in (10, 12):
        runs = [(lemma, None, None) for lemma in known_lemmas()]
        runs += [(lemma, None, "independent") for lemma in VARIANT_LEMMAS]
        runs += [(lemma, idx, None) for lemma in ("3.6", "5.7")
                 for idx in ((1, 2), (2, 3))]
        for lemma, idx, v in runs:
            cert = certify_lemma(lemma, n, idx, variant=v)
            digest.update(json.dumps(cert.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == \
        "97e5c4a818ab11c81004af5a65ee3950d6b98aa8d697fedf7d621de250cf723b"


def test_eq_5_3_fingerprint_every_index():
    """One sha256 over n = 3..8, updated in order with the sorted-key JSON
    of eq 5.3 at every index i = 1..n. The other pins take eq 5.3 at its
    default index 1 only; this one covers the interior and last rows,
    whose pair witnesses mix (p, i) and (i, q)."""
    digest = hashlib.sha256()
    for n in range(3, 9):
        for i in range(1, n + 1):
            cert = certify_lemma("5.3", n, (i,))
            digest.update(json.dumps(cert.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == \
        "be07fee54f5c172eb0ebe90a1fac723fdd8f7f1806960ee6f1d89252776e45ff"


def test_implied_certificates_fingerprint():
    """One sha256 over the implied certificates alone, updated in order
    with the sorted-key JSON of every registered certificate at its
    defaults for n = 3..12, then eq 5.7 at (n, 1) for n = 3..16 and at
    (1, n) for n = 13..16. No counterexample enters it, so it holds
    across a change that only trims unknowns a certificate never reads."""
    digest = hashlib.sha256()
    runs = [(lemma, n, None) for n in range(3, 13) for lemma in known_lemmas()]
    runs += [("5.7", n, (n, 1)) for n in range(3, 17)]
    runs += [("5.7", n, (1, n)) for n in range(13, 17)]
    for lemma, n, idx in runs:
        cert = certify_lemma(lemma, n, idx)
        assert cert.all_implied, (lemma, n, idx)
        digest.update(json.dumps(cert.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == \
        "9c9d3392d1a7615d26afebbf601496f0a9547de74fc7984a11a83551ba0ad169"
