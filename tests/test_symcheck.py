"""Symbolic certificate machinery.

Frozen combinations below were computed once by hand from the bracket
component tables and cross-checked against the solver output; the suite
fails if the certificates drift.
"""

import hashlib
import json

import pytest

from skewlie import GAUSS
from skewlie.errors import (
    DimensionMismatch,
    EqualIndices,
    IndexOutOfRange,
    NonLinearHypothesis,
    UnknownLemma,
)
from skewlie.lie import bracket, staircase
from skewlie.matrices import Matrix, star_transpose
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

    def test_same_declarations_share_one_ring(self):
        # memoized basis elements then carry the unknowns' own ring
        ring, _ = SkewSymbols(3).declare("a").build()
        again, _ = SkewSymbols(3).declare("a").build()
        other, _ = SkewSymbols(3).declare("a", diagonal="zero").build()
        assert again is ring and other != ring

    def test_bad_diagonal_mode(self):
        with pytest.raises(ValueError):
            SkewSymbols(3).declare("a", "funky")


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
        ring, m = SkewSymbols(3).declare("a").declare("b").build()
        with pytest.raises(NonLinearHypothesis):
            hypothesis_components(bracket(m["a"], m["b"]))

    def test_constant_entry_rejected(self):
        ring, m = SkewSymbols(3).declare("a").build()
        shifted = m["a"] + Matrix(ring, [[ring.one if r == c else ring.zero
                                          for c in range(3)]
                                         for r in range(3)])
        with pytest.raises(NonLinearHypothesis):
            hypothesis_components(shifted)


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

    def test_empty_conclusion_certifies_empty(self):
        ring, m = SkewSymbols(3).declare("a").build()
        out = certify(ring, [], [("nothing", ring.zero)])
        assert out[0].implied and out[0].combination == []


class TestCanonicalCertificates:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("lemma", ALL_LEMMAS)
    def test_all_lemmas_certify(self, lemma, n):
        assert certify_lemma(lemma, n).all_implied

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
        "539462b9cac4f89cf0bba7bfe27638c5ae0cfa154f6e635814b82f1cb5c67e78"


def test_catalog_fingerprint_n6():
    """The sha256 of every registered certificate at n = 6, as sorted-key
    JSON. It covers the largest systems the catalog builds (5.3 reduces
    540 rows over 792 variables), so any change to a combination
    coefficient or a counterexample is seen."""
    text = json.dumps([certify_lemma(lemma, 6).to_dict()
                       for lemma in known_lemmas()], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "266dab85b45bbbc75eee0be2e62b64e437deb432c7661d4bbbc8a38af621b4d7"
