"""Reporting layer: the shared seed policy, sub-report folds, and pinned
report fingerprints of the campaigns and the CLI."""

import hashlib
import json
import random

import pytest

from skewlie.cli import build_parser, run
from skewlie.localder import lift_campaign, localder_campaign
from skewlie.reporting import VerificationReport, seeded_trials
from skewlie.rings import GAUSS, FunctionRing
from skewlie.twolocal import twolocal_campaign


class TestSeededTrials:
    def test_distinct_seeds_and_replayable_rngs(self):
        trials = list(seeded_trials(5, 20))
        assert [t for t, _, _ in trials] == list(range(20))
        seeds = [s for _, s, _ in trials]
        assert len(set(seeds)) == 20
        for _, s, rng in trials:
            assert rng.random() == random.Random(s).random()

    def test_same_seed_same_stream(self):
        first = [(t, s, rng.random()) for t, s, rng in seeded_trials(7, 10)]
        again = [(t, s, rng.random()) for t, s, rng in seeded_trials(7, 10)]
        assert first == again
        other = [s for _, s, _ in seeded_trials(8, 10)]
        assert [s for _, s, _ in first] != other


class TestAddReport:
    def test_caps_failures_and_passes_anchor(self):
        sub = VerificationReport("sub")
        for k in range(8):
            sub.add("check %d" % k, k % 4 == 0)
        rep = VerificationReport("outer", anchor="theorem 4.4")
        assert rep.add_report("fold", sub, anchor="eq 5.1", trial=3) is False
        rec = rep.records[0]
        assert (rec.name, rec.anchor, rec.passed) == ("fold", "eq 5.1", False)
        assert rec.payload == {"failures": ["check 1", "check 2", "check 3",
                                            "check 5", "check 6"],
                               "trial": 3}

    def test_default_anchor_and_passing_sub(self):
        sub = VerificationReport("sub")
        sub.add("fine", True)
        rep = VerificationReport("outer", anchor="theorem 2.6")
        assert rep.add_report("fold", sub) is True
        rec = rep.records[0]
        assert rec.anchor == "theorem 2.6"
        assert rec.payload == {"failures": []}


def _cli(*argv):
    return run(build_parser().parse_args(list(argv)))


@pytest.mark.parametrize("make, digest", [
    pytest.param(
        lambda: twolocal_campaign(GAUSS, 4, 3, 11, p_sweep=True),
        "9c120278e1d8d140c2781eee34129fca66abe9fbb609e789017e0063db97b234",
        id="twolocal-gauss-sweep"),
    pytest.param(
        lambda: twolocal_campaign(FunctionRing(2), 3, 2, 12, gauge="none"),
        "86873a52758e9f8c1b424b7e0af59f03a41dbfa6dbdab6400ab3b16b77702c85",
        id="twolocal-fnring-nogauge"),
    pytest.param(
        lambda: localder_campaign(GAUSS, 4, 3, 13),
        "0f0610e0850fd2e1745b22657545f21f09e717528f0e1bf24b68d65ec23b160c",
        id="local-gauss"),
    pytest.param(
        lambda: localder_campaign(FunctionRing(2), 3, 2, 14),
        "5632bc61755ff461571d815ff5e2438d611e580f939af3406ffa6b516c2b14ac",
        id="local-fnring"),
    pytest.param(
        lambda: lift_campaign(3, 2, 2, 15),
        "22e48b42e629fc53ec497f38112240fb9b3b5c3d91ff50a24c63fce0e3f564f9",
        id="lift"),
    pytest.param(
        lambda: _cli("--mode", "all", "--n", "3..4", "--trials", "2"),
        "b10b3d12f27f3658773f64605b4a0b321abd8c779b560e48cf16abc38e59c95f",
        id="cli-all"),
    pytest.param(
        lambda: _cli("--mode", "local", "--ring", "fnring", "--n", "3",
                     "--trials", "2"),
        "276a04f6c9ba23e9f325ef95625987eacaad12dce1e417ef058360254dc3515e",
        id="cli-local-fnring"),
    pytest.param(
        lambda: _cli("--mode", "local", "--ring", "poly", "--n", "3",
                     "--trials", "2"),
        "91a66a696d9b3b7a8985c0d1b686169b84b62e9fe67ea46d878c4d7041ab8b00",
        id="cli-local-poly"),
    pytest.param(
        lambda: _cli("--mode", "twolocal", "--ring", "poly", "--n", "3",
                     "--trials", "2", "--p-sweep"),
        "ba67e24471efe0a507c1f5517de188d2d66e4f95d84ccbfbe492afbe652378fc",
        id="cli-twolocal-poly-sweep"),
    pytest.param(
        # the staircase brackets of this certificate are dense polynomial
        # brackets
        lambda: _cli("--mode", "symcheck", "--n", "6", "--lemma", "5.7"),
        "f99f724f77c24a765dab1f1d087ad1d457be2816e661b7e51b4cf8b5d889ef81",
        id="cli-symcheck-5.7-n6"),
])
def test_report_fingerprint(make, digest):
    """The sha256 of a report's to_dict() without duration_seconds, as
    compact sorted-key JSON, is pinned for fixed seeds, so a refactor
    cannot change a report unnoticed. A deliberate report change updates
    the pin here and is logged in CHANGES.md."""
    data = make().to_dict()
    data.pop("duration_seconds")
    text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
