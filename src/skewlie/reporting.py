"""Pass/fail bookkeeping for verification campaigns.

A VerificationReport collects CheckRecord rows. Each record carries the
check name, the identifier of the statement it exercises (the identity
catalog uses ids like "lemma 3.41" or "eq 5.6"; see the README table),
the outcome and a payload of JSON-friendly details. Reports render to
JSON with stable key order and to a short text summary.
"""

from __future__ import annotations

import json
import random
import time

from .errors import ConfigError

SCHEMA_VERSION = 1


def require_campaign_args(trials, random_checks):
    """A campaign needs at least one trial and random_checks >= 0; anything
    else raises ConfigError before a trial runs, not a vacuous pass."""
    if trials < 1:
        raise ConfigError("need at least one trial, got %d" % trials)
    if random_checks < 0:
        raise ConfigError("random_checks must be >= 0, got %d"
                          % random_checks)


def seeded_trials(seed, trials):
    """The campaigns' seed policy: yields (trial, trial_seed, rng), where
    a master Random(seed) draws each trial_seed and the trial's inputs
    come from rng = Random(trial_seed), which replays them."""
    master = random.Random(seed)
    for trial in range(trials):
        trial_seed = master.randrange(2 ** 32)
        yield trial, trial_seed, random.Random(trial_seed)


class CheckRecord:
    __slots__ = ("name", "anchor", "passed", "payload")

    def __init__(self, name, anchor, passed, payload):
        self.name = name
        self.anchor = anchor
        self.passed = bool(passed)
        self.payload = payload

    def to_dict(self):
        return {
            "anchor": self.anchor,
            "name": self.name,
            "payload": self.payload,
            "status": "pass" if self.passed else "fail",
        }


class VerificationReport:
    """Mutable accumulator of check outcomes. Failures are recorded, never raised."""

    def __init__(self, title, anchor="", config=None, seed=None):
        self.title = title
        self.anchor = anchor
        self.config = dict(config) if config else {}
        self.seed = seed
        self.records = []
        self.notes = []
        self._t0 = time.monotonic()
        self.duration = 0.0

    def add(self, name, passed, anchor=None, **payload):
        """Record one check. Returns the boolean outcome for chaining."""
        rec = CheckRecord(name, self.anchor if anchor is None else anchor,
                          passed, payload)
        self.records.append(rec)
        self.duration = time.monotonic() - self._t0
        return rec.passed

    def add_report(self, name, sub, anchor=None, **payload):
        """Record a sub-report as one check, naming its first 5 failures."""
        return self.add(name, sub.passed, anchor=anchor,
                        failures=[r.name for r in sub.failures()][:5],
                        **payload)

    def note(self, text):
        self.notes.append(text)

    def extend(self, other):
        """Absorb another report's records and notes."""
        self.records.extend(other.records)
        for t in other.notes:
            if t not in self.notes:
                self.notes.append(t)
        self.duration = time.monotonic() - self._t0

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    def failures(self):
        return [r for r in self.records if not r.passed]

    def counts(self):
        failed = len(self.failures())
        return {"total": len(self.records), "passed": len(self.records) - failed,
                "failed": failed}

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "title": self.title,
            "config": self.config,
            "seed": self.seed,
            "duration_seconds": round(self.duration, 6),
            "summary": self.counts(),
            "notes": list(self.notes),
            "checks": [r.to_dict() for r in self.records],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self):
        c = self.counts()
        lines = ["%s: %d checks, %d passed, %d failed"
                 % (self.title, c["total"], c["passed"], c["failed"])]
        for r in self.failures()[:20]:
            lines.append("  FAIL %s [%s] %s" % (r.name, r.anchor,
                                                json.dumps(r.payload, sort_keys=True)))
        return "\n".join(lines)
