"""Pytest hooks that echo the acceptance checks as one line each, and
the shared `built` fixture that counts scalar constructions.

Tests marked with the `criterion` decorator from test_acceptance.py get a
PASS/FAIL line in a dedicated terminal section after the run, so the
acceptance verdicts are readable without scanning the full test output.
"""

import pytest

from skewlie.rings import FunctionElement, GaussianRational


def pytest_configure(config):
    config._criterion_lines = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    label = getattr(getattr(item, "function", None), "_criterion", None)
    if label is None:
        return
    lines = item.config._criterion_lines
    if rep.when == "call":
        lines.append((label, rep.passed, rep.duration))
    elif rep.when == "setup" and rep.outcome != "passed":
        lines.append((label, False, rep.duration))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for label, passed, seconds in lines:
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line("%s  %s  (%.2fs)" % (verdict, label, seconds))


@pytest.fixture
def built(monkeypatch):
    """Counts of FunctionElement and GaussianRational constructions."""
    counts = {"function": 0, "gauss": 0}
    fe_init = FunctionElement.__init__
    gr_init = GaussianRational.__init__
    gr_raw = GaussianRational._raw

    def fe_counting(self, values):
        counts["function"] += 1
        fe_init(self, values)

    def gr_counting(self, a=0, b=0, d=1):
        counts["gauss"] += 1
        gr_init(self, a, b, d)

    def raw_counting(a, b, d):
        counts["gauss"] += 1
        return gr_raw(a, b, d)

    monkeypatch.setattr(FunctionElement, "__init__", fe_counting)
    monkeypatch.setattr(GaussianRational, "__init__", gr_counting)
    monkeypatch.setattr(GaussianRational, "_raw", staticmethod(raw_counting))
    return counts
