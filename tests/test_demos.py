"""Every demo script runs to the end as __main__, with warnings as errors,
so a deletion or rename of a public name that a demo uses fails here.
Every "...: True/False" line a demo prints states a property that must
hold, so no printed line may end in False."""

import runpy
import warnings
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos")
               .glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    false_claims = [line for line in out.splitlines()
                    if line.rstrip().endswith("False")]
    assert not false_claims
