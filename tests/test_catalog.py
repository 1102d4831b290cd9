"""The README identity catalog against the code.

Every anchor a CLI report emits must be a catalog row, every code
reference in the catalog must resolve, and each certificate named in a
row must carry that row's anchor, so neither side can drift when code
is added or deleted.
"""

import re
from pathlib import Path

import pytest

import skewlie
from skewlie import cli
from skewlie.symcheck import certify_lemma, known_lemmas

README = Path(__file__).resolve().parent.parent / "README.md"


def catalog_rows():
    """[(anchor, code column)] from the README "Identity catalog" table."""
    lines = README.read_text().splitlines()
    start = lines.index("## Identity catalog")
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if cells[0] == "anchor" or set(cells[0]) <= {"-"}:
            continue
        rows.append((cells[0].strip("`"), cells[2]))
    return rows


def code_refs(code):
    """The backticked names of a code cell, with any call arguments cut."""
    out = []
    for span in re.findall(r"`([^`]+)`", code):
        m = re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", span)
        assert m, "unreadable code reference %r" % span
        out.append((m.group(1), span))
    return out


def resolve(dotted):
    obj = skewlie
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def anchors(argv):
    rep = cli.run(cli.build_parser().parse_args(argv))
    return {r.anchor for r in rep.records}


def test_catalog_is_nonempty_and_unique():
    names = [a for a, _ in catalog_rows()]
    assert names
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("anchor,code", catalog_rows(),
                         ids=[a for a, _ in catalog_rows()])
def test_code_references_resolve(anchor, code):
    refs = code_refs(code)
    assert refs, "catalog row %r names no code" % anchor
    for dotted, span in refs:
        try:
            resolve(dotted)
        except AttributeError:
            pytest.fail("catalog row %r: %s does not resolve on skewlie"
                        % (anchor, span))
    for lemma in re.findall(r'certify_lemma\("([^"]+)"\)', code):
        assert lemma in known_lemmas(), (anchor, lemma)


@pytest.mark.parametrize("anchor,lemma", [
    (a, lemma) for a, code in catalog_rows()
    for lemma in re.findall(r'certify_lemma\("([^"]+)"\)', code)])
def test_certificate_anchor_is_its_row(anchor, lemma):
    assert certify_lemma(lemma, 3).anchor == anchor


@pytest.mark.parametrize("argv", [
    ["--mode", "all", "--n", "3", "--trials", "1", "--p-sweep"],
    ["--mode", "local", "--ring", "fnring", "--n", "3", "--trials", "1"],
], ids=["all-p-sweep", "local-fnring"])
def test_report_anchors_are_catalog_rows(argv):
    catalog = {a for a, _ in catalog_rows()}
    assert anchors(argv) - catalog == set()
