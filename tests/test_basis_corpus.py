"""Verdicts of the basis-change corpus (see ``basis_corpus``) against those in each base's own basis.

Every item whose verdicts differ from its base's is listed in ``XFAIL`` by
corpus seed and index, with what differs, and is a strict xfail: a fix turns
it into a failure, so the list can only shrink, and never grows silently.
"""

import pytest

from basis_corpus import SEED, corpus, disagreement
from liemetric.lie import structure_report
from test_lie import _dense_rows_report

XFAIL = {SEED: {
    48: "catalog boost 7: tag, einstein, ricci_parallel, ad_invariant",
    73: "catalog boost 5: raises DegenerateFormError",
    74: "catalog boost 7: tag",
    395: "nilpotent_ext boost 7: tag",
    525: "general_ext boost 7: ricci_parallel",
    538: "general_ext boost 7: tag",
    551: "general_ext boost 7: ricci_parallel",
    577: "general_ext boost 7: ricci_parallel",
    603: "random boost 7: raises NotTypeIIError",
    616: "random boost 7: ricci_parallel",
    629: "random boost 7: ricci_parallel",
}}


def _cases():
    for seed, known in XFAIL.items():
        for item in corpus(seed):
            reason = known.get(item.index)
            marks = pytest.mark.xfail(reason=reason, strict=True) if reason else ()
            yield pytest.param(seed, item.index, id=f"{seed}-{item.index}", marks=marks)


@pytest.mark.parametrize("seed, index", _cases())
def test_verdicts_do_not_depend_on_the_basis(seed, index):
    assert disagreement(seed, index) is None


def test_corpus_size():
    # 57 bases with 9 unequal-scale changes each, and 4 boosts for each of the 49 indefinite ones
    items = corpus(SEED)
    assert len(items) == 709
    assert sum(item.change == "boost" for item in items) == 196


def test_structure_report_matches_dense_rows_on_the_corpus():
    for item in corpus(SEED):
        assert structure_report(item.m.algebra) == _dense_rows_report(item.m.algebra), item.index
