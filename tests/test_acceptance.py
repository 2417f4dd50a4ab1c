"""The eleven acceptance criteria, one test each.

Every test runs its criterion end to end, prints the one-line verdict, and
asserts both the verdict and the runtime budget.  Criterion details carry
the exact counts (determinant totals, tuple counts, assertion tallies), so
a budget regression or a silent undercount fails here even when unit tests
stay green.
"""

import pytest

from mdskit.acceptance import BUDGET_SECONDS, run_criterion

pytestmark = pytest.mark.acceptance


def _run(number):
    res = run_criterion(number)
    print(res)
    assert res.ok, res.detail
    assert res.seconds < BUDGET_SECONDS[number], (
        f"criterion {number} took {res.seconds:.1f}s, "
        f"budget {BUDGET_SECONDS[number]}s"
    )
    return res


def test_criterion_01_k3_n4_exhaustive():
    res = _run(1)
    assert "dets=105/105" in res.detail
    assert "dets=1260/1260" in res.detail


def test_criterion_02_k3_n3_exhaustive():
    res = _run(2)
    assert "dets=105/105" in res.detail
    assert "six_sum_free=True" in res.detail


def test_criterion_03_k4_triples():
    res = _run(3)
    assert "tuples=28420" in res.detail


@pytest.mark.slow
def test_criterion_04_k5_weak_profiles():
    res = _run(4)
    assert "tuples=77140" in res.detail


def test_criterion_05_general_ell():
    _run(5)


def test_criterion_06_exhaustive_search():
    res = _run(6)
    assert "count=0" in res.detail
    assert "5242880" in res.detail


def test_criterion_07_lower_bound_witnesses():
    _run(7)


def test_criterion_08_certificates():
    res = _run(8)
    assert "identity(7)=True" in res.detail
    assert "identity(11)=True" in res.detail


@pytest.mark.slow
def test_criterion_09_oracle_equivalence():
    res = _run(9)
    assert "0 disagree" in res.detail
    assert "disagree" in res.detail


def test_criterion_10_duality_suites():
    res = _run(10)
    assert "0 disagree" in res.detail


def test_criterion_11_property_suites():
    res = _run(11)
    assert "0 failures" in res.detail
