"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Expected values marked DERIVED are
recomputed here through the independent oracles in oracles.py before being
compared with the pipeline, so the suite never trusts a number it has not
rederived.
"""
import time

import pytest

from oracles import line_theta_oracle

from egdeg.config import canonical_json
from egdeg.verify import (
    AXIOM_CRITERIA,
    DEGREE_CRITERIA,
    PARTITION_CRITERIA,
    LINE_EXPECTED,
    S1_EXPECTED,
    _Ctx,
    run_suite,
)

_CTX = _Ctx()
_BUDGETS = {1: 1.5, 2: 2.5, 3: 1.0, 4: 18.0, 5: 0.25, 6: 0.25,
            7: 25.0, 8: 6.0, 9: 3.0}


def _run(number, name, fn):
    start = time.time()
    passed, details = fn(_CTX)
    elapsed = time.time() - start
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number} ({name}) in {elapsed:.1f}s")
    assert passed, details
    budget = _BUDGETS.get(number)
    assert budget is None or elapsed < budget, (
        f"criterion {number} exceeded its {budget}s budget: {elapsed:.1f}s")


def test_oracle_constants_are_rederived():
    # the frozen line expectations must equal the brute-force oracle output
    assert line_theta_oracle(+1.0, eps=0.2) == LINE_EXPECTED["min"]
    assert line_theta_oracle(-1.0, eps=0.2) == LINE_EXPECTED["max"]
    # the circle demo reduces to the same one-dimensional computation
    assert S1_EXPECTED["plus"] == LINE_EXPECTED["min"]
    assert S1_EXPECTED["minus"] == LINE_EXPECTED["max"]


@pytest.mark.parametrize("number,name,fn", AXIOM_CRITERIA,
                         ids=[f"criterion{n}" for n, _, _ in AXIOM_CRITERIA])
def test_axiom_criteria(number, name, fn):
    _run(number, name, fn)


@pytest.mark.parametrize("number,name,fn", DEGREE_CRITERIA,
                         ids=[f"criterion{n}" for n, _, _ in DEGREE_CRITERIA])
def test_degree_criteria(number, name, fn):
    _run(number, name, fn)


@pytest.mark.parametrize("number,name,fn", PARTITION_CRITERIA,
                         ids=[f"criterion{n}" for n, _, _ in PARTITION_CRITERIA])
def test_partition_criteria(number, name, fn):
    _run(number, name, fn)


def test_criterion_10_determinism():
    start = time.time()
    first = canonical_json(run_suite("axioms"))
    second = canonical_json(run_suite("axioms"))
    elapsed = time.time() - start
    identical = first == second
    print(f"[{'PASS' if identical else 'FAIL'}] criterion 10 (determinism) "
          f"in {elapsed:.1f}s")
    assert identical
