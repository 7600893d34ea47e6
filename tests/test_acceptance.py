"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Criterion 2a checks the tree metric against the balanced truncation
order it provably induces; that order is strictly contained in the
approximant order, and the test also pins the gap between the two (proof and
counterexamples in docs/DECISIONS.md)."""

import json
from pathlib import Path

import pytest

from lambdapm import verify

# The recorded reports, `seconds` dropped: refactors must leave them
# unchanged.  tests/golden/regen.py writes them.
GOLDEN = json.loads((Path(__file__).parent / "golden" / "suites.json").read_text())


def _json(value):
    """`value` as the CLI prints it, read back: Fractions become strings."""
    return json.loads(json.dumps(value, sort_keys=True, default=str))


def _untimed(report):
    return _json({k: v for k, v in report.items() if k != "seconds"})


def _line(criterion, report):
    status = "PASS" if report["passed"] else "FAIL"
    print(f"[{status}] criterion {criterion}: {report['name']} "
          f"({report['seconds']}s)")


@pytest.fixture(scope="module")
def order_capture():
    return verify.suite_order_capture()


def test_criterion_1_axiom_suites():
    rep = verify.suite_axioms(seed=7)
    _line(1, rep)
    assert rep["passed"], rep["details"]
    assert rep["seconds"] < 60
    assert _untimed(rep) == GOLDEN["axioms"]


def test_criterion_2a_order_capture_p_tree(order_capture):
    detail = order_capture["details"][0]
    assert detail["space"] == "p_tree"
    assert detail["declared"] == "balanced truncation order"
    ok = (detail["count"] == 0 and detail["within_approximant_order"]
          and detail["gap_explained"])
    _line("2a", {"name": "order capture: p_tree vs balanced truncation order",
                 "passed": ok, "seconds": order_capture["seconds"]})
    ledger = "see docs/DECISIONS.md for the proof"
    assert detail["count"] == 0, (
        "the induced order of the tree metric is not the balanced truncation "
        f"order; counterexamples: {detail['counterexamples']} ({ledger})")
    assert detail["within_approximant_order"], (
        "the induced order of the tree metric leaves the approximant order "
        f"({ledger})")
    assert detail["gap_explained"], (
        "approximant pairs outside the induced order are not exactly those "
        "filling a bottom at depth <= height: "
        f"{detail['approximant_gap']} ({ledger})")
    # the documented witness: x _|_ y is below x y y as an approximant, yet
    # p_tree sets them 1/2 apart against a self-distance of 1/4
    assert ("x _|_ y", "x y y") in detail["approximant_gap"]
    assert _json(detail) == GOLDEN["order-capture"]["details"][0]


def test_criterion_2b_order_capture_p_int(order_capture):
    detail = order_capture["details"][1]
    _line("2b", {"name": "order capture: p_int vs reverse inclusion",
                 "passed": detail["count"] == 0, "seconds": 0})
    assert detail["count"] == 0
    assert _json(detail) == GOLDEN["order-capture"]["details"][1]


def test_criterion_2c_order_capture_applicative(order_capture):
    details = [d for d in order_capture["details"]
               if d["space"].startswith("app(")]
    ok = all(d["count"] == 0 for d in details)
    _line("2c", {"name": "order capture: applicative vs pointwise",
                 "passed": ok, "seconds": 0})
    assert ok
    assert _json(details) == GOLDEN["order-capture"]["details"][2:4]


def test_criterion_2d_order_capture_hausdorff(order_capture):
    detail = order_capture["details"][-1]
    assert detail["space"] == "H* on ideals"
    _line("2d", {"name": "order capture: H* on ideals vs inclusion",
                 "passed": detail["count"] == 0, "seconds": 0})
    assert detail["count"] == 0
    assert _untimed(order_capture) == GOLDEN["order-capture"]


def test_criterion_3_paper_identities():
    rep = verify.suite_identities()
    _line(3, rep)
    assert rep["passed"], [d for d in rep["details"] if not d["passed"]]
    assert _untimed(rep) == GOLDEN["identities"]


def test_criterion_4_taylor_isometry():
    rep = verify.suite_isometry()
    _line(4, rep)
    assert rep["passed"], rep["details"]
    assert rep["details"][0]["pairs"] >= 300
    assert rep["seconds"] < 300
    assert _untimed(rep) == GOLDEN["isometry"]


def test_criterion_5_enumeration_isometry():
    rep = verify.suite_enumeration_isometry(seed=5)
    _line(5, rep)
    assert rep["passed"], rep["details"]
    assert _untimed(rep) == GOLDEN["enum-isometry"]


def test_criterion_6_commutation():
    rep = verify.suite_commutation()
    _line(6, rep)
    assert rep["passed"], rep["details"]
    assert rep["details"][0]["terms"] == 30
    assert _untimed(rep) == GOLDEN["commutation"]


def test_criterion_7_quantification():
    rep = verify.suite_quantification(seed=7)
    _line(7, rep)
    assert rep["passed"], rep["details"]
    assert _untimed(rep) == GOLDEN["quantification"]


def test_criterion_8_tower_laws():
    rep = verify.suite_tower(seed=7)
    _line(8, rep)
    assert rep["passed"], rep["details"]
    assert rep["seconds"] < 120
    assert _untimed(rep) == GOLDEN["tower"]


def test_criterion_9_genericity():
    rep = verify.suite_genericity()
    _line(9, rep)
    assert rep["passed"], rep["details"]
    assert _untimed(rep) == GOLDEN["genericity"]


def test_criterion_10_bracket_soundness():
    rep = verify.suite_brackets(seed=13)
    _line(10, rep)
    assert rep["passed"], rep["details"]
    assert _untimed(rep) == GOLDEN["brackets"]
