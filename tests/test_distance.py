"""DistanceValue validation, the shared dyadic constants and the brackets
built from them."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lambdapm import distance
from lambdapm.distance import (INF, DistanceValue, bracket, dyadic, exact,
                               infinite, is_inf)


def ref_rule(lo, hi):
    """The error DistanceValue(lo, hi) raised when both tests compared the
    ends as numbers, or None."""
    if not is_inf(lo) and lo < 0:
        return "distances are nonnegative"
    if lo > hi:
        return f"bad bracket [{lo}, {hi}]"
    return None


def error_of(lo, hi):
    try:
        DistanceValue(lo, hi)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("lo, hi, message", [
    (Fraction(-1, 2), Fraction(1), "distances are nonnegative"),
    (Fraction(-1, 2), Fraction(-1, 2), "distances are nonnegative"),
    (Fraction(-3), INF, "distances are nonnegative"),
    (-1, 1, "distances are nonnegative"),
    (-0.5, 1, "distances are nonnegative"),
    (Fraction(1, 2), Fraction(1, 4), "bad bracket [1/2, 1/4]"),
    (Fraction(1), Fraction(0), "bad bracket [1, 0]"),
    (INF, Fraction(1), "bad bracket [inf, 1]"),
    (2, 1, "bad bracket [2, 1]"),
    (Fraction(3, 4), 0.5, "bad bracket [3/4, 0.5]"),
    (1.5, Fraction(1), "bad bracket [1.5, 1]"),
])
def test_invalid_ends_raise_the_same_message(lo, hi, message):
    with pytest.raises(ValueError) as exc:
        DistanceValue(lo, hi)
    assert str(exc.value) == message == ref_rule(lo, hi)


@pytest.mark.parametrize("lo, hi", [
    (Fraction(0), Fraction(0)), (Fraction(1, 4), Fraction(1, 2)),
    (Fraction(1, 3), Fraction(2, 6)), (Fraction(0), INF), (INF, INF),
    (0, 1), (0, Fraction(1)), (Fraction(1, 2), 1), (0.25, 0.5), (1, 1.0),
])
def test_valid_ends_are_kept_as_given(lo, hi):
    v = DistanceValue(lo, hi)
    assert v.lower is lo and v.upper is hi


ends = st.one_of(st.fractions(max_denominator=64), st.integers(-4, 4),
                 st.just(INF))


@given(ends, ends, st.booleans())
@settings(max_examples=500, deadline=None)
def test_checks_accept_and_reject_where_the_numeric_rule_does(lo, hi, same):
    if same:
        hi = lo
    assert error_of(lo, hi) == ref_rule(lo, hi)
    if type(lo) is Fraction:
        # an equal Fraction that is another object takes the integer test
        assert error_of(lo, Fraction(lo)) == ref_rule(lo, lo)


def test_exact_and_bracket_keep_a_fraction():
    q, r = dyadic(3), Fraction(5, 8)
    assert exact(q).lower is q and exact(q).upper is q
    b = bracket(q, r)
    assert b.lower is q and b.upper is r
    assert bracket(q, INF).upper is INF
    # other numbers are converted as before
    assert exact(1).lower == Fraction(1) and type(exact(1).lower) is Fraction
    assert type(bracket(0, 1).lower) is Fraction
    assert type(bracket(Fraction(0), 0.5).upper) is Fraction


def test_is_exact_compares_values_not_objects():
    assert DistanceValue(Fraction(1, 2), Fraction(2, 4)).is_exact
    assert not DistanceValue(Fraction(1, 4), Fraction(1, 2)).is_exact
    assert infinite().is_exact and not DistanceValue(Fraction(0), INF).is_exact


@pytest.mark.parametrize("k", [-40, -3, -1, 0, 1, 2, 7, 17, 40, 63, 64, 65,
                               100, 901])
def test_dyadic_is_two_to_the_minus_k(k):
    assert dyadic(k) == Fraction(1, 2) ** k
    assert type(dyadic(k)) is Fraction


def test_dyadics_inside_the_bound_are_shared():
    for k in range(distance._SHARED_LEVELS):
        assert dyadic(k) is dyadic(k)
        assert dyadic(k) == Fraction(1, 1 << k)


def test_dyadics_past_the_bound_are_not_kept():
    kept = distance._DYADICS
    for k in (distance._SHARED_LEVELS, distance._SHARED_LEVELS + 1, 901, -1, -5):
        assert dyadic(k) is not dyadic(k)
    assert distance._DYADICS is kept and len(kept) == distance._SHARED_LEVELS
    # the deep rmetric check in CI runs on a level past the bound
    assert distance._SHARED_LEVELS < 901
