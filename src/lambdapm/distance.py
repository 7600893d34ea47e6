"""Exact distance values: nonnegative rationals, +infinity, or sound brackets;
and the truncation order shared by the tree metrics."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

INF = float("inf")  # absorbing top; never mixed into finite arithmetic


def is_inf(v) -> bool:
    # the type first: comparing a Fraction with a float is slow
    return type(v) is float and v == INF


@dataclass(frozen=True)
class DistanceValue:
    """Either an exact value, +infinity, or a bracket [lower, upper].

    `lower` and `upper` are Fractions (or INF for an infinite upper end).
    An exact value q is stored as the degenerate bracket [q, q].
    """

    lower: object  # Fraction or INF
    upper: object  # Fraction or INF

    def __post_init__(self):
        lo, hi = self.lower, self.upper
        if type(lo) is Fraction:
            # read off the integers: a Fraction's denominator is positive
            if lo.numerator < 0:
                raise ValueError("distances are nonnegative")
            if lo is hi:
                return
            if type(hi) is Fraction:
                if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
                    raise ValueError(f"bad bracket [{lo}, {hi}]")
                return
        elif not is_inf(lo) and lo < 0:
            raise ValueError("distances are nonnegative")
        if lo > hi:
            raise ValueError(f"bad bracket [{lo}, {hi}]")

    @property
    def is_exact(self) -> bool:
        # exact() puts one object at both ends; `is` skips Fraction.__eq__
        return self.lower is self.upper or self.lower == self.upper

    @property
    def is_infinite(self) -> bool:
        return is_inf(self.lower)

    @property
    def value(self) -> Fraction:
        if not self.is_exact:
            raise ValueError(f"not an exact value: {self}")
        if self.is_infinite:
            raise ValueError("infinite distance has no rational value")
        return self.lower

    def midpoint(self) -> Fraction:
        if is_inf(self.upper):
            raise ValueError("unbounded bracket has no midpoint")
        return (self.lower + self.upper) / 2

    def width(self) -> Fraction:
        if is_inf(self.upper):
            return INF
        return self.upper - self.lower

    def contains(self, other: "DistanceValue") -> bool:
        """True when `other` is a sub-bracket of self."""
        return self.lower <= other.lower and other.upper <= self.upper

    def __str__(self):
        if self.is_exact:
            return "inf" if self.is_infinite else str(self.lower)
        up = "inf" if is_inf(self.upper) else str(self.upper)
        return f"[{self.lower}, {up}]"

    def to_json(self) -> dict:
        if self.is_exact:
            return {"kind": "exact", **_rat_json(self.lower)}
        return {
            "kind": "bracket",
            "lower": _rat_json(self.lower),
            "upper": _rat_json(self.upper),
        }


def _rat_json(v) -> dict:
    if is_inf(v):
        return {"num": "inf"}
    num, den = v.numerator, v.denominator
    k = den.bit_length() - 1
    if den == 1 << k:
        return {"num": num, "den_pow2": k}
    return {"num": num, "den": den}


def _rational(v):
    """v as a distance end: a Fraction or INF as given, else Fraction(v)."""
    return v if type(v) is Fraction or is_inf(v) else Fraction(v)


def exact(q) -> DistanceValue:
    q = _rational(q)
    return DistanceValue(q, q)


def infinite() -> DistanceValue:
    return DistanceValue(INF, INF)


def bracket(lo, hi) -> DistanceValue:
    return DistanceValue(_rational(lo), _rational(hi))


# 2**-k for 0 <= k < _SHARED_LEVELS, built once and shared by every caller;
# any other k is built on each call, so the table never grows (D32)
_SHARED_LEVELS = 64
_DYADICS = tuple(Fraction(1, 1 << k) for k in range(_SHARED_LEVELS))


def dyadic(k: int) -> Fraction:
    """2**-k as an exact rational."""
    if 0 <= k < _SHARED_LEVELS:
        return _DYADICS[k]
    return Fraction(1, 1 << k) if k >= 0 else Fraction(1 << (-k))


def truncation_below(a, b, height, truncate) -> bool:
    """a is b truncated at a's height: the order the tree metrics induce."""
    h = height(a)
    return height(b) >= h and truncate(b, h) == a
