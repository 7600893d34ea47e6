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
        if not is_inf(self.lower) and self.lower < 0:
            raise ValueError("distances are nonnegative")
        if self.lower > self.upper:
            raise ValueError(f"bad bracket [{self.lower}, {self.upper}]")

    @property
    def is_exact(self) -> bool:
        return self.lower == self.upper

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


def exact(q) -> DistanceValue:
    if type(q) is not Fraction and not is_inf(q):
        q = Fraction(q)
    return DistanceValue(q, q)


def infinite() -> DistanceValue:
    return DistanceValue(INF, INF)


def bracket(lo, hi) -> DistanceValue:
    lo = lo if is_inf(lo) else Fraction(lo)
    hi = hi if is_inf(hi) else Fraction(hi)
    return DistanceValue(lo, hi)


def dyadic(k: int) -> Fraction:
    """2**-k as an exact rational."""
    return Fraction(1, 1 << k) if k >= 0 else Fraction(1 << (-k))


def truncation_below(a, b, height, truncate) -> bool:
    """a is b truncated at a's height: the order the tree metrics induce."""
    h = height(a)
    return height(b) >= h and truncate(b, h) == a
