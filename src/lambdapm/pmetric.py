"""Partial-metric machinery: axiom checking over finite carriers, induced
order, symmetrization, 1-bounding, balls, weighted-basis metrics and the
two Hausdorff liftings."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from operator import eq

from .distance import DistanceValue, exact, is_inf


@dataclass
class PartialMetricSpace:
    """A finite enumerable carrier with a total symmetric distance function.

    `dist` maps a pair of points to a Fraction (or INF).
    """

    carrier: list
    dist: object  # callable (x, y) -> Fraction | INF
    name: str = "space"
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def d(self, x, y):
        k = (x, y)
        if k not in self._memo:
            v = self.dist(x, y)
            self._memo[k] = v
            self._memo[(y, x)] = v
        return self._memo[k]


def check_axioms(space: PartialMetricSpace, mode: str = "pm") -> list:
    """Exhaustively test P1/P3/P4 (+P2 for pm, P4U for pum) over the carrier.

    Returns a list of violation records; empty means all axioms hold.
    """
    mode = mode.lower()
    if mode not in ("pm", "ppm", "pum"):
        raise ValueError(f"unknown mode {mode!r}")
    pts = space.carrier
    bad = []

    def report(axiom, witnesses, lhs, rhs):
        bad.append({"axiom": axiom, "witnesses": list(witnesses),
                    "lhs": str(lhs), "rhs": str(rhs)})

    for x, y in product(pts, repeat=2):
        dxy, dxx = space.d(x, y), space.d(x, x)
        if not (dxx <= dxy):
            report("P1", (x, y), dxx, dxy)
    for x, y in combinations(pts, 2):  # `d` stores a pair and its swap at once
        dxy, dyx = space.dist(x, y), space.dist(y, x)
        if dxy != dyx:
            report("P3", (x, y), dxy, dyx)
    if mode == "pm":
        for x, y in product(pts, repeat=2):
            if x != y and space.d(x, x) == space.d(x, y) == space.d(y, y):
                report("P2", (x, y), space.d(x, y), "x != y")
    for x, y, z in product(pts, repeat=3):
        dxy, dxz, dzy, dzz = (space.d(x, y), space.d(x, z),
                              space.d(z, y), space.d(z, z))
        if mode == "pum":
            if not (dxy <= max(dxz, dzy)):
                report("P4U", (x, y, z), dxy, max(dxz, dzy))
        if is_inf(dxz) or is_inf(dzy):
            continue  # an infinite leg never constrains P4
        if is_inf(dzz):
            continue
        if not (dxy <= dxz + dzy - dzz):
            report("P4", (x, y, z), dxy, dxz + dzy - dzz)
    return bad


def induced_order(space: PartialMetricSpace) -> set:
    """{(x, y) : p(x, y) <= p(x, x)} -- a preorder, an order when P2 holds."""
    return {(x, y) for x in space.carrier for y in space.carrier
            if space.d(x, y) <= space.d(x, x)}


def symmetrize(space: PartialMetricSpace, x, y) -> Fraction:
    """d_p(x,y) = 2 p(x,y) - p(x,x) - p(y,y); rejects infinite inputs."""
    vals = (space.d(x, y), space.d(x, x), space.d(y, y))
    if any(is_inf(v) for v in vals):
        raise ValueError("symmetrization needs finite distances")
    return 2 * vals[0] - vals[1] - vals[2]


def bound_to_one(value: DistanceValue) -> DistanceValue:
    """q -> q/(1+q), infinity -> 1; monotone and order-preserving."""
    def f(v):
        return Fraction(1) if is_inf(v) else v / (1 + v)
    return DistanceValue(f(value.lower), f(value.upper))


def in_ball(space: PartialMetricSpace, center, radius, candidate) -> bool:
    """candidate in B_radius(center): p(candidate, center) < p(center, center) + radius."""
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    c = space.d(center, center)
    if is_inf(c):
        return True  # everything is within an infinite self-distance
    return space.d(candidate, center) < c + radius


# ---------------------------------------------------------------------------
# Weighted basis metric (the generic quantifying construction)

@dataclass
class WeightedBasisMetric:
    basis: list
    weights: list  # positive Fractions, sum <= 1
    below: object  # callable (b, x) -> bool, standing for the way-below test

    def __post_init__(self):
        if len(self.basis) != len(self.weights):
            raise ValueError("basis and weights must align")
        ws = [Fraction(w) for w in self.weights]
        if any(w <= 0 for w in ws):
            raise ValueError("weights must be positive")
        if sum(ws) > 1:
            raise ValueError("weights must sum to at most 1")
        self.weights = ws


def weighted_basis_metric(wbm: WeightedBasisMetric, x, y) -> DistanceValue:
    """Sum of weights of basis points not way-below both arguments."""
    total = Fraction(0)
    for b, w in zip(wbm.basis, wbm.weights):
        if not (wbm.below(b, x) and wbm.below(b, y)):
            total += w
    return exact(total)


# ---------------------------------------------------------------------------
# Hausdorff liftings

@dataclass
class LiftedSet:
    """A finite set of points with the ambient order used for upward moves."""

    elements: frozenset
    leq: object  # callable (a, b) -> bool

    def __init__(self, elements, leq):
        self.elements = frozenset(elements)
        self.leq = leq

    def upset_of(self, a):
        return [b for b in self.elements if self.leq(a, b)]

    def is_ideal(self, universe=None) -> bool:
        """Downward closed (within `universe`, if given) and directed."""
        els = self.elements
        for a in els:
            for b in els:
                if not any(self.leq(a, c) and self.leq(b, c) for c in els):
                    return False
        if universe is not None:
            for u in universe:
                if u in els:
                    continue
                if any(self.leq(u, a) for a in els):
                    return False
        return True


def hausdorff_star(dist, A: LiftedSet, B: LiftedSet) -> DistanceValue:
    """Variant lifting: moving up inside each set before measuring.

    Conventions: sup over the empty set is 0, inf over the empty set is 1,
    the bound of the underlying 1-bounded space; a distance above 1 raises.
    Each side measures near(a2), the min of the finite dist(a2, b) over b
    in dst, once per element a2 that some up-set reaches; the inf over the
    pairs (a2 >= a, b) is then the min of near over the up-set of a
    (docs/DECISIONS.md D20)."""
    def side(src: LiftedSet, dst: LiftedSet):
        near = {}  # a2 -> near(a2), or None when no dist(a2, b) is finite
        best = Fraction(0)  # sup over src
        for a in src.elements:
            inner = None
            for a2 in src.upset_of(a):
                if a2 in near:
                    v = near[a2]
                else:
                    v = near[a2] = _nearest(dist, a2, dst)
                if v is not None and (inner is None or v < inner):
                    inner = v
            inner = Fraction(1) if inner is None else inner
            if inner > best:
                best = inner
        return best

    return exact(max(side(A, B), side(B, A)))


def _nearest(dist, a, dst: LiftedSet):
    """The min of the finite dist(a, b) over b in dst, or None if none is
    finite."""
    near = None
    for b in dst.elements:
        v = dist(a, b)
        if is_inf(v):
            continue
        if v > 1:
            raise ValueError("space is not bounded by the declared top")
        if near is None or v < near:
            near = v
    return near


def hausdorff_plain(dist, A, B) -> DistanceValue:
    """Classic Hausdorff lifting (kept to reproduce its failure on
    self-distances): H* under the discrete order, where each element's only
    upward move is itself, so it shares H*'s conventions and 1-bound check.
    A and B are LiftedSets, whose order is then ignored, or plain sets."""
    def discrete(s):
        return LiftedSet(s.elements if isinstance(s, LiftedSet) else s, eq)

    return hausdorff_star(dist, discrete(A), discrete(B))
