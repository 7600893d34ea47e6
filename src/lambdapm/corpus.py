"""Seeded, reproducible corpora: lambda terms, partial terms, resource
terms, rational intervals and bounded-complete posets."""

from __future__ import annotations

import random
from fractions import Fraction

from . import bohm, taylor
from .bohm import parse_partial
from .domains import FinitePoset
from .intervals import RationalInterval
from .lamcalc import Abs, App, LambdaTerm, Var, parse


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


# ---------------------------------------------------------------------------
# Lambda terms

OMEGA = parse("(\\x. x x)(\\x. x x)")
OMEGA3 = parse("(\\x. x x x)(\\x. x x x)")
COMBINATORS = {
    "I": parse("\\x. x"),
    "K": parse("\\x. \\y. x"),
    "K2": parse("\\x. \\y. y"),
    "S": parse("\\x. \\y. \\z. x z (y z)"),
    "ETA_I": parse("\\x. \\y. x y"),
    "W": parse("\\x. \\y. x y y"),
}


def random_term(rng: random.Random, size: int) -> LambdaTerm:
    """Random closed-ish term of roughly the requested node count, free
    names from {x, y}."""
    binders = []

    def go(budget, depth):
        choices = ["var"]
        if budget >= 2:
            choices += ["abs", "abs", "app"]
        if budget >= 3:
            choices += ["app"]
        kind = rng.choice(choices)
        if kind == "var" or budget <= 1:
            return Var(rng.choice(["x", "y"] + binders))
        if kind == "abs":
            name = f"b{depth}"
            binders.append(name)
            body = go(budget - 1, depth + 1)
            binders.pop()
            return Abs(name, body)
        k = rng.randint(1, budget - 2) if budget > 2 else 1
        return App(go(k, depth), go(budget - 1 - k, depth))

    return go(size, 0)


def normalizing_corpus(count: int = 30):
    """Deterministic corpus of normalizing terms with duplication degree <= 2,
    so bounded expansions at multiplicity 2 see every normal form."""
    base = [
        "\\x. x",
        "\\x. \\y. x",
        "\\x. \\y. y",
        "\\x. \\y. x y",
        "\\x. \\y. x y y",
        "(\\x. x) (\\y. y)",
        "(\\x. x) ((\\y. y) (\\z. z))",
        "(\\x. \\y. x) u v",
        "(\\x. \\y. y) u v",
        "(\\x. x x) (\\y. y)",
        "(\\x. \\y. x y) (\\z. z)",
        "\\z. (\\x. x) z",
        "\\z. z ((\\x. x) z)",
        "(\\x. \\y. x y) u ((\\z. z) v)",
        "(\\f. \\x. f (f x)) (\\y. y)",
        "(\\f. \\x. f (f x)) (\\y. y) u",
        "x ((\\y. y) z)",
        "x y z",
        "\\x. x ((\\y. y) x)",
        "(\\p. p u u) (\\a. \\b. a)",
        "(\\x. \\y. y x) u (\\z. z)",
        "(\\x. x) u ((\\y. y) v)",
        "\\u. (\\x. \\y. x y) u u",
        "(\\x. \\y. \\z. x z (y z)) (\\a. \\b. a) (\\c. c)",
        "(\\x. \\y. \\z. x z (y z)) (\\a. \\b. a) (\\c. c) w",
        "\\w. w (\\x. x) (\\y. y)",
        "(\\x. x (\\y. y)) (\\f. f u)",
        "(\\p. p u v) (\\a. \\b. a b)",
        "\\a. \\b. b (a b)",
        "(\\x. \\y. x (x y)) (\\z. z)",
    ]
    return [parse(s) for s in base[:count]]


# ---------------------------------------------------------------------------
# Partial terms

def partial_corpus(max_height: int = 4, per_height: int = 8):
    """Deterministic stratified corpus covering heights 1..max_height,
    bottoms at several depths, chains and branching shapes."""
    fixed = [
        "x", "y", "\\a. a", "\\a. x", "x _|_", "x x", "x y _|_",
        "\\a. a x", "\\a. \\b. a b", "\\a. a _|_",
        "x (y x)", "x _|_ y", "x y y", "\\a. a (a x)",
        "x (x (x y))", "\\a. a (x (a y))", "x (y _|_) x",
        "x (x (x (x y)))", "\\a. a (a (a (a x)))", "x (y (x (y x)))",
        "x _|_ (y (x y))", "\\a. \\b. a (b (a (b x)))",
    ]
    seen, out = set(), []
    for s in fixed:
        t = parse_partial(s)
        if bohm.height(t) <= max_height and t not in seen:
            seen.add(t)
            out.append(t)
    # top up with enumerated terms, stratified by height
    buckets = {h: 0 for h in range(1, max_height + 1)}
    for t in out:
        buckets[bohm.height(t)] += 1
    n = 1
    while any(c < per_height for c in buckets.values()) and n < 4000:
        t = taylor.enumerate_partial(n)
        n += 1
        h = bohm.height(t)
        if h <= max_height and buckets[h] < per_height and t not in seen:
            seen.add(t)
            out.append(t)
            buckets[h] += 1
    return out


def resource_corpus(max_elements: int = 14):
    """Normal resource terms drawn from expansions of a few partial terms."""
    sources = ["x", "\\a. a", "x y", "x _|_", "\\a. a x", "x (y x)",
               "\\a. \\b. a b", "x (x y)"]
    out, seen = [], set()
    for s in sources:
        frag = taylor.taylor_expand(parse_partial(s), 2, 3)
        for t in sorted(frag.elements, key=lambda u: str(u)):
            if t not in seen:
                seen.add(t)
                out.append(t)
            if len(out) >= max_elements:
                return out
    return out


# ---------------------------------------------------------------------------
# Intervals

def interval_corpus(rng: random.Random, count: int = 12):
    out = []
    for _ in range(count):
        lo = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        width = Fraction(rng.randint(0, 12), rng.randint(1, 4))
        out.append(RationalInterval(lo, lo + width))
    return out


# ---------------------------------------------------------------------------
# Posets

def random_bounded_complete_poset(rng: random.Random, max_size: int = 7) -> FinitePoset:
    """Rejection-sample a bounded-complete poset with a least element."""
    while True:
        n = rng.randint(2, max_size)
        leq = [[i == j for j in range(n)] for i in range(n)]
        for j in range(1, n):
            leq[0][j] = True  # element 0 is bottom
        for i in range(1, n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    leq[i][j] = True
        # transitive closure over the index order (edges only go upward)
        for k in range(n):
            for i in range(n):
                if leq[i][k]:
                    for j in range(n):
                        if leq[k][j]:
                            leq[i][j] = True
        try:
            return FinitePoset(tuple(tuple(row) for row in leq), 0)
        except ValueError:
            continue
