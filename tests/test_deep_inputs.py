"""The public entry points of the partial-term family on chains 300
levels deep, run under a recursion limit 100 frames above the caller's
stack, so that a walk recursing once per level goes three times past it:
each answers, or raises a typed, named error.  The Taylor entry points
reach the same chains as resource, partial or lambda terms.  Each level
of a chain's expansion is a new list of elements, so the expansion builds
about N**2 / 2 nodes, which keeps N at 300.  Entry points that still recurse are named in
KNOWN_FAILURES, which is checked both ways: a listed entry point that
starts to answer fails until it leaves the list, and an unlisted one that
raises RecursionError is a regression."""

import sys
from types import SimpleNamespace

import pytest

from lambdapm import bohm, taylor
from lambdapm.bohm import BOT, Node
from lambdapm.lamcalc import Abs, App, Var
from lambdapm.limits import CapExceeded
from lambdapm.resource import RAbs, RApp, RVar

N = 300
HEADROOM = 100  # frames above the caller's stack that a call may use

# entry points that still recurse on these chains: none, since the Taylor
# layer's walks keep explicit stacks (docs/DECISIONS.md D23)
KNOWN_FAILURES = set()


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def chains(binder):
    """x (x (… end)) or \\a. a (\\a. a (… end)) with N levels, as partial
    terms ending in a bottom (a, and its copy a2) and in y (b), as lambda
    terms ending in y (m, and its copy m2), and as the resource term
    x<x<… y>> or \\a. a<\\a. a<… y>> (r), all built by constructors."""
    def build(leaf, level):
        t = leaf()
        for _ in range(N):
            t = level(t)
        return t

    if binder:
        partial = lambda t: Node(("a",), "a", (t,))
        lam = lambda t: Abs("a", App(Var("a"), t))
        res = lambda t: RAbs("a", RApp(RVar("a"), (t,)))
    else:
        partial = lambda t: Node((), "x", (t,))
        lam = lambda t: App(Var("x"), t)
        res = lambda t: RApp(RVar("x"), (t,))
    y = lambda: Node((), "y", ())
    return SimpleNamespace(
        a=build(lambda: BOT, partial), a2=build(lambda: BOT, partial), b=build(y, partial),
        m=build(lambda: Var("y"), lam), m2=build(lambda: Var("y"), lam),
        r=build(lambda: RVar("y"), res))


# name -> a call on the chains that is True when its answer is right
CALLS = {
    "hash": lambda c: hash(c.a) == hash(c.a2) != hash(c.b),
    "==": lambda c: c.a == c.a2 and c.a != c.b,
    "pkey": lambda c: bohm.pkey(c.a)[:2] == ("n", len(c.a.binders)),
    "str": lambda c: str(c.a).endswith("_|_" + ")" * (N - 1)),
    "height": lambda c: bohm.height(c.a) == N and bohm.height(c.b) == N + 1,
    "truncate": lambda c: bohm.height(bohm.truncate(c.b, N // 2)) == N // 2,
    "truncation_leq": lambda c: bohm.truncation_leq(c.a, c.b),
    "partial_leq": lambda c: bohm.partial_leq(c.a, c.b) and not bohm.partial_leq(c.b, c.a),
    "p_tree": lambda c: bohm.p_tree(c.a, c.b).lower.denominator == 2 ** N,
    "isometry_check": lambda c: taylor.isometry_check(c.a, c.b, 2)["equal"],
    "from_lambda": lambda c: bohm.from_lambda(c.m) == c.b,
    "direct_approximant": lambda c: bohm.direct_approximant(c.m) == c.b,
    "bohm_truncate": lambda c: bohm.bohm_truncate(c.m, N + 1, 10).tree == c.b,
    "p_bohm": lambda c: bohm.p_bohm(c.m, c.m2, N + 1, 10).lower.denominator == 2 ** (N + 1),
    "min_source": lambda c: taylor.min_source(c.r) == c.b,
    "box_relation": lambda c: taylor.box_relation(c.r, c.b),
    "taylor_expand": lambda c: len(taylor.taylor_expand(c.a, 1, N).elements) > 0,
    "faithful_pool": lambda c: len(taylor.faithful_pool(c.a)) > 0,
    "taylor_of_term": lambda c: len(taylor.taylor_of_term(c.m, 1, N + 1).elements) > 0,
}


@pytest.mark.parametrize("binder", [False, True], ids=["plain", "binders"])
@pytest.mark.parametrize("name", list(CALLS))
def test_entry_points_answer_on_deep_chains(name, binder):
    c = chains(binder)  # fresh, so that no cache filled by another call helps
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + HEADROOM)
    try:
        answer = CALLS[name](c)
    except RecursionError:
        assert name in KNOWN_FAILURES, f"{name} recursed on a {N}-level chain"
        return
    except (ValueError, CapExceeded, taylor.TentativeTreeError):
        answer = True  # a typed, named refusal
    finally:
        sys.setrecursionlimit(limit)
    assert name not in KNOWN_FAILURES, f"{name} answers now: take it off KNOWN_FAILURES"
    assert answer
