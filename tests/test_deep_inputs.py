"""The public entry points of the lambda, contextual, partial-term and
resource families on chains 300 levels deep, run under a recursion limit 100 frames
above the caller's stack, so that a walk recursing once per level goes
three times past it: each answers within ROW_SECONDS, or raises a typed,
named error.  The Taylor entry points reach the same chains as resource,
partial or lambda terms.  Each level of a chain's expansion is a new list
of elements, so the expansion builds about N**2 / 2 nodes, which keeps N
at 300.  Entry points that still recurse are named in KNOWN_FAILURES with
the chain shape they recurse on, which is checked both ways: a listed pair
that starts to answer fails until it leaves the list, and an unlisted one
that raises RecursionError is a regression."""

import signal
import sys
from types import SimpleNamespace

import pytest

from fractions import Fraction

from lambdapm import bohm, contextual, lamcalc, resource, taylor
from lambdapm.bohm import BOT, Node
from lambdapm.corpus import OMEGA
from lambdapm.distance import dyadic, exact
from lambdapm.lamcalc import Abs, App, Var, free_vars
from lambdapm.limits import CapExceeded
from lambdapm.resource import RAbs, RApp, RVar

N = 300
HEADROOM = 100  # frames above the caller's stack that a call may use
ROW_SECONDS = 10  # as the CI steps' `timeout 10`: a row that takes longer fails

# (entry point, chain shape) pairs that still recurse: the rebuilding
# `subst` recurses once per level, and p_ctx_bracket and
# genericity_violations reach it on the plain chain, where (\x. [-]) x
# substitutes for the chain's free x
KNOWN_FAILURES = {("subst", "plain"), ("subst", "binders"), ("p_ctx_bracket", "plain"),
                  ("genericity_violations", "plain")}


class TooSlow(Exception):
    pass


def too_slow(signum, frame):
    raise TooSlow


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def chains(binder):
    """x (x (… end)) or \\a. a (\\a. a (… end)) with N levels, as partial
    terms ending in a bottom (a, and its copy a2) and in y (b), as lambda
    terms ending in y (m, and its copy m2), and as the resource term
    x<x<… y>> or \\a. a<\\a. a<… y>> (r, and its copy r2), ending in z
    (rz) and in the redex (\\z. z)<y> (rr), all built by constructors."""
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
        r=build(lambda: RVar("y"), res), r2=build(lambda: RVar("y"), res),
        rz=build(lambda: RVar("z"), res),
        rr=build(lambda: RApp(RAbs("z", RVar("z")), (RVar("y"),)), res))


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
    "solvability": lambda c: lamcalc.solvability(c.m, 10).head.to_term() == c.m2,
    "normalize": lambda c: lamcalc.normalize(c.m) == c.m2,
    "subst": lambda c: "w" in free_vars(lamcalc.subst(c.m, "y", Var("w"))),
    "canonical": lambda c: lamcalc.canonical(c.m) == c.m2,
    "show": lambda c: lamcalc.show(c.m).endswith("y" + ")" * (N - 1)),
    "p_ctx_bracket": lambda c: (contextual.p_ctx_bracket(c.m, c.m2, 64, 30)
                                == contextual.p_ctx_bracket(c.m2, c.m, 64, 30)),
    "in_ctx_ball": lambda c: contextual.in_ctx_ball(c.m, c.m2, Fraction(1, 2 ** 6), 30) == "yes",
    "genericity_violations": lambda c: contextual.genericity_violations(
        OMEGA, [c.m, c.m2], 64, 30) == [],
    "r_metric": lambda c: (resource.r_metric(c.r, c.r2) == exact(dyadic(N + 1))
                           and resource.r_metric(c.r, c.rz) == exact(dyadic(N))),
    "r_leq": lambda c: resource.r_leq(c.r, c.r2) and not resource.r_leq(c.r, c.rz),
    "bag_leq": lambda c: resource.bag_leq(c.r, c.r2) and not resource.bag_leq(c.r, c.rz),
    "is_normal": lambda c: resource.is_normal(c.r) and not resource.is_normal(c.rr),
    "resource_reduce": lambda c: resource.resource_reduce(c.rr) == {c.r2},
    "canonical_binders": lambda c: resource.canonical_binders(c.r) == c.r2,
    "rheight": lambda c: resource.height(c.r) == N + 1,
    "rtruncate": lambda c: resource.height(resource.truncate(c.r, N // 2)) == N // 2,
    "rsize": lambda c: resource.rsize(c.r) == (3 if c.r._kind == "abs" else 2) * N + 1,
    "rstr": lambda c: str(c.r).endswith("y" + ">" * N),
    "r==": lambda c: c.r == c.r2 and c.r != c.rz,
    "rhash": lambda c: hash(c.r) == hash(c.r2) != hash(c.rz),
}


@pytest.mark.parametrize("binder", [False, True], ids=["plain", "binders"])
@pytest.mark.parametrize("name", list(CALLS))
def test_entry_points_answer_on_deep_chains(name, binder):
    c = chains(binder)  # fresh, so that no cache filled by another call helps
    contextual._kinds.cache_clear()  # nor a row filled for an alpha-equivalent chain
    shape = "binders" if binder else "plain"
    limit = sys.getrecursionlimit()
    alarm = signal.signal(signal.SIGALRM, too_slow)
    sys.setrecursionlimit(stack_depth() + HEADROOM)
    signal.setitimer(signal.ITIMER_REAL, ROW_SECONDS)
    try:
        answer = CALLS[name](c)
    except RecursionError:
        assert (name, shape) in KNOWN_FAILURES, f"{name} recursed on a {N}-level {shape} chain"
        return
    except (ValueError, CapExceeded, taylor.TentativeTreeError):
        answer = True  # a typed, named refusal
    except TooSlow:
        pytest.fail(f"{name} took over {ROW_SECONDS} s on a {N}-level {shape} chain")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.setrecursionlimit(limit)
        signal.signal(signal.SIGALRM, alarm)
    assert (name, shape) not in KNOWN_FAILURES, \
        f"{name} answers now on the {shape} chain: take it off KNOWN_FAILURES"
    assert answer
