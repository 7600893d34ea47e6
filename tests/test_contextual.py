from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lambdapm import contextual
from lambdapm.contextual import (enumerate_context, genericity_violations,
                                 in_ctx_ball, p_ctx_bracket)
from lambdapm.corpus import OMEGA, normalizing_corpus
from lambdapm.lamcalc import UNKNOWN, alpha_eq, decompose, parse, solvability
from test_bohm import salted_terms, term_pairs

I = parse("\\x. x")
ETA_I = parse("\\x. \\y. x y")


def test_enumeration_pinned_prefix():
    assert str(enumerate_context(0)) == "[-]"
    assert str(enumerate_context(1)) == "\\x. [-]"
    assert str(enumerate_context(2)) == "[-] x"


def test_enumeration_injective_prefix():
    seen = {str(enumerate_context(n)) for n in range(120)}
    assert len(seen) == 120


def test_enumeration_stable():
    snapshot = [str(enumerate_context(n)) for n in range(30)]
    assert snapshot == [str(enumerate_context(n)) for n in range(30)]


def test_plugging_is_literal():
    ctx = enumerate_context(1)  # \x. [-]
    plugged = ctx.plug(parse("x"))
    # the free x is captured on purpose
    assert alpha_eq(plugged, parse("\\x. x"))


def test_hole_applied_to_divergent_argument():
    # the context [-] Omega: plugging I gives I Omega, certified divergent
    from lambdapm.contextual import HOLE, Context
    from lambdapm.lamcalc import App
    ctx = Context(App(HOLE, OMEGA))
    assert solvability(ctx.plug(I), 50).is_divergent
    assert solvability(ctx.plug(parse("\\x. \\y. y")), 50).kind == "solvable"


def test_p_ctx_bracket_shape_and_symmetry():
    v = p_ctx_bracket(I, ETA_I, 8, 60)
    w = p_ctx_bracket(ETA_I, I, 8, 60)
    assert v == w
    assert 0 <= v.lower <= v.upper <= 2  # weights from index 0 sum to 2


def test_p_ctx_self_bracket_contains_refinement():
    coarse = p_ctx_bracket(I, I, 5, 40)
    fine = p_ctx_bracket(I, I, 10, 80)
    assert coarse.contains(fine)


def test_p_ctx_omega_generic_brackets_overlap():
    # the true distances coincide by genericity, so the sound brackets of
    # (Omega, N) and (Omega, Omega) must overlap, and certified divergence
    # on the N side can only add to the lower bound
    vo = p_ctx_bracket(OMEGA, OMEGA, 7, 60)
    for n in [I, ETA_I, parse("x y")]:
        vn = p_ctx_bracket(OMEGA, n, 7, 60)
        assert vn.lower >= vo.lower
        assert vn.lower <= vo.upper and vo.lower <= vn.upper


def test_in_ctx_ball_examples():
    assert in_ctx_ball(I, I, Fraction(1, 8), 100) == "yes"
    assert in_ctx_ball(I, OMEGA, Fraction(1, 4), 100) == "no"
    for k in (2, 3, 4, 5):
        assert in_ctx_ball(I, ETA_I, Fraction(1, 2 ** k), 200) == "yes"


def test_in_ctx_ball_validates_epsilon():
    with pytest.raises(ValueError):
        in_ctx_ball(I, I, 0, 10)


@pytest.mark.parametrize("fuel", [0, -5])
def test_in_ctx_ball_refuses_fuel_below_one(fuel):
    """At epsilon 1 no index is tested and no row is filled, and the fuel is
    refused all the same."""
    contextual._kinds.cache_clear()
    for epsilon in (1, Fraction(1, 4)):
        with pytest.raises(ValueError, match="fuel must be >= 1"):
            in_ctx_ball(I, ETA_I, epsilon, fuel)
    assert contextual._kinds.cache_info().currsize == 0


def test_genericity_semi_test():
    assert genericity_violations(OMEGA, normalizing_corpus(8), 40, 300) == []
    with pytest.raises(ValueError):
        genericity_violations(I, [I], 10, 50)


def test_cold_bracket_enumerates_each_context_once(monkeypatch):
    """A cold bracket at prefix 40 runs each context term once for the
    routes, reading it in place off the size batches, and starts the
    machine at most once per row and open context: on the plugged term, or at
    the hole of a context [-] N1 ... Nk under binders, after m's own run, made
    once per row over the shared tail at the first such context.  Where m is
    \\y1 ... yj. h A and k is below the position of h's binder, min(j, k) steps
    answer without a start (docs/DECISIONS.md D31).  A second call runs the
    machine zero times."""
    contexts_run, starts = [], []
    status, run, start = contextual.solvability, contextual._run, contextual._start

    def counted_status(t, fuel):
        contexts_run.append(t)
        return status(t, fuel)

    def counted_run(t, fuel):
        starts.append(("run", t))
        return run(t, fuel)

    def counted_start(env, head, stack, fuel, memo=None, step=0, tail=None, seen=None):
        starts.append(("own" if stack is contextual._TAIL else "start", head))
        assert step == 0 and (tail is contextual._TAIL) == (stack is tail)
        return start(env, head, stack, fuel, memo, step, tail, seen)
    monkeypatch.setattr(contextual, "solvability", counted_status)
    monkeypatch.setattr(contextual, "_run", counted_run)
    monkeypatch.setattr(contextual, "_start", counted_start)
    m, n = parse("\\u. u u"), parse("\\u. \\v. v u")
    binder_of_head = {m: 1, n: 2}
    contextual._kinds.cache_clear()
    contextual._routes.cache_clear()
    before = p_ctx_bracket(m, n, 40, 17)
    contexts = [enumerate_context(idx).term for idx in range(41)]
    assert len(contexts_run) == 41 and all(a is b for a, b in zip(contexts_run, contexts))
    routes = contextual._routes(17)
    opened = [c for c, route in zip(contexts, routes) if route is not True]
    assert len(routes) == 41 and 0 < len(opened) < 41
    shapes, want = [], []
    for u in (m, n):
        own = False
        for c in opened:
            _, head, args = decompose(c)
            if head is not contextual.HOLE:
                want.append("run")
            else:
                if not own:
                    own = True
                    want.append("own")
                if len(args) < binder_of_head[u]:
                    continue  # the min(j, k) steps answer
                want.append("start")
            shapes.append((u, c, decompose(c)))
    assert [kind for kind, _ in starts] == want
    assert {kind for kind, _ in starts} == {"run", "own", "start"}
    assert 0 < len(shapes) < 2 * len(opened)
    for (kind, t), (u, c, (_, _, args)) in zip([s for s in starts if s[0] != "own"], shapes):
        if kind == "run":
            assert t == contextual._plug(c, u)
        else:  # u over the arguments, or u's own head where the hole has none
            assert t is (u if args else decompose(u)[1])
    assert [t for kind, t in starts if kind == "own"] == [m, n]
    contexts_run.clear()
    starts.clear()
    assert p_ctx_bracket(m, n, 40, 17) == before and contexts_run == starts == []


# ---------------------------------------------------------------------------
# Properties over salted random terms (ROADMAP item 8)

@st.composite
def ctx_budgets(draw):
    """Prefixes p <= p2 and fuels f <= f2."""
    p, p2 = sorted(draw(st.integers(1, 200)) for _ in range(2))
    f, f2 = sorted(draw(st.integers(1, 30)) for _ in range(2))
    return p, f, p2, f2


@given(term_pairs(), ctx_budgets())
@settings(max_examples=150, deadline=None)
def test_p_ctx_brackets_nest_as_budgets_grow(pair, budgets):
    """A bracket contains every bracket at a larger prefix and fuel.  The tail
    2**-prefix keeps a bracket from being exact, so the exact values are the
    decided kinds of the rows: one decided at fuel f is the same at f2."""
    p, f, p2, f2 = budgets
    assert p_ctx_bracket(*pair, p, f).contains(p_ctx_bracket(*pair, p2, f2))
    for t in pair:
        decided, refined = contextual._fill(t, f, p), contextual._fill(t, f2, p)
        assert all(a == b for a, b in zip(decided, refined) if a != UNKNOWN)


@given(st.lists(salted_terms(), min_size=1, max_size=4), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_genericity_holds_on_random_pools(pool, fuel):
    """Wherever a context converges on Omega, no term of a random pool is
    certified to diverge (the genericity lemma)."""
    assert genericity_violations(OMEGA, pool, 64, fuel) == []
