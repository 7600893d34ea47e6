from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lambdapm import bohm
from lambdapm.bohm import (BOT, bohm_truncate, direct_approximant,
                           divergence_level, height, p_bohm, p_tree,
                           parse_partial, partial_leq, truncate, truncation_leq)
from lambdapm.distance import bracket, dyadic, exact
from lambdapm.lamcalc import Abs, App, Var, parse, show

I = parse("\\x. x")
OMEGA = parse("(\\x. x x)(\\x. x x)")
OMEGA3 = parse("(\\x. x x x)(\\x. x x x)")
# fixpoint of \f.\x. f x: head-reduction cycles, so it is unsolvable
Y = parse("\\h. (\\u. h (u u)) (\\u. h (u u))")
FIX_ETA = App(Y, parse("\\f. \\x. f x"))
# fixpoint of \f.\x. x (f x): solvable with an infinite spine
FIX_SPINE = App(Y, parse("\\f. \\x. x (f x)"))


def test_direct_approximant_examples():
    assert direct_approximant(parse("\\x. x")) == parse_partial("\\x. x")
    assert direct_approximant(parse("\\x. x ((\\y. y) z)")) == \
        parse_partial("\\x. x _|_")
    assert direct_approximant(OMEGA) == BOT


def test_direct_approximant_idempotent_on_embeddings():
    for s in ["\\x. x", "x y", "\\a. \\b. a (b x)"]:
        t = parse(s)
        a = direct_approximant(t)
        assert direct_approximant(bohm.to_lambda(a)) == a


def test_partial_leq_examples():
    assert partial_leq(BOT, parse_partial("\\x. x"))
    assert partial_leq(parse_partial("\\x. x _|_"),
                       parse_partial("\\x. x (\\y. y)"))
    assert not partial_leq(parse_partial("\\x. x"),
                           parse_partial("\\x. \\y. x y"))


def test_partial_leq_alpha_aware():
    assert partial_leq(parse_partial("\\a. a _|_"), parse_partial("\\b. b x"))


def test_heights():
    assert height(BOT) == 0
    assert height(parse_partial("x")) == 1
    assert height(parse_partial("x _|_")) == 1
    assert height(parse_partial("x y")) == 2
    assert height(parse_partial("x (y x)")) == 3


def test_truncate_convention():
    t = parse_partial("x (y (z w))")
    assert truncate(t, 0) == BOT
    assert truncate(t, 1) == parse_partial("x _|_")
    assert truncate(t, 2) == parse_partial("x (y _|_)")
    assert truncate(t, 5) == t


def test_p_tree_paper_values():
    i = parse_partial("\\x. x")
    assert p_tree(i, i) == exact(Fraction(1, 2))
    assert p_tree(BOT, parse_partial("x y")) == exact(1)
    assert p_tree(BOT, BOT) == exact(1)
    assert p_tree(i, parse_partial("\\x. \\y. x y")) == exact(1)


def test_p_tree_self_distance_is_height():
    for s in ["x", "x _|_", "x (y x)", "\\a. a (a (a x))"]:
        t = parse_partial(s)
        assert p_tree(t, t) == exact(dyadic(height(t)))


def test_p_tree_agreement_levels():
    a = parse_partial("\\x. x _|_")
    b = parse_partial("\\x. x (\\y. y)")
    assert p_tree(a, b) == exact(Fraction(1, 2))
    assert p_tree(parse_partial("x (y x)"), parse_partial("x (y y)")) == \
        exact(Fraction(1, 4))
    # the shallower of two differences decides, whichever argument holds it
    assert p_tree(parse_partial("x w (y z)"), parse_partial("x u (y v)")) == \
        exact(Fraction(1, 2))


def test_induced_order_is_truncation_order():
    terms = [parse_partial(s) for s in
             ["x", "x _|_", "x x", "x _|_ y", "x y y", "x (y x)"]]
    for a in terms:
        for b in terms:
            induced = p_tree(a, b).value <= p_tree(a, a).value
            assert induced == truncation_leq(a, b)
            # the truncation order is contained in the approximant order
            if induced:
                assert partial_leq(a, b)


def test_deep_chains_compare_without_recursion():
    # x (x (... _|_)) and \a. a (\a. a (... _|_)) against the same chain
    # ending in y, 10,000 nodes deep; with a binder at every level, each
    # step once copied the binder environment
    for binders, head in (((), "x"), (("a",), "a")):
        a, b = BOT, bohm.Node((), "y", ())
        for _ in range(10_000):
            a, b = bohm.Node(binders, head, (a,)), bohm.Node(binders, head, (b,))
        assert partial_leq(a, b) and not partial_leq(b, a)
        assert height(a) == 10_000 and height(b) == 10_001
        assert divergence_level(a, b) == 10_000
        assert p_tree(a, b) == exact(dyadic(10_000))


def test_bohm_truncate_examples():
    tr = bohm_truncate(I, 3, 100)
    assert tr.tree == parse_partial("\\x. x") and tr.is_exact and tr.complete
    tr = bohm_truncate(OMEGA, 3, 100)
    assert tr.tree == BOT and tr.is_exact and tr.complete
    tr = bohm_truncate(OMEGA3, 3, 5)
    assert tr.tree == BOT and not tr.is_exact


def test_bohm_truncate_unsolvable_eta_fixpoint():
    # the fixpoint of \f.\x. f x head-reduces back to itself in four steps
    tr = bohm_truncate(FIX_ETA, 2, 200)
    assert tr.tree == BOT and tr.is_exact


def test_bohm_truncate_growing_spine():
    tr = bohm_truncate(FIX_SPINE, 2, 200)
    assert tr.is_exact
    assert tr.tree == parse_partial("\\x. x (x _|_)")
    deeper = bohm_truncate(FIX_SPINE, 4, 400)
    assert deeper.tree == parse_partial("\\x. x (x (x (x _|_)))")


def test_p_bohm_examples():
    assert p_bohm(OMEGA, I, 3, 100) == exact(1)
    assert p_bohm(I, I, 3, 100) == exact(Fraction(1, 2))
    assert p_bohm(parse("(\\z. z)(\\x. x)"), I, 3, 100) == exact(Fraction(1, 2))


def test_p_bohm_brackets_for_undecided_inputs():
    v = p_bohm(OMEGA3, OMEGA3, 3, 5)  # unknown at the root on both sides
    assert not v.is_exact
    assert v.lower == 0 and v.upper == 1
    # an undecided argument caps the agreement where the rest goes deeper
    slow = parse("x ((\\a.a)(\\a.a)(\\a.a)(\\a.a) y) (z w)")
    other = parse("x u (z w)")
    assert p_bohm(slow, other, 3, 2) == bracket(0, Fraction(1, 2))
    assert p_bohm(slow, other, 3, 40) == exact(Fraction(1, 2))


def test_p_bohm_bracket_for_infinite_equal_trees():
    v = p_bohm(FIX_SPINE, FIX_SPINE, 3, 300)
    assert v == bracket(0, dyadic(3))


def test_p_bohm_narrows_with_depth_and_fuel():
    base = p_bohm(FIX_SPINE, FIX_SPINE, 2, 200)
    finer = p_bohm(FIX_SPINE, FIX_SPINE, 4, 400)
    assert base.contains(finer)
    exact_v = p_bohm(OMEGA, I, 2, 50)
    assert exact_v.is_exact
    assert p_bohm(OMEGA, I, 4, 100) == exact_v


@st.composite
def salted_terms(draw, depth=0):
    """Random terms whose subterms are sometimes Omega or Omega_3, so that
    solvability is refuted at some positions and undecided at others."""
    kinds = (["var", "abs", "app", "spine", "spine", "omega"]
             if depth < 4 else ["var", "omega"])
    kind = draw(st.sampled_from(kinds))
    if kind == "var":
        return Var(draw(st.sampled_from("xyz")))
    if kind == "spine":  # a head variable, so the Boehm tree branches
        t = Var(draw(st.sampled_from("xyz")))
        for _ in range(draw(st.integers(1, 2))):
            t = App(t, draw(salted_terms(depth + 1)))
        return t
    if kind == "omega":
        return draw(st.sampled_from([OMEGA, OMEGA3]))
    if kind == "abs":
        return Abs(draw(st.sampled_from("xyz")), draw(salted_terms(depth + 1)))
    return App(draw(salted_terms(depth + 1)), draw(salted_terms(depth + 1)))


def _variant(t, rng):
    """t with some subterms delayed by identity redexes and some variables
    renamed to w: the same Boehm tree, or one that differs from t deep down,
    with solvability decided at different fuel."""
    if isinstance(t, Var):
        u = Var("w") if rng.random() < 0.1 else t
    elif isinstance(t, Abs):
        u = Abs(t.binder, _variant(t.body, rng))
    else:
        u = App(_variant(t.fun, rng), _variant(t.arg, rng))
    for _ in range(rng.randint(1, 12) if rng.random() < 0.25 else 0):
        u = App(I, u)
    return u


@st.composite
def term_pairs(draw):
    """Two variants of one salted term."""
    t = draw(salted_terms())
    rng = draw(st.randoms(use_true_random=False))
    return _variant(t, rng), _variant(t, rng)


@st.composite
def budget_pairs(draw):
    """Depths d <= d2 and fuels f <= f2."""
    d, d2 = sorted(draw(st.integers(1, 5)) for _ in range(2))
    f, f2 = sorted(draw(st.integers(1, 16)) for _ in range(2))
    return d, f, d2, f2


@given(term_pairs(), budget_pairs())
@settings(max_examples=200, deadline=None)
def test_p_bohm_brackets_nest_as_budgets_grow(pair, budgets):
    d, f, d2, f2 = budgets
    base, refined = p_bohm(*pair, d, f), p_bohm(*pair, d2, f2)
    assert base.contains(refined)
    if base.is_exact:
        assert refined == base


def test_p_bohm_requires_depth():
    with pytest.raises(ValueError):
        p_bohm(I, I, 0, 10)


def test_alpha_equivalence_with_shadowed_binders():
    a = parse_partial("\\x. x (\\x. x)")
    b = parse_partial("\\x. x (\\y. y)")
    assert a == b
    assert p_tree(a, b) == exact(dyadic(height(a)))
    c = parse_partial("\\x. x (\\y. x)")  # inner head refers to the outer binder
    assert a != c


def test_partial_print_parse_roundtrip():
    for s in ["x _|_ y", "\\a. a (\\b. b a)", "\\x. x (\\x. x)",
              "x (y _|_) (\\a. a)"]:
        t = parse_partial(s)
        assert parse_partial(str(t)) == t


@pytest.mark.parametrize("binder", [False, True])
def test_deep_chains_print_and_embed_without_recursion(binder):
    # x (x (... _|_)) or \a. a (\a. a (... _|_)), and the chain ending in y,
    # 10,000 nodes deep: the recursive printer and embedding raised
    # RecursionError from about 1,000 and 500 levels
    n = 10_000
    binders, head = (("a",), "a") if binder else ((), "x")
    a, b = BOT, bohm.Node((), "y", ())
    for _ in range(n):
        a, b = bohm.Node(binders, head, (a,)), bohm.Node(binders, head, (b,))
    inner = "\\a. a " if binder else "x "
    outer, close = (inner + "(") * (n - 1), ")" * (n - 1)
    assert str(a) == bohm.show_partial(a) == outer + inner + "_|_" + close
    assert show(bohm.to_lambda(b)) == str(b) == outer + inner + "y" + close
    with pytest.raises(ValueError, match="bottom has no lambda-term embedding"):
        bohm.to_lambda(a)


@pytest.mark.parametrize("binder", [False, True])
def test_deep_chains_key_and_grow_without_recursion(binder):
    # x (x (... _|_)) or \a. a (\a. a (... _|_)), built twice, the chain
    # ending in y, and the lambda chain ending in y, 10,000 levels deep:
    # keys, hashes and equality recursed through pkey, and the four builders
    # of partial trees recursed once per level
    n = 10_000
    binders, head = (("a",), "a") if binder else ((), "x")
    a, a2, b, m = BOT, BOT, bohm.Node((), "y", ()), Var("y")
    for _ in range(n):
        a, a2 = bohm.Node(binders, head, (a,)), bohm.Node(binders, head, (a2,))
        b = bohm.Node(binders, head, (b,))
        m = Abs("a", App(Var("a"), m)) if binder else App(Var("x"), m)
    assert hash(a) == hash(a2) and a == a2 and a != b and hash(a) != hash(b)
    assert height(a) == n and a._height == n
    assert truncate(b, n) == a and height(truncate(b, n // 2)) == n // 2
    assert bohm.from_lambda(m) == b and direct_approximant(m) == b
    tr = bohm_truncate(m, n, 10)
    assert tr.tree == truncate(b, n) and tr.cut == ((0,) * n,) and tr.is_exact
    assert len(str(tr.tree)) == len(str(a))
