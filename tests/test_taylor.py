from fractions import Fraction

import pytest

from lambdapm import bohm, corpus, resource
from lambdapm.bohm import BOT, parse_partial
from lambdapm.distance import dyadic, exact
from lambdapm.lamcalc import Abs, App, Var, parse
from lambdapm.limits import CapExceeded
from lambdapm.pmetric import LiftedSet, hausdorff_star
from lambdapm.resource import (RAbs, RApp, RVar, bag_leq, gen_height,
                               parse_resource, r_metric)
from lambdapm.taylor import (TentativeTreeError, box_relation,
                             commutation_check, enumerate_partial,
                             enumeration_isometry, faithful_pool,
                             hstar_fragments, isometry_check, min_source,
                             pair_index, per_term, taylor_expand,
                             taylor_of_term, _bags_within, _syntactic_depth)


def test_box_relation_rules():
    assert box_relation(parse_resource("x"), parse_partial("x"))
    assert box_relation(parse_resource("\\x. \\y. y<x, x>"),
                        parse_partial("\\x. \\y. y x"))
    assert not box_relation(parse_resource("x"), BOT)


def test_box_relation_arity_and_bottoms():
    # one bag per argument position, empty over a bottom child
    assert box_relation(parse_resource("x<><y>"), parse_partial("x _|_ y"))
    assert not box_relation(parse_resource("x<z><y>"), parse_partial("x _|_ y"))
    assert not box_relation(parse_resource("x"), parse_partial("x y"))


def test_min_source():
    assert min_source(parse_resource("x<><y>")) == parse_partial("x _|_ y")
    assert min_source(parse_resource("x")) == parse_partial("x")
    # incompatible bag elements have no source
    assert min_source(parse_resource("x<y, z>")) is None
    joined = min_source(parse_resource("x<y<><z>, y<w><>>"))
    assert joined == parse_partial("x (y w z)")


def test_taylor_expand_examples():
    assert taylor_expand(BOT, 2, 2).elements == frozenset()
    assert taylor_expand(parse_partial("\\x. x"), 3, 3).elements == \
        {parse_resource("\\x. x")}
    frag = taylor_expand(parse_partial("\\x. \\y. y x"), 2, 2)
    assert frag.elements == {parse_resource("\\x. \\y. y<>"),
                             parse_resource("\\x. \\y. y<x>"),
                             parse_resource("\\x. \\y. y<x, x>")}


def test_taylor_expand_respects_box_relation():
    a = parse_partial("x (y _|_) x")
    frag = taylor_expand(a, 2, 3)
    assert frag.elements
    for t in frag.elements:
        assert box_relation(t, a)
        assert resource.height(t) <= bohm.height(a)


def test_taylor_of_term_examples():
    frag = taylor_of_term(parse("(\\x. x)(\\y. y)"), 2, 5)
    assert frag.elements == {parse_resource("(\\x. x)<>"),
                             parse_resource("(\\x. x)<\\y. y>"),
                             parse_resource("(\\x. x)<\\y. y, \\y. y>")}
    assert taylor_of_term(parse("y"), 2, 3).elements == {parse_resource("y")}


def test_taylor_of_term_matches_expand_on_normal_forms():
    for s in ["\\x. x", "x y", "\\a. a (a x)"]:
        t = parse(s)
        a = bohm.direct_approximant(t)
        assert taylor_of_term(t, 2, 4).elements == \
            taylor_expand(a, 2, 4).elements


def test_gen_height_matches_normal_height():
    for t in corpus.resource_corpus(10):
        assert gen_height(t) == resource.height(t)


def brute_hstar(a, b, mult):
    hb = 1 + max(bohm.height(a), bohm.height(b), 1)
    A = taylor_expand(a, mult, hb).elements
    B = taylor_expand(b, mult, hb).elements
    return hausdorff_star(lambda t, u: r_metric(t, u).value,
                          LiftedSet(A, bag_leq), LiftedSet(B, bag_leq)).value


@pytest.mark.parametrize("a,b", [
    ("x", "x"),
    ("x", "y"),
    ("x _|_", "x x"),
    ("x _|_ y", "x y y"),
    ("\\a. a x", "\\a. a (a x)"),
    ("x (y x)", "x (y y)"),
    ("_|_", "x y"),
    # fragments of 30 and 100 elements at mult 2; while H* measured each
    # pair once for every element below, brute force took about 10 s here
    ("x (y z) w", "x (y z) (w z)"),
])
@pytest.mark.parametrize("mult", [1, 2])
def test_fast_hstar_agrees_with_brute_force(a, b, mult):
    pa, pb = parse_partial(a), parse_partial(b)
    assert hstar_fragments(pa, pb, mult) == brute_hstar(pa, pb, mult)


def test_isometry_paper_cases():
    res = isometry_check(BOT, parse_partial("\\x. x"), 2)
    assert res["lhs"] == res["rhs"] == exact(1)
    a = parse_partial("x (y x)")
    res = isometry_check(a, a, 2)
    assert res["lhs"] == res["rhs"] == exact(dyadic(bohm.height(a)))
    res = isometry_check(parse_partial("\\x. x _|_"),
                         parse_partial("\\x. x (\\y. y)"), 2)
    assert res["lhs"] == res["rhs"] == exact(Fraction(1, 2))
    assert res["equal"] and res["stable"]


def test_commutation_examples():
    res = commutation_check(parse("(\\x. x)(\\y. y)"), 2, 4, 100)
    assert res["equal"] and res["lhs"] == {parse_resource("\\y. y")}
    res = commutation_check(parse("\\x. x"), 2, 4, 100)
    assert res["equal"] and res["lhs"] == {parse_resource("\\x. x")}
    res = commutation_check(corpus.OMEGA, 2, 4, 100)
    assert res["equal"] and res["lhs"] == frozenset() == res["rhs"]


def test_tree_expansion_is_within_both_bounds():
    """commutation_check keeps the expansion of the Boehm tree unfiltered:
    every element already has bags of at most M items and height at most
    H, so the filter of its reduced side would keep all of them."""
    for a in corpus.partial_corpus(3, 4):
        for mult in (1, 2):
            for h in (1, 2, 3):
                for t in taylor_expand(a, mult, h).elements:
                    assert resource.height(t) <= h and _bags_within(t, mult)


def test_isometry_on_deep_chains_without_recursion():
    # x (x (... _|_)) against the same chain ending in y, 10,000 nodes deep:
    # the maximal element of a fragment has about b**height nodes, and
    # building it recursed once per level
    a, b = BOT, bohm.Node((), "y", ())
    for _ in range(10_000):
        a, b = bohm.Node((), "x", (a,)), bohm.Node((), "x", (b,))
    res = isometry_check(a, b, 2)
    assert res["equal"] and res["stable"]
    assert res["lhs"] == exact(dyadic(10_000))


def deep_lambda(shape, n):
    """x (x (… y)), ((y x) x) … x, \\a. \\a. … a or x (\\a. x (\\a. … a)) with
    n levels, built by constructors."""
    t = Var("y" if shape in ("args", "funs") else "a")
    for _ in range(n):
        if shape == "args":
            t = App(Var("x"), t)
        elif shape == "funs":
            t = App(t, Var("x"))
        elif shape == "binders":
            t = Abs("a", t)
        else:
            t = App(Var("x"), Abs("a", t))
    return t


@pytest.mark.parametrize("shape, depth", [("args", 10_001), ("funs", 10_001),
                                          ("binders", 1), ("mixed", 10_001)])
def test_syntactic_depth_answers_on_deep_terms(shape, depth):
    assert _syntactic_depth(deep_lambda(shape, 10_000)) == depth


@pytest.mark.parametrize("shape, widest", [("bags", 1), ("binders", 1),
                                           ("mixed", 1), ("wide", 2)])
def test_bags_within_answers_on_deep_terms(shape, widest):
    # x<x<… y>>, \\a. … a<a>, x<\\a. x<… a>> or x<x<… y<z, z>>>, 10,000 levels
    t = {"bags": RVar("y"), "binders": RApp(RVar("a"), (RVar("a"),)),
         "mixed": RVar("a"),
         "wide": RApp(RVar("y"), (RVar("z"), RVar("z")))}[shape]
    for _ in range(10_000):
        t = (RAbs("a", t) if shape == "binders" else
             RApp(RVar("x"), (RAbs("a", t) if shape == "mixed" else t,)))
    assert _bags_within(t, widest) and not _bags_within(t, widest - 1)


def test_commutation_rejects_tentative_trees():
    with pytest.raises(TentativeTreeError):
        commutation_check(corpus.OMEGA3, 2, 3, 5)


def test_commutation_with_duplication():
    res = commutation_check(parse("(\\f. \\x. f (f x)) (\\y. y)"), 2, 4, 200)
    assert res["equal"]
    assert parse_resource("\\x. x") in res["lhs"]


def test_commutation_is_two_sided_on_nested_copies():
    """The tree side holds elements with up to mult**2 copies of the
    argument; the redex's bag is sized by the occurrences of its binder, not
    by `mult`, so the reduced side reaches them (docs/DECISIONS.md D11,
    D13)."""
    m = parse("(\\x. f (g x)) (z w)")
    sizes = {}
    for mult in (2, 3):
        res = commutation_check(m, mult, 3, 100)
        assert res["lhs"] == res["rhs"] and res["equal"]
        sizes[mult] = (len(res["lhs"]), len(res["rhs"]))
    assert sizes == {2: (10, 10), 3: (35, 35)}
    res = commutation_check(m, 2, 3, 100)
    assert parse_resource("f<g<z<>, z<>>, g<z<>, z<>>>") in res["lhs"]


def test_sized_bag_pool_goes_through_the_cap(monkeypatch):
    """At mult 3 the redex of the D11 example takes bags of up to 9 items
    over 4 argument elements; past LAMBDA_PM_CAP the pool is not built.
    The largest unsized pool and element list, of f (g x), hold 35, so at
    a cap of 35 the sized pool is the first to exceed it."""
    monkeypatch.setenv("LAMBDA_PM_CAP", "35")
    with pytest.raises(CapExceeded, match="sized bag pool .*LAMBDA_PM_CAP"):
        commutation_check(parse("(\\x. f (g x)) (z w)"), 3, 3, 100)


def test_partial_enumeration_prefix_and_injectivity():
    assert enumerate_partial(1) == parse_partial("x")
    assert enumerate_partial(2) == parse_partial("y")
    seen = [enumerate_partial(n) for n in range(1, 80)]
    assert len(set(seen)) == len(seen)
    assert BOT not in seen


def test_pair_index_is_a_bijection_prefix():
    pairs = [pair_index(m) for m in range(1, 200)]
    assert len(set(pairs)) == len(pairs)
    assert pair_index(1) == (1, 1)
    # weights over the full K x K box sum to (1 - 2^-K)^2
    K = 6
    total = sum(dyadic(i + j) for i in range(1, K + 1) for j in range(1, K + 1))
    assert total == (1 - dyadic(K)) ** 2


def test_faithful_pool_members_have_exact_source():
    for n in range(1, 25):
        a = enumerate_partial(n)
        pool = faithful_pool(a)
        assert pool
        for t in pool:
            assert min_source(t) == a
    # per-term enumeration cycles rather than running out
    a = enumerate_partial(1)
    assert per_term(a, 1) == per_term(a, 1 + len(faithful_pool(a)))


def test_enumeration_isometry_gap_bounded_by_tail():
    for a, b in [("\\a. a", "\\a. a"), ("x", "x y"), ("x _|_", "x x"),
                 ("x y y", "x _|_ y")]:
        res = enumeration_isometry(parse_partial(a), parse_partial(b), 10)
        assert res["gap"] <= res["tail"]


def test_enumeration_isometry_self_prefix_formula():
    a = parse_partial("\\a. a")
    res = enumeration_isometry(a, a, 9)
    expected = sum(dyadic(n) for n in range(1, 10)
                   if not bohm.partial_leq(enumerate_partial(n), a))
    assert res["pB"].lower == expected


def test_grouping_reproduces_term_condition():
    # grouping the paired series by the first index reproduces the
    # partial-term condition, term by term
    a, b = parse_partial("x y"), parse_partial("x _|_")
    for n in range(1, 12):
        src = enumerate_partial(n)
        cond_b = not (bohm.partial_leq(src, a) and bohm.partial_leq(src, b))
        members = [per_term(src, m) for m in range(1, 6)]
        cond_p = [not (box_relation(v, a) and box_relation(v, b))
                  for v in members]
        assert all(c == cond_b for c in cond_p)


def test_every_element_extends_to_requested_height():
    # within the expansion of a, any element grows (in the bag order) to any
    # height up to the height of a
    for src in ["x (y x)", "\\a. a (x (a y))", "x (x (x y))"]:
        a = parse_partial(src)
        hb = bohm.height(a)
        frag = taylor_expand(a, 2, hb).elements
        for t in frag:
            for n in range(resource.height(t), hb + 1):
                assert any(bag_leq(t, u) and resource.height(u) >= n
                           for u in frag), (src, str(t), n)


def _principal_ideals(elements):
    return [frozenset(u for u in elements if bag_leq(u, t)) for t in elements]


def test_double_lifting_reproduces_single_lifting():
    # lifting H* once more over the principal-ideal families of two fragments
    # gives back the fragment distance
    def rdist(a, b):
        return r_metric(a, b).value

    for sa, sb in [("x", "y"), ("x _|_", "x x"), ("x _|_ y", "x y y"),
                   ("\\a. a x", "\\a. a (a x)"), ("x (y x)", "x (y y)"),
                   ("_|_", "x y"), ("x y", "x y")]:
        a, b = parse_partial(sa), parse_partial(sb)
        hb = 1 + max(bohm.height(a), bohm.height(b), 1)
        A = taylor_expand(a, 2, hb).elements
        B = taylor_expand(b, 2, hb).elements
        fam_a = frozenset(_principal_ideals(A))
        fam_b = frozenset(_principal_ideals(B))
        cache = {}

        def inner(i, j):
            if (i, j) not in cache:
                cache[i, j] = hausdorff_star(
                    rdist, LiftedSet(i, bag_leq), LiftedSet(j, bag_leq)).value
            return cache[i, j]

        incl = lambda i, j: i <= j
        outer = hausdorff_star(inner, LiftedSet(fam_a, incl),
                               LiftedSet(fam_b, incl)).value
        assert outer == hstar_fragments(a, b, 2)


def test_diagonal_weight_prefix_closed_form():
    # the paired weights over complete diagonals match the closed form
    from lambdapm.distance import dyadic
    m = 0
    for d in range(1, 9):
        m += d
        total = sum(dyadic(sum(pair_index(i))) for i in range(1, m + 1))
        closed = sum((s - 1) * dyadic(s) for s in range(2, d + 2))
        assert total == closed


def test_enumeration_isometry_bottom_side():
    # nothing non-bottom approximates the empty tree, so every enumerated
    # term contributes and the prefix tends to the full mass
    from lambdapm.distance import dyadic
    res = enumeration_isometry(BOT, parse_partial("x y"), 9)
    assert res["pB"].lower == 1 - dyadic(9)


def _drop_one(t):
    """All terms obtained by removing a single bag element somewhere."""
    from lambdapm.resource import RAbs, RApp, RVar
    if isinstance(t, RVar):
        return []
    if isinstance(t, RAbs):
        return [RAbs(t.binder, u) for u in _drop_one(t.body)]
    out = [RApp(u, t.bag) for u in _drop_one(t.fun)]
    items = list(t.bag)
    for i in range(len(items)):
        out.append(RApp(t.fun, tuple(items[:i] + items[i + 1:])))
        for v in _drop_one(items[i]):
            out.append(RApp(t.fun, tuple(items[:i] + [v] + items[i + 1:])))
    return out


def test_fragment_downward_closed_within_bounds():
    frag = taylor_expand(parse_partial("x (y x) x"), 2, 3).elements
    for t in frag:
        for u in _drop_one(t):
            assert u in frag


def test_min_source_joins_alpha_variant_bag_elements():
    t = parse_resource("x<\\y. y<y>, \\z. z<z>>")
    assert min_source(t) == parse_partial("x (\\a. a a)")
    assert box_relation(t, parse_partial("x (\\a. a a)"))
