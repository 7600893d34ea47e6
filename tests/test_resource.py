import time
from fractions import Fraction

import pytest

from lambdapm import corpus, resource
from lambdapm.bohm import BOT, Bottom, Node
from lambdapm.distance import dyadic, exact
from lambdapm.domains import CapExceeded as DomainsCapExceeded
from lambdapm.lamcalc import Abs, ParseError, Var, _same_key
from lambdapm.limits import CapExceeded
from lambdapm.resource import (EMPTY_MARK, RAbs, RApp, RVar, ResourceParseError,
                               bag_leq, free_rvars, gen_height, height,
                               is_normal, parse_resource, r_leq, r_metric,
                               resource_reduce, rkey, rsize, show_resource,
                               truncate, _step)


def nf_all_positions(t):
    """Saturate reduction contracting redexes at every position, to witness
    confluence against the library's leftmost strategy."""
    def step_everywhere(u):
        out = set()
        if isinstance(u, RVar):
            return out
        if isinstance(u, RAbs):
            return {RAbs(u.binder, v) for v in step_everywhere(u.body)}
        if isinstance(u.fun, RAbs):
            from lambdapm.resource import _contract
            out |= {v for v in _contract(u.fun, u.bag)}
        for v in step_everywhere(u.fun):
            out.add(RApp(v, u.bag))
        items = list(u.bag)
        for i, w in enumerate(items):
            for v in step_everywhere(w):
                out.add(RApp(u.fun, tuple(items[:i] + [v] + items[i + 1:])))
        return out

    done, todo = set(), {t}
    while todo:
        cur = todo.pop()
        if is_normal(cur):
            done.add(cur)
        else:
            # an annihilating contraction yields no successors: branch dies
            todo |= step_everywhere(cur)
    return frozenset(done)


def test_parse_print_roundtrip():
    for s in ["x", "\\x. x<>", "(\\x. x<x>)<y, z>", "x<y<z>, w>"]:
        t = parse_resource(s)
        assert parse_resource(str(t)) == t


def test_reduction_paper_examples():
    t = parse_resource("(\\x. x<x>) <y, z>")
    assert resource_reduce(t) == {parse_resource("y<z>"),
                                  parse_resource("z<y>")}
    assert resource_reduce(parse_resource("(\\x. x<x>) <y>")) == frozenset()
    norm = parse_resource("\\y. y<>")
    assert resource_reduce(norm) == {norm}


def test_reduction_annihilates_on_mismatch():
    # two occurrences, three resources
    t = parse_resource("(\\x. x<x>) <y, z, w>")
    assert resource_reduce(t) == frozenset()
    # zero occurrences, nonempty bag
    t2 = parse_resource("(\\x. y) <z>")
    assert resource_reduce(t2) == frozenset()
    # zero occurrences, empty bag: plain discard
    t3 = parse_resource("(\\x. y) <>")
    assert resource_reduce(t3) == {parse_resource("y")}


def test_reduction_confluent_against_all_positions_strategy():
    terms = [
        "(\\x. x<x>) <y, z>",
        "(\\x. x<x<>>) <\\u. u<>, y>",
        "(\\x. x<>) <(\\z. z<>) <y>>",
        "((\\x. x<x>) <y, z>) <(\\u. u<>) <w>>",
    ]
    for s in terms:
        t = parse_resource(s)
        assert resource_reduce(t) == nf_all_positions(t)


def test_reduction_strictly_decreases_size():
    t = parse_resource("(\\x. x<x<>>) <\\u. u<>, y>")
    for u in _step(t):
        assert rsize(u) < rsize(t)


def test_substitution_avoids_capture():
    # (\x. \y. x<>) <y<>> must not capture the free y
    t = parse_resource("(\\x. \\y. x<y>) <y>")
    (nf,) = resource_reduce(t)
    binders = []
    cur = nf
    while isinstance(cur, RAbs):
        binders.append(cur.binder)
        cur = cur.body
    assert isinstance(cur, RApp)
    assert isinstance(cur.fun, RVar) and cur.fun.name not in binders


def test_renamed_binder_is_not_captured_by_an_inner_binder():
    # renaming \y away from the free y must not pick the name of the inner
    # \y0, which would then capture the renamed occurrence
    t = parse_resource("(\\x. \\y. \\y0. y<x>) <y>")
    assert resource_reduce(t) == {parse_resource("\\a. \\b. a<y>")}


def test_parse_errors_are_typed_with_positions():
    with pytest.raises(ResourceParseError) as err:
        parse_resource("x<y")
    assert isinstance(err.value, ParseError) and err.value.pos == 3
    with pytest.raises(ResourceParseError):
        parse_resource("x _|_")


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ResourceParseError, match="nested too deeply"):
        parse_resource("(" * 1200 + "x" + ")" * 1200)


def test_heights():
    assert height(parse_resource("\\x. x<>")) == 1
    assert height(parse_resource("\\x. \\y. y<x>")) == 2
    assert height(parse_resource("y<z<>, w<>>")) == 2


def test_truncation():
    t = parse_resource("\\x. \\y. y<x<>>")
    assert truncate(t, 1) == parse_resource("\\x. \\y. y<>")
    assert truncate(t, 0) is EMPTY_MARK
    assert truncate(t, 5) == t
    u = parse_resource("x<y><z<w<>>>")
    assert truncate(u, 2) == parse_resource("x<y><z<>>")


def test_truncation_preserves_arity():
    t = parse_resource("x<y<>><>")
    assert truncate(t, 1) == parse_resource("x<><>")


def test_r_metric_examples():
    t = parse_resource("\\x. x<>")
    assert r_metric(t, t) == exact(Fraction(1, 2))
    assert r_metric(t, parse_resource("\\y. z<>")) == exact(1)
    assert r_metric(parse_resource("\\x. \\y. y<x>"),
                    parse_resource("\\x. \\y. y<>")) == exact(Fraction(1, 2))


def test_r_metric_alpha_invariant():
    a = parse_resource("\\a. a<\\b. b<>>")
    b = parse_resource("\\u. u<\\v. v<>>")
    assert r_metric(a, b) == exact(dyadic(height(a)))


def test_r_self_distance_is_height():
    for t in corpus.resource_corpus(10):
        assert r_metric(t, t) == exact(dyadic(height(t)))


def test_induced_order_is_truncation_order_and_refines_bag_order():
    terms = corpus.resource_corpus(12)
    for a in terms:
        for b in terms:
            induced = r_metric(a, b).value <= r_metric(a, a).value
            assert induced == r_leq(a, b)
            if induced:
                assert bag_leq(a, b)
    # the containment is strict: bag extension on a non-frontier bag
    t = parse_resource("x<><y>")
    u = parse_resource("x<z><y>")
    assert bag_leq(t, u) and not r_leq(t, u)


def test_bag_order_embedding():
    assert bag_leq(parse_resource("x<y>"), parse_resource("x<y, z>"))
    assert not bag_leq(parse_resource("x<y, y>"), parse_resource("x<y>"))
    assert bag_leq(parse_resource("x<>"), parse_resource("x<w>"))
    assert not bag_leq(parse_resource("x<>"), parse_resource("x<><>"))


def test_bag_order_needs_an_augmenting_path():
    # x<> extends to both items and x<y> only to x<y>: the first item's
    # first choice, x<y>, has to move to x<z> so that the second finds one
    assert bag_leq(parse_resource("f<x<>, x<y>>"), parse_resource("f<x<y>, x<z>>"))
    assert not bag_leq(parse_resource("f<x<y>, x<y>>"), parse_resource("f<x<y>, x<z>>"))


def adversarial_bags(k, pairs):
    """f<x<>, ..., x<>, x<y> (pairs times)> against f<x<y>, x<>, ..., x<>>, k
    items each: every x<> extends to every item, x<y> to the first alone, so
    the bag order holds iff pairs is 1, and trying every assignment of the
    small bag's items takes factorial time."""
    small = ["x<>"] * (k - pairs) + ["x<y>"] * pairs
    big = ["x<y>"] + ["x<>"] * (k - 1)
    return (parse_resource(f"f<{', '.join(small)}>"), parse_resource(f"f<{', '.join(big)}>"))


@pytest.mark.parametrize("k", [8, 9, 10, 11, 40])
def test_bag_order_is_matched_not_backtracked(k):
    # at k = 11 the backtracking embedding took 74 s on the False pair and
    # 10 s on the True one; the matching takes well under a millisecond
    for pairs, expected in ((2, False), (1, True)):
        t, u = adversarial_bags(k, pairs)
        start = time.perf_counter()
        assert bag_leq(t, u) is expected
        assert time.perf_counter() - start < 1.0


def test_is_normal():
    assert is_normal(parse_resource("\\x. x<y>"))
    assert not is_normal(parse_resource("(\\x. x<>) <>"))


def test_normal_view_rejects_redex():
    with pytest.raises(ValueError):
        height(parse_resource("(\\x. x<>) <>"))


def _singleton_bags_redex(k):
    """(\\x. h<x>...<x>)<y0, ..., y(k-1)>: k! normal forms."""
    items = ", ".join(f"y{i}" for i in range(k))
    return parse_resource(f"(\\x. h{'<x>' * k})<{items}>")


def test_same_bag_contraction_is_not_factorial():
    items = ", ".join(f"y{i}" for i in range(9))
    t = parse_resource(f"(\\x. z<{', '.join(['x'] * 9)}>)<{items}>")
    start = time.perf_counter()
    nfs = resource_reduce(t)
    assert time.perf_counter() - start < 1.0
    assert nfs == {parse_resource(f"z<{items}>")}
    assert [str(u) for u in nfs] == [f"z<{items}>"]


def test_factorial_contraction_raises_before_building(monkeypatch):
    monkeypatch.delenv("LAMBDA_PM_CAP", raising=False)
    assert DomainsCapExceeded is CapExceeded
    with pytest.raises(CapExceeded, match="more than 100000 distinct reducts, exceeds cap 100000"):
        resource_reduce(_singleton_bags_redex(9))


def test_cap_is_checked_before_any_reduct_is_built(monkeypatch):
    def build(*args):
        raise AssertionError("a reduct was built")
    monkeypatch.setenv("LAMBDA_PM_CAP", "23")
    monkeypatch.setattr(resource, "_run", build)
    with pytest.raises(CapExceeded, match="exceeds cap 23"):
        resource_reduce(_singleton_bags_redex(4))


def test_cap_counts_the_assignments_that_die(monkeypatch):
    """Each of the 24 assignments puts an abstraction of degree 1 at a head
    place with an empty bag, so none is built (docs/DECISIONS.md D29); the
    cap still counts all of them."""
    items = ", ".join(f"\\a. a<y{i}>" for i in range(4))
    t = parse_resource(f"(\\x. h<x<>><x<>><x<>><x<>>)<{items}>")
    monkeypatch.setenv("LAMBDA_PM_CAP", "23")
    with pytest.raises(CapExceeded, match="exceeds cap 23"):
        resource_reduce(t)

    def build(*args):
        raise AssertionError("a reduct was built")
    monkeypatch.setenv("LAMBDA_PM_CAP", "24")
    monkeypatch.setattr(resource, "_run", build)
    assert resource_reduce(t) == frozenset()


def test_contraction_cap_reads_the_environment(monkeypatch):
    monkeypatch.setenv("LAMBDA_PM_CAP", "24")
    assert len(resource_reduce(_singleton_bags_redex(4))) == 24
    monkeypatch.setenv("LAMBDA_PM_CAP", "23")
    with pytest.raises(CapExceeded, match="exceeds cap 23"):
        resource_reduce(_singleton_bags_redex(4))
    # two places in one bag: 12 reducts, under a multinomial bound of 24
    shared = parse_resource("(\\x. h<x, x><x><x>)<y0, y1, y2, y3>")
    monkeypatch.setenv("LAMBDA_PM_CAP", "12")
    assert len(resource_reduce(shared)) == 12
    monkeypatch.setenv("LAMBDA_PM_CAP", "11")
    with pytest.raises(CapExceeded, match="exceeds cap 11"):
        resource_reduce(shared)


def test_long_spine_is_walked_in_loops():
    """Printing, keys, equality, free names, height and normality of a
    3,000-bag spine do not recurse once per application node, also under a
    binder that the spine's head and its bags use, where keys and hashes
    take the walk that depends on the binders."""
    text = "x" + "<y>" * 3000
    t, u = parse_resource(text), parse_resource(text)
    assert show_resource(t) == text
    assert rkey(t)[::2] == ("a", (("f", "y"),))
    assert t == u and hash(t) == hash(u)
    assert t != parse_resource("x" + "<y>" * 2999 + "<z>")
    assert free_rvars(t) == {"x", "y"}
    assert gen_height(t) == height(t) == 2
    assert is_normal(t) and resource_reduce(t) == {t}
    redex = parse_resource("(\\z. z)<x>" + "<y>" * 3000)
    assert not is_normal(redex) and resource_reduce(redex) == {t}

    text = "\\x. x" + "<y>" * 3000
    t, u = parse_resource(text), parse_resource(text)
    assert show_resource(t) == text
    assert rkey(t)[0] == "l" and rkey(t)[1][::2] == ("a", (("f", "y"),))
    assert t == u and hash(t) == hash(u)
    assert t == parse_resource("\\w. w" + "<y>" * 3000)
    bound = parse_resource("\\x. x" + "<y>" * 2999 + "<x>")
    assert t != bound and hash(t) != hash(bound)
    assert free_rvars(t) == free_rvars(bound) == {"y"}
    assert gen_height(t) == height(t) == 2
    assert is_normal(t) and resource_reduce(t) == {t}
    redex = parse_resource("\\x. (\\z. z)<x>" + "<y>" * 3000)
    assert not is_normal(redex) and resource_reduce(redex) == {t}


def test_lambda_and_resource_nodes_are_never_equal():
    """The two families share the key encoder, so a variable has the same
    hash in both; equality still tells them apart, and partial terms,
    which share the encoder too, from both."""
    assert hash(Var("x")) == hash(RVar("x"))
    assert Var("x") != RVar("x") and RVar("x") != Var("x")
    assert not Var("x") == RVar("x")
    assert len({Var("x"), RVar("x")}) == 2
    assert len({Abs("x", Var("x")), RAbs("y", RVar("y"))}) == 2
    x = Node((), "x", ())
    assert x != Var("x") and Var("x") != x and x != RVar("x") and RVar("x") != x
    assert BOT == Bottom() and BOT != Var("_|_") and len({x, Var("x"), RVar("x")}) == 3


def deep_rterm(shape, n):
    """x<x<… y>>, \\a. \\a. … a or x<\\a. x<\\a. … a>> with n levels, built
    by constructors: the parser stops at about 985 nested bags."""
    t = RVar("y" if shape == "bags" else "a")
    for _ in range(n):
        if shape == "bags":
            t = RApp(RVar("x"), (t,))
        elif shape == "binders":
            t = RAbs("a", t)
        else:
            t = RApp(RVar("x"), (RAbs("a", t),))
    return t


@pytest.mark.parametrize("shape", ["bags", "binders", "mixed"])
def test_deep_resource_terms_answer_without_recursion(shape):
    # heights and normality recursed into bodies and bag items, and
    # printing into bag items, so these raised RecursionError from about
    # 250 nested bags
    n = 10_000
    t, fresh = deep_rterm(shape, n), deep_rterm(shape, n)
    names, h, text = {"bags": ({"x", "y"}, n + 1, "x<" * n + "y" + ">" * n),
                      "binders": (set(), 1, "\\a. " * n + "a"),
                      "mixed": ({"x"}, n + 1, "x<\\a. " * n + "a" + ">" * n)}[shape]
    assert free_rvars(t) == names
    assert gen_height(t) == height(t) == h
    assert is_normal(t)
    assert hash(t) == hash(fresh)
    assert _same_key(rkey(t), rkey(fresh))  # == on the tuples would recurse
    assert t == fresh and t != deep_rterm(shape, n - 1)
    assert str(t) == show_resource(fresh) == text


def cut_chain(shape, k):
    """truncate(deep_rterm(shape, n), k) for 1 <= k <= n: k - 1 levels of
    the chain above x<>."""
    t = RApp(RVar("x"), ())
    for _ in range(k - 1):
        t = RApp(RVar("x"), (t if shape == "bags" else RAbs("a", t),))
    return t


@pytest.mark.parametrize("shape", ["bags", "binders", "mixed"])
def test_truncate_and_rsize_answer_on_deep_terms(shape):
    # truncate recursed about three frames per nested bag, and so raised
    # RecursionError from 333 nested bags
    n = 10_000
    if shape == "binders":  # \a. \a. … a<>
        t = RApp(RVar("a"), ())
        for _ in range(n):
            t = RAbs("a", t)
    else:
        t = deep_rterm(shape, n)
    h = height(t)
    for k in (1, 2, 5_000, h):
        cut = truncate(t, k)
        assert cut == (t if k >= h else cut_chain(shape, k))
        assert height(cut) == min(k, h)
    assert rsize(t) == {"bags": 2 * n + 1, "binders": n + 2, "mixed": 3 * n + 1}[shape]


def test_r_compares_deep_terms_without_recursion():
    # the keys of the deep levels nest past the recursion limit that tuple
    # comparison observes, from about 500 bags
    a, b = deep_rterm("bags", 600), deep_rterm("bags", 600)
    assert r_metric(a, b) == exact(dyadic(601))
    assert r_leq(a, b) and r_leq(truncate(a, 300), b)
    assert not r_leq(truncate(a, 300), deep_rterm("bags", 299))


def test_r_finds_a_deep_first_difference():
    # the first differing level is found by bisection over the cached levels
    a, b = deep_rterm("bags", 200), RVar("y")
    for i in range(200):  # the head at depth 101 is w
        b = RApp(RVar("w" if i == 99 else "x"), (b,))
    assert r_metric(a, b) == r_metric(b, a) == exact(dyadic(100))
    assert not r_leq(a, b) and not r_leq(b, a)


def test_r_builds_only_the_levels_it_asks_for():
    # a level is key(truncate(t, k)), built on first ask; bisection asks
    # for O(log h) of them, and the order for the one at t's height
    a, b = deep_rterm("bags", 600), RVar("y")
    for i in range(600):  # the head at depth 451 is w
        b = RApp(RVar("w" if i == 149 else "x"), (b,))
    h = height(a)
    assert r_metric(a, b) == exact(dyadic(450))
    assert 0 < len(a._levels) <= h.bit_length() + 1
    assert 0 < len(b._levels) <= h.bit_length() + 1
    c, d = deep_rterm("bags", 600), deep_rterm("bags", 600)
    assert r_leq(c, d)
    assert list(c._levels) == list(d._levels) == [h]


@pytest.mark.parametrize("shape, n", [("bags", 10_000), ("binders", 3_000), ("mixed", 3_000)])
def test_canonical_binders_answers_on_deep_terms(shape, n):
    # the recursive renamer raised RecursionError from about 500 levels
    t = deep_rterm(shape, n)
    text = {"bags": "x<" * n + "y" + ">" * n,
            "binders": "".join(f"\\c{d}. " for d in range(n)) + f"c{n - 1}",
            "mixed": "".join(f"x<\\c{d}. " for d in range(n)) + f"c{n - 1}" + ">" * n}[shape]
    renamed = resource.canonical_binders(t)
    assert str(renamed) == text and renamed == t


@pytest.mark.parametrize("n", [2_000, 10_000])
def test_nested_redex_reduces_without_recursion(n):
    # _step recursed once per nested bag into the item holding the redex,
    # and raised RecursionError from 2,000 bags
    t = RApp(RAbs("z", RVar("z")), (RVar("y"),))
    for _ in range(n):
        t = RApp(RVar("x"), (t,))
    assert _step(t) == [deep_rterm("bags", n)]
    assert [str(u) for u in resource_reduce(t)] == ["x<" * n + "y" + ">" * n]
