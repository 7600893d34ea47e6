"""Differential and round-trip properties: the de Bruijn keys against
reference implementations that scan an outermost-first environment, the
monotone-table DFS against a brute-force filter, and print/parse round
trips for resource and partial terms."""

import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from lambdapm import corpus
from lambdapm.bohm import BOT, Node, parse_partial, pkey, show_partial
from lambdapm.domains import LazyTop, build_tower, iter_monotone_tables
from lambdapm.lamcalc import Abs, App, Var, key
from lambdapm.resource import (RAbs, RApp, RVar, parse_resource, rkey,
                               show_resource)

# A three-name alphabet makes shadowed binders common.
names = st.sampled_from(["x", "y", "z"])


# ---------------------------------------------------------------------------
# Reference keys: env lists binders outermost first, and a variable's index
# counts binders from the right end.

def _ref_index(name, env):
    for i in range(len(env) - 1, -1, -1):
        if env[i] == name:
            return ("b", len(env) - 1 - i)
    return ("f", name)


def ref_key(t, env=()):
    if isinstance(t, Var):
        return _ref_index(t.name, env)
    if isinstance(t, Abs):
        return ("l", ref_key(t.body, env + (t.binder,)))
    return ("a", ref_key(t.fun, env), ref_key(t.arg, env))


def ref_pkey(t, env=()):
    if not isinstance(t, Node):
        return ("bot",)
    inner = env + t.binders
    return ("n", len(t.binders), _ref_index(t.head, inner),
            tuple(ref_pkey(a, inner) for a in t.args))


def ref_rkey(t, env=()):
    if isinstance(t, RVar):
        return _ref_index(t.name, env)
    if isinstance(t, RAbs):
        return ("l", ref_rkey(t.body, env + (t.binder,)))
    return ("a", ref_rkey(t.fun, env),
            tuple(sorted(ref_rkey(u, env) for u in t.bag)))


@st.composite
def lam_terms(draw, depth=0):
    kind = draw(st.sampled_from(["var", "abs", "app"] if depth < 5 else ["var"]))
    if kind == "var":
        return Var(draw(names))
    if kind == "abs":
        return Abs(draw(names), draw(lam_terms(depth + 1)))
    return App(draw(lam_terms(depth + 1)), draw(lam_terms(depth + 1)))


@st.composite
def partial_terms(draw, depth=0):
    """Canonical partial terms: bottom, or a node with a variable head."""
    if depth > 0 and draw(st.integers(0, 4)) == 0:
        return BOT
    binders = tuple(draw(st.lists(names, max_size=2)))
    n_args = draw(st.integers(0, 2 if depth < 3 else 0))
    args = tuple(draw(partial_terms(depth + 1)) for _ in range(n_args))
    return Node(binders, draw(names), args)


@st.composite
def resource_terms(draw, depth=0):
    kind = draw(st.sampled_from(["var", "abs", "app"] if depth < 4 else ["var"]))
    if kind == "var":
        return RVar(draw(names))
    if kind == "abs":
        return RAbs(draw(names), draw(resource_terms(depth + 1)))
    bag = draw(st.lists(resource_terms(depth + 1), max_size=3))
    return RApp(draw(resource_terms(depth + 1)), tuple(bag))


@given(lam_terms())
@settings(max_examples=100, deadline=None)
def test_key_matches_reference(t):
    assert key(t) == ref_key(t)


@given(partial_terms())
@settings(max_examples=100, deadline=None)
def test_pkey_matches_reference(t):
    assert pkey(t) == ref_pkey(t)


@given(resource_terms())
@settings(max_examples=100, deadline=None)
def test_rkey_matches_reference(t):
    assert rkey(t) == ref_rkey(t)


def test_keys_resolve_shadowing_to_the_closest_binder():
    t = Abs("x", Abs("y", Abs("x", App(Var("x"), Var("y")))))
    assert key(t) == ref_key(t) == ("l", ("l", ("l", ("a", ("b", 0), ("b", 1)))))
    p = Node(("x", "y", "x"), "y", (Node(("y",), "x", ()),))
    assert pkey(p) == ref_pkey(p) == ("n", 3, ("b", 1), (("n", 1, ("b", 1), ()),))


# ---------------------------------------------------------------------------
# Monotone tables

def brute_force_tables(x, y):
    return [t for t in product(range(y.size), repeat=x.size)
            if all(y.le(t[i], t[j]) for i in range(x.size)
                   for j in range(x.size) if x.le(i, j))]


def reference_random_table(poset, rng):
    """A standalone randomized DFS: the same rng must give the same table."""
    n = poset.size
    order = sorted(range(n), key=lambda i: sum(poset.leq[j][i] for j in range(n)))
    pos = {e: k for k, e in enumerate(order)}

    def assign(k, partial):
        if k == n:
            table = [None] * n
            for e, v in zip(order, partial):
                table[e] = v
            return tuple(table)
        e = order[k]
        vals = list(range(n))
        rng.shuffle(vals)
        for v in vals:
            ok = all(not (poset.le(e2, e) and not poset.le(partial[pos[e2]], v))
                     and not (poset.le(e, e2) and not poset.le(v, partial[pos[e2]]))
                     for e2 in order[:k])
            if ok:
                res = assign(k + 1, partial + (v,))
                if res is not None:
                    return res
        return None

    return assign(0, ())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_monotone_tables_match_brute_force(seed):
    rng = random.Random(seed)
    x = corpus.random_bounded_complete_poset(rng, 5)
    y = corpus.random_bounded_complete_poset(rng, 5)
    tables = list(iter_monotone_tables(x, y))
    assert len(tables) == len(set(tables))
    assert sorted(tables) == brute_force_tables(x, y)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_random_table_is_a_monotone_table(seed):
    p = corpus.random_bounded_complete_poset(random.Random(seed), 5)
    top = LazyTop(build_tower(p, lambda i, j: Fraction(1), 0))
    members = set(brute_force_tables(p, p))
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(5):
        table = top.random_table(rng)
        assert table in members
        assert table == reference_random_table(p, ref_rng)


# ---------------------------------------------------------------------------
# Round trips

@given(resource_terms())
@settings(max_examples=100, deadline=None)
def test_resource_print_parse_roundtrip(t):
    back = parse_resource(show_resource(t))
    assert back == t
    assert show_resource(back) == show_resource(t)


@given(partial_terms())
@settings(max_examples=100, deadline=None)
def test_partial_print_parse_roundtrip(t):
    back = parse_partial(show_partial(t))
    assert back == t
    assert show_partial(back) == show_partial(t)
