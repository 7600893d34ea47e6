"""Differential and round-trip properties: the de Bruijn keys against
reference implementations that scan an outermost-first environment, the
cached keys and hashes of terms built by substitution, plugging and head
reduction against uncached references, the contextual queries served from
outcome rows against memo-free loops, poset
validation and the monotone-table DFS against pairwise reference loops and a
brute-force filter, the lazy tower level and the function-space order against
their pointwise forms, the completion check of i.j <= id against the check on
every table, and print/parse round trips for resource and partial terms."""

import random
from fractions import Fraction
from itertools import product

from hypothesis import example, given, settings, strategies as st

from lambdapm import contextual, corpus
from lambdapm.bohm import BOT, Node, parse_partial, pkey, show_partial
from lambdapm.domains import (FinitePoset, LazyTop, build_tower,
                              function_space, iter_monotone_tables)
from lambdapm.contextual import (enumerate_context, genericity_violations,
                                 in_ctx_ball, p_ctx_bracket)
from lambdapm.lamcalc import (Abs, App, Var, decompose, head_reduce_step, key,
                              parse, show, solvability, spine, subst)
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
# Poset validation: the checks of FinitePoset, one pair at a time

def reference_validate(leq, bottom):
    """Raise the ValueError FinitePoset raises for (leq, bottom), by scanning
    pairs and triples of elements instead of up-set masks."""
    n = len(leq)
    if any(len(row) != n for row in leq):
        raise ValueError("leq must be square")
    for i in range(n):
        if not leq[i][i]:
            raise ValueError("not reflexive")
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise ValueError("not antisymmetric")
            if leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        raise ValueError("not transitive")
    if any(not leq[bottom][i] for i in range(n)):
        raise ValueError("bottom is not least")
    for i in range(n):
        for j in range(i + 1, n):
            ubs = [k for k in range(n) if leq[i][k] and leq[j][k]]
            if ubs and not any(all(leq[u][v] for v in ubs) for u in ubs):
                raise ValueError("not bounded complete")


@st.composite
def relations(draw):
    """A square boolean matrix with a bottom index in range.  It is arbitrary,
    or reflexive, or the reflexive-transitive closure of a random DAG above a
    least element over a shuffled carrier: a partial order with its bottom,
    often not bounded complete."""
    n = draw(st.integers(1, 7))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    leq = [[bits[i * n + j] for j in range(n)] for i in range(n)]
    kind = draw(st.sampled_from(["arbitrary", "reflexive", "order"]))
    if kind == "reflexive":
        leq = [[i == j or leq[i][j] for j in range(n)] for i in range(n)]
    if kind != "order":
        return tuple(map(tuple, leq)), draw(st.integers(0, n - 1))
    leq = [[i == j or i == 0 or (i < j and leq[i][j]) for j in range(n)]
           for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
    perm = draw(st.permutations(range(n)))
    return (tuple(tuple(leq[perm[i]][perm[j]] for j in range(n))
                  for i in range(n)), perm.index(0))


def _outcome(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


NOT_BOUNDED_COMPLETE = (
    (True, True, True, True, True), (False, True, False, True, True),
    (False, False, True, True, True), (False, False, False, True, False),
    (False, False, False, False, True))
NOT_TRANSITIVE = ((True, True, False), (False, True, True), (False, False, True))


@given(relations())
@example((NOT_BOUNDED_COMPLETE, 0))
@example((NOT_TRANSITIVE, 0))
@settings(max_examples=400, deadline=None)
def test_poset_validation_matches_reference(rel):
    leq, bottom = rel
    assert _outcome(FinitePoset, leq, bottom) == \
        _outcome(reference_validate, leq, bottom)


# ---------------------------------------------------------------------------
# Monotone tables

def brute_force_tables(x, y):
    return [t for t in product(range(y.size), repeat=x.size)
            if all(y.le(t[i], t[j]) for i in range(x.size)
                   for j in range(x.size) if x.le(i, j))]


def reference_tables(x, y, rng=None):
    """A standalone DFS that tests each candidate against every earlier
    element in both directions: the same rng must give the same stream."""
    n = x.size
    order = sorted(range(n), key=lambda i: sum(x.leq[j][i] for j in range(n)))
    pos = {e: k for k, e in enumerate(order)}

    def assign(k, partial):
        if k == n:
            table = [None] * n
            for e, v in zip(order, partial):
                table[e] = v
            yield tuple(table)
            return
        e = order[k]
        vals = list(range(y.size))
        if rng is not None:
            rng.shuffle(vals)
        for v in vals:
            if all(not (x.le(e2, e) and not y.le(partial[pos[e2]], v))
                   and not (x.le(e, e2) and not y.le(v, partial[pos[e2]]))
                   for e2 in order[:k]):
                yield from assign(k + 1, partial + (v,))

    yield from assign(0, ())


def shuffled_poset(rng, max_size):
    """A random bounded-complete poset with its carrier shuffled, so that the
    index order need not extend the order."""
    p = corpus.random_bounded_complete_poset(rng, max_size)
    perm = list(range(p.size))
    rng.shuffle(perm)
    return FinitePoset(tuple(tuple(p.leq[i][j] for j in perm) for i in perm),
                       perm.index(p.bottom))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_monotone_tables_match_brute_force(seed):
    rng = random.Random(seed)
    x = shuffled_poset(rng, 5)
    y = shuffled_poset(rng, 5)
    tables = list(iter_monotone_tables(x, y))
    assert len(tables) == len(set(tables))
    assert sorted(tables) == brute_force_tables(x, y)
    assert tables == list(reference_tables(x, y))


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
        assert table == next(reference_tables(p, p, ref_rng))
    assert rng.random() == ref_rng.random()


# ---------------------------------------------------------------------------
# The lazy tower level and the function-space order: the memoized, masked and
# mapped forms against the pointwise generator forms they replace

def unit_metric(i, j):
    return Fraction(1)


def random_lazy_top(rng, max_base):
    """The lazy level above a tower of depth 0 or 1 over a shuffled random
    base; a depth-1 base has at most `max_base - 1` elements."""
    depth = rng.randrange(2)
    base = shuffled_poset(rng, max_base - depth)
    return LazyTop(build_tower(base, unit_metric, depth))


def reference_inject(top, f):
    """i_n(f), rebuilt on every call: i_0(x) = const x,
    i_n(f) = i_{n-1} . f . j_{n-1}."""
    levels, n = top.tower.levels, top.n
    size = levels[n].poset.size
    if n == 0:
        return (f,) * size
    below, fmap = levels[n - 1], levels[n].maps[f]
    return tuple(below.inj[fmap(below.proj[g])] for g in range(size))


def reference_project(top, table):
    """j_n(table): j_0(f) = f(bottom), j_n(g) = j_{n-1} . g . i_{n-1}."""
    levels, n = top.tower.levels, top.n
    if n == 0:
        return table[levels[0].poset.bottom]
    below = levels[n - 1]
    return levels[n].index[tuple(below.proj[table[below.inj[x]]]
                                 for x in range(below.poset.size))]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_inject_from_below_matches_unmemoized(seed):
    top = random_lazy_top(random.Random(seed), 5)
    for f in list(top.poset.elements()) * 2:
        assert top.inject_from_below(f) == reference_inject(top, f)
    assert len(top._injected) == top.poset.size


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_lazy_le_and_project_match_pointwise_reference(seed):
    rng = random.Random(seed)
    # random_table backtracks out of dead ends in shuffled order, which
    # gets slow on the larger depth-1 levels over 4-element bases
    top = random_lazy_top(rng, 4)
    p = top.poset
    tables = [top.random_table(rng) for _ in range(4)]
    tables += [top.inject_from_below(top.project(t)) for t in tables]
    for t in tables:
        assert top.project(t) == reference_project(top, t)
    tables += [tuple(rng.randrange(p.size) for _ in p.elements())
               for _ in range(4)]
    for t in tables:
        for u in tables:
            assert top.le(t, u) == all(p.le(a, b) for a, b in zip(t, u))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_function_space_order_matches_pairwise_reference(seed):
    rng = random.Random(seed)
    x, y = shuffled_poset(rng, 4), shuffled_poset(rng, 4)
    fs, maps = function_space(x, y)
    assert [m.table for m in maps] == brute_force_tables(x, y)
    assert fs.leq == tuple(tuple(all(y.le(f.table[i], g.table[i])
                                     for i in range(x.size)) for g in maps)
                           for f in maps)


def law_holds(top, tables, project):
    """i_n(project(t)) <= t on every table t given."""
    return all(top.le(top.inject_from_below(project(t)), t) for t in tables)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_completion_verdict_matches_exhaustive(seed):
    """The reduction of D6 holds for any projection that reads a table only
    where j_n does, so j_n followed by a random map of D_n is checked too:
    it breaks the law on some draws and keeps it on others."""
    rng = random.Random(seed)
    top = random_lazy_top(rng, 3)
    p = top.poset
    tables = list(top.tables())
    completions = list(top.completions())
    members = set(tables)
    assert all(t in members for t in completions)
    assert all(any(top.le(c, t) and top.project(c) == top.project(t)
                   for c in completions) for t in tables)
    shift = [rng.choice((v, rng.randrange(p.size))) for v in p.elements()]
    for project in (top.project, lambda t: shift[top.project(t)]):
        assert law_holds(top, tables, project) == \
            law_holds(top, completions, project)


# ---------------------------------------------------------------------------
# Cached keys and hashes, sharing substitution, outcome rows

def ref_hash(k):
    """The hash a term caches: its key's, built from the hashes of the
    key's parts instead of the parts themselves."""
    if k[0] == "l":
        return hash(("l", ref_hash(k[1])))
    if k[0] == "a":
        return hash(("a", ref_hash(k[1]), ref_hash(k[2])))
    return hash(k)


def ref_free_vars(t, bound=frozenset()):
    if isinstance(t, Var):
        return frozenset() if t.name in bound else frozenset([t.name])
    if isinstance(t, Abs):
        return ref_free_vars(t.body, bound | {t.binder})
    return ref_free_vars(t.fun, bound) | ref_free_vars(t.arg, bound)


def ref_subst(t, name, repl):
    """Substitution that rebuilds every node and caches nothing."""
    if isinstance(t, Var):
        return repl if t.name == name else Var(t.name)
    if isinstance(t, App):
        return App(ref_subst(t.fun, name, repl), ref_subst(t.arg, name, repl))
    if t.binder == name:
        return copy_term(t)
    if t.binder in ref_free_vars(repl) and name in ref_free_vars(t.body):
        nb = t.binder
        n = 0
        while nb in ref_free_vars(repl) | ref_free_vars(t.body) | {name}:
            nb = f"{t.binder}{n}"
            n += 1
        body = ref_subst(t.body, t.binder, Var(nb))
        return Abs(nb, ref_subst(body, name, repl))
    return Abs(t.binder, ref_subst(t.body, name, repl))


def ref_head_step(t):
    binders, h, args = decompose(t)
    return spine(binders, ref_subst(h.body, h.binder, args[0]), args[1:])


def ref_plug(t, m):
    if isinstance(t, Var):
        return m if t.name == contextual.HOLE.name else Var(t.name)
    if isinstance(t, Abs):
        return Abs(t.binder, ref_plug(t.body, m))
    return App(ref_plug(t.fun, m), ref_plug(t.arg, m))


def copy_term(t):
    """A node-by-node copy, with empty caches."""
    if isinstance(t, Var):
        return Var(t.name)
    if isinstance(t, Abs):
        return Abs(t.binder, copy_term(t.body))
    return App(copy_term(t.fun), copy_term(t.arg))


def alpha_variant(t, env=None, depth=0):
    """t with the binder at depth d renamed to w<d>, a name t does not use."""
    env = {} if env is None else env
    if isinstance(t, Var):
        return Var(env.get(t.name, t.name))
    if isinstance(t, Abs):
        nb = f"w{depth}"
        return Abs(nb, alpha_variant(t.body, {**env, t.binder: nb}, depth + 1))
    return App(alpha_variant(t.fun, env, depth + 1),
               alpha_variant(t.arg, env, depth + 1))


def subterms(t, env=()):
    """Every subterm with its binder environment, innermost first."""
    yield t, env
    if isinstance(t, Abs):
        yield from subterms(t.body, (t.binder,) + env)
    elif isinstance(t, App):
        yield from subterms(t.fun, env)
        yield from subterms(t.arg, env)


def assert_cached_keys_match(t):
    assert key(t) == ref_key(t)
    assert hash(t) == ref_hash(ref_key(t)) == hash(copy_term(t))
    for u, env in subterms(t):
        assert key(u, env) == ref_key(u, env[::-1])


@given(lam_terms(), lam_terms(), names, st.booleans())
@settings(max_examples=150, deadline=None)
def test_sharing_subst_matches_rebuilding_reference(t, repl, name, warm):
    if warm:  # fill the caches the result will share
        hash(t), key(repl)
    u = subst(t, name, repl)
    assert show(u) == show(ref_subst(t, name, repl))
    assert_cached_keys_match(u)


@given(lam_terms(), st.integers(0, 400))
@settings(max_examples=150, deadline=None)
def test_plugged_keys_match_reference(m, idx):
    ctx = enumerate_context(idx)
    u = ctx.plug(m)
    assert show(u) == show(ref_plug(ctx.term, m))
    assert_cached_keys_match(u)


@given(lam_terms(), st.lists(lam_terms(), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_head_reducts_keep_reference_keys(body, args):
    t = spine((), Abs("x", body), args)
    for _ in range(6):
        nxt = head_reduce_step(t)
        if nxt is None:
            break
        assert show(nxt) == show(ref_head_step(t))
        assert_cached_keys_match(nxt)
        t = nxt


# Drawn terms seldom diverge; these make divergent and fuel-unknown runs common.
SPECIAL = [corpus.OMEGA, corpus.OMEGA3] + [
    parse(s) for s in ("\\x. x x", "\\x. x x x", "\\x. x", "\\x. \\y. x",
                       "\\x. \\y. y", "\\x. x (\\y. y y)")]
some_terms = st.one_of(lam_terms(), st.sampled_from(SPECIAL))


def ref_solvability(t, fuel):
    """Head reduction by rebuilding substitution, repeats found by ref_key."""
    seen = {ref_key(t): 0}
    cur = t
    for step in range(fuel + 1):
        binders, h, args = decompose(cur)
        if isinstance(h, Var):
            return "solvable", step, (binders, h.name, args)
        if step == fuel:
            return "unknown", fuel, None
        cur = ref_head_step(cur)
        k = ref_key(cur)
        if k in seen:
            return "divergent", step + 1, seen[k]
        seen[k] = step + 1


@given(some_terms, some_terms, st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_solvability_matches_reference(a, b, fuel):
    for t in (App(a, b), App(a, a), App(App(a, b), b)):
        st_ = solvability(t, fuel)
        kind, steps, extra = ref_solvability(t, fuel)
        assert (st_.kind, st_.steps) == (kind, steps)
        if kind == "solvable":
            hf = st_.head
            assert (hf.binders, hf.head, hf.args) == extra
        if kind == "divergent":
            assert st_.certificate[:2] == (extra, steps)


def ref_p_ctx(m, n, prefix, fuel):
    lower = unknown = Fraction(0)
    for idx in range(prefix + 1):
        ctx = enumerate_context(idx).term
        sm = solvability(ref_plug(ctx, m), fuel)
        sn = solvability(ref_plug(ctx, n), fuel)
        if sm.is_divergent or sn.is_divergent:
            lower += Fraction(1, 2 ** idx)
        elif sm.is_unknown or sn.is_unknown:
            unknown += Fraction(1, 2 ** idx)
    return lower, lower + unknown + Fraction(1, 2 ** prefix)


def ref_in_ball(m, cand, k, fuel):
    pending = False
    for idx in range(k):  # the indices i with 2**-(i+1) >= 2**-k
        ctx = enumerate_context(idx).term
        sm = solvability(ref_plug(ctx, m), fuel)
        if sm.is_divergent:
            continue
        sc = solvability(ref_plug(ctx, cand), fuel)
        if sm.is_solvable and sc.is_divergent:
            return "no"
        pending = pending or sm.is_unknown or sc.is_unknown
    return "unknown" if pending else "yes"


def ref_genericity(pool, max_index, fuel):
    bad = []
    for idx in range(max_index + 1):
        ctx = enumerate_context(idx)
        if not solvability(ref_plug(ctx.term, corpus.OMEGA), fuel).is_solvable:
            continue
        for n in pool:
            if solvability(ref_plug(ctx.term, n), fuel).is_divergent:
                bad.append({"index": idx, "context": str(ctx), "term": str(n)})
    return bad


context_queries = st.lists(
    st.tuples(st.sampled_from(["p_ctx", "ball", "generic"]),
              st.integers(0, 7), st.integers(0, 7), st.integers(1, 24),
              st.sampled_from([1, 2, 3, 12])),
    min_size=1, max_size=5)


def check_context_queries(terms, queries):
    """Run the queries in the drawn order; the first half of the pool
    are the drawn terms, the second half their alpha-variants."""
    pool = terms + [alpha_variant(t) for t in terms]
    for kind, i, j, budget, fuel in queries:
        m, n = pool[i % len(pool)], pool[j % len(pool)]
        if kind == "p_ctx":
            v = p_ctx_bracket(m, n, budget, fuel)
            assert (v.lower, v.upper) == ref_p_ctx(m, n, budget, fuel)
        elif kind == "ball":
            k = 1 + budget % 6
            assert in_ctx_ball(m, n, Fraction(1, 2 ** k), fuel) == \
                ref_in_ball(m, n, k, fuel)
        else:
            assert genericity_violations(corpus.OMEGA, pool, budget, fuel) == \
                ref_genericity(pool, budget, fuel)


# an unknown centre with a divergent candidate, and rows at two fuels
MIXED_QUERIES = [("ball", 0, 1, 3, 2), ("p_ctx", 0, 1, 6, 2),
                 ("p_ctx", 1, 2, 9, 3), ("generic", 0, 0, 20, 3),
                 ("ball", 2, 3, 5, 3)]


@given(st.lists(some_terms, min_size=1, max_size=4), context_queries)
@example([corpus.OMEGA3, corpus.OMEGA], MIXED_QUERIES)
@settings(max_examples=100, deadline=None)
def test_outcome_rows_match_memo_free_loops(terms, queries):
    contextual._ROWS.clear()
    check_context_queries(terms, queries)
    for t in terms:
        assert contextual._row(alpha_variant(t), 12) is contextual._row(t, 12)


@given(st.lists(some_terms, min_size=1, max_size=4), context_queries)
@example([corpus.OMEGA3, corpus.OMEGA], MIXED_QUERIES)
@settings(max_examples=100, deadline=None)
def test_evicted_rows_give_the_same_answers(terms, queries):
    saved = contextual._MAX_ROWS
    contextual._MAX_ROWS = 2
    try:
        contextual._ROWS.clear()
        check_context_queries(terms, queries)
        check_context_queries(terms, queries[::-1])
        assert len(contextual._ROWS) <= 2
    finally:
        contextual._MAX_ROWS = saved


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
