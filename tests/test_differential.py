"""Differential and round-trip properties: the de Bruijn keys against
reference implementations that scan an outermost-first environment, the
cached keys and hashes of terms built by substitution, plugging and head
reduction against uncached references, the contextual queries served from
outcome rows and settled contexts against memo-free loops and the per-index
rows that the prefix fill replaced, the machine started at a context's hole
against the plugged run, the head-reduction machine behind
solvability and normalize against runs that rebuild and key every term and
a recursive normalizer, poset
validation and the monotone-table DFS against pairwise reference loops and a
brute-force filter, the lazy tower level and the function-space order against
their pointwise forms, the completion check of i.j <= id against the check on
every table, the quantification decision against the loops that read every
distance again per ball and per up-set, the aligned walk over two partial
terms against the recursions and the truncation loop it replaced,
prefix-shared contraction against filling each queue on its own, the place
count of a sized bag against the compiled plan, the H* side read off two
partial trees against the loop over the maximal element and against brute force, r, its
order and H* against the loops that truncate at every level and measure
each pair once per element below, the integer sums of the enumeration
isometry against Fraction sums, print/parse round trips for resource and
partial terms, the one renaming walk and the printing of partial terms
through their embedding against the walks they replaced, the one
builder of partial trees and partial equality against the recursions and
the key comparison they replaced, the walks that read heads off the
in-place binder scope against the environment-tuple walks they replaced,
bag matching among them, and the one term and context enumerator against
the two it replaced."""

import itertools
import math
import random
from collections import Counter
from functools import lru_cache
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lambdapm import (bohm, contextual, corpus, lamcalc, resource, taylor,
                      verify)
from lambdapm.bohm import BOT, Node, parse_partial, pkey, show_partial
from lambdapm.distance import (INF, bracket, dyadic, exact, is_inf,
                               truncation_below)
from lambdapm.domains import (FinitePoset, LazyTop, build_tower, flat,
                              function_space, iter_monotone_tables,
                              quantification_decision)
from lambdapm.contextual import (enumerate_context, genericity_violations,
                                 in_ctx_ball, p_ctx_bracket)
from lambdapm.lamcalc import (DIVERGENT, SOLVABLE, UNKNOWN, Abs, App, Var, _fresh,
                              canonical, decompose, free_vars, key, normalize,
                              parse, show, solvability, spine, subst)
from lambdapm.pmetric import (LiftedSet, PartialMetricSpace, hausdorff_star,
                              weighted_basis_metric)
from lambdapm.resource import (RAbs, RApp, RVar, _assignments, _contract,
                               _level, _places_of, canonical_binders,
                               free_rvars, gen_height, is_normal,
                               parse_resource, resource_reduce, rkey,
                               show_resource)
from lambdapm.taylor import box_relation, taylor_of_term
from test_taylor import brute_hstar

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


@st.composite
def lambda_pairs(draw):
    """Two lambda terms: unrelated, an alpha-variant, a copy, one with a
    shadowing binder added or removed, or an unrelated term given the first
    one's hash, as a collision would."""
    a = draw(lam_terms())
    how = draw(st.sampled_from(["any", "variant", "copy", "shadow", "collide"]))
    if how == "variant":
        return a, alpha_variant(a)
    if how == "copy":
        return a, copy_term(a)
    b = draw(lam_terms())
    if how == "shadow":
        x = draw(names)
        return Abs(x, Abs(x, a)), Abs(x, Abs(draw(names), b))
    if how == "collide":
        b._hash = hash(a)
    return a, b


@given(lambda_pairs())
@example((parse("\\x. \\x. x"), parse("\\x. \\y. y")))
@example((parse("\\x. \\x. x"), parse("\\x. \\y. x")))
@example((parse("\\x. x (\\x. x)"), parse("\\y. y (\\x. y)")))
@settings(max_examples=300, deadline=None)
def test_lambda_equality_is_key_equality(pair):
    a, b = pair
    same = ref_key(a) == ref_key(b)
    assert (a == b) == (b == a) == same
    assert (a != b) != same


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


def read_positions(top):
    """The positions of a table that j_n reads."""
    return (top.poset.bottom,) if top.n == 0 else top.tower.level(top.n - 1).inj


def test_project_outside_the_space_raises_on_every_call():
    """A table whose read values are not monotone has no projection, and
    the error is never memoized as a result."""
    top = LazyTop(build_tower(flat(2), unit_metric, 1))
    inj = read_positions(top)
    # j_0 reads each i_0(x) at bottom: bottom goes to 1, the others to 0
    table = [inj[0]] * top.poset.size
    table[inj[0]] = inj[1]
    table = tuple(table)
    with pytest.raises(KeyError):
        reference_project(top, table)
    for _ in range(2):
        with pytest.raises(ValueError, match="left the function space"):
            top.project(table)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_project_memo_answers_as_reference(seed):
    """Raw tables, many outside the function space, and tables that agree
    with a monotone one at the read positions only: each gets the
    reference's index, or ValueError where the reference has none, on a
    first and on a repeated call."""
    rng = random.Random(seed)
    top = random_lazy_top(rng, 4)
    p = top.poset
    reads = read_positions(top)
    tables = [tuple(rng.randrange(p.size) for _ in p.elements())
              for _ in range(6)]
    for t in [top.random_table(rng) for _ in range(3)]:
        twin = tuple(v if x in reads else rng.randrange(p.size)
                     for x, v in enumerate(t))
        assert top.project(twin) == top.project(t)
        tables += [t, twin]
    for t in tables * 2:
        try:
            expected = reference_project(top, t)
        except KeyError:
            with pytest.raises(ValueError):
                top.project(t)
        else:
            assert top.project(t) == expected


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_le_from_cached_rows_matches_fresh_tuples(seed):
    """le on i_n(f), whose leq rows inject_from_below keeps, answers as on
    an equal tuple built fresh and as the pointwise order."""
    rng = random.Random(seed)
    top = random_lazy_top(rng, 4)
    p = top.poset
    others = [top.random_table(rng) for _ in range(3)]
    others += [tuple(rng.randrange(p.size) for _ in p.elements())
               for _ in range(3)]
    injected = [top.inject_from_below(f) for f in p.elements()]
    for t in injected:
        fresh = tuple(list(t))
        for u in others + injected:
            pointwise = all(p.le(a, b) for a, b in zip(t, u))
            assert top.le(t, u) == top.le(fresh, u) == pointwise
            assert top.le(u, t) == all(p.le(a, b) for a, b in zip(u, t))
    assert len(top._rows) == p.size


@given(st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_le_on_lifted_tables_reads_their_non_bottom_positions(seed, data):
    """On every lifted table i_n(f) of a small level, the cached rows are
    the leq rows at exactly its non-bottom positions, and le answers as the
    pointwise order on drawn in-range tuples, in both argument places
    (docs/DECISIONS.md D26)."""
    top = random_lazy_top(random.Random(seed), 4)
    p = top.poset
    drawn = st.lists(st.tuples(*[st.integers(0, p.size - 1)] * p.size),
                     min_size=1, max_size=4)
    for f in p.elements():
        t = top.inject_from_below(f)
        assert top._rows[t] == tuple((x, p.leq[v]) for x, v in enumerate(t)
                                     if v != p.bottom)
        for u in data.draw(drawn) + [top.inject_from_below(g) for g in p.elements()]:
            assert top.le(t, u) == all(p.le(a, b) for a, b in zip(t, u))
            assert top.le(u, t) == all(p.le(a, b) for a, b in zip(u, t))


def test_le_on_invalid_tuples():
    """le(i_n(f), u) reads u only where i_n(f) is not bottom: a value out of
    the carrier elsewhere is not read, and a read position that is missing
    or out of the carrier raises IndexError.  A first argument that is not
    a lifted table is read at every position, as before (D26)."""
    top = LazyTop(build_tower(flat(2), unit_metric, 1))
    p = top.poset
    t = next(t for t in map(top.inject_from_below, p.elements())
             if 1 < sum(v != p.bottom for v in t) < p.size)
    reads = [x for x, v in enumerate(t) if v != p.bottom]
    outside = tuple(p.size if v == p.bottom else v for v in t)
    assert top.le(t, outside)
    assert top.le(tuple(list(t)), outside)  # an equal tuple finds the rows
    assert top.le(t, t[:reads[-1] + 1])  # short, but past every read position
    with pytest.raises(IndexError):
        top.le(t, t[:reads[-1]])
    with pytest.raises(IndexError):
        top.le(t, tuple(p.size if x == reads[0] else v for x, v in enumerate(t)))
    lifted = set(map(top.inject_from_below, p.elements()))
    other = next(u for u in top.tables() if u not in lifted)
    with pytest.raises(IndexError):
        top.le(other, (p.size,) * p.size)
    assert top.le(other, other[:2]) == all(p.le(a, b) for a, b in zip(other, other[:2]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_lazy_memos_stay_bounded_over_the_whole_stream(seed):
    """Over every table of a small level, project and le agree with the
    references; the rows stay one per element of D_n, and the projection
    keys are the read values some table has, one per least completion
    (docs/DECISIONS.md D6, D16)."""
    top = random_lazy_top(random.Random(seed), 3)
    p = top.poset
    for t in top.tables():
        x = top.project(t)
        assert x == reference_project(top, t)
        assert top.le(top.inject_from_below(x), t) == \
            all(p.le(a, b) for a, b in zip(reference_inject(top, x), t))
    assert len(top._rows) <= p.size
    assert len(top._projected) == len(list(top.completions()))


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
# The quantification decision against the loops that read every distance
# again per ball and per up-set (docs/DECISIONS.md D26)

def ref_quantification_decision(p, space):
    """Does the metric topology equal the Scott topology (= up-sets)?"""
    pts = list(space.carrier)
    if len(pts) != p.size:
        raise ValueError("carrier and poset must align")
    idx = {pt: i for i, pt in enumerate(pts)}
    failures_a, failures_b = [], []

    for center in pts:
        cself = space.d(center, center)
        radii = sorted({space.d(z, center) - cself for z in pts
                        if space.d(z, center) > cself})
        radii = [r for r in radii if r > 0] + [Fraction(1)]
        for eps in [q for r in radii for q in (r, r + Fraction(1, 2))]:
            ball = {z for z in pts if space.d(z, center) < cself + eps}
            for z in ball:
                for w in pts:
                    if p.le(idx[z], idx[w]) and w not in ball:
                        failures_a.append({"center": str(center), "eps": str(eps),
                                           "in": str(z), "above": str(w)})

    for x in pts:
        for y in pts:
            if not p.le(idx[x], idx[y]):
                continue
            defect = [space.d(z, y) - space.d(y, y) for z in pts
                      if not p.le(idx[x], idx[z])]
            if not defect:
                continue
            if min(defect) <= 0:
                failures_b.append({"upset_of": str(x), "point": str(y)})

    return {"pass": not failures_a and not failures_b,
            "balls_not_upper": failures_a,
            "upsets_not_open": failures_b}


def counted_spaces(carrier, dist):
    """Two spaces over one distance, each with its own memo, and the count
    of the distance evaluations of each."""
    counts = [0, 0]

    def counted(k):
        def d(a, b):
            counts[k] += 1
            return dist(a, b)
        return PartialMetricSpace(list(carrier), d)
    return counted(0), counted(1), counts


@given(st.integers(0, 2**32 - 1), st.sampled_from(["basis", "drawn", "asymmetric"]),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_quantification_matches_per_read_reference(seed, metric, named):
    """The full verdict, witnesses in order, on random bounded-complete
    posets: with the weighted-basis metric, which quantifies each of them,
    and with drawn metrics, which mostly fail, symmetric or not, now and
    then infinite off the diagonal.  Both sides evaluate the same pairs,
    first in the same order, so an asymmetric distance leaves both memos
    alike."""
    rng = random.Random(seed)
    p = shuffled_poset(rng, 6)
    # named points are strings, whose set order follows their hashes
    carrier = [f"p{i}" for i in range(p.size)] if named else list(range(p.size))
    at = {pt: i for i, pt in enumerate(carrier)}
    if metric == "basis":
        wbm = verify.wb_metric_for(p)

        def dist(a, b):
            return weighted_basis_metric(wbm, at[a], at[b]).value
    else:
        steps = [Fraction(k, 4) for k in range(5)]
        table = [[rng.choice(steps) for _ in carrier] for _ in carrier]
        for i in range(p.size):
            for j in range(p.size):
                if metric == "drawn":
                    table[i][j] = table[j][i] if j < i else table[i][j]
                if i != j and rng.random() < 0.1:
                    table[i][j] = INF

        def dist(a, b):
            return table[at[a]][at[b]]
    got, want, counts = counted_spaces(carrier, dist)
    res = quantification_decision(p, got)
    assert res == ref_quantification_decision(p, want)
    assert got._memo == want._memo and counts[0] == counts[1]
    if metric == "basis":
        assert res["pass"]


def test_quantification_pins_infinite_self_distance_and_carrier_shape():
    """A point whose self-distance is infinite lies in no ball, so an
    up-set that holds it is not open; the reference's defect inf - inf was
    nan, and missed it.  A carrier that repeats a point, or has another
    length, does not align with the poset (D26)."""
    table = {(0, 0): Fraction(0), (0, 1): INF, (1, 0): INF, (1, 1): INF}
    space = PartialMetricSpace([0, 1], lambda a, b: table[a, b])
    chain2 = flat(1)
    res = quantification_decision(chain2, space)
    assert res["upsets_not_open"] == [{"upset_of": "1", "point": "1"}]
    assert ref_quantification_decision(chain2, space)["upsets_not_open"] == []
    for carrier in ([0, 0], [0, 1, 2]):
        with pytest.raises(ValueError, match="carrier and poset must align"):
            quantification_decision(chain2, PartialMetricSpace(carrier, unit_metric))


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
        assert lamcalc._encode(u, env, tuple) == ref_key(u, env[::-1])
        assert free_vars(u) == ref_free_vars(u)


def prefill(data, t, walk, fills):
    """Fill the caches of a drawn subset of t's subterms, in drawn order, so
    that later walks stop at filled nodes inside spines and bags."""
    nodes = [u for u, _ in walk(t)]
    for fill in fills:
        for i in data.draw(st.lists(st.integers(0, len(nodes) - 1), max_size=len(nodes))):
            fill(nodes[i])


@given(lam_terms(), lam_terms(), names, st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_sharing_subst_matches_rebuilding_reference(t, repl, name, warm, data):
    if warm:  # fill the caches the result will share
        hash(t), key(repl)
    prefill(data, t, subterms, [free_vars])
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


def machine_states(t, steps):
    """The head-reduction machine's states along t's head reduction, for at
    most `steps` steps."""
    state = lamcalc._unwind((), t, None)
    yield state
    for _ in range(steps):
        if state[1]._kind == "var":
            return
        env, head, stack = state
        state = lamcalc._unwind(env, subst(head.body, head.binder, stack[0]), stack[1])
        yield state


@given(lam_terms(), st.lists(lam_terms(), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_head_reducts_keep_reference_keys(body, args):
    t = spine((), Abs("x", body), args)
    for state in itertools.islice(machine_states(t, 6), 1, None):
        nxt = lamcalc._rebuild(*state)
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
    contextual._kinds.cache_clear()
    check_context_queries(terms, queries)
    for t in terms:
        assert contextual._kinds(alpha_variant(t), 12) is contextual._kinds(t, 12)


@given(st.lists(some_terms, min_size=1, max_size=4), context_queries)
@example([corpus.OMEGA3, corpus.OMEGA], MIXED_QUERIES)
@settings(max_examples=100, deadline=None)
def test_evicted_rows_give_the_same_answers(terms, queries):
    saved = contextual._kinds
    contextual._kinds = lru_cache(maxsize=2)(saved.__wrapped__)  # a bound of two rows
    try:
        check_context_queries(terms, queries)
        check_context_queries(terms, queries[::-1])
        assert contextual._kinds.cache_info().currsize <= 2
    finally:
        contextual._kinds = saved


# Names that context binders capture, self-applications and the two
# unsolvable corpus terms.
PLUGGED = [Var("x"), Var("y"), Var("z"), Var("v0"), parse("\\x. x x"),
           parse("x (\\y. y y)"), corpus.OMEGA, corpus.OMEGA3]
ROW_CODES = {"solvable": lamcalc.SOLVABLE,
             "divergent": lamcalc.DIVERGENT,
             "unknown": lamcalc.UNKNOWN}


def check_rows_over_every_index(terms):
    """Each row kind up to index 1,024 is the reference's for C_i[m], both
    where the index is settled and where it is plugged and run."""
    contextual._kinds.cache_clear()
    contextual._routes.cache_clear()
    for fuel in (1, 2, 3, 30):
        rows = [contextual._fill(m, fuel, 1024) for m in terms]
        seen = set()
        for idx in range(1025):
            settled = contextual._fill_routes(idx, fuel)[idx] is True
            seen.add(settled)
            ctx = enumerate_context(idx).term
            for m, row in zip(terms, rows):
                kind, _, _ = ref_solvability(ref_plug(ctx, m), fuel)
                assert row[idx] == ROW_CODES[kind], (idx, fuel, show(m))
                if settled:
                    assert kind == "solvable"
        assert seen == {True, False}


def test_settled_contexts_match_reference_on_plugged_terms():
    check_rows_over_every_index(PLUGGED)
    # the first context that settles at step 1, not 0: (\x. y) [-]
    ctx = enumerate_context(70)
    assert str(ctx) == "(\\x. y) [-]"
    assert solvability(ctx.term, 1).steps == 1
    assert contextual._fill_routes(70, 1)[70] is True
    # the first context that runs out of fuel 1 and settles later, at step 2
    ctx = enumerate_context(3144)
    assert str(ctx) == "(\\x. x [-]) (\\x. y)"
    for fuel in (1, 2, 3):
        assert (contextual._fill_routes(3144, fuel)[3144] is True) == (fuel >= 2)
        for m in PLUGGED:
            kind, _, _ = ref_solvability(ref_plug(ctx.term, m), fuel)
            assert contextual._fill(m, fuel, 3144)[3144] == ROW_CODES[kind]


@given(lam_terms())
@settings(max_examples=10, deadline=None)
def test_settled_contexts_match_reference_on_drawn_terms(m):
    check_rows_over_every_index([m])


def ref_shape(c):
    """The shape that the routes replaced (docs/DECISIONS.md D28): (env, spine)
    where c is \\xs. [-] N1 ... Nk, with env the binders xs innermost first and
    spine the body [-] N1 ... Nk; False for any other context."""
    env, body = (), c
    while isinstance(body, Abs):
        env, body = (body.binder,) + env, body.body
    h = body
    while isinstance(h, App):
        h = h.fun
    return h is contextual.HOLE and (env, body)


def ref_settled(c, fuel):
    """The settled mark that the routes replaced (D10): c, with the hole left
    free, reaches a head normal form within `fuel` steps whose head is not the
    hole."""
    kind, _, hf = ref_solvability(c, fuel)
    return kind == "solvable" and hf[1] != contextual.HOLE.name


def test_routes_match_shape_and_settled_references():
    """Every route through index 1,024 at fuels 1, 2, 3 and 30 is True where the
    context is settled, its shape where it has one, and None elsewhere (D30)."""
    contextual._routes.cache_clear()
    for fuel in (1, 2, 3, 30):
        routes = contextual._fill_routes(1024, fuel)
        assert len(routes) == 1025
        for c, route in zip(contextual._context_terms(0, 1025), routes):
            if ref_settled(c, fuel):
                assert route is True
            elif shape := ref_shape(c):
                env, body = route
                assert env == shape[0] and body is shape[1]
            else:
                assert route is None
        assert {type(route) for route in routes} == {bool, tuple, type(None)}


# ---------------------------------------------------------------------------
# Outcome rows filled a prefix at a time against the per-index rows they
# replaced (docs/DECISIONS.md D24)

class RefRow:
    """The per-index row that the prefix fill replaced: each kind is found
    when first asked for, at a settled index off the context alone (D10),
    elsewhere by plugging the context and running `solvability`."""

    def __init__(self, term, fuel):
        self.term, self.fuel, self.kinds = term, fuel, {}

    def kind(self, idx):
        if idx not in self.kinds:
            ctx = enumerate_context(idx)
            st_ = solvability(ctx.term, self.fuel)
            if not st_.is_solvable or st_.head.head == contextual.HOLE.name:
                st_ = solvability(ctx.plug(self.term), self.fuel)
            self.kinds[idx] = ROW_CODES[st_.kind]
        return self.kinds[idx]


def ref_row_bracket(m, n, prefix, fuel):
    """p_ctx_bracket's loop over two per-index rows."""
    rm, rn = RefRow(m, fuel), RefRow(n, fuel)
    lower = unknown = Fraction(0)
    for idx in range(prefix + 1):
        km, kn = rm.kind(idx), rn.kind(idx)
        if lamcalc.DIVERGENT in (km, kn):
            lower += dyadic(idx)
        elif lamcalc.UNKNOWN in (km, kn):
            unknown += dyadic(idx)
    return bracket(lower, lower + unknown + dyadic(prefix))


def ref_row_ball(m, cand, epsilon, fuel):
    """in_ctx_ball's loop over two per-index rows, which runs the candidate
    only where the center does not diverge and stops at the first "no"."""
    rm, rc = RefRow(m, fuel), RefRow(cand, fuel)
    pending, idx = False, 0
    while dyadic(idx + 1) >= epsilon:
        km = rm.kind(idx)
        if km != lamcalc.DIVERGENT:
            kc = rc.kind(idx)
            if km == lamcalc.SOLVABLE and kc == lamcalc.DIVERGENT:
                return "no"
            pending = pending or lamcalc.UNKNOWN in (km, kc)
        idx += 1
    return "unknown" if pending else "yes"


def cold_rows(cold):
    if cold:
        contextual._kinds.cache_clear()
        contextual._routes.cache_clear()


@given(some_terms, some_terms, st.integers(1, 300), st.integers(1, 40), st.booleans())
@example(corpus.OMEGA3, corpus.OMEGA, 300, 40, True)
@settings(max_examples=100, deadline=None)
def test_prefix_filled_bracket_matches_per_index_rows(m, n, prefix, fuel, cold):
    cold_rows(cold)
    assert p_ctx_bracket(m, n, prefix, fuel) == ref_row_bracket(m, n, prefix, fuel)


@given(some_terms, some_terms, st.integers(1, 300), st.integers(1, 40), st.booleans())
@example(corpus.OMEGA3, parse("\\x. x"), 300, 40, True)
@settings(max_examples=100, deadline=None)
def test_prefix_filled_ball_matches_per_index_rows(m, cand, k, fuel, cold):
    cold_rows(cold)
    epsilon = Fraction(1, 2 ** k)  # the indices below k are tested
    assert in_ctx_ball(m, cand, epsilon, fuel) == ref_row_ball(m, cand, epsilon, fuel)


@given(some_terms, some_terms, st.integers(0, 300), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_kind_only_run_matches_solvability(a, b, idx, fuel):
    ctx = enumerate_context(idx)
    for t in (App(a, b), App(a, a), ctx.plug(a), ctx.term):
        st_ = solvability(t, fuel)
        kind, steps, _, _ = lamcalc._run(t, fuel)
        assert (kind, steps) == (ROW_CODES[st_.kind], st_.steps)


# ---------------------------------------------------------------------------
# Rows started at the hole against plugged runs (docs/DECISIONS.md D28)

CAPTURED = ["x", "y", "z", "v0"]  # the binder names of the contexts' first four depths


@st.composite
def hole_terms(draw):
    """\\ys. h P1 ... Pj with leading binders that the context binders capture,
    a variable head, free or bound by ys, or an abstraction head, which makes a
    redex over the arguments, and arguments that may diverge."""
    ys = draw(st.lists(st.sampled_from(CAPTURED), max_size=3))
    if draw(st.booleans()):
        head = Var(draw(st.sampled_from(CAPTURED + ys)))
    else:
        head = Abs(draw(st.sampled_from(CAPTURED)), draw(lam_terms(3)))
    args = draw(st.lists(st.one_of(lam_terms(3), st.sampled_from(SPECIAL)), max_size=3))
    return spine(tuple(ys), head, args)


@given(st.one_of(hole_terms(), st.sampled_from(PLUGGED)), st.integers(1, 40), st.booleans())
@example(corpus.OMEGA, 1, True)
@example(parse("(\\v. v x) (\\y. y z)"), 2, True)
@example(parse("\\z. x (z z)"), 30, False)
@example(parse("\\x. \\y. (\\z. z y) x"), 3, True)
@settings(max_examples=100, deadline=None)
def test_direct_start_matches_plugged_run(m, fuel, cold):
    """Every open context through index 300 gives m, and an alpha-variant that shares
    m's row, the (kind, step) of the plugged run, at fuels below and above the
    contexts' argument counts: cold, and again with the step-0 reducts kept."""
    cold_rows(cold)
    routes = contextual._fill_routes(300, fuel)
    opened = [(i, c) for i, c in enumerate(contextual._context_terms(0, 301))
              if routes[i] is not True]
    variant = alpha_variant(m)
    for u in (m, variant):
        run = contextual._runs(u, fuel)
        want = [lamcalc._run(contextual._plug(c, u), fuel)[:2] for _, c in opened]
        for _ in range(2):
            assert [run(routes[i], c)[:2] for i, c in opened] == want
    row = contextual._fill(variant, fuel, 300)
    assert contextual._fill(m, fuel, 300) is row
    assert [row[i] for i, _ in opened] == [kind for kind, _ in want]


# ---------------------------------------------------------------------------
# Rows that run m's own steps once against the per-context runs they replaced
# (docs/DECISIONS.md D31)

SELF = parse("(\\a. \\y. a a y) (\\a. \\y. a a y)")
# redexes whose own steps return an abstraction, which reaches the boundary
BOUNDARY_TERMS = [SELF, parse("(\\x. x) (\\x. x)"), parse("(\\a. \\y. a a) (\\a. \\y. a a)"),
                  parse("(\\a. \\y. y (a a)) (\\a. \\y. y (a a))"),
                  parse("(\\a. \\y. \\z. a z y) (\\x. x)")]


def ref_direct_start(m, route, fuel):
    """The per-context run that the shared prefix replaced (D28): m unwound over
    the cells of N1 ... Nk and run from step 0."""
    env, body = route
    return lamcalc._start(*lamcalc._unwind(env, m, lamcalc._unwind(env, body, None)[2]), fuel)


@st.composite
def redex_heads(draw):
    """(\\a. B) P1 ... Pj, whose own steps come before any context argument is
    read; a body that returns an abstraction reaches the boundary."""
    body = draw(st.one_of(lam_terms(3), st.sampled_from(SPECIAL + BOUNDARY_TERMS),
                          st.builds(Abs, st.sampled_from(CAPTURED), lam_terms(3))))
    args = draw(st.lists(st.one_of(lam_terms(3), st.sampled_from(SPECIAL + BOUNDARY_TERMS)),
                         min_size=1, max_size=3))
    return spine((), Abs(draw(st.sampled_from(CAPTURED)), body), args)


@st.composite
def head_normal_abstractions(draw):
    """\\y1 ... yj. h A with binders that shadow each other and the context's,
    and h bound by any of them, by the context or free."""
    ys = draw(st.lists(st.sampled_from(["x", "y", "w"]), min_size=1, max_size=4))
    head = Var(draw(st.sampled_from(ys + CAPTURED)))
    args = draw(st.lists(st.one_of(lam_terms(3), st.sampled_from(SPECIAL)), max_size=2))
    return spine(tuple(ys), head, args)


def outcomes(run, opened):
    return [(o[0], o[1], o[3]) for o in (run(route, c) for _, c, route in opened)]


@given(st.one_of(hole_terms(), redex_heads(), head_normal_abstractions(),
                 st.sampled_from(BOUNDARY_TERMS)), st.integers(1, 40), st.booleans())
@example(BOUNDARY_TERMS[1], 1, True)
@example(SELF, 2, True)
@example(parse("\\y. \\y. y"), 2, False)
@settings(max_examples=150, deadline=None)
def test_shared_prefix_matches_per_context_runs(m, fuel, cold):
    """Every context \\xs. [-] N1 ... Nk through index 300 gives m the kind, the step
    and the repeated step of m's run over its own N1 ... Nk from step 0, cold and
    warm, and the row holds those kinds."""
    cold_rows(cold)
    routes = contextual._fill_routes(300, fuel)
    opened = [(i, c, routes[i]) for i, c in enumerate(contextual._context_terms(0, 301))
              if type(routes[i]) is tuple]
    want = [(o[0], o[1], o[3]) for o in (ref_direct_start(m, route, fuel)
                                         for _, _, route in opened)]
    run = contextual._runs(m, fuel)
    for _ in range(2):
        assert outcomes(run, opened) == want
    row = contextual._fill(m, fuel, 300)
    assert [row[i] for i, _, _ in opened] == [kind for kind, _, _ in want]


def test_shared_prefix_pinned_rows():
    """Three rows at the edges of the shared prefix."""
    contextual._kinds.cache_clear()
    contexts = list(contextual._context_terms(0, 32))
    assert [show(contexts[i]) for i in (0, 1, 2, 31)] == ["[-]", "\\x. [-]", "[-] x", "[-] x y"]
    # m's own run reaches the boundary at step 1, where fuel 1 is spent: with
    # no argument C[m] is solvable there, with one it runs out of fuel
    m = BOUNDARY_TERMS[1]
    assert list(contextual._fill(m, 1, 4)) == [SOLVABLE, SOLVABLE, UNKNOWN, UNKNOWN, UNKNOWN]
    routes = contextual._fill_routes(31, 1)
    run = contextual._runs(m, 1)
    assert outcomes(run, [(i, contexts[i], routes[i]) for i in (0, 1, 2)]) == \
        [(SOLVABLE, 1, None), (SOLVABLE, 1, None), (UNKNOWN, 1, None)]
    # under [-] x, SELF repeats at step 2 its state at step 0, before the
    # boundary at step 1: a resume that filed states only from the boundary
    # on would run out of fuel
    routes = contextual._fill_routes(31, 2)
    assert outcomes(contextual._runs(SELF, 2), [(2, contexts[2], routes[2])]) == \
        [(DIVERGENT, 2, 0)]
    # h is bound by the second binder, not by the first, which has its name
    m = parse("\\y. \\y. y")
    routes = contextual._fill_routes(31, 3)
    opened = [(i, contexts[i], routes[i]) for i in (0, 1, 2, 31)]
    assert outcomes(contextual._runs(m, 3), opened) == \
        [(SOLVABLE, 0, None), (SOLVABLE, 0, None), (SOLVABLE, 1, None), (SOLVABLE, 2, None)]
    for _, c, route in opened:
        assert lamcalc._run(contextual._plug(c, m), 3)[:2] == ref_direct_start(m, route, 3)[:2]


# ---------------------------------------------------------------------------
# The one enumerator of terms and contexts against the two it replaced
# (docs/DECISIONS.md D27)

@lru_cache(maxsize=None)
def ref_terms_of_size(size, depth):
    """The plain terms enumerator that `_of_size(size, depth, 0)` replaced."""
    if size < 1:
        return ()
    out = []
    if size == 1:
        scope = [contextual._binder_name(d) for d in range(depth)]
        for v in contextual._TERM_VARS + tuple(n for n in scope if n not in contextual._TERM_VARS):
            out.append(Var(v))
        return tuple(out)
    for body in ref_terms_of_size(size - 1, depth + 1):
        out.append(Abs(contextual._binder_name(depth), body))
    for sf in range(1, size):
        for f in ref_terms_of_size(sf, depth):
            for a in ref_terms_of_size(size - sf, depth):
                out.append(App(f, a))
    return tuple(out)


def ref_contexts(size, depth):
    """The contexts enumerator that `_of_size(size, depth, 1)` replaced, yielding
    each context as its loops build it: abstractions first, then hole-left
    applications, then hole-right ones."""
    if size == 1:
        yield contextual.HOLE
        return
    for c in ref_contexts_of_size(size - 1, depth + 1):
        yield Abs(contextual._binder_name(depth), c)
    for sc in range(1, size):
        for c in ref_contexts_of_size(sc, depth):
            for t in ref_terms_of_size(size - sc, depth):
                yield App(c, t)
    for st_ in range(1, size):
        for t in ref_terms_of_size(st_, depth):
            for c in ref_contexts_of_size(size - st_, depth):
                yield App(t, c)


@lru_cache(maxsize=None)
def ref_contexts_of_size(size, depth):
    return tuple(ref_contexts(size, depth))


def node_numbers(terms, memo, table):
    """A number per term, shared by two terms iff they are equal node for
    node, names included.  `memo` numbers each node object once, so a term
    whose parts were numbered costs one step."""
    def number(t):
        n = memo.get(id(t))
        if n is None:
            if isinstance(t, Var):
                shape = ("v", t.name)
            elif isinstance(t, Abs):
                shape = ("l", t.binder, number(t.body))
            else:
                shape = ("a", number(t.fun), number(t.arg))
            n = memo[id(t)] = table.setdefault(shape, len(table))
        return n
    return [number(t) for t in terms]


def test_one_enumerator_matches_the_two_it_replaced():
    """Every batch of sizes 1 to 6 at depths 0 to 3, node for node; a batch of
    size 7 holds over a million terms."""
    ours, theirs, table = {}, {}, {}
    try:
        for holes, depth, size in product((0, 1), range(4), range(1, 7)):
            ref = (ref_contexts_of_size if holes else ref_terms_of_size)(size, depth)
            got = contextual._of_size(size, depth, holes)
            assert len(got) == len(ref) > 0, (holes, depth, size)
            assert node_numbers(got, ours, table) == node_numbers(ref, theirs, table), \
                (holes, depth, size)
    finally:  # the depth-3 batches are far beyond what queries read
        contextual._of_size.cache_clear()
        ref_terms_of_size.cache_clear()
        ref_contexts_of_size.cache_clear()


def test_context_indices_match_the_replaced_enumerator():
    """Every 7th context up to index 200,000, which lies in size 7, against
    the old batches read one after another; the old size-7 batch is read as
    it is built, not kept."""
    old = itertools.chain.from_iterable(
        ref_contexts(size, 0) if size == 7 else ref_contexts_of_size(size, 0)
        for size in range(1, 8))
    try:
        for idx, (new, ref) in enumerate(zip(contextual._context_terms(0, 200001), old)):
            if idx % 7 == 0:
                assert show(new) == show(ref), idx
                if idx % 7_000 == 0:
                    assert str(enumerate_context(idx)) == show(ref)
        assert idx == 200000
    finally:  # the size-7 batch holds about 185 MB
        contextual._of_size.cache_clear()
        ref_terms_of_size.cache_clear()
        ref_contexts_of_size.cache_clear()


def self_loop(k):
    """(\\x. I^k (x x)) (\\x. I^k (x x)), which first repeats at step k + 1."""
    body = "x x"
    for _ in range(k):
        body = f"(\\i. i) ({body})"
    half = f"(\\x. {body})"
    return parse(f"{half} {half}")


def test_deferred_cycle_keys_keep_the_first_repeat():
    for k in (5, 6, 7, 8, 11):
        t = self_loop(k)
        for fuel in (k, k + 1, 30):
            st_ = solvability(t, fuel)
            kind, steps, first = ref_solvability(t, fuel)
            assert (st_.kind, st_.steps) == (kind, steps)
            if kind == "divergent":
                cur = t
                for _ in range(steps):
                    cur = ref_head_step(cur)
                assert st_.certificate == (first, steps,
                                           show(canonical(cur)))
            else:
                assert st_.certificate == ()
        assert solvability(t, 30).certificate[:2] == (0, k + 1)


# ---------------------------------------------------------------------------
# The head-reduction machine against whole-term references
# (docs/DECISIONS.md D15)

def assert_runs_like_reference(t, fuel):
    """solvability(t, fuel) against ref_solvability, certificate included."""
    st_ = solvability(t, fuel)
    kind, steps, extra = ref_solvability(t, fuel)
    assert (st_.kind, st_.steps) == (kind, steps), show(t)
    if kind == "solvable":
        hf = st_.head
        assert (hf.binders, hf.head, hf.args) == extra
        assert show(hf.to_term()) == show(ref_reduct(t, steps))
    elif kind == "divergent":
        assert st_.certificate == (extra, steps,
                                   show(canonical(ref_reduct(t, steps))))
    else:
        assert st_.certificate == () and st_.head is None


def ref_reduct(t, steps):
    for _ in range(steps):
        t = ref_head_step(t)
    return t


# The stack empties under an abstraction head, so a binder is added
# mid-run: before a head normal form, before a repeat, and where the
# substituted argument's free name clashes with the binder.
MID_RUN_BINDERS = [
    "(\\x. \\y. x y) (\\z. z)",
    "(\\a. \\y. a a) (\\x. x x)",
    "(\\x. \\y. \\z. x) a b",
    "(\\x. \\y. x y) y",
    "\\y. (\\x. \\y. x y) y",
    "(\\x. \\y. x x) (\\z. \\y. z z)",
    "(\\x. \\y. x (\\z. x z y)) (\\w. w w)",
]


def test_binders_added_mid_run_match_reference():
    for text in MID_RUN_BINDERS:
        t = parse(text)
        for fuel in (1, 2, 3, 30):
            assert_runs_like_reference(t, fuel)
    # one binder added at step 1, then a repeat of step 1 at step 2
    st_ = solvability(parse("(\\a. \\y. a a) (\\x. x x)"), 30)
    assert st_.certificate == (1, 2, "\\x. (\\y. y y) (\\y. y y)")
    # the clash renames the added binder
    st_ = solvability(parse("(\\x. \\y. x y) y"), 30)
    assert (st_.head.binders, st_.head.head, st_.head.args) == (("y0",), "y", (Var("y0"),))


def test_cells_are_read_under_the_environment_they_were_pushed_under():
    for text in MID_RUN_BINDERS + ["\\y. (\\x. \\z. x x z) (\\x. \\z. x x z) y"]:
        pushed = {}  # id(cell) -> (cell, env)
        for env, head, stack in machine_states(parse(text), 30):
            assert stack or head._kind == "var"
            cell, depth = stack, len(lamcalc._args(stack))
            while cell:
                assert pushed.setdefault(id(cell), (cell, env))[1] == env
                assert cell[2] == depth
                cell, depth = cell[1], depth - 1


@given(some_terms, some_terms, st.sampled_from(["x", "y", "w"]), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_open_arguments_under_binders_match_reference(a, b, name, fuel):
    """Arguments whose free names are bound by the run's binders, so their
    hashes depend on the environment."""
    y = Var(name)
    for t in (Abs(name, App(App(a, y), b)), Abs(name, App(App(a, b), y)),
              Abs(name, App(a, Abs("x", App(y, b)))), Abs(name, App(a, a))):
        assert_runs_like_reference(t, fuel)


def self_loop_under_binder(k):
    """\\y. (\\x. \\z. I^k (x x z)) (\\x. \\z. I^k (x x z)) y, which first
    repeats at step k + 2 with the open argument y on the stack."""
    body = "x x z"
    for _ in range(k):
        body = f"(\\i. i) ({body})"
    half = f"(\\x. \\z. {body})"
    return parse(f"\\y. {half} {half} y")


def test_first_repeat_ends_the_run_at_its_own_step(monkeypatch):
    steps = []  # in solvability, one unwind for the start, then one per head step
    unwind = lamcalc._unwind

    def counted(*state):
        steps.append(1)
        return unwind(*state)

    monkeypatch.setattr(lamcalc, "_unwind", counted)
    for k in (0, 1, 3, 5, 6, 7, 8, 11):
        for t, again in ((self_loop(k), k + 1), (self_loop_under_binder(k), k + 2)):
            for fuel in (again - 1, again, again + 1, 30):
                if fuel < 1:
                    continue
                assert_runs_like_reference(t, fuel)
                steps.clear()
                st_ = solvability(t, fuel)
                assert len(steps) - 1 == st_.steps == min(again, fuel)
            assert solvability(t, 30).certificate[:2] == (0, again)


@st.composite
def machine_state(draw):
    """A state with at most two binders and two arguments, from terms over
    two names, so that equal states are common."""
    small = st.sampled_from([Var("x"), Var("y"), Var("u"), parse("\\x. x"),
                             parse("\\y. x"), parse("\\x. y x"), parse("x y"),
                             parse("\\x. x x")])
    env = tuple(draw(st.lists(st.sampled_from(["x", "y"]), max_size=2)))
    args = draw(st.lists(small, max_size=2))
    head = draw(small.filter(lambda h: args and h._kind == "abs"
                             or h._kind == "var"))
    stack = None
    for depth, a in enumerate(reversed(args), 1):
        stack = [a, stack, depth, None]
    return env, head, stack


# One argument object under two environments: bound in one, free in the other.
SHARED_ARG = [Var("x"), None, 1, None]


@given(machine_state(), machine_state(), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
@example((("x",), SPECIAL[4], SHARED_ARG), (("y",), SPECIAL[4], SHARED_ARG),
         False, False)
def test_states_are_equal_iff_their_terms_are_alpha_equal(a, b, rename, warm):
    if rename:  # b is a's term under other names, unwound again
        b = lamcalc._unwind((), alpha_variant(lamcalc._rebuild(*a)), None)
    if warm:  # b's cells hashed before a's
        lamcalc._state_hash(*b)
    same = ref_key(lamcalc._rebuild(*a)) == ref_key(lamcalc._rebuild(*b))
    assert lamcalc._same_state(a, b) == lamcalc._same_state(b, a) == same
    if same:
        assert lamcalc._state_hash(*a) == lamcalc._state_hash(*b)


@pytest.mark.parametrize("t", SPECIAL)
def test_states_along_a_run_are_equal_iff_their_terms_are(t):
    states = list(machine_states(App(t, t), 12))
    for a, b in itertools.combinations(states, 2):
        same = ref_key(lamcalc._rebuild(*a)) == ref_key(lamcalc._rebuild(*b))
        assert lamcalc._same_state(a, b) == same
        if same:
            assert lamcalc._state_hash(*a) == lamcalc._state_hash(*b)


def test_omega3_against_reference_and_at_fuel_5000():
    for fuel in (1, 2, 7, 8, 9, 300):
        assert_runs_like_reference(corpus.OMEGA3, fuel)
    st_ = solvability(corpus.OMEGA3, 5000)
    assert (st_.kind, st_.steps, st_.head, st_.certificate) == ("unknown", 5000, None, ())


def ref_normalize(t, fuel):
    """Leftmost-outermost normalization by recursion on every node."""
    def step(u):
        if isinstance(u, App) and isinstance(u.fun, Abs):
            return subst(u.fun.body, u.fun.binder, u.arg)
        if isinstance(u, Abs):
            b = step(u.body)
            return None if b is None else Abs(u.binder, b)
        if isinstance(u, App):
            f = step(u.fun)
            if f is not None:
                return App(f, u.arg)
            a = step(u.arg)
            return None if a is None else App(u.fun, a)
        return None

    cur = t
    for _ in range(fuel):
        nxt = step(cur)
        if nxt is None:
            return cur
        cur = nxt
    return None


@given(lam_terms(), st.integers(0, 6))
@settings(max_examples=300, deadline=None)
@example(parse("x ((\\z. z) y) ((\\w. w) u) v"), 3)
@example(parse("x ((\\z. z) y) ((\\w. w) u) v"), 2)
def test_normalize_matches_recursive_reference(t, fuel):
    got, want = normalize(t, fuel), ref_normalize(t, fuel)
    assert (got is None) == (want is None)
    if got is not None:
        assert show(got) == show(want)


@given(some_terms, some_terms, st.sampled_from(["x", "y", "w"]))
@settings(max_examples=150, deadline=None)
def test_normalize_needs_exactly_the_reference_steps(a, b, name):
    """The zipper finds the normal form with the reference's step count as
    fuel + 1 and not with less, also under binders and in nested arguments."""
    y = Var(name)
    for t in (App(a, b), Abs(name, App(App(y, App(a, y)), App(b, y)))):
        fuel = next((f for f in range(1, 40) if ref_normalize(t, f) is not None), None)
        if fuel is None:
            assert normalize(t, 39) is None
            continue
        assert normalize(t, fuel - 1) is None
        assert show(normalize(t, fuel)) == show(ref_normalize(t, fuel))


def test_normalize_walks_each_argument_once():
    k = 3000
    t = parse("(\\z. z) x" + " ((\\w. w) y)" * k)
    assert normalize(t, k + 1) is None  # k + 1 steps, and one more to see it
    assert str(normalize(t, k + 2)) == "x" + " y" * k
    normal = parse("\\v. x" + " (y (\\u. u v))" * k)
    assert normalize(normal, 1) is normal
    nested = parse("x (" * 450 + "(\\w. w) y" + ")" * 450)
    assert str(normalize(nested, 2)) == "x (" * 449 + "x y" + ")" * 449


# ---------------------------------------------------------------------------
# Resource terms: cached hashes, free names, heights and normality against
# uncached references, and reduction against the permutation reducer

def ref_rhash(k):
    """The hash a resource term caches: its key's, built from the hashes of
    the key's parts, a bag's part being the sorted hashes of its items."""
    if k[0] == "l":
        return hash(("l", ref_rhash(k[1])))
    if k[0] == "a":
        return hash(("a", ref_rhash(k[1]),
                     tuple(sorted(ref_rhash(u) for u in k[2]))))
    return hash(k)


def ref_free_rvars(t, bound=frozenset()):
    if isinstance(t, RVar):
        return frozenset() if t.name in bound else frozenset([t.name])
    if isinstance(t, RAbs):
        return ref_free_rvars(t.body, bound | {t.binder})
    out = ref_free_rvars(t.fun, bound)
    for u in t.bag:
        out |= ref_free_rvars(u, bound)
    return out


def ref_gen_height(t):
    if isinstance(t, RVar):
        return 1
    if isinstance(t, RAbs):
        return ref_gen_height(t.body)
    return max(ref_gen_height(t.fun),
               1 + max((ref_gen_height(u) for u in t.bag), default=0))


def ref_occurrences(t, name):
    if isinstance(t, RVar):
        return 1 if t.name == name else 0
    if isinstance(t, RAbs):
        return 0 if t.binder == name else ref_occurrences(t.body, name)
    return ref_occurrences(t.fun, name) + sum(ref_occurrences(u, name)
                                              for u in t.bag)


def ref_subst_assignment(t, name, queue):
    """Replace occurrences of `name` left-to-right by the terms in `queue`,
    rebuilding every node."""
    if isinstance(t, RVar):
        return queue.pop(0) if t.name == name else t
    if isinstance(t, RAbs):
        if t.binder == name:
            return t
        avoid = set()
        for u in queue:
            avoid |= ref_free_rvars(u)
        if t.binder in avoid and ref_occurrences(t.body, name) > 0:
            nb = _fresh(t.binder, avoid | ref_free_rvars(t.body) | {name})
            body = ref_subst_assignment(
                t.body, t.binder, [RVar(nb)] * ref_occurrences(t.body, t.binder))
            return RAbs(nb, ref_subst_assignment(body, name, queue))
        return RAbs(t.binder, ref_subst_assignment(t.body, name, queue))
    fun = ref_subst_assignment(t.fun, name, queue)
    return RApp(fun, tuple(ref_subst_assignment(u, name, queue) for u in t.bag))


def ref_step(t, every=False):
    """The permutation reducer's step: the set of reducts of the leftmost
    redex, each distinct permutation of a bag substituted in turn, or None
    if t is normal.  With `every`, a list that keeps alpha-equal reducts."""
    wrap = list if every else set
    if isinstance(t, RVar):
        return None
    if isinstance(t, RAbs):
        inner = ref_step(t.body, every)
        return None if inner is None else wrap(RAbs(t.binder, u) for u in inner)
    if isinstance(t.fun, RAbs):
        f = t.fun
        if ref_occurrences(f.body, f.binder) != len(t.bag):
            return wrap()
        return wrap(ref_subst_assignment(f.body, f.binder, list(perm))
                    for perm in dict.fromkeys(permutations(t.bag)))
    inner = ref_step(t.fun, every)
    if inner is not None:
        return wrap(RApp(u, t.bag) for u in inner)
    items = list(t.bag)
    for i, u in enumerate(items):
        inner = ref_step(u, every)
        if inner is not None:
            return wrap(RApp(t.fun, tuple(items[:i] + [v] + items[i + 1:]))
                        for v in inner)
    return None


def ref_resource_reduce(t):
    done, todo = set(), [t]
    while todo:
        cur = todo.pop()
        nxt = ref_step(cur)
        if nxt is None:
            done.add(cur)
        else:
            todo.extend(nxt)
    return frozenset(done)


def ref_printings(t):
    """For each normal form of t, by its key: every way the permutation
    reducer can print it.  That reducer keeps the first of alpha-equal
    terms in sets whose order follows string hashing, so here no reduct is
    dropped."""
    out, todo, seen = {}, [t], set()
    while todo:
        cur = todo.pop()
        nxt = ref_step(cur, every=True)
        if nxt is None:
            out.setdefault(ref_rkey(cur), set()).add(str(cur))
        for u in nxt or ():
            if str(u) not in seen:
                seen.add(str(u))
                todo.append(u)
    return out


def assert_reduces_like_reference(t):
    """resource_reduce(t) is the permutation reducer's set, and prints it as
    that reducer can; identically wherever that printing does not depend on
    set order (docs/DECISIONS.md D8)."""
    fast, ref, printings = resource_reduce(t), ref_resource_reduce(t), ref_printings(t)
    assert fast == ref
    assert {ref_rkey(u) for u in fast} == {ref_rkey(u) for u in ref} == set(printings)
    for u in fast:
        assert str(u) in printings[ref_rkey(u)]
    if all(len(p) == 1 for p in printings.values()):
        assert sorted(map(str, fast)) == sorted(map(str, ref))
    return fast


def copy_rterm(t):
    """A node-by-node copy, with empty caches."""
    if isinstance(t, RVar):
        return RVar(t.name)
    if isinstance(t, RAbs):
        return RAbs(t.binder, copy_rterm(t.body))
    return RApp(copy_rterm(t.fun), tuple(copy_rterm(u) for u in t.bag))


def alpha_rvariant(t, env=None, depth=0):
    """t with the binder at depth d renamed to w<d>, and bags reversed."""
    env = {} if env is None else env
    if isinstance(t, RVar):
        return RVar(env.get(t.name, t.name))
    if isinstance(t, RAbs):
        nb = f"w{depth}"
        return RAbs(nb, alpha_rvariant(t.body, {**env, t.binder: nb}, depth + 1))
    return RApp(alpha_rvariant(t.fun, env, depth + 1),
                tuple(alpha_rvariant(u, env, depth + 1) for u in reversed(t.bag)))


def rsubterms(t, env=()):
    yield t, env
    if isinstance(t, RAbs):
        yield from rsubterms(t.body, (t.binder,) + env)
    elif isinstance(t, RApp):
        yield from rsubterms(t.fun, env)
        for u in t.bag:
            yield from rsubterms(u, env)


# Items for bag redexes: free names the body's binders can capture, repeats,
# and alpha-equal abstractions under different binder names, which make a new
# redex when they land in head position; the last three have nested binders,
# one shadowing the other, and a redex they make may live or die at either
# binder.
RITEMS = [RVar("y"), RVar("z"), RAbs("a", RVar("a")), RAbs("b", RVar("b")),
          RAbs("a", RVar("c")), RAbs("y", RApp(RVar("y"), ())),
          RApp(RVar("y"), (RVar("z"),)),
          RAbs("a", RAbs("b", RApp(RVar("a"), (RVar("b"),)))),
          RAbs("a", RAbs("b", RVar("a"))), RAbs("a", RAbs("a", RVar("a")))]


def _occurrence(kind):
    x = RVar("x")
    return {"bare": x, "head": RApp(x, ()), "under": RAbs("y", x),
            "nested": RApp(RVar("w"), (x,)), "pair": RApp(RVar("w"), (x, x)),
            "shadowed": RAbs("z", RApp(RVar("z"), (x,))),
            "spine": RApp(RApp(x, (RVar("z"),)), ())}[kind]


@st.composite
def bag_redexes(draw):
    """(\\x. h<...>...<...>)<items>: the occurrences of x sit bare in a bag,
    in head position under one bag or two, under a binder or nested, cut
    into bags at random; now and then one occurrence too few or too many.
    Now and then every place of one kind holds the same node, as in
    taylor_of_term's bags."""
    k = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(["bare", "bare", "head", "under",
                                           "nested", "pair", "shadowed", "spine"]),
                          min_size=k, max_size=k))
    cuts = draw(st.lists(st.booleans(), min_size=k - 1, max_size=k - 1))
    made = {}

    def occurrence(kind):
        if draw(st.booleans()):
            return made.setdefault(kind, _occurrence(kind))
        return _occurrence(kind)

    bags, cur = [], [occurrence(kinds[0])]
    for kind, cut in zip(kinds[1:], cuts):
        if cut:
            bags.append(tuple(cur))
            cur = []
        cur.append(occurrence(kind))
    bags.append(tuple(cur))
    body = RVar("h")
    for b in bags:
        body = RApp(body, b)
    if draw(st.booleans()):
        body = RAbs("y", body)
    n_items = k + kinds.count("pair") + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    items = draw(st.lists(st.sampled_from(RITEMS), min_size=n_items,
                          max_size=n_items))
    return RApp(RAbs("x", body), tuple(items))


@given(resource_terms(), resource_terms(), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_resource_hash_is_the_key_hash(t, u, warm, data):
    if warm:
        for v, _ in rsubterms(t):
            hash(v)
    prefill(data, t, rsubterms, [hash, free_rvars, gen_height, is_normal])
    v = alpha_rvariant(t)
    assert hash(t) == ref_rhash(ref_rkey(t)) == hash(copy_rterm(t)) == hash(v)
    assert t == v and t == copy_rterm(t)
    assert (t == u) == (ref_rkey(t) == ref_rkey(u))
    assert (t == u) <= (hash(t) == hash(u))
    for w, env in rsubterms(t):
        assert hash(w) == ref_rhash(ref_rkey(w))
        assert lamcalc._encode(w, env, tuple) == ref_rkey(w, env[::-1])
        assert free_rvars(w) == ref_free_rvars(w)
        assert gen_height(w) == ref_gen_height(w)
        assert is_normal(w) == (ref_step(w) is None)


@given(resource_terms())
@example(parse_resource("(\\x. x<x>)<\\a. a<>, \\b. b<>>"))
@settings(max_examples=200, deadline=None)
def test_resource_reduce_matches_permutation_reference(t):
    assert_reduces_like_reference(t)


@given(bag_redexes())
@example(parse_resource("(\\x. \\y. h<x, x><x<>><\\y. x>)<y, \\a. a, \\b. b, z>"))
@example(parse_resource("(\\x. h<x, x, x, \\y. x, x>)<y, y, y, z, z>"))
@settings(max_examples=300, deadline=None)
def test_bag_redexes_match_permutation_reference(t):
    fast = assert_reduces_like_reference(t)
    for nf in fast:
        assert ref_step(nf) is None and is_normal(nf)


def ref_queue_subst(t, name, queue):
    """Replace the occurrences of `name` left to right by the terms of
    `queue`, one each, building every reduct on its own.  Subterms without
    `name` come back as they are.  A binder is renamed when it would capture
    a free name of the terms still to be placed."""
    if name not in free_rvars(t):
        return t
    return ref_fill(t, name, queue, [0, None])


def ref_fill(t, name, queue, at):
    """ref_queue_subst of a t in which `name` is free, from queue[at[0]] on;
    at[1] lists the free names of queue[i:] per i, built at the first
    binder met."""
    if isinstance(t, RVar):
        i = at[0]
        at[0] = i + 1
        return queue[i]
    if isinstance(t, RAbs):
        avoid = at[1]
        if avoid is None:
            avoid = at[1] = [frozenset()] * (len(queue) + 1)
            for i in range(len(queue) - 1, -1, -1):
                avoid[i] = avoid[i + 1] | free_rvars(queue[i])
        rest = avoid[at[0]]
        if t.binder in rest:
            nb = _fresh(t.binder, rest | free_rvars(t.body) | {name})
            body = ref_queue_subst(t.body, t.binder,
                                   [RVar(nb)] * ref_occurrences(t.body, t.binder))
            return RAbs(nb, ref_fill(body, name, queue, at))
        return RAbs(t.binder, ref_fill(t.body, name, queue, at))
    apps = []
    while isinstance(t, RApp) and name in free_rvars(t):
        apps.append(t)
        t = t.fun
    if name in free_rvars(t):
        t = ref_fill(t, name, queue, at)
    for app in reversed(apps):
        t = RApp(t, tuple([ref_fill(u, name, queue, at) if name in free_rvars(u)
                           else u for u in app.bag]))
    return t


def rapps(t):
    """The application nodes of t, once per place."""
    todo = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, RAbs):
            todo.append(u.body)
        elif isinstance(u, RApp):
            yield u
            todo.append(u.fun)
            todo.extend(u.bag)


def ref_holds_dead_redex(t):
    """t holds (\\y1. ... \\yr. u)<b1>...<bs> where, for some i <= min(r, s),
    yi occurs in the scope of its binder other than |bi| times: a redex, or
    one that contracting the redexes before it makes, whose bag size is not
    its binder's degree."""
    for u, _ in rsubterms(t):
        bags = []
        while isinstance(u, RApp):
            bags.append(u.bag)
            u = u.fun
        for bag in reversed(bags):
            if not isinstance(u, RAbs):
                break
            if ref_occurrences(u.body, u.binder) != len(bag):
                return True
            u = u.body
    return False


def ref_reducts(t):
    """The reduct of each queue of _assignments, in order, each built on its
    own by ref_queue_subst; None when the bag size is not the binder's
    degree."""
    fun, items = t.fun, t.bag
    groups = _places_of(fun).groups
    if len(groups) != len(items):
        assert ref_occurrences(fun.body, fun.binder) != len(items)
        return None
    by_class = {}
    for u in items:
        by_class.setdefault(u, []).append(u)
    return [ref_queue_subst(fun.body, fun.binder, q)
            for q in _assignments(groups, list(by_class.values()))]


@given(bag_redexes())
@example(parse_resource("(\\x. \\y. \\y0. y<x, y0>)<y>"))
@example(parse_resource("(\\x. \\y. \\y0. \\y00. y<y0<x>, y00, x>)<y, y0>"))
@example(parse_resource("(\\x. \\y. \\z. \\y0. y<z<x>, y0, x>)<y, z>"))
@example(parse_resource("(\\x. h<\\y. x<y>, \\y. x<y>>)<y<>, z>"))
@example(parse_resource("(\\x. h<x<z><>, x<>>)<\\a. \\b. a, \\a. \\b. a<b>>"))
@settings(max_examples=300, deadline=None)
def test_contraction_matches_per_queue_reference(t):
    """_contract builds, reduct for reduct and binder name for binder name,
    what filling each queue of _assignments on its own builds, leaving out
    exactly the reducts that hold a redex whose bag size is not its
    binder's degree (docs/DECISIONS.md D29), and every hash it stores is
    the hash of the node."""
    got = _contract(t.fun, t.bag)
    want = ref_reducts(t)
    if want is None:
        assert got == []
        return
    want = [r for r in want if not ref_holds_dead_redex(r)]
    assert list(map(show_resource, got)) == list(map(show_resource, want))
    for r in got:
        for node in rapps(r):
            assert node._hash is None or node._hash == hash(copy_rterm(node))


@given(bag_redexes())
@example(parse_resource("(\\x. h<x<z><>, x<>>)<\\a. \\b. a, \\a. \\b. a<b>>"))
@settings(max_examples=250, deadline=None)
def test_dropped_reducts_reduce_to_nothing(t):
    """Every queue that _contract leaves out gives a reduct that the
    permutation reducer takes to the empty sum (D29); the kept ones are the
    others, in order."""
    want = ref_reducts(t)
    assume(want is not None)
    got = iter(map(show_resource, _contract(t.fun, t.bag)))
    kept = next(got, None)
    for r in want:
        if show_resource(r) == kept:
            kept = next(got, None)
        else:
            assert ref_resource_reduce(r) == frozenset()
    assert kept is None


@given(resource_terms(), names, st.booleans())
@settings(max_examples=300, deadline=None)
def test_demand_counts_the_places_of_the_plan(body, x, applied):
    """_demand reads the number of places of the plan of the abstraction a
    bag would meet, the free occurrences of its binder, without compiling
    the plan."""
    fun = RAbs(x, body)
    f = RApp(RAbs("y", fun), (RVar("y"),)) if applied else fun
    n = taylor._demand(f)
    assert fun._places is None
    assert n == len(_places_of(fun).groups) == ref_occurrences(body, x)


def test_commutation_compiles_plans_only_to_contract(monkeypatch):
    """A commutation check expands with bags sized by _demand, then reduces:
    every plan it compiles is compiled inside _contract, which runs it."""
    inside, compiled = [0], Counter()
    contract, compile_ = resource._contract, resource._compile

    def counted_contract(*args):
        inside[0] += 1
        try:
            return contract(*args)
        finally:
            inside[0] -= 1

    def counted_compile(*args):
        compiled[inside[0] > 0] += 1
        return compile_(*args)
    monkeypatch.setattr(resource, "_contract", counted_contract)
    monkeypatch.setattr(resource, "_compile", counted_compile)
    for m in corpus.normalizing_corpus(30):
        assert taylor.commutation_check(m, 3, 5, 300)["equal"]
    assert compiled[True] > 0 and compiled[False] == 0


def test_commutation_builds_no_dead_reduct(monkeypatch):
    """In the commutation checks of the corpus, no reduct that _contract
    returns holds a redex whose bag size is not its binder's degree, and
    _contract runs at most 600 times; it ran 1,609 times when it built
    every reduct (docs/DECISIONS.md D29)."""
    calls, contract = [0], resource._contract

    def checked_contract(*args):
        calls[0] += 1
        out = contract(*args)
        for r in out:
            assert not ref_holds_dead_redex(r)
        return out
    monkeypatch.setattr(resource, "_contract", checked_contract)
    for m in corpus.normalizing_corpus(30):
        assert taylor.commutation_check(m, 3, 5, 300)["equal"]
    assert 0 < calls[0] <= 600


def test_factorial_redex_builds_each_shared_node_once():
    """The 5,040 reducts of (\\x. h<x>...<x>)<v0, ..., v6> share their
    spines: one node per distinct prefix of a queue, sum over j of 7!/(7-j)!,
    each built with its hash."""
    items = ", ".join(f"v{i}" for i in range(7))
    t = parse_resource(f"(\\x. h{'<x>' * 7})<{items}>")
    reducts = _contract(t.fun, t.bag)
    assert len({show_resource(r) for r in reducts}) == 5040
    nodes = {id(node): node for r in reducts for node in rapps(r)}
    assert len(nodes) == sum(math.perm(7, j) for j in range(1, 8)) == 13699
    for node in nodes.values():
        assert node._hash is not None and node._hash == hash(copy_rterm(node))


def test_shared_bag_node_keeps_every_reduct():
    """One node at two places of the body: the bag of each place is a group
    of its own."""
    p = RApp(RVar("g"), (RVar("x"), RVar("x")))
    t = RApp(RAbs("x", RApp(RVar("f"), (p, p))), tuple(map(RVar, "aabb")))
    nfs = assert_reduces_like_reference(t)
    assert sorted(map(str, nfs)) == ["f<g<a, a>, g<b, b>>", "f<g<a, b>, g<a, b>>"]


def test_expansion_elements_reduce_like_reference():
    """At multiplicity 4 taylor_of_term builds bags such as (P, P) with one
    node P, so the body of an element of (\\x. f (g x)) (z w) holds g<x, x>
    twice."""
    for t in taylor_of_term(parse("(\\x. f (g x)) (z w)"), 4, 3).elements:
        assert_reduces_like_reference(t)


@given(st.lists(st.sampled_from(RITEMS[:4] + [RVar("y")]), min_size=1, max_size=6),
       st.data())
@settings(max_examples=300, deadline=None)
def test_assignments_match_distinct_permutations(items, data):
    n = len(items)
    groups = []
    for p in range(n):  # each place joins the group of an earlier place, or starts one
        groups.append(data.draw(st.sampled_from(sorted(set(groups)) + [p])))
    by_class = {}
    for u in items:
        by_class.setdefault(u, []).append(u)
    members = list(by_class.values())
    cls = {id(u): c for c, m in enumerate(members) for u in m}

    def pattern(queue):
        """Per group, the multiset of alpha classes it receives."""
        out = {}
        for g, u in zip(groups, queue):
            out.setdefault(g, []).append(cls[id(u)])
        return tuple(sorted((g, tuple(sorted(v))) for g, v in out.items()))

    got = [pattern(q) for q in _assignments(groups, members)]
    want = {pattern(q) for q in set(permutations(items))}
    assert len(got) == len(set(got)) and set(got) == want
    for q in _assignments(groups, members):
        assert sorted(map(id, q)) == sorted(map(id, items))
        # a class's members go to its places in the order they were given
        for m in members:
            assert [u for u in q if cls[id(u)] == cls[id(m[0])]] == m


def ref_box(t, a, envt=(), enva=()):
    """Membership in the expansion of a, by the recursion on t and a."""
    if isinstance(a, bohm.Bottom):
        return False
    try:
        binders, head, bags = resource.normal_view(t)
    except ValueError:
        return False
    if len(binders) != len(a.binders) or len(bags) != len(a.args):
        return False
    et, ea = binders[::-1] + envt, a.binders[::-1] + enva
    if _ref_index(head, et[::-1]) != _ref_index(a.head, ea[::-1]):
        return False
    return all(ref_box(u, arg, et, ea)
               for items, arg in zip(bags, a.args) for u in items)


def ref_box_depth(t, a, envt=(), enva=()):
    """The largest n such that resource.truncate(t, n) belongs to the
    expansion of bohm.truncate(a, n), or math.inf if t belongs to the
    expansion of a, by recursion on t and a (docs/DECISIONS.md D8 point 6).
    Raises ValueError on a redex."""
    if a is BOT:
        return 0
    binders, head, bags = resource.normal_view(t)
    if len(binders) != len(a.binders) or len(bags) != len(a.args):
        return 0
    et, ea = binders[::-1] + envt, a.binders[::-1] + enva
    if _ref_index(head, et[::-1]) != _ref_index(a.head, ea[::-1]):
        return 0
    depth = math.inf
    for items, arg in zip(bags, a.args):
        for u in items:
            depth = min(depth, ref_box_depth(u, arg, et, ea))
            if depth == 0:
                return 1
    return 1 + depth


def ref_min_source(t):
    """min_source by recursion on the canonically named t: each bag's items'
    sources joined pairwise, an empty bag a bottom."""
    def source(t):
        try:
            binders, head, bags = resource.normal_view(t)
        except ValueError:
            return None
        args = []
        for items in bags:
            joined = BOT
            for u in items:
                s = source(u)
                joined = None if s is None else join(joined, s)
                if joined is None:
                    return None
            args.append(joined)
        return Node(binders, head, tuple(args))

    def join(a, b):
        if not isinstance(a, Node):
            return b
        if not isinstance(b, Node):
            return a
        if (len(a.binders), a.head, len(a.args)) != (len(b.binders), b.head, len(b.args)):
            return None
        args = []
        for x, y in zip(a.args, b.args):
            j = join(x, y)
            if j is None:
                return None
            args.append(j)
        return Node(a.binders, a.head, tuple(args))  # a's binder names

    return source(canonical_binders(t))


def ref_bags(elems, sizes):
    return [b for k in sizes for b in itertools.combinations_with_replacement(elems, k)]


def ref_expand(a, sizes, h):
    """Expansion elements of the partial term a of height <= h (math.inf:
    any height), by recursion on a: bags over non-bottom arguments have
    sizes in `sizes`, and a bottom argument takes only the empty bag."""
    if not isinstance(a, Node) or h < 1:
        return []
    pools = [[()] if not isinstance(arg, Node) else
             ref_bags(ref_expand(arg, sizes, h - 1), sizes) for arg in a.args]
    return [resource.spine(a.binders, RVar(a.head), bags) for bags in product(*pools)]


def ref_term_fragment(m, mult, height, sized=False):
    """The expansion elements of the lambda term m, by recursion on m, every
    one built and those above `height` filtered out afterwards; when
    `sized`, a redex's bag holds exactly its binder's occurrence count."""
    def go(u):
        if isinstance(u, Var):
            return [RVar(u.name)]
        if isinstance(u, Abs):
            return [RAbs(u.binder, t) for t in go(u.body)]
        funs, args = go(u.fun), go(u.arg)
        out = []
        for f in funs:
            n = taylor._demand(f) if sized else None
            bags = (ref_bags(args, range(mult + 1)) if n is None else
                    list(itertools.combinations_with_replacement(args, n)))
            out.extend(RApp(f, tuple(items)) for items in bags)
        return out

    return frozenset(t for t in go(m) if gen_height(t) <= height)


def ref_side_fast(a, other, b):
    """The inner loop of the H* side: truncate each maximal element at every
    level and test membership, until the first level that fails."""
    if a is BOT:
        return Fraction(0)
    if other is BOT:
        return Fraction(1)
    worst = Fraction(0)
    for t in ref_expand(a, (b,), math.inf):
        best_n = 0
        for n in range(1, resource.height(t) + 1):
            if ref_box(resource.truncate(t, n), bohm.truncate(other, n)):
                best_n = n
            else:
                break
        worst = max(worst, dyadic(best_n))
    return worst


def perturbed(data, a, depth=0):
    """a with, now and then, a head renamed, an argument cut to bottom or
    the last argument dropped, at any depth."""
    if a is BOT:
        return BOT
    change = data.draw(st.sampled_from(["keep"] * 5 + ["head", "bottom", "arity"]))
    if change == "bottom" and depth > 0:
        return BOT
    args = tuple(perturbed(data, x, depth + 1) for x in a.args)
    if change == "arity":
        args = args[:-1]
    head = data.draw(names) if change == "head" else a.head
    return Node(a.binders, head, args)


def other_term(data, a):
    """A partial term to compare with a: a random one, or a perturbed a."""
    if data.draw(st.booleans()):
        return data.draw(partial_terms())
    return perturbed(data, a)


def side_value(level):
    """The H* side 2**-level that a level of taylor._side_fast stands for;
    math.inf is the empty side, 0."""
    return Fraction(0) if level == math.inf else dyadic(level)


def fraction_side(a, other, b):
    """taylor._side_fast as it was when it returned the side's Fraction."""
    if a is BOT:
        return Fraction(0)
    if b == 0:
        a = bohm.truncate(a, 1)
    return dyadic(min(bohm.height(a), taylor._tree_depth(a, other)))


@given(partial_terms(), st.data(), st.sampled_from([0, 1, 2, 3]))
@settings(max_examples=300, deadline=None)
def test_hstar_side_matches_truncation_loop(a, data, b):
    other = other_term(data, a)
    if data.draw(st.booleans()):
        other = alpha_partial(other)
    assert side_value(taylor._side_fast(a, other, b)) == ref_side_fast(a, other, b)
    assert side_value(taylor._side_fast(other, a, b)) == ref_side_fast(other, a, b)


@given(st.one_of(st.just(BOT), partial_terms()), st.data(), st.sampled_from([0, 1, 2, 3]))
@settings(max_examples=300, deadline=None)
def test_hstar_fragments_is_the_larger_fraction_side(a, data, b):
    """The least level of the two sides names the same Fraction as the max
    of the two Fraction-valued sides (docs/DECISIONS.md D32)."""
    other = BOT if data.draw(st.integers(0, 4)) == 0 else other_term(data, a)
    got = taylor.hstar_fragments(a, other, b)
    assert got == max(fraction_side(a, other, b), fraction_side(other, a, b))
    assert type(got) is Fraction


def draw_element(data, a):
    """A random element of the expansion of a non-bottom a, with bags of at
    most two items."""
    bags = []
    for arg in a.args:
        k = 0 if not isinstance(arg, Node) else data.draw(st.integers(0, 2))
        bags.append(tuple(draw_element(data, arg) for _ in range(k)))
    return resource.spine(a.binders, RVar(a.head), bags)


@given(partial_terms(), st.data())
@settings(max_examples=300, deadline=None)
def test_box_depth_is_the_last_level_in_the_expansion(a, data):
    t = draw_element(data, a)
    other = other_term(data, a)
    depth = ref_box_depth(t, other)
    assert box_relation(t, other) == ref_box(t, other) == (depth == math.inf)
    for n in range(1, resource.height(t) + 3):
        inside = ref_box(resource.truncate(t, n), bohm.truncate(other, n))
        assert inside == (n <= depth)


@given(resource_terms(), partial_terms())
@settings(max_examples=200, deadline=None)
def test_box_relation_matches_reference(t, a):
    assert box_relation(t, a) == ref_box(t, a)


def bag_items(data, a):
    """One to three items for one bag: elements of the expansions of a, of
    an alpha-variant of a and of a perturbed a, which may not join with
    the others, and random resource terms, redexes among them."""
    items = []
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["same", "alpha", "perturbed", "random"]))
        if kind == "random":
            items.append(data.draw(resource_terms()))
        else:
            b = a if kind == "same" else \
                alpha_partial(a) if kind == "alpha" else perturbed(data, a)
            items.append(draw_element(data, b))
    return tuple(items)


def element_and_source(data, a):
    """A resource term and a partial term to test it against: an element of
    the expansion of a, a bag f<...> of drawn items under f (a or a
    perturbed a), or a random resource term."""
    kind = data.draw(st.sampled_from(["element", "bag", "random"]))
    if kind == "element":
        return draw_element(data, a), other_term(data, a)
    if kind == "bag":
        t = RApp(RVar("f"), bag_items(data, a))
        if data.draw(st.booleans()):
            t = RAbs(data.draw(names), t)
            return t, Node((data.draw(names),), "f", (perturbed(data, a),))
        return t, Node((), "f", (perturbed(data, a),))
    return data.draw(resource_terms()), a


def assert_min_source_matches_join(t):
    s, ref = taylor.min_source(t), ref_min_source(t)
    assert (s is None) == (ref is None), show_resource(t)
    if s is not None:
        assert s == ref and str(s) == str(ref), show_resource(t)


@given(partial_terms(), st.data())
@settings(max_examples=300, deadline=None)
def test_min_source_matches_recursive_join(a, data):
    """One _grow over the groups of items at each position (D23) against
    the pairwise joins of the sources of each bag's items."""
    assert_min_source_matches_join(element_and_source(data, a)[0])


@pytest.mark.parametrize("text", [
    "x<\\y. y<y>, \\z. z<z>>", "x<y, z>", "x<y<><z>, y<w><>>",
    "x<(\\y. y)<z>>", "x<y<z>, y<z, (\\w. w)<z>>>", "x<\\y. y<c0>, \\z. z<>>"])
def test_min_source_matches_recursive_join_on_fixed_bags(text):
    assert_min_source_matches_join(parse_resource(text))


@given(partial_terms(), st.data())
@settings(max_examples=300, deadline=None)
def test_box_relation_is_the_order_against_the_least_source(a, data):
    """D8: t is in the expansion of a iff min_source(t) is defined and
    below a in the approximant order."""
    t, other = element_and_source(data, a)
    if data.draw(st.booleans()):
        other = alpha_partial(other)
    s = taylor.min_source(t)
    assert box_relation(t, other) == (s is not None and bohm.partial_leq(s, other))


@given(partial_terms(), st.integers(1, 3), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_taylor_expand_matches_recursive_reference(a, mult, height):
    """The builder over the embedding, pruning by height as it goes (D23),
    against the recursion on the partial term."""
    m = bohm._embed(a)
    assume(expansion_size(m, mult) <= 2000)
    elems = taylor._elements(m, mult, height)
    ref = ref_expand(a, range(mult + 1), height)
    assert len(elems) == len(set(elems))
    assert sorted(map(str, elems)) == sorted(map(str, ref))
    assert taylor.taylor_expand(a, mult, height).elements == frozenset(ref)


@given(partial_terms(), st.data())
@settings(max_examples=200, deadline=None)
def test_hstar_does_not_depend_on_the_multiplicity(a, data):
    """docs/DECISIONS.md D19: the H* sides are the same at every b >= 1."""
    other = other_term(data, a)
    values = {taylor.hstar_fragments(a, other, m) for m in range(1, 5)}
    assert len(values) == 1


@st.composite
def thin_partial_terms(draw, live, depth=1):
    """Partial terms of height <= 3 in which at most `live` arguments of the
    root, and at most one of every other node, are not bottom.  Their
    expansions have at most 9 elements at mult 1 with live 2, and at most
    10 at mult 2 with live 1, so the brute-force H* stays fast."""
    args = []
    for _ in range(draw(st.integers(0, 2)) if depth < 3 else 0):
        if live and draw(st.booleans()):
            live -= 1
            args.append(draw(thin_partial_terms(1, depth + 1)))
        else:
            args.append(BOT)
    return Node(tuple(draw(st.lists(names, max_size=1))), draw(names),
                tuple(args))


@pytest.mark.parametrize("mult, live", [(1, 2), (2, 1)])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_hstar_matches_brute_force_on_drawn_pairs(mult, live, data):
    a = data.draw(thin_partial_terms(live))
    b = data.draw(thin_partial_terms(live)) if data.draw(st.booleans()) \
        else perturbed(data, a)
    assert taylor.hstar_fragments(a, b, mult) == brute_hstar(a, b, mult)


def ref_enumeration_isometry(a, b, prefix):
    """enumeration_isometry with both sums added up in Fractions."""
    K = prefix
    terms = [taylor.enumerate_partial(n) for n in range(1, K + 1)]
    pb_sum = Fraction(0)
    for n, t in enumerate(terms, start=1):
        if not (bohm.partial_leq(t, a) and bohm.partial_leq(t, b)):
            pb_sum += dyadic(n)
    pp_sum = Fraction(0)
    for n, src in enumerate(terms, start=1):
        for m in range(1, K + 1):
            v = taylor.per_term(src, m)
            if not (box_relation(v, a) and box_relation(v, b)):
                pp_sum += dyadic(n) * dyadic(m)
    pb = bracket(pb_sum, pb_sum + dyadic(K))
    pp = bracket(pp_sum, pp_sum + (1 - dyadic(K)) * dyadic(K) + dyadic(K))
    return {"pP": pp, "pB": pb, "gap": abs(pp.midpoint() - pb.midpoint()),
            "tail": (pb.width() + pp.width()) / 2}


@given(partial_terms(), st.data(), st.integers(1, 20))
@settings(max_examples=100, deadline=None)
def test_integer_enumeration_sums_match_fractions(a, data, prefix):
    b = other_term(data, a)
    assert taylor.enumeration_isometry(a, b, prefix) == \
        ref_enumeration_isometry(a, b, prefix)


# ---------------------------------------------------------------------------
# Sized redex bags in commutation_check against reducing every element of
# the expansion (docs/DECISIONS.md D13)

def _slack(m, height):
    return height + taylor._syntactic_depth(m)


def ref_commutation_lhs(m, mult, height):
    """commutation_check's reduced side as it was before bags were sized:
    every element of taylor_of_term reduced, under the same filters."""
    return frozenset(
        nf for t in taylor_of_term(m, mult, _slack(m, height)).elements
        for nf in resource_reduce(t)
        if resource.height(nf) <= height and taylor._bags_within(nf, mult))


def _sized_elements(m, mult, height):
    return frozenset(taylor._elements(m, mult, _slack(m, height), sized=True))


def assert_skipped_elements_reduce_to_nothing(m, mult, height):
    full = taylor_of_term(m, mult, _slack(m, height)).elements
    for t in full - _sized_elements(m, mult, height):
        assert resource_reduce(t) == frozenset(), show_resource(t)


@pytest.mark.parametrize("mult, height", [(2, 4), (3, 5)])
def test_sized_commutation_matches_full_reduction_on_corpus(mult, height):
    for m in corpus.normalizing_corpus(30):
        res = taylor.commutation_check(m, mult, height, 300)
        assert res["lhs"] == ref_commutation_lhs(m, mult, height), show(m)


def test_elements_left_out_of_the_sized_expansion_have_no_reduct():
    for m in corpus.normalizing_corpus(30):
        assert_skipped_elements_reduce_to_nothing(m, 2, 4)


def expansion_size(m, mult):
    """The number of elements taylor_of_term builds before its height filter."""
    if isinstance(m, Var):
        return 1
    if isinstance(m, Abs):
        return expansion_size(m.body, mult)
    k = expansion_size(m.arg, mult)
    return expansion_size(m.fun, mult) * sum(math.comb(k + j - 1, j)
                                             for j in range(mult + 1))


@st.composite
def redex_terms(draw):
    """An abstraction of one or two binders applied to one or two arguments,
    so that sized bags are met with and without a peeled binder."""
    m = draw(lam_terms(4))
    for b in draw(st.lists(names, min_size=1, max_size=2)):
        m = Abs(b, m)
    for _ in range(draw(st.integers(1, 2))):
        m = App(m, draw(lam_terms(4)))
    return m


@given(st.one_of(lam_terms(2), redex_terms()))
@example(parse("(\\x. \\y. y x x) (\\z. z) (\\z. z)"))
@example(parse("(\\x. f (g x)) (z w)"))
@settings(max_examples=150, deadline=None)
def test_sized_commutation_contains_full_reduction_on_drawn_terms(m):
    """ref <= lhs <= rhs, so lhs == ref wherever the reference is two-sided."""
    mult, height = 2, 3
    assume(expansion_size(m, mult) <= 300)
    try:
        res = taylor.commutation_check(m, mult, height, 100)
    except taylor.TentativeTreeError:
        assume(False)
    ref = ref_commutation_lhs(m, mult, height)
    assert ref <= res["lhs"] <= res["rhs"]
    assert_skipped_elements_reduce_to_nothing(m, mult, height)


@given(st.one_of(lam_terms(2), redex_terms()), st.integers(1, 3), st.integers(1, 6),
       st.booleans())
@example(parse("(\\x. f (g x)) (z w)"), 2, 3, True)
@settings(max_examples=200, deadline=None)
def test_term_expansion_matches_recursive_reference(m, mult, height, sized):
    """The builder, with and without sized redex bags, against the recursion
    that builds every element and filters by height afterwards (D23)."""
    assume(not sized or mult <= 2)
    assume(expansion_size(m, 2 if sized else mult) <= 300)
    elems = taylor._elements(m, mult, height, sized)
    ref = ref_term_fragment(m, mult, height, sized)
    assert len(elems) == len(set(elems))
    assert sorted(map(str, elems)) == sorted(map(str, ref))
    if not sized:
        assert taylor_of_term(m, mult, height).elements == ref



# ---------------------------------------------------------------------------
# The aligned walk over two partial terms against the recursions and the
# truncation loop it replaced

def ref_partial_leq(a, b, enva=(), envb=()):
    """The approximant order by recursion on both trees."""
    if not isinstance(a, Node):
        return True
    if not isinstance(b, Node):
        return False
    if len(a.binders) != len(b.binders) or len(a.args) != len(b.args):
        return False
    ea, eb = enva + a.binders, envb + b.binders
    if _ref_index(a.head, ea) != _ref_index(b.head, eb):
        return False
    return all(ref_partial_leq(x, y, ea, eb) for x, y in zip(a.args, b.args))


def ref_height(t):
    if not isinstance(t, Node):
        return 0
    return 1 + max(map(ref_height, t.args), default=0)


def ref_divergence_level(a, b):
    """The deepest level whose truncations agree, one level at a time."""
    level = 0
    for n in range(1, min(ref_height(a), ref_height(b)) + 1):
        if pkey(bohm.truncate(a, n)) != pkey(bohm.truncate(b, n)):
            break
        level = n
    return level


def ref_first_difference(a, b, unknown, pos=(), enva=(), envb=()):
    """The first level at which a and b certainly differ, by recursion;
    nothing at or below a position in `unknown` differs."""
    if pos in unknown:
        return math.inf
    if not (isinstance(a, Node) and isinstance(b, Node)):
        same = not isinstance(a, Node) and not isinstance(b, Node)
        return math.inf if same else len(pos) + 1
    ea, eb = enva + a.binders, envb + b.binders
    if (len(a.binders), _ref_index(a.head, ea), len(a.args)) != \
            (len(b.binders), _ref_index(b.head, eb), len(b.args)):
        return len(pos) + 1
    return min((ref_first_difference(x, y, unknown, pos + (i,), ea, eb)
                for i, (x, y) in enumerate(zip(a.args, b.args))),
               default=math.inf)


def ref_fills_shallow_bottom(a, b, depth=1, limit=None):
    """For a below b: b has a node where a has a bottom at depth <=
    height(a), by recursion."""
    limit = ref_height(a) if limit is None else limit
    if depth > limit:
        return False
    if not isinstance(a, Node):
        return isinstance(b, Node)
    return any(ref_fills_shallow_bottom(x, y, depth + 1, limit)
               for x, y in zip(a.args, b.args))


def alpha_partial(t, env=None, depth=0):
    """t with the binders at depth d renamed to w<d>_<i>, names t does not
    use, and every bottom a fresh object."""
    env = {} if env is None else env
    if not isinstance(t, Node):
        return bohm.Bottom()
    nbs = tuple(f"w{depth}_{i}" for i in range(len(t.binders)))
    env = {**env, **dict(zip(t.binders, nbs))}  # a repeated binder: the last wins
    return Node(nbs, env.get(t.head, t.head),
                tuple(alpha_partial(u, env, depth + 1) for u in t.args))


def bottom_positions(t, pos=()):
    if not isinstance(t, Node):
        yield pos
        return
    for i, u in enumerate(t.args):
        yield from bottom_positions(u, pos + (i,))


def aligned_pair(data, a):
    """a and a term to compare it with: a random or perturbed one, an
    alpha-variant of a or of a perturbed a, or one subtree object shared
    under two drawn binder lists, where its head may be bound on one side
    and free on the other."""
    kind = data.draw(st.sampled_from(["other", "alpha", "shared"]))
    if kind == "other":
        return a, other_term(data, a)
    if kind == "alpha":
        return a, alpha_partial(a if data.draw(st.booleans()) else perturbed(data, a))
    head = data.draw(names)
    return tuple(Node(tuple(data.draw(st.lists(names, max_size=2))), head, (a,))
                 for _ in range(2))


@given(partial_terms(), st.data())
@settings(max_examples=300, deadline=None)
def test_aligned_walk_matches_recursive_references(a, data):
    a, b = aligned_pair(data, a)
    for x, y in ((a, b), (b, a)):
        assert bohm.partial_leq(x, y) == ref_partial_leq(x, y)
        assert bohm.divergence_level(x, y) == ref_divergence_level(x, y)
        assert bohm.p_tree(x, y) == exact(dyadic(ref_divergence_level(x, y)))
        assert bohm.first_difference(x, y, ()) == ref_first_difference(x, y, ())
        if ref_partial_leq(x, y):
            assert verify._fills_shallow_bottom(x, y) == \
                ref_fills_shallow_bottom(x, y)
    # fuel-unknown positions hold a bottom on the tentative side
    bottoms = list(bottom_positions(a))
    unknown = set(data.draw(st.lists(st.sampled_from(bottoms), max_size=3))
                  if bottoms else ())
    assert bohm.first_difference(a, b, unknown) == \
        ref_first_difference(a, b, unknown)


def subtree(t, path):
    for i in path:
        t = t.args[i]
    return t


@given(partial_terms(), st.data())
@settings(max_examples=100, deadline=None)
def test_aligned_positions_lead_to_their_pairs(a, data):
    a, b = aligned_pair(data, a)
    for depth, pos, x, y, _ in bohm.aligned(a, b):
        path = bohm._path(pos)
        assert depth == len(path) + 1
        assert subtree(a, path) is x and subtree(b, path) is y


def test_unknown_positions_and_shallow_bottoms_by_depth():
    a, b = parse_partial("x (y z _|_) (y z z)"), parse_partial("x (y z w) (y z z)")
    assert bohm.first_difference(a, b, {(0, 1)}) == math.inf
    assert bohm.first_difference(a, b, {(1, 0)}) == 3
    # a deeper difference sits in the first argument, a shallower one in the last
    a, b = parse_partial("x (y (z w)) q"), parse_partial("x (y (z v)) r")
    assert bohm.first_difference(a, b, ()) == 2 and bohm.divergence_level(a, b) == 1
    assert bohm.first_difference(a, b, {(1,)}) == 4
    # a bottom at depth height(a) counts, one below it does not
    assert verify._fills_shallow_bottom(parse_partial("x _|_ y"),
                                        parse_partial("x z y"))
    assert not verify._fills_shallow_bottom(parse_partial("x (y _|_)"),
                                            parse_partial("x (y z)"))


def test_shared_subtree_under_different_binders_differs():
    shared = Node((), "x", ())
    a, b = Node(("x",), "f", (shared,)), Node(("y",), "f", (shared,))
    assert not bohm.partial_leq(a, b) and not bohm.partial_leq(b, a)
    assert bohm.first_difference(a, b, ()) == 2
    assert bohm.divergence_level(a, b) == 1


# ---------------------------------------------------------------------------
# The in-place binder scope against the environment tuples it replaced: each
# walk that compares heads under binders, kept here as it was, with tuples
# that list the binders outermost first (docs/DECISIONS.md D25)

def ref_alpha_same(s, t, es=(), et=()):
    """Alpha-equivalence of s under `es` and t under `et`, by the loop that
    copied both environments at each binder."""
    pairs = [(s, t, es, et)]
    while pairs:
        s, t, es, et = pairs.pop()
        if s is t and es == et:
            continue
        if s._kind != t._kind:
            return False
        if s._kind == "var":
            if _ref_index(s.name, es) != _ref_index(t.name, et):
                return False
        elif s._kind == "abs":
            pairs.append((s.body, t.body, es + (s.binder,), et + (t.binder,)))
        else:
            pairs += (s.arg, t.arg, es, et), (s.fun, t.fun, es, et)
    return True


def ref_same_state(a, b):
    """Two machine states compared part by part under their environments."""
    (ea, s, sa), (eb, t, sb) = a, b
    xs, ys = (s,) + lamcalc._args(sa), (t,) + lamcalc._args(sb)
    return len(ea) == len(eb) and len(xs) == len(ys) and all(
        ref_alpha_same(u, v, ea[::-1], eb[::-1]) for u, v in zip(xs, ys))


def ref_bag_leq(t, u, envt=(), envu=()):
    """The bag-extension order by recursion, a bag's items matched to
    distinct items of the other bag by trying every choice of them."""
    if isinstance(t, RVar) and isinstance(u, RVar):
        return _ref_index(t.name, envt) == _ref_index(u.name, envu)
    if isinstance(t, RAbs) and isinstance(u, RAbs):
        return ref_bag_leq(t.body, u.body, envt + (t.binder,), envu + (u.binder,))
    if isinstance(t, RApp) and isinstance(u, RApp):
        return ref_bag_leq(t.fun, u.fun, envt, envu) and any(
            all(ref_bag_leq(x, y, envt, envu) for x, y in zip(t.bag, chosen))
            for chosen in permutations(u.bag, len(t.bag)))
    return False


def ref_pt_code(t, env=()):
    """The enumeration rank of t: a bound head by its de Bruijn index, read
    off the environment tuple, before a free one."""
    if not isinstance(t, Node):
        return (0,)
    inner = env + t.binders
    kind, v = _ref_index(t.head, inner)
    return (1, len(t.binders), (1, v) if kind == "b" else (2, v), len(t.args),
            tuple(ref_pt_code(a, inner) for a in t.args))


def ref_aligned(a, b):
    """The aligned pairs breadth first, as (depth, index path, x, y, same),
    each head read off its side's environment tuple."""
    queue = [(1, (), a, b, (), ())]
    for depth, path, x, y, ex, ey in queue:  # the list grows as it is read
        same = (isinstance(x, Node) and isinstance(y, Node)
                and len(x.binders) == len(y.binders) and len(x.args) == len(y.args)
                and _ref_index(x.head, ex + x.binders) == _ref_index(y.head, ey + y.binders))
        yield depth, path, x, y, same
        if same:
            queue += ((depth + 1, path + (i,), u, v, ex + x.binders, ey + y.binders)
                      for i, (u, v) in enumerate(zip(x.args, y.args)))


def under_binders(data, t, abs_):
    """t below two drawn binder lists of one length, which may name other
    binders: the same object on both sides, bound alike or not."""
    n = data.draw(st.integers(0, 3))
    out = []
    for _ in range(2):
        u = t
        for b in data.draw(st.lists(names, min_size=n, max_size=n)):
            u = abs_(b, u)
        out.append(u)
    return out


def lambda_pair(data):
    """Two lambda terms to compare: a term and an alpha-variant of it, its
    canonical renaming (which reuses names), a drawn term, or one subterm
    object under two binder lists, alone or as both parts of an
    application."""
    t = data.draw(lam_terms())
    kind = data.draw(st.sampled_from(["alpha", "canonical", "other", "shared", "shared app"]))
    if kind == "alpha":
        return t, alpha_variant(t)
    if kind == "canonical":
        return t, canonical(t)
    if kind == "other":
        return t, data.draw(lam_terms())
    s, u = under_binders(data, t, Abs)
    if kind == "shared":
        return s, u
    v, w = under_binders(data, t, Abs)
    return App(s, v), App(u, w)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_alpha_walk_matches_tuple_reference(data):
    s, t = lambda_pair(data)
    if data.draw(st.booleans()):
        s, t = t, s
    same = ref_key(s) == ref_key(t)
    assert ref_alpha_same(s, t) == same
    assert lamcalc._alpha_same(s, t, [], None) == same
    assert (s == t) == same


@pytest.mark.parametrize("x, y", [("x", "y"), ("y", "x"), ("x", "x")])
def test_heads_below_the_first_differing_binders(x, y):
    """Every head under one binder each side, of one name or two, bare, as
    an application's head and argument, and under a further binder, against
    the tuple walk, as terms and as machine states whose heads these are."""
    heads = ["x", "y", "z"]
    shapes = [lambda b, h: Var(h), lambda b, h: App(Var(h), Var(h)),
              lambda b, h: Abs(b, Var(h))]
    for shape, a, b in product(shapes, heads, heads):
        s, t = Abs(x, shape(x, a)), Abs(y, shape(y, b))
        same = ref_alpha_same(s, t)
        assert lamcalc._alpha_same(s, t, [], None) == same
        arg = [Var("w"), None, 1, None]
        assert lamcalc._same_state(((), s, arg), ((), t, arg)) == same


@given(machine_state(), st.lists(names, max_size=2))
@settings(max_examples=300, deadline=None)
@example((("x",), SPECIAL[4], SHARED_ARG), ["y"])
def test_states_under_other_binder_names_match_tuple_reference(a, drawn):
    env, head, stack = a
    # the same head and cells, under as many binders, of other names or not
    b = (tuple((drawn + ["z", "z"])[:len(env)]), head, stack)
    same = ref_key(lamcalc._rebuild(*a)) == ref_key(lamcalc._rebuild(*b))
    assert ref_same_state(a, b) == ref_same_state(b, a) == same
    assert lamcalc._same_state(a, b) == lamcalc._same_state(b, a) == same


def bag_extension(data, t):
    """t with, now and then, a drawn item added to a bag, at any depth."""
    if isinstance(t, RVar):
        return t
    if isinstance(t, RAbs):
        return RAbs(t.binder, bag_extension(data, t.body))
    bag = tuple(bag_extension(data, u) for u in t.bag)
    if data.draw(st.booleans()):
        bag += (data.draw(resource_terms(3)),)
    return RApp(bag_extension(data, t.fun), bag)


# items that extend to one another in a chain, so that a bag drawn from them
# holds repeated and mutually comparable items
CHAINED_ITEMS = [parse_resource(t) for t in ("x<>", "x<y>", "x<y, y>", "x<y, z>", "x<x<>>")]


def comparable_bags(data):
    """Two applications of one head to bags of up to 6 items each, drawn with
    repeats from chained items, drawn terms and their bag extensions, under
    binder lists of one length: an item often extends to several others, so
    that a first choice of one may be wrong."""
    drawn = data.draw(st.lists(resource_terms(3), max_size=2))
    pool = CHAINED_ITEMS + drawn + [bag_extension(data, t) for t in drawn]
    head = data.draw(resource_terms(3))
    t, u = (RApp(head, tuple(data.draw(st.lists(st.sampled_from(pool), max_size=6))))
            for _ in range(2))
    n = data.draw(st.integers(0, 2))
    for b, c in zip(*(data.draw(st.lists(names, min_size=n, max_size=n)) for _ in range(2))):
        t, u = RAbs(b, t), RAbs(c, u)
    return t, u


@given(resource_terms(), st.data())
@settings(max_examples=300, deadline=None)
def test_bag_leq_matches_tuple_reference(t, data):
    kind = data.draw(st.sampled_from(["extension", "renamed extension", "other", "shared",
                                      "comparable bags"]))
    if kind == "other":
        u = data.draw(resource_terms())
    elif kind == "shared":
        t, u = under_binders(data, t, RAbs)
    elif kind == "comparable bags":
        t, u = comparable_bags(data)
    else:
        u = bag_extension(data, t)
        if kind == "renamed extension":  # binders renamed c<depth>: reused names
            u = canonical_binders(u)
    for x, y in ((t, u), (u, t)):
        assert resource.bag_leq(x, y) == ref_bag_leq(x, y)


@given(partial_terms(), st.data())
@settings(max_examples=300, deadline=None)
def test_walks_over_partial_pairs_match_tuple_references(a, data):
    a, b = aligned_pair(data, a)
    for x, y in ((a, b), (b, a)):
        got = Counter((d, bohm._path(p), id(u), id(v), same)
                      for d, p, u, v, same in bohm.aligned(x, y))
        assert got == Counter((d, p, id(u), id(v), same)
                              for d, p, u, v, same in ref_aligned(x, y))
        assert taylor._pt_code(x, lamcalc._Scope(), 0) == ref_pt_code(x)
        if isinstance(x, Node):
            t = draw_element(data, x)
            assert box_relation(t, y) == ref_box(t, y)
            b_ = data.draw(st.sampled_from([0, 1, 2]))
            assert side_value(taylor._side_fast(x, y, b_)) == ref_side_fast(x, y, b_)


def test_tree_depth_is_the_least_failing_depth_in_any_argument():
    # the depth-first walk meets the deep failure in the last argument
    # first, and the shallow one in the first argument later; with a
    # binder of another name at every node as well, so that the scope is read
    for a, b in (("x (y z) (u (v (w z)))", "x (q z) (u (v (w q)))"),
                 ("x (v (w z)) (y z)", "x (v (w q)) (q z)"),
                 ("\\a. a (\\b. b z) (\\c. c (\\d. d a))",
                  "\\e. e (\\f. e z) (\\g. g (\\h. h h))")):
        a, b = parse_partial(a), parse_partial(b)
        assert taylor._tree_depth(a, b) == taylor._tree_depth(b, a) == 1
        for mult in (1, 2):
            assert taylor._side_fast(a, b, mult) == 1
            assert side_value(taylor._side_fast(a, b, mult)) == ref_side_fast(a, b, mult) == dyadic(1)


def test_enumeration_order_is_the_tuple_reference_order():
    for w in range(1, 7):
        terms = taylor._partial_terms_of_weight(w, 0)
        assert taylor._sorted_of_weight(w) == tuple(sorted(terms, key=ref_pt_code))


# ---------------------------------------------------------------------------
# Shared subterms: the encoder keeps each part it encodes by node and
# environment within one call (docs/DECISIONS.md D18)

@st.composite
def shared_terms(draw, var, abs_, app, steps):
    """A term built bottom-up from a pool whose nodes may be used again, so
    one node object sits at several places, under binders that bind its
    free names at different depths or not at all.  A drawn subset of the
    pool has its hash or its free names filled before the term is read."""
    pool = [var(n) for n in ("x", "y", "z")]

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, steps))):
        if draw(st.booleans()):
            pool.append(abs_(draw(names), pick()))
        else:
            pool.append(app(pick, draw))
    for fill in (hash, free_vars):
        for _ in range(draw(st.integers(0, 4))):
            fill(pick())
    return pool[-1]


lam_shared = shared_terms(Var, Abs, lambda pick, draw: App(pick(), pick()), 8)
resource_shared = shared_terms(RVar, RAbs, lambda pick, draw: RApp(
    pick(), tuple(pick() for _ in range(draw(st.integers(0, 2))))), 6)
# x y under \y, which binds y, and beside it, where y is free; then under
# two environments that agree on the innermost binder only
XY = App(Var("x"), Var("y"))


def assert_shared_encodings_match(t, walk, ref_k, ref_h, ref_fv, copy, abs_):
    """The whole term first, in one call each, then every subterm under
    every environment it sits under; its hash there is read through new
    binders around it."""
    assert key(t) == ref_k(t)
    assert hash(t) == ref_h(ref_k(t)) == hash(copy(t))
    assert t == copy(t)
    seen = set()
    for u, env in walk(t):
        if (id(u), env) in seen:
            continue
        seen.add((id(u), env))
        k = ref_k(u, env[::-1])
        assert lamcalc._encode(u, env, tuple) == k
        wrapped = u
        for b in env:
            wrapped = abs_(b, wrapped)
        assert hash(wrapped) == ref_h(ref_k(wrapped))
        assert hash(u) == ref_h(ref_k(u))
        assert free_vars(u) == ref_fv(u)


@given(lam_shared)
@example(Abs("x", App(Abs("y", XY), XY)))
@example(App(Abs("x", Abs("y", XY)), Abs("z", Abs("y", XY))))
@settings(max_examples=150, deadline=None)
def test_shared_lambda_subterms_match_references(t):
    assert_shared_encodings_match(t, subterms, ref_key, ref_hash,
                                  ref_free_vars, copy_term, Abs)


@given(resource_shared)
@settings(max_examples=150, deadline=None)
def test_shared_resource_subterms_match_references(t):
    assert_shared_encodings_match(t, rsubterms, ref_rkey, ref_rhash,
                                  ref_free_rvars, copy_rterm, RAbs)


@st.composite
def marked_reducts(draw):
    """A reduct of a drawn bag redex, whose node below its binders
    `_contract` may have marked neutral before its free names exist, as an
    item of a bag that holds it twice, beside a drawn term."""
    t = draw(bag_redexes())
    reducts = _contract(t.fun, t.bag)
    if not reducts:
        return t
    r = draw(st.sampled_from(reducts))
    return RApp(RVar("w"), (r, draw(resource_terms(2)), r))


SLOT_READERS = [free_rvars, gen_height, is_normal]


@given(st.one_of(resource_shared, marked_reducts()), st.data())
@settings(max_examples=200, deadline=None)
def test_one_walk_fills_free_names_heights_and_neutrality(t, data):
    """Whichever of the three readers fills a node first, and in whatever
    order the subterms are read, a node whose free names are filled has its
    height and neutrality too, and all three are the references'."""
    nodes = [u for u, _ in rsubterms(t)]
    reads = data.draw(st.lists(st.tuples(st.integers(0, len(nodes) - 1),
                                         st.sampled_from(SLOT_READERS))))
    for i, read in reads:
        read(nodes[i])
        for u in nodes:
            assert u._fv is None or None not in (u._height, u._neutral)
    data.draw(st.sampled_from(SLOT_READERS[:2]))(t)
    for w in nodes:
        assert w._fv == ref_free_rvars(w)
        assert w._height == ref_gen_height(w)
        assert w._neutral == (type(w) is not RAbs and ref_step(w) is None)
        assert is_normal(w) == (ref_step(w) is None)


# Its head reducts double in size every two steps but share their parts, a
# few dozen distinct nodes under the outer binder.
SHARING = parse(r"\y. (\x. \y. y (x x) y) y (\x. \y. y (x x) y)")


def test_reducts_of_a_sharing_term_keep_reference_keys():
    states = list(itertools.islice(machine_states(SHARING, 28), 20, None))
    assert len(states) == 9
    for state in states:
        u = lamcalc._rebuild(*state)
        assert key(u) == ref_key(u)
        assert hash(u) == ref_hash(ref_key(u))


def test_solvability_of_a_sharing_term_stays_linear():
    # every step hashes its state from step 8 on; walked as trees, those
    # hashes made the run take 0.008 / 0.031 / 0.113 s at fuel 20 / 24 / 28,
    # doubling every two steps, so fuel 60 would take hours
    at30, at60 = solvability(SHARING, 30), solvability(SHARING, 60)
    assert (at60.kind, at60.steps) == ("unknown", 60)
    assert at30.is_unknown or at30.kind == at60.kind


# ---------------------------------------------------------------------------
# r, its order and H* against the loops they replaced: truncate both terms
# afresh at every level, and measure each pair (a', b) once for every
# element below a' (docs/DECISIONS.md D20)

def ref_r_metric(t, u):
    level = 0
    for n in range(1, min(resource.height(t), resource.height(u)) + 1):
        if resource.truncate(t, n) != resource.truncate(u, n):
            break
        level = n
    return exact(dyadic(level))


def ref_r_leq(t, u):
    return truncation_below(t, u, resource.height, resource.truncate)


def ref_hausdorff_star(dist, A, B):
    def side(src, dst):
        best = Fraction(0)
        for a in src.elements:
            inner = None
            for a2 in src.upset_of(a):
                for b in dst.elements:
                    v = dist(a2, b)
                    if is_inf(v):
                        continue
                    if v > 1:
                        raise ValueError("space is not bounded by the declared top")
                    if inner is None or v < inner:
                        inner = v
            inner = Fraction(1) if inner is None else inner
            if inner > best:
                best = inner
        return best

    return exact(max(side(A, B), side(B, A)))


normal_rterms = resource_terms().filter(is_normal)
normal_shared = resource_shared.filter(is_normal)


@given(st.one_of(normal_rterms, normal_shared), st.data())
@example(parse_resource("\\x. x<\\y. x<y<x>>, y<x<z>>><x<x<x>>>"), None)
@settings(max_examples=200, deadline=None)
def test_levels_are_the_keys_of_the_truncations(t, data):
    """Levels asked in any order and with repeats, some of them first on
    subterms, are the keys of the truncations, and only asked levels are
    held."""
    h = resource.height(t)
    asked = {}
    for u, _ in rsubterms(t):
        if is_normal(u) and (data is None or data.draw(st.booleans())):
            hu = resource.height(u)
            ks = (list(range(hu, 0, -1)) if data is None
                  else data.draw(st.lists(st.integers(1, hu), max_size=6)))
            for k in ks:
                assert _level(u, k) == key(resource.truncate(u, k))
            asked.setdefault(id(u), set()).update(ks)
    for k in ([h, 1, h] if data is None else data.draw(st.lists(st.integers(1, h), max_size=6))):
        assert _level(t, k) == key(resource.truncate(t, k))
        asked.setdefault(id(t), set()).add(k)
    for u, _ in rsubterms(t):
        held = u._levels or {}
        assert set(held) == asked.get(id(u), set())
        for k, v in held.items():
            assert v == key(resource.truncate(u, k))


def r_partner(data, t):
    """A term to measure t against: another drawn term, a copy, an alpha
    variant with its bags reversed, or one of t's truncations, or of the
    variant's."""
    kind = data.draw(st.sampled_from(["drawn", "copy", "alpha", "cut", "alpha cut"]))
    if kind == "drawn":
        return data.draw(normal_rterms)
    if kind == "copy":
        return copy_rterm(t)
    u = alpha_rvariant(t)
    if kind == "alpha":
        return u
    src = t if kind == "cut" else u
    return resource.truncate(src, data.draw(st.integers(1, resource.height(src))))


@given(normal_rterms, st.data())
@settings(max_examples=300, deadline=None)
def test_r_metric_and_r_leq_match_references(t, data):
    u = r_partner(data, t)
    for a, b in ((t, u), (u, t), (t, t)):
        assert resource.r_metric(a, b) == ref_r_metric(a, b)
        assert resource.r_leq(a, b) == ref_r_leq(a, b)


@st.composite
def term_sets(draw):
    """A few normal terms, some with all their truncations."""
    out = set()
    for t in draw(st.lists(normal_rterms, max_size=3)):
        out.add(t)
        if draw(st.booleans()):
            out.update(resource.truncate(t, n) for n in range(1, resource.height(t)))
    return frozenset(out)


def measured_pairs(src, dst):
    return {(a2, b) for a in src.elements for a2 in src.upset_of(a)
            for b in dst.elements}


@given(term_sets(), term_sets(), st.sampled_from(["r_leq", "bag_leq", "drawn"]),
       st.data())
@settings(max_examples=200, deadline=None)
def test_hausdorff_star_matches_reference(ea, eb, order, data):
    """Under r's order, the bag order and a drawn relation that need not be
    reflexive, on r and on a drawn table that may hold infinities and values
    above 1.  Each side measures each pair once, and the same pairs as the
    reference."""
    if order == "drawn":
        elems = sorted(ea | eb, key=lambda t: repr(key(t)))
        rel = data.draw(st.sets(st.tuples(st.sampled_from(elems), st.sampled_from(elems)))
                        if elems else st.just(set()))
        leq = lambda a, b: (a, b) in rel
    else:
        leq = {"r_leq": resource.r_leq, "bag_leq": resource.bag_leq}[order]
    A, B = LiftedSet(ea, leq), LiftedSet(eb, leq)
    if data.draw(st.booleans()):
        table = {}
        values = st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2),
                                  Fraction(1), INF, Fraction(3, 2)])

        def base(a, b):
            if (a, b) not in table:
                table[a, b] = data.draw(values)
            return table[a, b]
    else:
        def base(a, b):
            return resource.r_metric(a, b).value

    fast_calls, ref_calls = Counter(), Counter()

    def counted(calls):
        def dist(a, b):
            calls[a, b] += 1
            return base(a, b)
        return dist

    try:
        ref = ref_hausdorff_star(counted(ref_calls), A, B)
    except ValueError:
        with pytest.raises(ValueError):
            hausdorff_star(counted(fast_calls), A, B)
        return
    assert hausdorff_star(counted(fast_calls), A, B) == ref
    assert set(fast_calls) == set(ref_calls)
    assert fast_calls == Counter(measured_pairs(A, B)) + Counter(measured_pairs(B, A))


# ---------------------------------------------------------------------------
# Round trips

@given(resource_terms())
@settings(max_examples=100, deadline=None)
def test_resource_print_parse_roundtrip(t):
    back = parse_resource(show_resource(t))
    assert back == t
    assert show_resource(back) == show_resource(t)


def ref_show_resource(t):
    """The recursive printer: a bag prints its items sorted by their
    strings, and an abstraction in head position in parentheses."""
    if isinstance(t, RVar):
        return t.name
    if isinstance(t, RAbs):
        return f"\\{t.binder}. {ref_show_resource(t.body)}"
    f = ref_show_resource(t.fun)
    if isinstance(t.fun, RAbs):
        f = f"({f})"
    return f + "<" + ", ".join(sorted(ref_show_resource(u) for u in t.bag)) + ">"


@given(resource_terms())
@example(RApp(RAbs("a", RVar("a")), (RVar("z"), RAbs("b", RApp(RVar("y"), ())), RVar("x"))))
@settings(max_examples=200, deadline=None)
def test_show_resource_matches_recursive_printer(t):
    for u in (t, alpha_rvariant(t)):  # the variant's bags are reversed
        assert show_resource(u) == str(u) == ref_show_resource(u)


@given(partial_terms())
@settings(max_examples=100, deadline=None)
def test_partial_print_parse_roundtrip(t):
    back = parse_partial(show_partial(t))
    assert back == t
    assert show_partial(back) == show_partial(t)


# ---------------------------------------------------------------------------
# One renaming walk for both families, one printer for lambda and partial
# terms (docs/DECISIONS.md D21), against the walks they replaced

def ref_canonical(t):
    """canonical's own walk: binder chains and spines in loops, each nested
    subterm renamed into its slot in the parts of its spine, with `env` and
    `avoid` copied at every binder."""
    root = [t]
    todo = [(t, {}, set(free_vars(t)), root, 0)]
    while todo:
        item = todo.pop()
        if len(item) == 4:  # (binders, parts, into, i): every part is filled
            binders, parts, into, i = item
            into[i] = spine(binders, parts[0], parts[1:])
            continue
        t, env, avoid, into, i = item
        binders = []
        while isinstance(t, Abs):
            nb = _fresh(lamcalc._PRETTY[len(env) % len(lamcalc._PRETTY)], avoid)
            binders.append(nb)
            env, avoid = {**env, t.binder: nb}, avoid | {nb}
            t = t.body
        _, head, args = decompose(t)
        parts = [head, *args]
        todo.append((binders, parts, into, i))
        for k, u in enumerate(parts):
            if isinstance(u, Var):
                parts[k] = Var(env.get(u.name, u.name))
            else:
                todo.append((u, env, avoid, parts, k))
    return root[0]


def ref_canonical_binders(t):
    """The recursive renamer: c<depth> plus primes, skipping free names."""
    avoid = free_rvars(t)

    def name_for(depth):
        cand = f"c{depth}"
        while cand in avoid:
            cand += "'"
        return cand

    def go(u, depth, env):
        if isinstance(u, RVar):
            return RVar(env.get(u.name, u.name))
        if isinstance(u, RAbs):
            nb = name_for(depth)
            return RAbs(nb, go(u.body, depth + 1, {**env, u.binder: nb}))
        return RApp(go(u.fun, depth, env), tuple(go(v, depth, env) for v in u.bag))

    return go(t, 0, {})


def ref_show_partial(t):
    """The recursive printer of partial terms."""
    if not isinstance(t, Node):
        return "_|_"
    parts = [t.head]
    for a in t.args:
        s = ref_show_partial(a)
        if isinstance(a, Node) and (a.binders or a.args):
            s = f"({s})"
        parts.append(s)
    body = " ".join(parts)
    for b in reversed(t.binders):
        body = f"\\{b}. {body}"
    return body


def ref_to_lambda(t):
    """The recursive embedding of a bottom-free partial term."""
    if not isinstance(t, Node):
        raise ValueError("bottom has no lambda-term embedding")
    return spine(t.binders, Var(t.head), [ref_to_lambda(a) for a in t.args])


# free names that both naming rules would pick, under binders that shadow
# one another
clashing = st.sampled_from(["x", "y", "y0", "a", "c0", "c1", "c0'"])
shadowing = st.sampled_from(["x", "y", "a"])


@st.composite
def clashing_terms(draw, var, abs_, app, depth=0):
    kind = draw(st.sampled_from(["var", "abs", "app"] if depth < 5 else ["var"]))
    if kind == "var":
        return var(draw(clashing))
    if kind == "abs":
        return abs_(draw(shadowing), draw(clashing_terms(var, abs_, app, depth + 1)))
    return app(draw, lambda: draw(clashing_terms(var, abs_, app, depth + 1)))


SHADOWED = Abs("a", Abs("y", Abs("a", App(App(Var("a"), Var("y0")), Abs("y", Var("c0"))))))


@given(st.one_of(lam_terms(), lam_shared,
                 clashing_terms(Var, Abs, lambda draw, sub: App(sub(), sub()))))
@example(SHADOWED)
@example(App(Var("x"), Abs("x", Abs("y", Abs("x", Var("y"))))))
@example(parse("(\\x. \\y. \\x. x) (\\y. \\y. \\x. \\x. x)"))  # a scope left, then a sibling's
@settings(max_examples=300, deadline=None)
def test_canonical_matches_reference_walk(t):
    c = canonical(t)
    assert show(c) == show(ref_canonical(t))
    assert c == t


@given(st.one_of(resource_terms(), resource_shared, clashing_terms(
    RVar, RAbs, lambda draw, sub: RApp(sub(), tuple(sub() for _ in range(draw(st.integers(0, 2))))))))
@example(parse_resource("\\a. \\a. a<c0, c0', \\a. c1<a>>"))
@example(parse_resource("c0<\\x. \\y. x<y, c1'>, \\c0. c0>"))
@settings(max_examples=300, deadline=None)
def test_canonical_binders_matches_recursive_renamer(t):
    c = canonical_binders(t)
    assert show_resource(c) == show_resource(ref_canonical_binders(t))
    assert c == t


@given(partial_terms())
@example(BOT)
@example(Node(("x", "x"), "x", (Node(("y",), "y", ()), Node((), "z", (BOT,)), BOT)))
@settings(max_examples=300, deadline=None)
def test_partial_printing_and_embedding_match_recursive_walks(t):
    assert str(t) == show_partial(t) == ref_show_partial(t)
    try:
        expected = ref_to_lambda(t)
    except ValueError:
        with pytest.raises(ValueError, match="bottom has no lambda-term embedding"):
            bohm.to_lambda(t)
    else:
        m = bohm.to_lambda(t)
        assert show(m) == show(expected) and key(m) == key(expected)


# ---------------------------------------------------------------------------
# Partial terms on the shared node base (docs/DECISIONS.md D22): the one
# builder behind truncate, from_lambda, direct_approximant and bohm_truncate
# against the recursions it replaced, and partial equality against the key

def ref_truncate(t, n):
    if not isinstance(t, Node) or n <= 0:
        return BOT
    return Node(t.binders, t.head, tuple(ref_truncate(a, n - 1) for a in t.args))


def ref_from_lambda(t):
    binders, h, args = decompose(t)
    if isinstance(h, Var) and h.name == "_|_":
        return BOT
    if not isinstance(h, Var):
        raise ValueError(f"not a beta-normal term: {t}")
    return Node(binders, h.name, tuple(ref_from_lambda(a) for a in args))


def ref_direct_approximant(t):
    binders, h, args = decompose(t)
    if isinstance(h, Abs):
        return BOT
    return Node(binders, h.name, tuple(ref_direct_approximant(a) for a in args))


def ref_bohm_truncate(t, depth, fuel):
    """The recursive truncation: its tree, and its tentative and cut
    positions in the order the recursion met them."""
    tentative, cut = [], []

    def go(u, d, pos):
        if d == 0:
            cut.append(pos)
            return BOT
        st = solvability(u, fuel)
        if st.is_divergent:
            return BOT
        if st.is_unknown:
            tentative.append(pos)
            return BOT
        hf = st.head
        return Node(hf.binders, hf.head,
                    tuple(go(a, d - 1, pos + (i,)) for i, a in enumerate(hf.args)))

    return go(t, depth, ()), tuple(tentative), tuple(cut)


def spelled(t):
    """t with its names, as nested tuples: equal exactly when the trees are
    the same node for node, not only up to renaming."""
    if isinstance(t, bohm.Bottom):
        return "bot"
    return (t.binders, t.head, tuple(spelled(a) for a in t.args))


@given(partial_terms())
@example(Node(("x",), "x", (BOT, Node((), "y", (Node((), "z", ()),)))))
@settings(max_examples=200, deadline=None)
def test_truncate_matches_recursive_reference_at_every_level(t):
    for n in range(-1, ref_height(t) + 2):
        cut = bohm.truncate(t, n)
        assert spelled(cut) == spelled(ref_truncate(t, n))
        assert pkey(cut) == ref_pkey(ref_truncate(t, n))


@given(st.one_of(partial_terms().map(bohm._embed), lam_terms()))
@example(lamcalc._Parser("\\x. x (\\y. _|_) ((\\z. z) x)", allow_bottom=True).parse())
@example(lamcalc._Parser("x _|_ (\\y. _|_ y) (\\y. y)", allow_bottom=True).parse())
@settings(max_examples=300, deadline=None)
def test_from_lambda_and_direct_approximant_match_recursions(m):
    try:
        expected = ref_from_lambda(m)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            bohm.from_lambda(m)
        assert str(got.value) == str(exc)
    else:
        assert spelled(bohm.from_lambda(m)) == spelled(expected)
    assert spelled(bohm.direct_approximant(m)) == spelled(ref_direct_approximant(m))


# Y f, whose Boehm tree f (f (f ...)) meets every depth, and terms that run
# out of fuel, so that the cut and the tentative positions are not empty
BOHM_TERMS = [parse("(\\x. f (x x)) (\\x. f (x x))"), corpus.OMEGA, corpus.OMEGA3,
              parse("\\y. y ((\\x. x x x) (\\x. x x x))"
                    " ((\\x. y (x x)) (\\x. y (x x)) ((\\x. x x x) (\\x. x x x)))")]


@given(st.one_of(st.sampled_from(BOHM_TERMS), lam_terms(),
                 st.builds(lambda seed, size: corpus.random_term(random.Random(seed), size),
                           st.integers(0, 2**32 - 1), st.integers(1, 24))),
       st.integers(0, 5), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_bohm_truncate_matches_recursion_in_order(m, depth, fuel):
    tr = bohm.bohm_truncate(m, depth, fuel)
    tree, tentative, cut = ref_bohm_truncate(m, depth, fuel)
    assert spelled(tr.tree) == spelled(tree) and pkey(tr.tree) == ref_pkey(tree)
    assert tr.tentative == tentative and tr.cut == cut


def test_drawn_truncations_have_tentative_and_cut_positions():
    # random terms of the sizes and fuels drawn above reach both kinds of
    # position, cuts in more than one place; the fixed term has a cut
    # between two tentative positions in preorder
    rng, seen = random.Random(5), Counter()
    for _ in range(400):
        tr = bohm.bohm_truncate(corpus.random_term(rng, rng.randint(1, 24)),
                                rng.randint(0, 5), rng.randint(1, 4))
        seen["tentative"] += len(tr.tentative) > 0
        seen["cut"] += len(tr.cut) > 1
    assert seen["tentative"] and seen["cut"]
    y = bohm.bohm_truncate(BOHM_TERMS[3], 3, 5)
    assert y.tentative == ((0,), (1, 1)) and y.cut == ((1, 0, 0),)
    assert str(y.tree) == "\\y. y _|_ (y (y _|_) _|_)"


def copy_partial(t):
    """A node-by-node copy with empty caches, every bottom a fresh object."""
    if not isinstance(t, Node):
        return bohm.Bottom()
    return Node(t.binders, t.head, tuple(copy_partial(a) for a in t.args))


@st.composite
def partial_pairs(draw):
    """Two partial terms: unrelated, an alpha-variant, a copy, one under
    binders that shadow one another or not, or an unrelated term given the
    first one's hash, as a collision would."""
    a = draw(partial_terms())
    how = draw(st.sampled_from(["any", "variant", "copy", "shadow", "collide"]))
    if how == "variant":
        return a, alpha_partial(a)
    if how == "copy":
        return a, copy_partial(a)
    b = draw(st.one_of(st.just(a), partial_terms()) if how == "shadow" else partial_terms())
    if how == "shadow":
        x, h = draw(names), draw(names)
        return Node((x, x), h, (a,)), Node((x, draw(names)), h, (b,))
    if how == "collide":
        b._hash = hash(a)
    return a, b


def ref_phash(k):
    """The hash a partial term caches: its key's, built from the hashes of
    its arguments' keys instead of the keys themselves."""
    if k[0] == "bot":
        return hash(k)
    return hash(k[:3] + (tuple(ref_phash(a) for a in k[3]),))


def ref_partial_free(t, bound=frozenset()):
    if not isinstance(t, Node):
        return frozenset()
    bound = bound | set(t.binders)
    names = frozenset() if t.head in bound else frozenset([t.head])
    return names.union(*(ref_partial_free(a, bound) for a in t.args))


@given(partial_pairs())
@example((Node(("x", "x"), "x", ()), Node(("x", "y"), "y", ())))
@example((Node(("x", "x"), "x", ()), Node(("x", "y"), "x", ())))
@example((Node(("x",), "y", (Node(("y",), "x", ()),)),
          Node(("z",), "y", (Node(("x",), "z", ()),))))
@settings(max_examples=300, deadline=None)
def test_partial_equality_is_key_equality(pair):
    a, b = pair
    same = ref_pkey(a) == ref_pkey(b)
    assert (a == b) == (b == a) == same
    assert (a != b) != same
    assert hash(a) == ref_phash(ref_pkey(a))
    assert hash(b) in (ref_phash(ref_pkey(b)), hash(a))  # hash(a) when forced
    assert free_vars(a) == ref_partial_free(a) and free_vars(b) == ref_partial_free(b)
    assert same <= (hash(a) == hash(b))
    assert a != bohm._embed(a) and a != resource.RVar(a.head)
