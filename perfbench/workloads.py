"""The benchmark's workloads: seeded op lists over the public lambdapm API.

Each workload is a closed loop with one client: a fixed list of ops, each
issued when the previous one returns.  `build(name, seed)` makes the list
from the seed alone (this is set-up).  An op's `call(env)` runs the library
and is the only timed part; its output is then serialised by `canon`,
digested, and checked against an answer the paper gives independently of
the code under test, where one exists.

The multiset of expensive inputs (Omega_3, bag sizes, prefixes, chunk counts)
is fixed per workload, and the seed draws the cheap inputs and the order.  That
keeps the work of one pass the same across seeds, so seeds can be compared.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, product
from typing import Callable

from lambdapm import (bohm, contextual, corpus, distance, domains, lamcalc,
                      pmetric, resource, taylor)

WORKLOADS = ("term-queries", "expansion", "domain-tower")

DEFAULT_SEED = 0


@dataclass
class Op:
    """One query.  `call(env)` returns the output; `check(out, env)` returns
    False when the output contradicts an independent answer.  An op that later
    ops build on stores its output in `env.state` under `keep`."""

    kind: str
    call: Callable
    check: Callable | None = None
    keep: object = None


@dataclass
class Env:
    """Per-pass state handed to every op.  `tracer` is the span recorder of a
    traced pass and None otherwise, so untraced passes record nothing."""

    tracer: object = None
    state: dict = field(default_factory=dict)

    def span(self, layer: str, name: str):
        """A span opened by the benchmark itself, for layer work done through
        methods rather than through a wrapped entry point."""
        return nullcontext() if self.tracer is None else self.tracer.span(layer, name)

    def counted_dist(self, dist):
        """Wrap a distance callable handed to the library, so the traced run
        can count its evaluations (pmetric.dist_evals)."""
        if self.tracer is None:
            return dist
        counts = self.tracer.counts

        def wrapped(a, b):
            counts["pmetric.dist_evals"] += 1
            return dist(a, b)
        return wrapped

    def space(self, carrier, dist, name):
        """A PartialMetricSpace whose memo lookups are counted when traced:
        lookups that evaluate `dist` are misses, the rest are memo hits."""
        if self.tracer is None:
            return pmetric.PartialMetricSpace(carrier, dist, name)
        counts = self.tracer.counts
        evals = self.counted_dist(dist)

        def miss(a, b):
            counts["pmetric.memo_misses"] += 1
            return evals(a, b)
        sp = pmetric.PartialMetricSpace(carrier, miss, name)
        lookup = sp.d

        def d(a, b):
            counts["pmetric.memo_lookups"] += 1
            return lookup(a, b)
        sp.d = d
        return sp


# ---------------------------------------------------------------------------
# Canonical serialisation of outputs

def canon(x):
    """A JSON value that is the same for equal outputs in any process.

    Terms are written as their de Bruijn keys, so binder names and the
    iteration order of sets (which follows string hashing) do not leak in.
    """
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return "inf" if distance.is_inf(x) else repr(x)
    if isinstance(x, distance.DistanceValue):
        return {"lo": canon(x.lower), "hi": canon(x.upper)}
    if isinstance(x, lamcalc.SolvabilityStatus):
        head = None if x.head is None else repr(lamcalc.key(x.head.to_term()))
        return {"kind": x.kind, "steps": x.steps, "head": head,
                "cert": canon(x.certificate)}
    if isinstance(x, lamcalc.LambdaTerm):
        return repr(lamcalc.key(x))
    if isinstance(x, bohm.PartialTerm):
        return repr(bohm.pkey(x))
    if isinstance(x, resource.ResourceTerm):
        return repr(resource.rkey(x))
    if isinstance(x, bohm.BohmTruncation):
        return {"tree": canon(x.tree), "depth": x.depth,
                "tentative": canon(x.tentative), "cut": canon(x.cut)}
    if isinstance(x, domains.FinitePoset):
        return {"leq": ["".join("1" if v else "0" for v in row) for row in x.leq],
                "bottom": x.bottom}
    if isinstance(x, domains.MonotoneMap):
        return list(x.table)
    if isinstance(x, domains.Tower):
        return [{"poset": canon(lv.poset),
                 "maps": None if lv.maps is None else canon(lv.maps),
                 "inj": canon(lv.inj), "proj": canon(lv.proj)}
                for lv in x.levels]
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if isinstance(x, (set, frozenset)):
        return sorted(_dump(canon(v)) for v in x)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def _dump(v) -> str:
    return json.dumps(v, sort_keys=True, separators=(",", ":"))


def digest(out) -> str:
    return hashlib.sha256(_dump(canon(out)).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# term-queries: lamcalc, contextual and bohm on lambda terms

# p_ctx queries dominate the stream, most at the smallest prefix, so the
# median op is one of those.  Each context plugged with Omega_3 costs ~0.6 ms
# at fuel 30, so Omega_3 is queried at the smallest prefix only; its
# solvability at fuel 400 is the slowest op.
CTX_CHAIN = (64, 256, 1024)
CTX_QUERIES = 6
SOLV_FUELS = (25, 100, 400)


def _solv_ladder(t):
    """solvability(t, fuel) at rising fuels, as one query.  A decided outcome
    must not move when fuel grows: only fuel exhaustion can change."""
    def call(env):
        return tuple(lamcalc.solvability(t, fuel) for fuel in SOLV_FUELS)

    def check(sts, env):
        return all(a.is_unknown or (a.kind, a.steps) == (b.kind, b.steps)
                   for a, b in zip(sts, sts[1:]))
    return Op("solvability", call, check)


def _refining_chain(kind, budgets, query):
    """Bracket queries at growing budgets: each bracket must lie inside the
    one before it, and an exact result must not move."""
    def call(env, budget):
        env.state["previous"] = env.state.get("bracket")
        env.state["bracket"] = query(*budget)
        return env.state["bracket"]

    def refines(v, env):
        base = env.state["previous"]
        return base.contains(v) and (not base.is_exact or v == base)

    return [Op(f"{kind}@{b[0]}", lambda env, b=b: call(env, b), refines if i else None)
            for i, b in enumerate(budgets)]


def _term_queries(rng):
    pool = corpus.normalizing_corpus(30) + [corpus.OMEGA, corpus.OMEGA3]
    units = []
    for i, n in enumerate(pool):
        m = corpus.random_term(rng, rng.randint(3, 9))
        units.append([_solv_ladder(m)])
        units.append([Op("bohm_truncate", lambda env, m=m:
                         bohm.bohm_truncate(m, 3, 100))])
        units.append(_refining_chain(
            "p_bohm", [(2, 12), (4, 24)],
            lambda depth, fuel, m=m, n=n: bohm.p_bohm(m, n, depth, fuel)))
        chain = CTX_CHAIN[:1] if n is corpus.OMEGA3 else CTX_CHAIN
        units.append(_refining_chain(
            "p_ctx_bracket", [(p,) for p in chain],
            lambda p, m=m, n=n: contextual.p_ctx_bracket(m, n, p, 30)))
        for _ in range(CTX_QUERIES):
            m2 = corpus.random_term(rng, rng.randint(3, 9))
            units.append([Op(f"p_ctx_bracket@{CTX_CHAIN[0]}", lambda env, m2=m2, n=n:
                             contextual.p_ctx_bracket(m2, n, CTX_CHAIN[0], 30))])
        eps = Fraction(1, 2 ** (4 + i % 5))
        units.append([Op("in_ctx_ball", lambda env, m=m, n=n, eps=eps:
                         contextual.in_ctx_ball(n, m, eps, 100))])
    units.extend([_solv_ladder(n)] for n in pool)
    rng.shuffle(units)
    return [op for unit in units for op in unit]


# ---------------------------------------------------------------------------
# expansion: resource, taylor and pmetric; bohm on partial terms

ISOMETRY_PAIRS = 320
# twelve 6-item bags (720 normal forms each, ~27 ms), so that the tail
# percentile of a pass falls on the factorial contraction (ROADMAP item 4)
BAG_SIZES = (4, 4, 5, 5) + (6,) * 12 + (7, 7)
R_PAIRS = 200
HSTAR_PAIRS = 100
ENUM_PAIRS = 40
ENUM_PREFIX = 16


def _isometry_op(a, b, mult):
    def check(res, env):
        return res["equal"] and res["stable"]
    return Op(f"isometry_check@{mult}",
              lambda env: taylor.isometry_check(a, b, mult), check)


def _bag_redex(items):
    """(\\x. h<x>...<x>) <items>: k singleton-bag occurrences of the binder
    and a bag of k pairwise distinct items, so exactly k! normal forms."""
    k = len(items)
    fun = resource.RAbs("x", _spine(resource.RVar("h"),
                                    [(resource.RVar("x"),)] * k))
    return resource.RApp(fun, tuple(items))


def _spine(head, bags):
    t = head
    for b in bags:
        t = resource.RApp(t, b)
    return t


def _chain_ideal(t) -> frozenset:
    return frozenset(resource.truncate(t, n)
                     for n in range(1, resource.height(t) + 1))


def _r(a, b):
    return resource.r_metric(a, b).value


def _hstar(ia, ib, dist=_r):
    return pmetric.hausdorff_star(dist, pmetric.LiftedSet(ia, resource.r_leq),
                                  pmetric.LiftedSet(ib, resource.r_leq))


def _expansion(rng):
    terms = corpus.partial_corpus(5, 6)
    small = corpus.partial_corpus(3, 6)
    rterms = corpus.resource_corpus(14)
    ideals = sorted({_chain_ideal(t) for t in rterms},
                    key=lambda ide: sorted(repr(resource.rkey(u)) for u in ide))
    ops = []
    pairs = [(a, b) for a in terms for b in terms]
    for a, b in rng.sample(pairs, ISOMETRY_PAIRS):
        ops.extend(_isometry_op(a, b, mult) for mult in (1, 2, 3))

    for m in corpus.normalizing_corpus(30):
        ops.append(Op("commutation_check", lambda env, m=m:
                      taylor.commutation_check(m, 3, 5, 300),
                      lambda res, env: res["equal"]))

    # bag items: distinct free variables and closed identities, drawn per op
    atoms = [resource.RVar(f"v{i}") for i in range(12)]
    atoms += [resource.RAbs("z", resource.RVar("z")),
              resource.RAbs("z", _spine(resource.RVar("z"), [()]))]
    for k in BAG_SIZES:
        redex = _bag_redex(rng.sample(atoms, k))
        ops.append(Op(f"resource_reduce@{k}",
                      lambda env, t=redex: resource.resource_reduce(t),
                      lambda nfs, env, k=k: len(nfs) == math.factorial(k)))

    for _ in range(R_PAIRS):
        t, u = rng.choice(rterms), rng.choice(rterms)
        # r is symmetric (P3), answered here by the swapped query
        ops.append(Op("r_metric", lambda env, t=t, u=u: resource.r_metric(t, u),
                      lambda v, env, t=t, u=u: v == resource.r_metric(u, t)))
    for _ in range(HSTAR_PAIRS):
        ia, ib = rng.choice(ideals), rng.choice(ideals)

        def hstar(env, ia=ia, ib=ib):
            return _hstar(ia, ib, env.counted_dist(_r))
        # H* is a partial metric on ideals, so no self-distance exceeds the
        # pair's distance (P1); the self-distances are computed untimed
        ops.append(Op("hausdorff_star", hstar,
                      lambda v, env, ia=ia, ib=ib: all(
                          _hstar(x, x).upper <= v.lower for x in (ia, ib))))

    bound = distance.dyadic(ENUM_PREFIX - 1)
    for _ in range(ENUM_PAIRS):
        a, b = rng.choice(small), rng.choice(small)
        ops.append(Op("enumeration_isometry",
                      lambda env, a=a, b=b: taylor.enumeration_isometry(a, b, ENUM_PREFIX),
                      lambda res, env: res["gap"] <= bound))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# domain-tower: the suite_tower work taken apart, domains and pmetric only

CHUNK = 2500
CHUNKS = 40
FS_POSETS = 30
FS_MAX_SIZE = 5
FS_MAX_TABLES = 100
QUANT_POSETS = 40
PINF_PAIRS = 200
APP_PAIRS = 300
S_TOP_SIZE = 10  # elements of D_2 in the depth-2 Sierpinski tower


def s_metric(i, j) -> Fraction:
    """The Sierpinski partial metric on {0, 1}."""
    return Fraction(0) if (i == 1 and j == 1) else Fraction(1)


def wb_dist(poset):
    """Weighted-basis metric on a poset: basis = all elements, weights 2^-(i+1)."""
    wbm = pmetric.WeightedBasisMetric(
        list(range(poset.size)), [distance.dyadic(i + 1) for i in range(poset.size)],
        poset.le)
    return lambda x, y: pmetric.weighted_basis_metric(wbm, x, y).value


def brute_force_tables(x, y) -> int:
    """Monotone tables X -> Y counted by filtering the full product."""
    pairs = [(i, j) for i in range(x.size) for j in range(x.size)
             if i != j and x.le(i, j)]
    return sum(all(y.le(t[i], t[j]) for i, j in pairs)
               for t in product(range(y.size), repeat=x.size))


def tower_laws(tower) -> bool:
    """j o i = id, i o j <= id and i monotone at every level."""
    for n in range(tower.depth):
        dn, dn1 = tower.level(n).poset, tower.level(n + 1).poset
        if any(tower.project(n, tower.inject(n, x)) != x for x in range(dn.size)):
            return False
        if not all(dn1.le(tower.inject(n, tower.project(n, f)), f)
                   for f in range(dn1.size)):
            return False
        if not all(dn1.le(tower.inject(n, x), tower.inject(n, y))
                   for x in range(dn.size) for y in range(dn.size) if dn.le(x, y)):
            return False
    return True


def _chunk(env):
    """The next CHUNK tables of the flat-2 lazy top level, with its laws:
    j(i(f)) = f on D_1, and i(j(t)) <= t on every table pulled."""
    with env.span("domains", "LazyTop.tables"):
        if "lazy_top" not in env.state:
            env.state["lazy_top"] = domains.LazyTop(env.state["flat2"])
            env.state["tables"] = env.state["lazy_top"].tables()
        tables = list(islice(env.state["tables"], CHUNK))
    top = env.state["lazy_top"]
    with env.span("domains", "LazyTop.laws"):
        ji = all(top.project(top.inject_from_below(f)) == f
                 for f in range(top.poset.size))
        ij = all(top.le(top.inject_from_below(top.project(t)), t) for t in tables)
    return {"count": len(tables), "first": tables[0], "last": tables[-1],
            "digest": hashlib.sha256(repr(tables).encode()).hexdigest(),
            "j.i=id": ji, "i.j<=id": ij}


def _function_space_op(p, tables, keep=None):
    def check(res, env):
        return len(res[1]) == tables
    return Op("function_space", lambda env: domains.function_space(p, p),
              check, keep)


def _domain_tower(rng):
    ops = [
        Op("build_tower", lambda env: domains.build_tower(
            domains.sierpinski(), env.counted_dist(s_metric), 2),
           lambda tw, env: tower_laws(tw), keep="sierpinski"),
        Op("build_tower", lambda env: domains.build_tower(
            domains.flat(2), env.space(range(3), wb_dist(domains.flat(2)), "wb").d, 1),
           lambda tw, env: tower_laws(tw), keep="flat2"),
    ]
    bases = (domains.sierpinski(), domains.chain(3), domains.flat(2))
    for i, base in enumerate(bases):
        ops.append(_function_space_op(base, brute_force_tables(base, base),
                                      keep=("fs", i)))

    stream = []
    posets = 0
    while posets < FS_POSETS:
        p = corpus.random_bounded_complete_poset(rng, FS_MAX_SIZE)
        n = brute_force_tables(p, p)
        # a 5-element poset can have 629 maps, whose function_space takes
        # ~8 s alone; such draws are skipped so that one pass stays short
        if n <= FS_MAX_TABLES:
            stream.append(_function_space_op(p, n))
            posets += 1
    for _ in range(QUANT_POSETS):
        p = corpus.random_bounded_complete_poset(rng, 7)

        def quant(env, p=p):
            return domains.quantification_decision(
                p, env.space(list(range(p.size)), wb_dist(p), "wb"))
        # the weighted-basis metric quantifies every bounded-complete poset
        stream.append(Op("quantification_decision", quant,
                         lambda res, env: res["pass"]))

    for _ in range(PINF_PAIRS):
        a, b = rng.randrange(S_TOP_SIZE), rng.randrange(S_TOP_SIZE)

        def pinf(env, a=a, b=b):
            tw = env.state["sierpinski"]
            return domains.p_infinity_prefix(tw, domains.TowerProfile.from_top(tw, a),
                                             domains.TowerProfile.from_top(tw, b))
        stream.append(Op("p_infinity_prefix", pinf,
                         lambda v, env: v.upper - v.lower == distance.dyadic(2)))
    for _ in range(APP_PAIRS):
        i = rng.randrange(len(bases))
        f, g = rng.random(), rng.random()
        theta = Fraction(1, rng.choice((2, 3, 4)))

        def app(env, i=i, f=f, g=g, theta=theta):
            base = bases[i]
            _, maps = env.state[("fs", i)]
            return domains.applicative_metric(
                env.counted_dist(wb_dist(base)), list(range(base.size)), theta,
                maps[int(f * len(maps))], maps[int(g * len(maps))])
        # the applicative metric is symmetric (P3), answered by the swapped query
        stream.append(Op("applicative_metric", app,
                         lambda v, env, i=i, f=f, g=g, theta=theta:
                         v == app(Env(state=env.state), i, g, f, theta)))
    rng.shuffle(stream)
    # chunk ops advance one shared enumeration, so they keep their order and
    # are spread through the stream at seeded positions
    for pos in sorted(rng.choices(range(len(stream) + 1), k=CHUNKS), reverse=True):
        stream.insert(pos, Op("lazy_top_chunk", _chunk,
                              lambda res, env: res["j.i=id"] and res["i.j<=id"]
                              and res["count"] == CHUNK))
    return ops + stream


_BUILDERS = {"term-queries": _term_queries, "expansion": _expansion,
             "domain-tower": _domain_tower}


def build(name: str, seed: int) -> list:
    """The op list of workload `name` for `seed`."""
    return _BUILDERS[name](random.Random(seed))
