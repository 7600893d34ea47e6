"""Taylor expansion of partial terms and lambda terms, the membership
relation against partial terms, the isometry harnesses and the bounded
commutation check."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement

from . import bohm, resource
from .bohm import BOT, Bottom, Node, PartialTerm
from .distance import bracket, dyadic, exact
from .lamcalc import Abs, LambdaTerm, Var, _same_heads, _Scope
from .limits import within_cap
from .resource import RAbs, RApp, ResourceTerm, RVar, normal_view, rkey


# ---------------------------------------------------------------------------
# Membership: t is one of the linear approximations of the partial term a

def box_relation(t: ResourceTerm, a: PartialTerm) -> bool:
    """t belongs to the Taylor expansion of a (the expansion of bottom is
    empty): every item sits against a node of a with its binder count,
    arity and de Bruijn head, on a stack of (item, node, scope depth)."""
    scopes, todo = [], [(t, a, None)]
    while todo:
        u, x, k = todo.pop()
        if x._kind == "bot":
            return False
        try:
            binders, head, bags = normal_view(u)
        except ValueError:  # u is not normal
            return False
        if len(binders) != len(x.binders) or len(bags) != len(x.args):
            return False
        same, k = _same_heads(scopes, k, binders, x.binders, head, x.head)
        if not same:
            return False
        todo.extend((v, arg, k) for items, arg in zip(bags, x.args) for v in items)
    return True


def min_source(t: ResourceTerm) -> PartialTerm | None:
    """The least partial term whose expansion contains t, or None.

    t belongs to the expansion of a  iff  min_source(t) is defined and
    min_source(t) is below a in the approximant order.  Binders are
    canonicalized first, so that the items that sit at one position, which
    the source must join, name a bound head alike; `bohm._grow` reads each
    node off the group of such items, and an empty group is a bottom
    (docs/DECISIONS.md D23).
    """
    def label(items, depth, pos):
        if not items:
            return None
        views = [normal_view(u) for u in items]  # raises ValueError on a redex
        binders, head, bags = views[0]
        for b, h, g in views[1:]:
            if len(b) != len(binders) or h != head or len(g) != len(bags):
                raise ValueError("the items have no common source")
        return binders, head, tuple(tuple(u for v in views for u in v[2][i])
                                    for i in range(len(bags)))
    try:
        return bohm._grow((resource.canonical_binders(t),), label)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# Bounded expansions

@dataclass(frozen=True)
class TaylorFragment:
    source: object
    mult_bound: int
    height_bound: int
    elements: frozenset


def taylor_expand(a: PartialTerm, mult_bound: int, height_bound: int) -> TaylorFragment:
    """All t with t in the expansion of a, bags of size <= mult_bound and
    height <= height_bound, generated exhaustively."""
    return TaylorFragment(a, mult_bound, height_bound, frozenset(
        _elements(bohm._embed(a), mult_bound, height_bound)))


def taylor_of_term(m: LambdaTerm, mult_bound: int, height_bound: int) -> TaylorFragment:
    """Bounded expansion of a raw (possibly non-normal) lambda term."""
    return TaylorFragment(m, mult_bound, height_bound, frozenset(
        _elements(m, mult_bound, height_bound)))


def _elements(m: LambdaTerm, mult_bound: int, height_bound: int,
              sized: bool = False) -> list:
    """The expansion elements of m of height <= height_bound.  A bag holds
    0..mult_bound items, except, when `sized`, the bag a redex applies to an
    abstraction: it holds exactly as many items as the binder has
    occurrences, the one size with a reduct (docs/DECISIONS.md D13).  The
    variable `_|_`, a bottom of an embedded partial term, has no element.
    An argument is expanded within one level less than its application, so
    no element above the height is built (D23).  A node waits on the stack
    under its parts, whose element lists land on `done` in order; every
    list and bag pool goes through the cap."""
    if mult_bound < 1 or height_bound < 1:
        raise ValueError("bounds must be >= 1")
    sizes = range(mult_bound + 1)
    done, todo = [], [(m, height_bound)]
    while todo:
        u, k = todo.pop()
        if k is None:  # u's parts are expanded
            if u._kind == "abs":
                done[-1] = [RAbs(u.binder, t) for t in done[-1]]
                continue
            args, funs = done.pop(), done[-1]
            demands = [_demand(f) for f in funs] if sized else [None] * len(funs)
            pools = {}  # bag size demanded (None: any up to the bound) -> bags
            for n in demands:
                if n not in pools:
                    pools[n] = within_cap(
                        _bags(args, sizes if n is None else (n,)),
                        ("a" if n is None else "a sized") + " bag pool has more than "
                        "{cap} bags, exceeds cap {cap} (LAMBDA_PM_CAP)")
            done[-1] = within_cap(
                (RApp(f, items) for f, n in zip(funs, demands) for items in pools[n]),
                "an expansion has more than {cap} elements at one node, exceeds "
                "cap {cap} (LAMBDA_PM_CAP)")
        elif k < 1 or (u._kind == "var" and u.name == "_|_"):
            done.append([])
        elif u._kind == "var":
            done.append([RVar(u.name)])
        elif u._kind == "abs":
            todo += (u, None), (u.body, k)
        else:
            todo += (u, None), (u.arg, k - 1), (u.fun, k)
    return done[0]


def _bags(elems, sizes):
    """Every multiset of `elems` whose size is in `sizes`, in a fixed order."""
    return chain.from_iterable(combinations_with_replacement(elems, k) for k in sizes)


def _demand(f: ResourceTerm) -> int | None:
    """The size of the only bag b for which f<b> can have a reduct, or None
    when f does not fix one.  f fixes it when its head is an abstraction
    with a binder left over after one binder per bag f already applies; the
    size is the number of free occurrences of that binder in its body."""
    applied = 0
    while isinstance(f, RApp):
        applied += 1
        f = f.fun
    while applied and isinstance(f, RAbs):
        applied -= 1
        f = f.body
    if applied or not isinstance(f, RAbs):
        return None
    return resource._occurrences(f.body, f.binder)


# ---------------------------------------------------------------------------
# Fast exact Hausdorff-star on bounded fragments
#
# Within a bounded fragment the sup side is attained at the embedding-maximal
# elements (every element extends to one, and extending never increases the
# inner inf), and for a maximal element the upward moves are exhausted, so the
# inner inf is the deepest truncation level realizable inside the other
# fragment -- a membership test, not an enumeration.  The maximal elements
# are those whose bags over non-bottom arguments all have exactly b items.
# For b >= 1 there is one, each such bag holding b copies of its argument's
# maximal element; its height is bohm.height(a), and its depth against the
# other term (D8 point 6) is a min over identical items, so both are read off
# the two trees without building the element (docs/DECISIONS.md D19).

def _bags_within(t: ResourceTerm, b: int) -> bool:
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, RAbs):
            stack.append(t.body)
        elif isinstance(t, RApp):
            if len(t.bag) > b:
                return False
            stack.append(t.fun)
            stack.extend(t.bag)
    return True


def _tree_depth(a: Node, other: PartialTerm):
    """D8 point 6's depth of the maximal element of a's expansion against
    `other`: the least depth (root 0) of a node of a that `other` does not
    match below matching ancestors, or math.inf; the walk stops there (D25)."""
    scopes, best, todo = [], math.inf, [(a, other, 0, None)]
    while todo:
        x, y, depth, k = todo.pop()
        if depth >= best:
            continue
        same = (isinstance(y, Node) and len(x.binders) == len(y.binders)
                and len(x.args) == len(y.args))
        if same:
            same, k = _same_heads(scopes, k, x.binders, y.binders, x.head, y.head)
        if not same:
            best = depth
        elif depth + 1 < best:
            todo.extend((u, v, depth + 1, k)
                        for u, v in zip(x.args, y.args) if isinstance(u, Node))
    return best


def _side_fast(a: PartialTerm, other: PartialTerm, b: int):
    """The level n, or math.inf, of the side 2**-n: the sup over the
    a-fragment of the inf of r against the other fragment."""
    if isinstance(a, Bottom):
        return math.inf  # sup over the empty set, 0
    if b == 0:  # the one element is the root with empty bags
        a = bohm.truncate(a, 1)
    return min(bohm.height(a), _tree_depth(a, other))


def hstar_fragments(a: PartialTerm, other: PartialTerm, mult_bound: int) -> Fraction:
    """Exact H*_r between the bounded expansions of two partial terms: the
    larger side is the one at the lesser level (docs/DECISIONS.md D32)."""
    if mult_bound < 0:
        raise ValueError("mult_bound must be >= 0")
    level = min(_side_fast(a, other, mult_bound), _side_fast(other, a, mult_bound))
    return Fraction(0) if level == math.inf else dyadic(level)


def isometry_check(a: PartialTerm, b: PartialTerm, mult_bound: int) -> dict:
    """Compare H*_r on bounded expansions against the tree distance."""
    lhs = exact(hstar_fragments(a, b, mult_bound))
    rhs = bohm.p_tree(a, b)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "equal": lhs == rhs,
        # H* reads its bound only as 0 or not, so past 0 the next bound's
        # value is this one (docs/DECISIONS.md D19)
        "stable": mult_bound > 0 or lhs == exact(hstar_fragments(a, b, 1)),
    }


# ---------------------------------------------------------------------------
# Commutation at bounded scale

class TentativeTreeError(RuntimeError):
    """The Boehm truncation was not certified within the given fuel."""


def commutation_check(m: LambdaTerm, mult_bound: int, height_bound: int,
                      fuel: int) -> dict:
    tr = bohm.bohm_truncate(m, height_bound, fuel)
    if not tr.is_exact:
        raise TentativeTreeError(
            f"solvability unknown at positions {tr.tentative} (fuel {fuel})")
    slack = height_bound + _syntactic_depth(m)
    lhs = {nf for t in _elements(m, mult_bound, slack, sized=True)
           for nf in resource.resource_reduce(t)
           if resource.height(nf) <= height_bound and _bags_within(nf, mult_bound)}
    # the expansion of the tree is within both bounds already (D9)
    rhs = taylor_expand(tr.tree, mult_bound, height_bound).elements
    return {"lhs": frozenset(lhs), "rhs": frozenset(rhs), "equal": lhs == rhs}


def _syntactic_depth(m: LambdaTerm) -> int:
    """1 at a variable; an abstraction has its body's depth, an application
    1 + the deeper of its two parts."""
    best, stack = 0, [(m, 1)]
    while stack:
        u, depth = stack.pop()
        if isinstance(u, Var):
            best = max(best, depth)
        elif isinstance(u, Abs):
            stack.append((u.body, depth))
        else:
            stack.append((u.fun, depth + 1))
            stack.append((u.arg, depth + 1))
    return best


# ---------------------------------------------------------------------------
# Enumerations for the weighted-series isometry

_FREE_VARS = ("x", "y")


@lru_cache(maxsize=None)
def _partial_terms_of_weight(w: int, depth: int) -> tuple:
    """Partial terms of syntactic weight w; binders get canonical names."""
    if w < 1:
        return ()
    out = []
    binder = f"a{depth}"
    # abstractions spend one unit of weight
    for body in _partial_terms_of_weight(w - 1, depth + 1):
        if not isinstance(body, Bottom):
            out.append(Node((binder,) + body.binders, body.head, body.args))
    # head nodes: weight 1 for the node itself plus the args (a bottom arg costs 1)
    heads = list(_FREE_VARS) + [f"a{d}" for d in range(depth)]
    for head in heads:
        for args in _args_of_weight(w - 1, depth):
            out.append(Node((), head, args))
    return tuple(out)


def _args_of_weight(budget: int, depth: int):
    """All argument tuples of total weight exactly `budget`."""
    if budget == 0:
        yield ()
        return
    for first_w in range(1, budget + 1):
        firsts = list(_partial_terms_of_weight(first_w, depth))
        if first_w == 1:
            firsts.append(BOT)
        for f in firsts:
            for rest in _args_of_weight(budget - first_w, depth):
                yield (f,) + rest


def enumerate_partial(n: int) -> PartialTerm:
    """The n-th non-bottom partial term (1-indexed), size-ordered then lexicographic.

    Free variables from {x, y}; binder names are canonical by depth, so the
    enumeration covers partial terms up to alpha-equivalence.
    """
    if n < 1:
        raise ValueError("enumeration is 1-indexed")
    for w in range(1, 41):
        batch = _sorted_of_weight(w)
        if n <= len(batch):
            return batch[n - 1]
        n -= len(batch)
    raise RuntimeError("enumeration ran away")


@lru_cache(maxsize=None)
def _sorted_of_weight(w: int) -> tuple:
    """The partial terms of weight w in enumeration order, sorted once."""
    return tuple(sorted(_partial_terms_of_weight(w, 0), key=lambda t: _pt_code(t, _Scope(), 0)))


def _pt_code(t, scope, k):
    """t's rank below k binders: a bound head first, by index k - 1 - level (D25)."""
    if isinstance(t, Bottom):
        return (0,)
    h, k = scope.at(k, t.binders, t.head), k + len(t.binders)
    return (1, len(t.binders), (2, h) if type(h) is str else (1, k - 1 - h),
            len(t.args), tuple(_pt_code(a, scope, k) for a in t.args))


def pair_index(m: int) -> tuple:
    """Diagonal pairing over positive naturals: 1 -> (1,1), 2 -> (1,2), 3 -> (2,1)..."""
    if m < 1:
        raise ValueError("pairing is 1-indexed")
    d = 1
    while m > d:
        m -= d
        d += 1
    return (m, d - m + 1)


_POOLS: dict = {}


def faithful_pool(a: PartialTerm) -> tuple:
    """Deterministic pool of expansion elements whose least source is exactly `a`.

    Every such term decides membership in any expansion through `a` alone,
    which is what makes the per-term grouping identity exact.  The pool is
    cycled when an enumeration needs more indices than it has elements.
    """
    if a not in _POOLS:
        pool = [t for t in _elements(bohm._embed(a), 2, max(1, bohm.height(a)))
                if min_source(t) == a]
        if not pool:
            raise RuntimeError(f"no faithful element for {a}")  # unreachable
        pool.sort(key=lambda t: (resource.rsize(t), str(rkey(t))))
        _POOLS[a] = tuple(pool)
    return _POOLS[a]


def per_term(a: PartialTerm, m: int) -> ResourceTerm:
    """The m-th element (1-indexed) of the per-term enumeration for `a`."""
    pool = faithful_pool(a)
    return pool[(m - 1) % len(pool)]


def enumeration_isometry(a: PartialTerm, b: PartialTerm, prefix: int) -> dict:
    """Prefix comparison of the two weighted-series distances.

    pB sums 2**-n over enumerated partial terms not below both arguments;
    pP sums the paired weights over enumerated expansion elements missing
    from either expansion, decided by the membership relation directly.
    """
    if prefix < 1:
        raise ValueError("prefix must be >= 1")
    K = prefix
    terms = [enumerate_partial(n) for n in range(1, K + 1)]
    # both sums are kept as integer numerators over 2**K and 2**(2K)
    pb_num = sum(1 << (K - n) for n, t in enumerate(terms, start=1)
                 if not (bohm.partial_leq(t, a) and bohm.partial_leq(t, b)))
    tail = dyadic(K)
    pb_sum = Fraction(pb_num, 1 << K)
    pb = bracket(pb_sum, pb_sum + tail)

    pp_num = 0
    for n, src in enumerate(terms, start=1):
        # per_term(src, m) for m = 1..K is pool[(m - 1) % len(pool)]: each
        # element of the pool's first K is tested once, keying src once
        pool = faithful_pool(src)
        missing = [not (box_relation(v, a) and box_relation(v, b)) for v in pool[:K]]
        for m in range(1, K + 1):
            if missing[(m - 1) % len(pool)]:
                pp_num += 1 << (2 * K - n - m)
    pp_sum = Fraction(pp_num, 1 << (2 * K))
    unexplored = (1 - tail) * tail + tail
    pp = bracket(pp_sum, pp_sum + unexplored)

    gap = abs(pp.midpoint() - pb.midpoint())
    return {"pP": pp, "pB": pb, "gap": gap,
            "tail": (pb.width() + pp.width()) / 2}
