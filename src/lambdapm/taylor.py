"""Taylor expansion of partial terms and lambda terms, the membership
relation against partial terms, the isometry harnesses and the bounded
commutation check."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, cycle, islice, product

from . import bohm, resource
from .bohm import BOT, Bottom, Node, PartialTerm
from .distance import bracket, dyadic, exact
from .lamcalc import Abs, LambdaTerm, Var, db_index
from .limits import within_cap
from .resource import (RAbs, RApp, ResourceTerm, RVar, gen_height, normal_view,
                       rkey)


# ---------------------------------------------------------------------------
# Membership: t is one of the linear approximations of the partial term a

def box_relation(t: ResourceTerm, a: PartialTerm) -> bool:
    """t belongs to the Taylor expansion of a (the expansion of bottom is empty)."""
    try:
        return _box_depth(t, a, (), ()) == math.inf
    except ValueError:  # t is not normal
        return False


def _box_depth(t: ResourceTerm, a: PartialTerm, envt, enva):
    """The largest n such that resource.truncate(t, n) belongs to the
    expansion of bohm.truncate(a, n), or math.inf if t belongs to the
    expansion of a (docs/DECISIONS.md D8).  Raises ValueError on a redex."""
    if isinstance(a, Bottom):
        return 0
    binders, head, bags = normal_view(t)
    if len(binders) != len(a.binders) or len(bags) != len(a.args):
        return 0
    et, ea = binders[::-1] + envt, a.binders[::-1] + enva
    if db_index(head, et) != db_index(a.head, ea):
        return 0
    depth = math.inf
    for items, arg in zip(bags, a.args):
        for u in items:
            depth = min(depth, _box_depth(u, arg, et, ea))
            if depth == 0:
                return 1
    return 1 + depth


def min_source(t: ResourceTerm) -> PartialTerm | None:
    """The least partial term whose expansion contains t, or None.

    t belongs to the expansion of a  iff  min_source(t) is defined and
    min_source(t) is below a in the approximant order.  Binders are
    canonicalized first so that joining alpha-variant bag elements works.
    """
    return _min_source(resource.canonical_binders(t))


def _min_source(t: ResourceTerm) -> PartialTerm | None:
    try:
        binders, head, bags = normal_view(t)
    except ValueError:
        return None
    args = []
    for items in bags:
        if not items:
            args.append(BOT)
            continue
        sources = [_min_source(u) for u in items]
        if any(s is None for s in sources):
            return None
        joined = sources[0]
        for s in sources[1:]:
            joined = _join(joined, s)
            if joined is None:
                return None
        args.append(joined)
    return Node(binders, head, tuple(args))


def _join(a: PartialTerm, b: PartialTerm) -> PartialTerm | None:
    if isinstance(a, Bottom):
        return b
    if isinstance(b, Bottom):
        return a
    # binders are canonical (min_source): at equal depth, equal names
    # are the same variable
    if (len(a.binders), a.head, len(a.args)) != (len(b.binders), b.head, len(b.args)):
        return None
    args = []
    for x, y in zip(a.args, b.args):
        j = _join(x, y)
        if j is None:
            return None
        args.append(j)
    # reuse a's binder names for the joined node
    return Node(a.binders, a.head, tuple(args))


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
    if mult_bound < 1 or height_bound < 1:
        raise ValueError("bounds must be >= 1")
    return TaylorFragment(a, mult_bound, height_bound,
                          frozenset(_expand(a, range(mult_bound + 1), height_bound)))


def _bags(elems, sizes) -> list:
    """Every multiset of `elems` whose size is in `sizes`, in a fixed order."""
    pool = []
    for k in sizes:
        pool.extend(combinations_with_replacement(elems, k))
    return pool


def _expand(a: PartialTerm, sizes, h) -> list:
    """Expansion elements of `a` of height <= h (math.inf: any height) whose
    bags over non-bottom arguments have sizes in `sizes`; a bottom argument
    takes only the empty bag."""
    if isinstance(a, Bottom) or h < 1:
        return []
    pools = []
    for arg in a.args:
        if isinstance(arg, Bottom):
            pools.append([()])
        else:
            pools.append(_bags(_expand(arg, sizes, h - 1), sizes))
    binders, head, spine = a.binders, RVar(a.head), resource.spine
    return [spine(binders, head, bags) for bags in product(*pools)]


def taylor_of_term(m: LambdaTerm, mult_bound: int, height_bound: int) -> TaylorFragment:
    """Bounded expansion of a raw (possibly non-normal) lambda term."""
    return _term_fragment(m, mult_bound, height_bound, sized=False)


def _term_fragment(m: LambdaTerm, mult_bound: int, height_bound: int,
                   sized: bool) -> TaylorFragment:
    """The expansion elements of m of height <= height_bound.  A bag holds
    0..mult_bound items, except, when `sized`, the bag a redex applies to an
    abstraction: it holds exactly as many items as the binder has
    occurrences, the one size with a reduct (docs/DECISIONS.md D13)."""
    if mult_bound < 1 or height_bound < 1:
        raise ValueError("bounds must be >= 1")

    def go(u: LambdaTerm) -> list:
        if isinstance(u, Var):
            return [RVar(u.name)]
        if isinstance(u, Abs):
            return [RAbs(u.binder, t) for t in go(u.body)]
        funs, args = go(u.fun), go(u.arg)
        pools = {}  # bag size demanded (None: any up to the bound) -> bags
        out = []
        for f in funs:
            n = _demand(f) if sized else None
            if n not in pools:
                pools[n] = (_bags(args, range(mult_bound + 1)) if n is None else
                            within_cap(combinations_with_replacement(args, n),
                                       "a sized bag pool has more than {cap} "
                                       "bags, exceeds cap {cap} (LAMBDA_PM_CAP)"))
            for items in pools[n]:
                out.append(RApp(f, tuple(items)))
        return out

    elems = [t for t in go(m) if gen_height(t) <= height_bound]
    return TaylorFragment(m, mult_bound, height_bound, frozenset(elems))


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
    return len(resource._places_of(f).groups)


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
    `other`: the depth (root 0) of the shallowest node of a that `other` does
    not match below matching ancestors, or math.inf if there is none."""
    queue = deque([(a, other, (), (), 0)])
    while queue:
        x, y, ex, ey, depth = queue.popleft()
        if (isinstance(y, Bottom) or len(x.binders) != len(y.binders)
                or len(x.args) != len(y.args)):
            return depth
        ex, ey = x.binders[::-1] + ex, y.binders[::-1] + ey
        if db_index(x.head, ex) != db_index(y.head, ey):
            return depth
        queue.extend((u, v, ex, ey, depth + 1)
                     for u, v in zip(x.args, y.args) if isinstance(u, Node))
    return math.inf


def _side_fast(a: PartialTerm, other: PartialTerm, b: int) -> Fraction:
    """sup over the a-fragment of the inf of r against the other fragment."""
    if isinstance(a, Bottom):
        return Fraction(0)  # sup over the empty set
    if b == 0:  # the one element is the root with empty bags
        a = bohm.truncate(a, 1)
    return dyadic(min(bohm.height(a), _tree_depth(a, other)))


def hstar_fragments(a: PartialTerm, other: PartialTerm, mult_bound: int) -> Fraction:
    """Exact H*_r between the bounded expansions of two partial terms."""
    if mult_bound < 0:
        raise ValueError("mult_bound must be >= 0")
    return max(_side_fast(a, other, mult_bound), _side_fast(other, a, mult_bound))


def isometry_check(a: PartialTerm, b: PartialTerm, mult_bound: int) -> dict:
    """Compare H*_r on bounded expansions against the tree distance."""
    lhs = exact(hstar_fragments(a, b, mult_bound))
    rhs = bohm.p_tree(a, b)
    lhs_next = exact(hstar_fragments(a, b, mult_bound + 1))
    return {
        "lhs": lhs,
        "rhs": rhs,
        "equal": lhs == rhs,
        "stable": lhs == lhs_next,
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
    expansion = _term_fragment(m, mult_bound, slack, sized=True)
    lhs = {nf for t in expansion.elements for nf in resource.resource_reduce(t)
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
    return tuple(sorted(_partial_terms_of_weight(w, 0), key=_pt_sort_key))


def _pt_sort_key(t: PartialTerm):
    return _pt_code(t, ())


def _pt_code(t, env):
    if isinstance(t, Bottom):
        return (0,)
    env2 = t.binders[::-1] + env
    hk = db_index(t.head, env2)
    hcode = (1, hk[1]) if hk[0] == "b" else (2, hk[1])
    return (1, len(t.binders), hcode, len(t.args),
            tuple(_pt_code(a, env2) for a in t.args))


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
        pool = [t for t in _expand(a, range(3), max(1, bohm.height(a)))
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
    pb_sum = Fraction(pb_num, 1 << K)
    pb = bracket(pb_sum, pb_sum + dyadic(K))

    pp_num = 0
    for n, src in enumerate(terms, start=1):
        # per_term(src, m) for m = 1..K, keying src once
        for m, v in enumerate(islice(cycle(faithful_pool(src)), K), start=1):
            if not (box_relation(v, a) and box_relation(v, b)):
                pp_num += 1 << (2 * K - n - m)
    pp_sum = Fraction(pp_num, 1 << (2 * K))
    unexplored = (1 - dyadic(K)) * dyadic(K) + dyadic(K)
    pp = bracket(pp_sum, pp_sum + unexplored)

    gap = abs(pp.midpoint() - pb.midpoint())
    return {"pP": pp, "pB": pb, "gap": gap,
            "tail": (pb.width() + pp.width()) / 2}
