"""Partial terms (finite Boehm trees), the approximant order, fuelled
Boehm-tree truncations, the tree partial metric and the Boehm distance."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import lamcalc
from .distance import DistanceValue, bracket, dyadic, exact, truncation_below
from .lamcalc import Abs, LambdaTerm, Var, db_index, solvability


class PartialTerm:
    """Beta-normal term with bottom leaves, normalized for bottom absorption.

    Canonically one of:
      * Bottom            -- the empty tree
      * Node(binders, head, args)  -- lambda x1..xm. h A1...An
    """

    __slots__ = ()

    def __str__(self):
        return show_partial(self)

    def __eq__(self, other):
        return isinstance(other, PartialTerm) and pkey(self) == pkey(other)

    def __hash__(self):
        return hash(pkey(self))


@dataclass(frozen=True, eq=False)
class Bottom(PartialTerm):
    pass


@dataclass(frozen=True, eq=False)
class Node(PartialTerm):
    binders: tuple
    head: str
    args: tuple  # of PartialTerm


BOT = Bottom()


def node(binders, head, args) -> PartialTerm:
    return Node(tuple(binders), head, tuple(args))


def pkey(t: PartialTerm, env=()):
    """Hashable de Bruijn encoding; alpha-equivalent terms share keys."""
    if isinstance(t, Bottom):
        return ("bot",)
    inner = t.binders[::-1] + env
    return ("n", len(t.binders), db_index(t.head, inner),
            tuple(pkey(a, inner) for a in t.args))


def show_partial(t: PartialTerm) -> str:
    """Print t as `lamcalc.show` prints its embedding (docs/DECISIONS.md D21)."""
    return lamcalc.show(_embed(t))


def parse_partial(text: str) -> PartialTerm:
    """Parse the lambda grammar extended with `_|_` into a PartialTerm."""
    t = lamcalc._Parser(text, allow_bottom=True).parse()
    return from_lambda(t)


def from_lambda(t: LambdaTerm) -> PartialTerm:
    """Convert a beta-normal LambdaTerm (possibly with `_|_` variables)."""
    binders, h, args = lamcalc.decompose(t)
    if isinstance(h, Var) and h.name == "_|_":
        return BOT  # lambda x. bottom and bottom-applied both absorb
    if not isinstance(h, Var):
        raise ValueError(f"not a beta-normal term: {t}")
    pt = node(binders, h.name, [from_lambda(a) for a in args])
    return pt


def to_lambda(t: PartialTerm) -> LambdaTerm:
    """Embed a bottom-free partial term back into the lambda syntax."""
    if "_|_" in lamcalc.free_vars(m := _embed(t)):
        raise ValueError("bottom has no lambda-term embedding")
    return m


def _embed(t: PartialTerm) -> LambdaTerm:
    """t as a lambda term whose bottoms are the variable `_|_`, which no
    binder captures, as it is not an identifier (D3).  A node waits on a
    stack under its arguments, whose embeddings land on `done` in order."""
    done, todo = [], [t]
    while todo:
        u = todo.pop()
        if type(u) is tuple:  # (node,): its arguments are embedded
            k = len(done) - len(u[0].args)
            done[k:] = [lamcalc.spine(u[0].binders, Var(u[0].head), done[k:])]
        elif isinstance(u, Bottom):
            done.append(Var("_|_"))
        else:
            todo += (u,), *reversed(u.args)
    return done[0]


def height(t: PartialTerm) -> int:
    """Empty tree has height 0; a node is 1 + the tallest argument."""
    best, stack = 0, [(t, 1)]
    while stack:
        u, depth = stack.pop()
        if isinstance(u, Node):
            best = max(best, depth)
            stack.extend((a, depth + 1) for a in u.args)
    return best


def truncate(t: PartialTerm, n: int) -> PartialTerm:
    """Keep nodes at depth <= n; deeper subtrees become bottom."""
    if isinstance(t, Bottom) or n <= 0:
        return BOT
    return Node(t.binders, t.head, tuple(truncate(a, n - 1) for a in t.args))


# ---------------------------------------------------------------------------
# Aligned pairs, the approximant order and the direct approximant

def aligned(a: PartialTerm, b: PartialTerm):
    """The pairs of subtrees of a and b at equal positions, shallowest first.

    Yields (depth, pos, x, y, same): the root sits at depth 1 and position
    (), and the i-th argument below position p at (p, i), so that a step
    costs the same at every depth; `_path` reads a position as an index
    path.  `same` says that x and y are nodes with the same label -- binder
    count, de Bruijn head and arity.  The walk goes below such pairs only,
    so every yielded pair has equally labelled ancestors."""
    queue = deque([(1, (), a, b, (), ())])
    while queue:
        depth, pos, x, y, ex, ey = queue.popleft()
        same = (isinstance(x, Node) and isinstance(y, Node)
                and len(x.binders) == len(y.binders)
                and len(x.args) == len(y.args))
        if same:
            ex, ey = x.binders[::-1] + ex, y.binders[::-1] + ey
            same = db_index(x.head, ex) == db_index(y.head, ey)
        yield depth, pos, x, y, same
        if same:
            queue.extend((depth + 1, (pos, i), u, v, ex, ey)
                         for i, (u, v) in enumerate(zip(x.args, y.args)))


def _path(pos) -> tuple:
    """The index path of a position that `aligned` yields."""
    out = []
    while pos:
        pos, i = pos
        out.append(i)
    return tuple(reversed(out))


def first_difference(a: PartialTerm, b: PartialTerm, unknown):
    """First level holding a position, outside `unknown`, where a and b
    differ: a node against a bottom, or nodes with different labels; inf if
    there is none (docs/DECISIONS.md D14)."""
    for depth, pos, x, y, same in aligned(a, b):
        if not (same or (isinstance(x, Bottom) and isinstance(y, Bottom))
                or (unknown and _path(pos) in unknown)):
            return depth
    return math.inf


def partial_leq(a: PartialTerm, b: PartialTerm) -> bool:
    """Contextual closure of bottom <= A: b refines a by filling bottoms."""
    return all(same or isinstance(x, Bottom)
               for _, _, x, _, same in aligned(a, b))


def truncation_leq(a: PartialTerm, b: PartialTerm) -> bool:
    """The order the tree metric induces: a is a full level-truncation of b."""
    return truncation_below(a, b, height, truncate)


def direct_approximant(t: LambdaTerm) -> PartialTerm:
    """Structural approximant: head redexes collapse to bottom."""
    binders, h, args = lamcalc.decompose(t)
    if isinstance(h, Abs):  # decompose leaves an Abs head only under application
        return BOT
    assert isinstance(h, Var)
    return node(binders, h.name, [direct_approximant(a) for a in args])


# ---------------------------------------------------------------------------
# Boehm truncations computed by iterated solvability

@dataclass(frozen=True)
class BohmTruncation:
    tree: PartialTerm
    depth: int
    tentative: tuple  # positions (index paths) whose solvability was Unknown
    cut: tuple  # positions of nodes at the depth boundary with unexplored children

    @property
    def is_exact(self) -> bool:
        return not self.tentative

    @property
    def complete(self) -> bool:
        """True when the tree is the entire (finite) Boehm tree."""
        return not self.tentative and not self.cut


def bohm_truncate(t: LambdaTerm, depth: int, fuel: int) -> BohmTruncation:
    """Compute the Boehm tree of t down to `depth` by iterated solvability."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    tentative: list = []
    cut: list = []

    def go(u: LambdaTerm, d: int, pos: tuple) -> PartialTerm:
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
        args = [go(a, d - 1, pos + (i,)) for i, a in enumerate(hf.args)]
        return node(hf.binders, hf.head, args)

    tree = go(t, depth, ())
    return BohmTruncation(tree, depth, tuple(tentative), tuple(cut))


# ---------------------------------------------------------------------------
# Tree partial metric

def divergence_level(a: PartialTerm, b: PartialTerm) -> int:
    """Largest n with both truncations defined (height >= n) and equal.

    Level-n truncations agree iff no position at depth <= n differs, so
    this is the level before the first difference (docs/DECISIONS.md D14)."""
    return min(height(a), height(b), first_difference(a, b, ()) - 1)


def p_tree(a: PartialTerm, b: PartialTerm) -> DistanceValue:
    """2**-div(a,b); equals 2**-height(a) on the diagonal and 1 against bottom."""
    return exact(dyadic(divergence_level(a, b)))


# ---------------------------------------------------------------------------
# Boehm distance with sound brackets

def _fuel_horizon(tr: BohmTruncation):
    """First level holding a fuel-unknown bottom, or inf if there is none."""
    return 1 + min(map(len, tr.tentative), default=math.inf)


def p_bohm(m: LambdaTerm, n: LambdaTerm, depth: int, fuel: int) -> DistanceValue:
    """Distance between Boehm trees, exact when certifiable, else a bracket.

    Level k is certainly agreed when both trees reach height k and their
    level-k truncations are certainly equal, and certainly refuted when a
    tree certainly stops below k or the truncations certainly differ.  Each
    of these switches once as k grows, so five levels give the bracket
    (docs/DECISIONS.md D4)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ta = bohm_truncate(m, depth, fuel)
    tb = bohm_truncate(n, depth, fuel)
    if ta.complete and tb.complete:
        return p_tree(ta.tree, tb.tree)
    ha, hb = height(ta.tree), height(tb.tree)
    ua, ub = _fuel_horizon(ta), _fuel_horizon(tb)
    # nothing at or below a fuel-unknown position is certain
    unknown = set(ta.tentative) | set(tb.tentative)
    diff = first_difference(ta.tree, tb.tree, unknown)
    agreed = min(ha, hb, ua - 1, ub - 1, diff - 1)
    refuted = min([diff] + [h + 1 for h, u in ((ha, ua), (hb, ub)) if h + 1 < u])
    if refuted > depth:
        return bracket(Fraction(0), dyadic(agreed))
    if agreed == refuted - 1:
        return exact(dyadic(agreed))
    return bracket(dyadic(refuted - 1), dyadic(agreed))
