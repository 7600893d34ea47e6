"""Partial terms (finite Boehm trees) on the node base of lambda and
resource terms, the approximant order, fuelled Boehm-tree truncations, the
tree partial metric and the Boehm distance."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import lamcalc
from .distance import DistanceValue, bracket, dyadic, exact, truncation_below
from .lamcalc import LambdaTerm, Term, Var, _cache, _same_heads, key, solvability


@dataclass(eq=False, slots=True)
class PartialTerm(Term):
    """Beta-normal term with bottom leaves, normalized for bottom absorption:
    `Bottom`, the empty tree, or `Node(binders, head, args)`, that is
    lambda x1..xm. h A1...An.  It is equal by key, and caches its height
    (docs/DECISIONS.md D22)."""

    _height: int = _cache()

    def _show(self):
        return show_partial(self)


@dataclass(eq=False, slots=True)
class Bottom(PartialTerm):
    _kind = "bot"


@dataclass(eq=False, slots=True)
class Node(PartialTerm):
    binders: tuple
    head: str
    args: tuple  # of PartialTerm
    _kind = "node"


BOT = Bottom()
pkey = key  # ("n", binder count, de Bruijn head, argument keys), or ("bot",)


def show_partial(t: PartialTerm) -> str:
    """Print t as `lamcalc.show` prints its embedding (docs/DECISIONS.md D21)."""
    return lamcalc.show(_embed(t))


def parse_partial(text: str) -> PartialTerm:
    """Parse the lambda grammar extended with `_|_` into a PartialTerm."""
    t = lamcalc._Parser(text, allow_bottom=True).parse()
    return from_lambda(t)


def from_lambda(t: LambdaTerm) -> PartialTerm:
    """Convert a beta-normal LambdaTerm (possibly with `_|_` variables)."""
    def label(u, depth, pos):
        binders, h, args = lamcalc.decompose(u)
        if h._kind != "var":
            raise ValueError(f"not a beta-normal term: {u}")
        return None if h.name == "_|_" else (binders, h.name, args)  # bottom absorbs
    return _grow(t, label)


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
    """Empty tree has height 0; a node is 1 + the tallest argument.  The
    answer is kept on t."""
    if t._height is None:
        best, stack = 0, [(t, 1)]
        while stack:
            u, depth = stack.pop()
            if u._kind == "node":
                best = max(best, depth)
                stack.extend((a, depth + 1) for a in u.args)
        t._height = best
    return t._height


def truncate(t: PartialTerm, n: int) -> PartialTerm:
    """Keep nodes at depth <= n; deeper subtrees become bottom."""
    return _grow(t, lambda u, depth, pos: None if u._kind == "bot" or depth > n
                 else (u.binders, u.head, u.args))


def _grow(t, label) -> PartialTerm:
    """The partial tree that `label` reads off t.  label(u, depth, pos) is
    None for a bottom, or else the binders, head and argument sources of a
    node, for a source u at `depth` and `pos` as `aligned` yields them; it
    is asked in preorder, as a recursion would ask it.  A node waits on the
    stack, depth 0, under its arguments, whose trees land on `done` in
    order (docs/DECISIONS.md D22)."""
    done, todo = [], [(t, 1, ())]
    while todo:
        u, depth, pos = todo.pop()
        if not depth:  # u is the label of a node whose arguments are grown
            k = len(done) - len(u[2])
            done[k:] = [Node(u[0], u[1], tuple(done[k:]))]
            continue
        lab = label(u, depth, pos)
        if lab is None:
            done.append(BOT)
        elif not lab[2]:
            done.append(Node(*lab))
        else:
            todo.append((lab, 0, None))
            args, depth = lab[2], depth + 1
            for i in range(len(args) - 1, -1, -1):
                todo.append((args[i], depth, (pos, i)))
    return done[0]


# ---------------------------------------------------------------------------
# Aligned pairs, the approximant order and the direct approximant

def aligned(a: PartialTerm, b: PartialTerm):
    """The pairs of subtrees of a and b at equal positions, depth first.

    Yields (depth, pos, x, y, same): the root sits at depth 1 and position
    (), and the i-th argument below position p at (p, i), so that a step
    costs the same at every depth; `_path` reads a position as an index
    path.  `same` says that x and y are nodes with the same label -- binder
    count, de Bruijn head and arity.  The walk goes below such pairs only,
    so every yielded pair has equally labelled ancestors (D25)."""
    scopes, todo = [], [(1, (), a, b, None)]  # with the scope depth
    while todo:
        depth, pos, x, y, k = todo.pop()
        same = (isinstance(x, Node) and isinstance(y, Node)
                and len(x.binders) == len(y.binders) and len(x.args) == len(y.args))
        if same:
            same, k = _same_heads(scopes, k, x.binders, y.binders, x.head, y.head)
        yield depth, pos, x, y, same
        if same:
            for i in range(len(x.args) - 1, -1, -1):
                todo.append((depth + 1, (pos, i), x.args[i], y.args[i], k))


def _path(pos) -> tuple:
    """The index path of a position that `aligned` yields."""
    out = []
    while pos:
        pos, i = pos
        out.append(i)
    return tuple(reversed(out))


def first_difference(a: PartialTerm, b: PartialTerm, unknown):
    """The least depth of a position outside `unknown` where a and b differ: a
    node against a bottom, or other labels; inf if none (D14, D25)."""
    differ = [(depth, pos) for depth, pos, x, y, same in aligned(a, b)
              if not (same or x._kind == "bot" and y._kind == "bot")]
    for depth, pos in sorted(differ, key=lambda d: d[0]):
        if not unknown or _path(pos) not in unknown:
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
    def label(u, depth, pos):
        binders, h, args = lamcalc.decompose(u)  # an Abs head only under application
        return None if h._kind == "abs" else (binders, h.name, args)
    return _grow(t, label)


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
    tentative, cut = [], []

    def label(u, level, pos):
        if level > depth:
            cut.append(_path(pos))
            return None
        st = solvability(u, fuel)
        if st.is_solvable:
            hf = st.head
            return hf.binders, hf.head, hf.args
        if st.is_unknown:
            tentative.append(_path(pos))
        return None

    tree = _grow(t, label)
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
