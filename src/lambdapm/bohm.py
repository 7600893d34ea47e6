"""Partial terms (finite Boehm trees), the approximant order, fuelled
Boehm-tree truncations, the tree partial metric and the Boehm distance."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lamcalc
from .distance import (DistanceValue, agreement_level, bracket, dyadic, exact,
                       truncation_below)
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
    if isinstance(t, Bottom):
        return "_|_"
    parts = [t.head]
    for a in t.args:
        s = show_partial(a)
        if isinstance(a, Node) and (a.binders or a.args):
            s = f"({s})"
        parts.append(s)
    body = " ".join(parts)
    for b in reversed(t.binders):
        body = f"\\{b}. {body}"
    return body


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
    if isinstance(t, Bottom):
        raise ValueError("bottom has no lambda-term embedding")
    return lamcalc.spine(t.binders, Var(t.head), [to_lambda(a) for a in t.args])


def height(t: PartialTerm) -> int:
    """Empty tree has height 0; a node is 1 + the tallest argument."""
    if isinstance(t, Bottom):
        return 0
    return 1 + max((height(a) for a in t.args), default=0)


def truncate(t: PartialTerm, n: int) -> PartialTerm:
    """Keep nodes at depth <= n; deeper subtrees become bottom."""
    if isinstance(t, Bottom) or n <= 0:
        return BOT
    return Node(t.binders, t.head, tuple(truncate(a, n - 1) for a in t.args))


# ---------------------------------------------------------------------------
# The approximant (substitution) order and the direct approximant

def partial_leq(a: PartialTerm, b: PartialTerm) -> bool:
    """Contextual closure of bottom <= A: b refines a by filling bottoms."""
    return _pleq(a, b, (), ())


def _pleq(a, b, enva, envb):
    if isinstance(a, Bottom):
        return True
    if isinstance(b, Bottom):
        return False
    if len(a.binders) != len(b.binders) or len(a.args) != len(b.args):
        return False
    ea, eb = a.binders[::-1] + enva, b.binders[::-1] + envb
    if db_index(a.head, ea) != db_index(b.head, eb):
        return False
    return all(_pleq(x, y, ea, eb) for x, y in zip(a.args, b.args))


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
    """Largest n with both truncations defined (height >= n) and equal."""
    return agreement_level(a, b, height, truncate)


def p_tree(a: PartialTerm, b: PartialTerm) -> DistanceValue:
    """2**-div(a,b); equals 2**-height(a) on the diagonal and 1 against bottom."""
    return exact(dyadic(divergence_level(a, b)))


# ---------------------------------------------------------------------------
# Boehm distance with sound brackets

_CT, _CF, _UNK = 1, 0, None  # three-valued logic


def _and3(*vals):
    if any(v == _CF for v in vals):
        return _CF
    if all(v == _CT for v in vals):
        return _CT
    return _UNK


def _posmap(tr: BohmTruncation) -> dict:
    """Map position -> ("node", data) | ("bot",) | ("unk",) for levels <= depth.

    "bot" is a certified-divergent leaf (certainly empty); "unk" covers bottoms
    from fuel exhaustion and nodes cut at the depth horizon.
    """
    tentative, cut = set(tr.tentative), set(tr.cut)
    out = {}

    def walk(t, pos, env):
        if len(pos) >= tr.depth:
            return
        if isinstance(t, Bottom):
            out[pos] = ("unk",) if (pos in cut or pos in tentative) else ("bot",)
            return
        env2 = t.binders[::-1] + env
        out[pos] = ("node", (len(t.binders), db_index(t.head, env2), len(t.args)))
        for i, a in enumerate(t.args):
            walk(a, pos + (i,), env2)

    walk(tr.tree, (), ())
    return out


def _status(pm: dict, pos: tuple):
    """("node", data) | ("bot",) | ("unk",) for any position within the horizon."""
    if pos in pm:
        return pm[pos]
    for k in range(len(pos) - 1, -1, -1):
        anc = pm.get(pos[:k])
        if anc is not None:
            # under an unknown everything is unknown; under a certain node or
            # certain bottom, unlisted descendants are certainly absent
            return ("unk",) if anc[0] == "unk" else ("bot",)
    return ("bot",)


def p_bohm(m: LambdaTerm, n: LambdaTerm, depth: int, fuel: int) -> DistanceValue:
    """Distance between Boehm trees, exact when certifiable, else a bracket."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ta = bohm_truncate(m, depth, fuel)
    tb = bohm_truncate(n, depth, fuel)
    if ta.complete and tb.complete:
        return p_tree(ta.tree, tb.tree)

    pa, pb = _posmap(ta), _posmap(tb)

    def defined(pm, lvl):
        """Three-valued: does the tree reach height lvl?"""
        kinds = [v[0] for p, v in pm.items() if len(p) == lvl - 1]
        if "node" in kinds:
            return _CT
        if any(v[0] == "unk" for p, v in pm.items() if len(p) <= lvl - 1):
            return _UNK
        return _CF

    def eq(lvl):
        """Three-valued equality of the level-lvl truncations."""
        verdict = _CT
        positions = {p for p in set(pa) | set(pb) if len(p) <= lvl - 1}
        for p in positions:
            sa, sb = _status(pa, p), _status(pb, p)
            if sa[0] == "unk" or sb[0] == "unk":
                verdict = _UNK
            elif sa != sb:
                return _CF
        return verdict

    dlo, first_cf = 0, None
    for lvl in range(1, depth + 1):
        a3 = _and3(defined(pa, lvl), defined(pb, lvl), eq(lvl))
        if a3 == _CT:
            dlo = lvl
        elif a3 == _CF:
            first_cf = lvl
            break
    if first_cf is not None:
        dhi = first_cf - 1
        if dlo == dhi:
            return exact(dyadic(dlo))
        return bracket(dyadic(dhi), dyadic(dlo))
    return bracket(Fraction(0), dyadic(dlo))
