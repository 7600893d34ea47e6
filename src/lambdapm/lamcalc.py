"""Lambda terms with named variables, on the node base and cache fold that
resource terms share: parsing, printing, substitution, head reduction and a
fuelled solvability semi-decision with cycle certificates."""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Terms

def _cache():
    return field(default=None, init=False, repr=False, compare=False)


@dataclass(eq=False, slots=True)
class Term:
    """A node of a lambda or a resource term, never changed once built but
    for its caches, each filled at most once by `fold`: here the free names
    and the closed key's hash.  Nodes of one family are equal by key."""

    _fv: frozenset = _cache()
    _hash: int = _cache()
    _kind = None  # "var", "abs" or "app": the node class's place in a term

    def __str__(self):
        return self._show()

    def __eq__(self, other):
        closed_key = type(self)._closed_key  # one per family
        return self is other or (getattr(type(other), "_closed_key", None) is closed_key
                                 and hash(self) == hash(other)
                                 and _same_key(closed_key(self), closed_key(other)))

    def __hash__(self):
        h = self._hash
        return fold(self, "_hash", _hash_leaf, _hash_app) if h is None else h


@dataclass(eq=False, slots=True)
class LambdaTerm(Term):
    """A lambda term node; it also caches its closed key (D7)."""

    _key: tuple = _cache()

    def _show(self):
        return show(self)

    def _closed_key(self):
        return key(self)


@dataclass(eq=False, slots=True)
class Var(LambdaTerm):
    name: str
    _kind = "var"


@dataclass(eq=False, slots=True)
class Abs(LambdaTerm):
    binder: str
    body: LambdaTerm
    _kind = "abs"


@dataclass(eq=False, slots=True)
class App(LambdaTerm):
    fun: LambdaTerm
    arg: LambdaTerm
    _kind = "app"


def fold(t: Term, slot: str, leaf, app):
    """The value of t in its empty `slot`.  The application spine is walked
    in a loop down to the first node that is not an application or whose
    slot is filled; `leaf(node)` gives that node's value if it is not, and
    `app(node, v)` each application's from v, its function's.  Every value
    is stored but the hashes inside the spine (docs/DECISIONS.md D12)."""
    top, apps = t, []
    while t._kind == "app":
        apps.append(t)
        t = t.fun
        v = getattr(t, slot)
        if v is not None:
            break
    else:
        v = leaf(t)
        setattr(t, slot, v)
        if t is top:
            return v
    inner = slot != "_hash"
    for node in reversed(apps):
        v = app(node, v)
        if inner or node is top:
            setattr(node, slot, v)
    return v


def db_index(name: str, env: tuple):
    """De Bruijn identity of a variable: ("b", i) for the i-th enclosing
    binder, counting from the innermost, which `env` lists first; else
    ("f", name).  The closest binder wins."""
    return ("b", env.index(name)) if name in env else ("f", name)


def key(t: LambdaTerm, env=()):
    """Hashable de Bruijn encoding; alpha-equivalent terms share keys.

    `env` lists the enclosing binders, innermost first.  A subterm in which
    no name of `env` is free has its closed key, which each node computes
    once, from its children's."""
    return _encode(t, env, "_key", tuple)


def _encode(t: Term, env: tuple, slot, seal):
    """The key of t under `env` folded bottom-up through `seal`: with
    `tuple`, which returns a tuple as it is, the key; with `hash` a hash of
    the key built from the hashes of its parts.  A subterm in which no name of `env` is free has its
    closed value, cached in `slot` if there is one (docs/DECISIONS.md D12)."""
    if slot is None or env and not free_vars(t).isdisjoint(env):
        return _encode_open(t, env, slot, seal)
    v = getattr(t, slot)
    return fold(t, slot, *_CLOSED[slot]) if v is None else v


def _encode_open(t: Term, env: tuple, slot, seal):
    """The value of t under `env`, where some name of `env` is free in t or
    there is no slot.  The application spine is walked in a loop."""
    if t._kind == "var":
        return seal(db_index(t.name, env))
    if t._kind == "abs":
        return seal(("l", _encode(t.body, (t.binder,) + env, slot, seal)))
    apps = []
    while True:
        apps.append(t)
        t = t.fun
        if t._kind != "app" or slot and free_vars(t).isdisjoint(env):
            break
    v = _encode(t, env, slot, seal)
    for node in reversed(apps):
        if type(node) is App:
            part = _encode(node.arg, env, slot, seal)
        else:  # a bag's part is the sorted tuple of its items' values
            part = tuple(sorted([_encode(u, env, slot, seal) for u in node.bag]))
        v = seal(("a", v, part))
    return v


def _key_leaf(t):  # a leaf's closed value is its value at the empty environment
    return _encode_open(t, (), "_key", tuple)


def _key_app(node, k):  # resource keys are not cached
    a = node.arg
    return ("a", k, a._key or fold(a, "_key", _key_leaf, _key_app))


def _hash_leaf(t):
    return _encode_open(t, (), "_hash", hash)


def _hash_app(node, h):
    if type(node) is App:
        a = node.arg
        return hash(("a", h, a._hash or fold(a, "_hash", _hash_leaf, _hash_app)))
    part = []
    for u in node.bag:
        part.append(u._hash or fold(u, "_hash", _hash_leaf, _hash_app))
    part.sort()
    return hash(("a", h, tuple(part)))


# `fold`'s leaf and app for the closed values that `_encode` caches
_CLOSED = {"_key": (_key_leaf, _key_app), "_hash": (_hash_leaf, _hash_app)}


def _same_key(a, b) -> bool:
    """a == b for keys, also when they nest deeper than the recursion limit
    that tuple comparison observes."""
    try:
        return a == b
    except RecursionError:
        pairs = [(a, b)]
        while pairs:
            x, y = pairs.pop()
            if x is y:
                continue
            if type(x) is not tuple or type(y) is not tuple:
                if x != y:
                    return False
            elif len(x) != len(y):
                return False
            else:
                pairs.extend(zip(x, y))
        return True


def alpha_eq(a: LambdaTerm, b: LambdaTerm) -> bool:
    return a == b


_NAMES: dict = {}  # name -> frozenset({name}), shared by every variable


def free_vars(t: Term) -> frozenset:
    """The free names of t, computed once per node.  A node whose names are
    those of one child shares that child's set."""
    fv = t._fv
    return fold(t, "_fv", _names_leaf, _names_app) if fv is None else fv


def _names_leaf(t):
    if t._kind == "var":
        return _NAMES.get(t.name) or _NAMES.setdefault(t.name, frozenset((t.name,)))
    fv = free_vars(t.body)
    return fv - _NAMES[t.binder] if t.binder in fv else fv


def _names_app(node, fv):
    for u in (node.arg,) if type(node) is App else node.bag:
        a = u._fv
        if a is None:
            a = fold(u, "_fv", _names_leaf, _names_app)
        if not a <= fv:
            fv = a if fv <= a else fv | a
    return fv


def _fresh(base: str, avoid) -> str:
    cand = base
    n = 0
    while cand in avoid:
        cand = f"{base}{n}"
        n += 1
    return cand


def subst(t: LambdaTerm, name: str, repl: LambdaTerm) -> LambdaTerm:
    """Capture-avoiding substitution t[repl/name].  A subterm in which
    `name` is not free comes back as it is, so t and the result share it
    and its cached key."""
    if name not in free_vars(t):
        return t
    if isinstance(t, Var):
        return repl
    if isinstance(t, App):
        args = []
        while isinstance(t, App) and name in free_vars(t):
            args.append(subst(t.arg, name, repl))
            t = t.fun
        t = subst(t, name, repl)
        for a in reversed(args):
            t = App(t, a)
        return t
    fv = free_vars(repl)
    if t.binder in fv:
        nb = _fresh(t.binder, fv | free_vars(t.body) | {name})
        body = subst(t.body, t.binder, Var(nb))
        return Abs(nb, subst(body, name, repl))
    return Abs(t.binder, subst(t.body, name, repl))


# ---------------------------------------------------------------------------
# Parsing

IDENT = re.compile(r"[a-zA-Z][a-zA-Z0-9']*")


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


class _Parser:
    """Recursive-descent reader of the lambda grammar.  Subclasses reuse the
    tokenizer and `atom`, and read their own application syntax in `term`."""

    error_type = ParseError
    make_var, make_abs = Var, Abs

    def __init__(self, text: str, allow_bottom: bool = False):
        self.text = text
        self.pos = 0
        self.allow_bottom = allow_bottom

    def error(self, msg):
        raise self.error_type(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, s: str):
        self.skip_ws()
        if not self.text.startswith(s, self.pos):
            self.error(f"expected {s!r}")
        self.pos += len(s)

    def ident(self) -> str:
        self.skip_ws()
        m = IDENT.match(self.text, self.pos)
        if not m:
            self.error("expected identifier")
        self.pos = m.end()
        return m.group()

    def term(self) -> LambdaTerm:
        parts = [self.atom()]
        while True:
            c = self.peek()
            if c and (c == "(" or c == "\\" or c == "λ" or c.isalpha()
                      or (self.allow_bottom and self.text.startswith("_|_", self.pos))):
                parts.append(self.atom())
            else:
                break
        return spine((), parts[0], parts[1:])

    def atom(self) -> LambdaTerm:
        c = self.peek()
        if c == "(":
            self.eat("(")
            t = self.term()
            self.eat(")")
            return t
        if c == "\\" or c == "λ":
            self.pos += 1
            binder = self.ident()
            self.eat(".")
            return self.make_abs(binder, self.term())
        self.skip_ws()
        if self.text.startswith("_|_", self.pos):
            if not self.allow_bottom:
                self.error("'_|_' is reserved for partial terms")
            self.pos += 3
            return Var("_|_")
        return self.make_var(self.ident())

    def parse(self):
        try:
            t = self.term()
        except RecursionError:
            raise self.error_type("term nested too deeply", self.pos) from None
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return t


def parse(text: str, strict: bool = False) -> LambdaTerm:
    """Parse a lambda term.  With strict=True, free variables are rejected."""
    t = _Parser(text).parse()
    if strict:
        fv = free_vars(t)
        if fv:
            raise ParseError(f"unbound variables: {sorted(fv)}", 0)
    return t


def show(t: LambdaTerm) -> str:
    """Print t; binder chains and application spines are walked in loops."""
    prefix = []
    while isinstance(t, Abs):
        prefix.append(f"\\{t.binder}. ")
        t = t.body
    _, head, args = decompose(t)
    if isinstance(head, Var):
        parts = [head.name]
    else:
        parts = [f"({show(head)})"]
    parts.extend(a.name if isinstance(a, Var) else f"({show(a)})" for a in args)
    return "".join(prefix) + " ".join(parts)


_PRETTY = list(string.ascii_lowercase[23:] + string.ascii_lowercase[:23])


def canonical(t: LambdaTerm) -> LambdaTerm:
    """Alpha-canonical renaming: binders renamed to x,y,z,a,b,... skipping free names."""
    return _canonical(t, {}, set(free_vars(t)))


def _canonical(t: LambdaTerm, env: dict, avoid: set) -> LambdaTerm:
    if isinstance(t, Var):
        return Var(env.get(t.name, t.name))
    if isinstance(t, App):
        _, head, args = decompose(t)
        return spine((), _canonical(head, env, avoid),
                     [_canonical(a, env, avoid) for a in args])
    depth = len(env)
    base = _PRETTY[depth % len(_PRETTY)]
    nb = _fresh(base, avoid)
    return Abs(nb, _canonical(t.body, {**env, t.binder: nb}, avoid | {nb}))


# ---------------------------------------------------------------------------
# Head reduction and solvability

@dataclass(frozen=True)
class HeadForm:
    """lambda x1...xm. h a1...an with a variable head."""

    binders: tuple
    head: str
    args: tuple

    def to_term(self) -> LambdaTerm:
        return spine(self.binders, Var(self.head), self.args)


def spine(binders, head: LambdaTerm, args) -> LambdaTerm:
    """lambda binders. head args, the inverse of `decompose`."""
    for a in args:
        head = App(head, a)
    for b in reversed(binders):
        head = Abs(b, head)
    return head


def decompose(t: LambdaTerm):
    """Split t as (binders, head-part, args) with head-part not an App."""
    binders = []
    while isinstance(t, Abs):
        binders.append(t.binder)
        t = t.body
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return tuple(binders), t, tuple(args)


def head_form(t: LambdaTerm):
    """The HeadForm of t if t is head-normal, else None."""
    binders, h, args = decompose(t)
    if isinstance(h, Var):
        return HeadForm(binders, h.name, args)
    return None


def head_reduce_step(t: LambdaTerm):
    """Contract the head redex; returns the reduct, or None if head-normal."""
    binders, h, args = decompose(t)
    if isinstance(h, Var):
        return None
    assert isinstance(h, Abs) and args
    return _contract(binders, h, args)


def _contract(binders, h: Abs, args) -> LambdaTerm:
    """The reduct of lambda binders. h args for an abstraction h."""
    return spine(binders, subst(h.body, h.binder, args[0]), args[1:])


@dataclass(frozen=True)
class SolvabilityStatus:
    kind: str  # "solvable" | "divergent" | "unknown"
    steps: int = 0
    head: HeadForm | None = None
    certificate: tuple = field(default=())  # (first_index, repeat_index, term)

    @property
    def is_solvable(self):
        return self.kind == "solvable"

    @property
    def is_divergent(self):
        return self.kind == "divergent"

    @property
    def is_unknown(self):
        return self.kind == "unknown"


# Reducts of the steps before this one are not hashed unless the run gets
# here: most runs reach a head normal form sooner, and such a run has no
# repeat to find.
_DEFERRED = 8


def solvability(t: LambdaTerm, fuel: int) -> SolvabilityStatus:
    """Head-reduce up to `fuel` steps; certify divergence on an alpha-repeat.

    The reducts of the first `_DEFERRED` steps are hashed only once the run
    goes past them or reaches `fuel`, and then in step order, so the repeat
    found is still the first one (docs/DECISIONS.md D10)."""
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    seen = {}  # term -> step; a head normal term is never hashed
    held = []  # reducts not hashed yet, of the steps up to this one
    cur = t
    for step in range(fuel + 1):
        binders, h, args = decompose(cur)
        if isinstance(h, Var):
            return SolvabilityStatus("solvable", steps=step,
                                     head=HeadForm(binders, h.name, args))
        held.append(cur)
        if step >= _DEFERRED or step == fuel:
            for s, u in enumerate(held, step + 1 - len(held)):
                first = seen.setdefault(u, s)
                if first != s:
                    return SolvabilityStatus(
                        "divergent", steps=s,
                        certificate=(first, s, show(canonical(u))))
            held.clear()
        if step == fuel:
            break
        cur = _contract(binders, h, args)
    return SolvabilityStatus("unknown", steps=fuel)


def normalize(t: LambdaTerm, fuel: int = 1000):
    """Full beta-normal form by leftmost-outermost reduction, or None if fuel runs out."""
    cur = t
    for _ in range(fuel):
        nxt = _normal_step(cur)
        if nxt is None:
            return cur
        cur = nxt
    return None


def _normal_step(t: LambdaTerm):
    """The leftmost-outermost reduct of t, or None if t is normal.  Binder
    chains and application spines are walked in loops; only arguments
    nested in arguments recurse."""
    binders, h, args = decompose(t)
    if isinstance(h, Abs):
        return _contract(binders, h, args)
    for i, a in enumerate(args):
        r = _normal_step(a)
        if r is not None:
            return spine(binders, h, args[:i] + (r,) + args[i + 1:])
    return None
