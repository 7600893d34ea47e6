"""Lambda terms with named variables: parsing, printing, substitution,
head reduction and a fuelled solvability semi-decision with cycle certificates."""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Terms

def _cache():
    return field(default=None, init=False, repr=False, compare=False)


@dataclass(eq=False, slots=True)
class LambdaTerm:
    """A lambda term node.  Nodes are not changed after they are built,
    except to fill three caches, each at most once: the free names, the
    closed de Bruijn key and its hash (docs/DECISIONS.md D7)."""

    _fv: frozenset = _cache()
    _key: tuple = _cache()
    _hash: int = _cache()

    def __str__(self):
        return show(self)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, LambdaTerm) or hash(self) != hash(other):
            return False
        return _same_key(key(self), key(other))

    def __hash__(self):
        h = self._hash
        return _encode_closed(self, "_hash", hash) if h is None else h


@dataclass(eq=False, slots=True)
class Var(LambdaTerm):
    name: str


@dataclass(eq=False, slots=True)
class Abs(LambdaTerm):
    binder: str
    body: LambdaTerm


@dataclass(eq=False, slots=True)
class App(LambdaTerm):
    fun: LambdaTerm
    arg: LambdaTerm


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
    return _encode(t, env, "_key", _as_is)


def _as_is(k):
    return k


def _encode(t: LambdaTerm, env: tuple, slot: str, seal):
    """key(t, env) folded bottom-up through `seal`: with `_as_is` it is the
    key, with `hash` a hash of the key that is built from the hashes of its
    parts, so no deeply nested tuple is ever hashed.  Closed values are
    cached in `slot` (docs/DECISIONS.md D7)."""
    if env and not free_vars(t).isdisjoint(env):
        return _encode_open(t, env, slot, seal)
    v = getattr(t, slot)
    return _encode_closed(t, slot, seal) if v is None else v


def _encode_closed(t: LambdaTerm, slot: str, seal):
    """The closed value of a t whose value is not cached yet.  The
    application spine is walked in a loop, not recursively."""
    apps = []
    while isinstance(t, App):
        apps.append(t)
        t = t.fun
        if getattr(t, slot) is not None:
            break
    v = getattr(t, slot)
    if v is None:
        v = seal(("f", t.name) if isinstance(t, Var)
                 else ("l", _encode(t.body, (t.binder,), slot, seal)))
        setattr(t, slot, v)
    for node in reversed(apps):
        va = getattr(node.arg, slot)
        if va is None:
            va = _encode_closed(node.arg, slot, seal)
        v = seal(("a", v, va))
        setattr(node, slot, v)
    return v


def _encode_open(t: LambdaTerm, env: tuple, slot: str, seal):
    """The value of t under `env`, where some name of `env` is free in t."""
    if isinstance(t, Var):
        return seal(db_index(t.name, env))
    if isinstance(t, Abs):
        return seal(("l", _encode(t.body, (t.binder,) + env, slot, seal)))
    args = []
    while True:
        args.append(t.arg)
        t = t.fun
        if not isinstance(t, App) or free_vars(t).isdisjoint(env):
            break
    v = _encode(t, env, slot, seal)
    for a in reversed(args):
        v = seal(("a", v, _encode(a, env, slot, seal)))
    return v


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


def free_vars(t: LambdaTerm) -> frozenset:
    """The free names of t, computed once per node."""
    fv = t._fv
    if fv is not None:
        return fv
    apps = []
    while isinstance(t, App):
        apps.append(t)
        t = t.fun
        if t._fv is not None:
            break
    fv = t._fv
    if fv is None:
        if isinstance(t, Var):
            fv = frozenset((t.name,))
        else:
            fv = free_vars(t.body)
            if t.binder in fv:
                fv = fv - {t.binder}
        t._fv = fv
    for node in reversed(apps):
        a = free_vars(node.arg)
        if not a <= fv:
            fv = fv | a
        node._fv = fv
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
