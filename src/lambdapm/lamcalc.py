"""Lambda terms with named variables: parsing, printing, substitution,
head reduction and a fuelled solvability semi-decision with cycle certificates."""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Terms

class LambdaTerm:
    __slots__ = ()

    def __str__(self):
        return show(self)

    def __eq__(self, other):
        return isinstance(other, LambdaTerm) and key(self) == key(other)

    def __hash__(self):
        return hash(key(self))


@dataclass(frozen=True, eq=False)
class Var(LambdaTerm):
    name: str


@dataclass(frozen=True, eq=False)
class Abs(LambdaTerm):
    binder: str
    body: LambdaTerm


@dataclass(frozen=True, eq=False)
class App(LambdaTerm):
    fun: LambdaTerm
    arg: LambdaTerm


def db_index(name: str, env: tuple):
    """De Bruijn identity of a variable: ("b", i) for the i-th enclosing
    binder, counting from the innermost, which `env` lists first; else
    ("f", name).  The closest binder wins."""
    return ("b", env.index(name)) if name in env else ("f", name)


def key(t: LambdaTerm, env=()):
    """Hashable de Bruijn encoding; alpha-equivalent terms share keys."""
    if isinstance(t, Var):
        return db_index(t.name, env)
    if isinstance(t, Abs):
        return ("l", key(t.body, (t.binder,) + env))
    return ("a", key(t.fun, env), key(t.arg, env))


def alpha_eq(a: LambdaTerm, b: LambdaTerm) -> bool:
    return key(a) == key(b)


def free_vars(t: LambdaTerm, bound=frozenset()) -> frozenset:
    if isinstance(t, Var):
        return frozenset() if t.name in bound else frozenset([t.name])
    if isinstance(t, Abs):
        return free_vars(t.body, bound | {t.binder})
    return free_vars(t.fun, bound) | free_vars(t.arg, bound)


def _fresh(base: str, avoid) -> str:
    cand = base
    n = 0
    while cand in avoid:
        cand = f"{base}{n}"
        n += 1
    return cand


def subst(t: LambdaTerm, name: str, repl: LambdaTerm) -> LambdaTerm:
    """Capture-avoiding substitution t[repl/name]."""
    if isinstance(t, Var):
        return repl if t.name == name else t
    if isinstance(t, App):
        return App(subst(t.fun, name, repl), subst(t.arg, name, repl))
    if t.binder == name:
        return t
    if t.binder in free_vars(repl) and name in free_vars(t.body):
        nb = _fresh(t.binder, free_vars(repl) | free_vars(t.body) | {name})
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
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Abs):
        return f"\\{t.binder}. {show(t.body)}"
    f = show(t.fun)
    if isinstance(t.fun, Abs):
        f = f"({f})"
    a = show(t.arg)
    if not isinstance(t.arg, Var):
        a = f"({a})"
    return f"{f} {a}"


_PRETTY = list(string.ascii_lowercase[23:] + string.ascii_lowercase[:23])


def canonical(t: LambdaTerm, env=None, avoid=None) -> LambdaTerm:
    """Alpha-canonical renaming: binders renamed to x,y,z,a,b,... skipping free names."""
    if avoid is None:
        avoid = set(free_vars(t))
    if env is None:
        env = {}
    if isinstance(t, Var):
        return Var(env.get(t.name, t.name))
    if isinstance(t, App):
        return App(canonical(t.fun, env, avoid), canonical(t.arg, env, avoid))
    depth = len(env)
    base = _PRETTY[depth % len(_PRETTY)]
    nb = _fresh(base, avoid)
    return Abs(nb, canonical(t.body, {**env, t.binder: nb}, avoid | {nb}))


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


def solvability(t: LambdaTerm, fuel: int) -> SolvabilityStatus:
    """Head-reduce up to `fuel` steps; certify divergence on an alpha-repeat."""
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    seen = {key(t): 0}
    cur = t
    for step in range(fuel + 1):
        hf = head_form(cur)
        if hf is not None:
            return SolvabilityStatus("solvable", steps=step, head=hf)
        if step == fuel:
            break
        cur = head_reduce_step(cur)
        k = key(cur)
        if k in seen:
            return SolvabilityStatus(
                "divergent", steps=step + 1,
                certificate=(seen[k], step + 1, show(canonical(cur))))
        seen[k] = step + 1
    return SolvabilityStatus("unknown", steps=fuel)


def normalize(t: LambdaTerm, fuel: int = 1000):
    """Full beta-normal form by leftmost-outermost reduction, or None if fuel runs out."""
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
