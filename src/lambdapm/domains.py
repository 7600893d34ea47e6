"""Finite bounded-complete posets, monotone function spaces, step functions,
product/applicative metrics, the quantification decision procedure, and the
finite approximation tower with its level metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import product
from operator import getitem, itemgetter

from .distance import DistanceValue, bracket, dyadic, exact
from .limits import CapExceeded, within_cap  # CapExceeded: raised by function_space
from .pmetric import PartialMetricSpace


@dataclass(frozen=True)
class FinitePoset:
    """Explicit finite order: reflexive, antisymmetric, transitive, with a
    least element; bounded-completeness is checked on construction.

    `up[i]` is the up-set of i as a bitmask (bit j set iff i <= j), derived
    from `leq` once; it is neither compared nor serialized."""

    leq: tuple  # tuple of tuples of bool
    bottom: int
    labels: tuple = None
    up: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        leq, n = self.leq, len(self.leq)
        if any(len(row) != n for row in leq):
            raise ValueError("leq must be square")
        up = tuple(sum(1 << j for j, v in enumerate(row) if v) for row in leq)
        object.__setattr__(self, "up", up)
        for i in range(n):
            if not leq[i][i]:
                raise ValueError("not reflexive")
        for i in range(n):
            for j in range(n):
                if i != j and leq[i][j] and leq[j][i]:
                    raise ValueError("not antisymmetric")
                if leq[i][j] and up[j] & ~up[i]:
                    raise ValueError("not transitive")
        if not 0 <= self.bottom < n:
            raise ValueError(f"bottom {self.bottom} is not an element index")
        if up[self.bottom] != (1 << n) - 1:
            raise ValueError("bottom is not least")
        # the upper bounds of i and j form an up-set, so they have a least
        # element iff they are the up-set of some element
        ups = set(up)
        for i in range(n):
            for j in range(i + 1, n):
                ubs = up[i] & up[j]
                if ubs and ubs not in ups:
                    raise ValueError("not bounded complete")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels must align with carrier")

    @property
    def size(self) -> int:
        return len(self.leq)

    def elements(self):
        return range(self.size)

    def le(self, i: int, j: int) -> bool:
        return self.leq[i][j]

    def to_json(self) -> dict:
        return {"elements": list(self.labels or range(self.size)),
                "leq": [[bool(v) for v in row] for row in self.leq],
                "bottom": self.bottom}

    @classmethod
    def from_json(cls, data) -> "FinitePoset":
        for k, kind in (("elements", list), ("leq", list), ("bottom", int)):
            if not isinstance(data, dict) or not isinstance(data.get(k), kind):
                raise ValueError(f"poset JSON needs {k!r} of type {kind.__name__}")
        if not all(isinstance(row, list) for row in data["leq"]):
            raise ValueError("poset JSON needs 'leq' as a list of lists")
        return cls(tuple(tuple(bool(v) for v in row) for row in data["leq"]),
                   data["bottom"], tuple(str(e) for e in data["elements"]))


def chain(n: int) -> FinitePoset:
    return FinitePoset(tuple(tuple(i <= j for j in range(n)) for i in range(n)), 0)


def sierpinski() -> FinitePoset:
    return chain(2)


def flat(n: int) -> FinitePoset:
    """Bottom plus n pairwise-incomparable elements."""
    size = n + 1
    leq = tuple(tuple(i == j or i == 0 for j in range(size)) for i in range(size))
    return FinitePoset(leq, 0)


def way_below(p: FinitePoset, x: int, y: int) -> bool:
    """On a finite poset every element is compact, so way-below is the order."""
    return p.le(x, y)


# ---------------------------------------------------------------------------
# Monotone maps and function spaces

@dataclass(frozen=True)
class MonotoneMap:
    domain: FinitePoset
    codomain: FinitePoset
    table: tuple

    def __post_init__(self):
        d, c = self.domain, self.codomain
        for i in range(d.size):
            for j in range(d.size):
                if d.le(i, j) and not c.le(self.table[i], self.table[j]):
                    raise ValueError("map is not monotone")

    def __call__(self, x: int) -> int:
        return self.table[x]


def monotone_tables(x: FinitePoset, y: FinitePoset):
    """All monotone tables, enumerated output-sensitively up to LAMBDA_PM_CAP."""
    return within_cap(iter_monotone_tables(x, y), "function space exceeds cap {cap}")


def function_space(x: FinitePoset, y: FinitePoset):
    """The poset of all monotone maps under the pointwise order.

    Returns (poset, maps); maps[i] is the MonotoneMap at carrier index i.
    """
    tables = monotone_tables(x, y)
    tables.sort()
    # bit k of above[i][a] is set iff a <= tables[k][i], so the AND of a
    # table's masks over its positions is its row of the pointwise order
    at = [[0] * y.size for _ in range(x.size)]
    for k, t in enumerate(tables):
        for i, v in enumerate(t):
            at[i][v] |= 1 << k
    above = [[sum(col[v] for v in range(y.size) if y.up[a] >> v & 1)
              for a in range(y.size)] for col in at]
    leq = []
    for t in tables:
        row = (1 << len(tables)) - 1
        for i, a in enumerate(t):
            row &= above[i][a]
        leq.append(tuple(map("1".__eq__, format(row, f"0{len(tables)}b")[::-1])))
    bottom = tables.index(tuple(y.bottom for _ in range(x.size)))
    poset = FinitePoset(tuple(leq), bottom)
    maps = [MonotoneMap(x, y, t) for t in tables]
    return poset, maps


def step_function(x: FinitePoset, y: FinitePoset, a: int, b: int) -> MonotoneMap:
    """Returns b above a and bottom elsewhere."""
    return MonotoneMap(x, y, tuple(b if x.le(a, v) else y.bottom
                                   for v in range(x.size)))


# ---------------------------------------------------------------------------
# Compositional metrics

def product_metric(p_x, p_y, pair1, pair2) -> DistanceValue:
    """Half the sum of the component distances."""
    return exact(Fraction(p_x(pair1[0], pair2[0]) + p_y(pair1[1], pair2[1]), 2))


def applicative_metric(p_y, basis, theta, f, g) -> DistanceValue:
    """Sum of theta**n * p_Y(f(a_n), g(a_n)) over the (finite) basis, n from 1."""
    if type(theta) is not Fraction:
        theta = Fraction(theta)
    if not (0 < theta <= dyadic(1)):
        raise ValueError("theta must be in (0, 1/2]")
    total = Fraction(0)
    for n, a in enumerate(basis, start=1):
        total += theta ** n * p_y(f(a), g(a))
    return exact(total)


def finite_access_bound(theta, epsilon) -> int:
    """Smallest N with the geometric tail beyond N strictly below epsilon/2."""
    theta, epsilon = Fraction(theta), Fraction(epsilon)
    if not (0 < theta <= Fraction(1, 2)):
        raise ValueError("theta must be in (0, 1/2]")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n = 0
    while theta ** (n + 1) / (1 - theta) >= epsilon / 2:
        n += 1
    return n


def quantification_decision(p: FinitePoset, space: PartialMetricSpace) -> dict:
    """Does the metric topology equal the Scott topology (= up-sets)?

    (a) every open ball is an up-set; (b) every principal up-set contains a
    ball around each of its points.  Returns a verdict with witnesses.
    """
    pts = list(space.carrier)
    idx = {pt: i for i, pt in enumerate(pts)}
    if len(pts) != p.size or len(idx) != p.size:
        raise ValueError("carrier and poset must align: one distinct point per element")
    failures_a, failures_b = [], []
    # to[c][i] = d(pts[i], pts[c]), each read once, in the order that
    # keeps the memo of a distance that is not symmetric (D26 point 4)
    to = []

    for c, center in enumerate(pts):
        row = [space.d(z, center) for z in pts]
        to.append(row)
        cself = row[c]
        radii = sorted({v - cself for v in row if v > cself})
        for eps in [q for r in radii + [Fraction(1)] for q in (r, r + Fraction(1, 2))]:
            bound = cself + eps
            ball = {z for z, v in zip(pts, row) if v < bound}
            outside = ~sum(1 << idx[z] for z in ball)
            for z in ball:  # only a ball that is not an up-set has witnesses
                if p.up[idx[z]] & outside:
                    for w in pts:
                        if p.le(idx[z], idx[w]) and w not in ball:
                            failures_a.append({"center": str(center), "eps": str(eps),
                                               "in": str(z), "above": str(w)})

    for x, above in zip(pts, p.leq):
        for c, (y, row) in enumerate(zip(pts, to)):
            if not above[c]:
                continue
            # B_eps(y) lies inside the up-set of x for some eps iff every z
            # outside it has d(z, y) > d(y, y)
            outside = [v for v, up in zip(row, above) if not up]
            if outside and min(outside) <= row[c]:
                failures_b.append({"upset_of": str(x), "point": str(y)})

    return {"pass": not failures_a and not failures_b,
            "balls_not_upper": failures_a,
            "upsets_not_open": failures_b}


# ---------------------------------------------------------------------------
# The approximation tower

@dataclass
class TowerLevel:
    poset: FinitePoset
    maps: list = None            # MonotoneMap views when n > 0
    metric: object = None        # callable (i, j) -> Fraction
    inj: object = None           # i_n : D_n -> D_{n+1}, as an index table
    proj: object = None          # j_n : D_{n+1} -> D_n, as an index table
    index: dict = None           # table -> carrier index, when n > 0


@dataclass
class Tower:
    levels: list

    def level(self, n: int) -> TowerLevel:
        return self.levels[n]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def inject(self, n: int, x: int) -> int:
        """i_n applied to an element index of D_n."""
        return self.levels[n].inj[x]

    def project(self, n: int, x: int) -> int:
        """j_n applied to an element index of D_{n+1}."""
        return self.levels[n].proj[x]

    def inject_to(self, m: int, n: int, x: int) -> int:
        """i_{mn} composite for m <= n."""
        for k in range(m, n):
            x = self.inject(k, x)
        return x

    def project_to(self, n: int, m: int, x: int) -> int:
        """j_{nm} composite for m <= n."""
        for k in range(n - 1, m - 1, -1):
            x = self.project(k, x)
        return x

    def metric(self, n: int):
        return self.levels[n].metric

    def apply(self, n: int, f: int, x: int) -> int:
        """Apply an element of D_{n+1} = C(D_n, D_n) to an element of D_n."""
        return self.levels[n + 1].maps[f](x)


def build_tower(d0: FinitePoset, p0, depth: int) -> Tower:
    """D_0 .. D_depth with injection/projection pairs and level metrics.

    p0 maps a pair of D_0 indices to a Fraction bounded by 1.  Level metrics
    follow the applicative scheme with weights 1/2**i over the element
    enumeration of the previous level.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    levels = [TowerLevel(d0, metric=cache(p0))]
    for n in range(depth):
        prev = levels[n]
        poset, maps = function_space(prev.poset, prev.poset)
        levels.append(TowerLevel(poset, maps=maps,
                                 metric=_level_metric(prev.metric, maps),
                                 index={m.table: i for i, m in enumerate(maps)}))
        prev.inj = tuple(levels[n + 1].index[_inject_table(levels, n, f)]
                         for f in range(prev.poset.size))
        prev.proj = tuple(_project_table(levels, n, m.table) for m in maps)
    return Tower(levels)


def _inject_table(levels, n: int, f: int) -> tuple:
    """i_n(f) for f an index of D_n, as a table over D_n:
    i_0(x) = const x, i_n(f) = i_{n-1} . f . j_{n-1}."""
    if n == 0:
        return (f,) * levels[0].poset.size
    below = levels[n - 1]
    return tuple(map(below.inj.__getitem__,
                     map(levels[n].maps[f].table.__getitem__, below.proj)))


def _project_table(levels, n: int, table: tuple) -> int:
    """j_n of a table over D_n, as an index of D_n:
    j_0(f) = f(bottom), j_n(g) = j_{n-1} . g . i_{n-1}.  Raises KeyError
    when the result is not a table of D_n."""
    if n == 0:
        return table[levels[0].poset.bottom]
    below = levels[n - 1]
    return levels[n].index[tuple(map(below.proj.__getitem__,
                                     map(table.__getitem__, below.inj)))]


def _table_metric(inner, t1: tuple, t2: tuple) -> Fraction:
    """Sum over i of 2**-(i+1) * inner(t1[i], t2[i])."""
    total = Fraction(0)
    for i, (a, b) in enumerate(zip(t1, t2)):
        total += dyadic(i + 1) * inner(a, b)
    return total


def _level_metric(inner, maps):
    return cache(lambda f, g: _table_metric(inner, maps[f].table, maps[g].table))


@dataclass(frozen=True)
class TowerProfile:
    """Levels x_0..x_K with x_n = j_n(x_{n+1})."""

    levels: tuple

    @classmethod
    def from_top(cls, tower: Tower, top: int) -> "TowerProfile":
        size = tower.level(tower.depth).poset.size
        if not 0 <= top < size:
            raise ValueError(f"top-level index {top} is not in 0..{size - 1}")
        xs = [top]
        for n in range(tower.depth - 1, -1, -1):
            xs.append(tower.project(n, xs[-1]))
        return cls(tuple(reversed(xs)))

    def validate(self, tower: Tower):
        for n in range(len(self.levels) - 1):
            if tower.project(n, self.levels[n + 1]) != self.levels[n]:
                raise ValueError(f"profile violates j_{n} coherence")


def p_infinity_prefix(tower: Tower, a: TowerProfile, b: TowerProfile) -> DistanceValue:
    """Prefix of the level-weighted sum with a 2**-K tail bound."""
    a.validate(tower)
    b.validate(tower)
    K = tower.depth
    total = Fraction(0)
    for n in range(1, K + 1):
        total += dyadic(n) * tower.metric(n)(a.levels[n], b.levels[n])
    return bracket(total, total + dyadic(K))


# ---------------------------------------------------------------------------
# Lazy handling of one level above a built tower, for bases whose next
# function space is enumerable but too large to materialize as a poset

def iter_monotone_tables(x: FinitePoset, y: FinitePoset, rng=None):
    """Yield monotone tables without collecting them, by DFS over the
    elements of x in order of down-set size, so that each comes after the
    elements below it.  A value is allowed iff it lies in the up-set of the
    value of every element below.  With `rng`, each element's candidate
    values are tried in shuffled order, shuffled on entering its node.

    The DFS keeps an explicit stack: `stack[k]` iterates the allowed values
    of `order[k]` on the current path."""
    n, up = x.size, y.up
    order = sorted(range(n), key=lambda i: sum(row[i] for row in x.leq))
    below = [[j for j in range(n) if j != e and x.leq[j][e]] for e in range(n)]
    values, everything = range(y.size), (1 << y.size) - 1
    members = {}  # mask -> its values in ascending order
    table = [None] * n
    stack = []
    while True:
        k = len(stack)
        e = order[k]
        allowed = everything
        for j in below[e]:
            allowed &= up[table[j]]
        if rng is None:
            vals = members.get(allowed)
            if vals is None:
                vals = members[allowed] = [v for v in values if allowed >> v & 1]
        else:
            vals = list(values)
            rng.shuffle(vals)
            vals = [v for v in vals if allowed >> v & 1]
        if k + 1 < n:
            stack.append(iter(vals))
        else:
            for v in vals:
                table[e] = v
                yield tuple(table)
        # advance to the next node: the next value at the deepest level
        # that has one left
        while stack:
            v = next(stack[-1], None)
            if v is not None:
                break
            stack.pop()
        if not stack:
            return
        table[order[len(stack) - 1]] = v


class LazyTop:
    """The level D_{K+1} above a built tower, with elements handled as raw
    monotone tables instead of poset indices."""

    def __init__(self, tower: Tower):
        self.tower = tower
        self.n = tower.depth  # tables act on D_n
        self.poset = tower.level(self.n).poset
        self._injected = {}  # f -> i_n(f); at most |D_n| tables
        self._rows = {}      # i_n(f) -> (position, leq row) where it is not bottom
        # j_n reads a table only at these positions, so their values key
        # its result (docs/DECISIONS.md D16)
        self._reads = ((self.poset.bottom,) if self.n == 0
                       else tower.level(self.n - 1).inj)
        self._read_values = itemgetter(*self._reads)
        self._projected = {}  # read values -> j_n; never an error

    def le(self, t1: tuple, t2: tuple) -> bool:
        """The pointwise order.  On a table that `inject_from_below` made,
        t2 is read only where t1 is not bottom (docs/DECISIONS.md D26)."""
        rows = self._rows.get(t1)
        if rows is None:
            return all(map(getitem, map(self.poset.leq.__getitem__, t1), t2))
        for x, row in rows:
            if not row[t2[x]]:
                return False
        return True

    def inject_from_below(self, f: int) -> tuple:
        """i_n(f) for f an index of D_n, as a table over D_n."""
        table = self._injected.get(f)
        if table is None:
            table = self._injected[f] = _inject_table(self.tower.levels, self.n, f)
            leq, bottom = self.poset.leq, self.poset.bottom
            self._rows[table] = tuple((x, leq[v]) for x, v in enumerate(table)
                                      if v != bottom)
        return table

    def project(self, table: tuple) -> int:
        """j_n of a table, as an index of D_n."""
        read = self._read_values(table)
        x = self._projected.get(read)
        if x is None:
            try:
                x = _project_table(self.tower.levels, self.n, table)
            except KeyError:
                raise ValueError("projection left the function space") from None
            self._projected[read] = x
        return x

    def completions(self):
        """The least monotone table with given values at the positions that
        `project` reads, for each choice of those values that some table
        has: i_n . j_n <= id holds on every table iff it holds on these
        (docs/DECISIONS.md D6)."""
        p = self.poset
        reads = self._reads
        lub = {mask: i for i, mask in enumerate(p.up)}  # D5: lub = up-set owner
        sub = FinitePoset(tuple(tuple(p.leq[a][b] for b in reads) for a in reads),
                          reads.index(p.bottom))
        for vals in iter_monotone_tables(sub, p):
            table = []
            for x in p.elements():
                mask = (1 << p.size) - 1
                for q, v in zip(reads, vals):
                    if p.leq[q][x]:
                        mask &= p.up[v]
                table.append(lub.get(mask))
            if None not in table:
                yield tuple(table)

    def metric(self, t1: tuple, t2: tuple) -> Fraction:
        return _table_metric(self.tower.metric(self.n), t1, t2)

    def tables(self):
        return iter_monotone_tables(self.poset, self.poset)

    def random_table(self, rng) -> tuple:
        """A random monotone table via randomized DFS."""
        return next(iter_monotone_tables(self.poset, self.poset, rng))


def eval_on_basis(tower: Tower, i: int, x: int, ks: tuple) -> int:
    """Apply x in D_i to basis elements a^{i-1}_{k_{i-1}}, ..., a^0_{k_0}.

    Basis elements are the full carriers in index order; returns a D_0 index.
    """
    cur = x
    for lvl, k in zip(range(i - 1, -1, -1), ks):
        cur = tower.apply(lvl, cur, k)
    return cur


def finitary_closeness_check(tower: Tower, a: TowerProfile, b: TowerProfile,
                             n: int) -> dict:
    """The finitary criterion: leaf closeness below 2**-(n+1) at all sampled
    indices forces the prefix below 2**-n."""
    N = finite_access_bound(Fraction(1, 2), dyadic(n))
    premise = all(
        tower.metric(0)(eval_on_basis(tower, i, a.levels[i], ks),
                        eval_on_basis(tower, i, b.levels[i], ks)) < dyadic(n + 1)
        for i in range(1, min(tower.depth, N) + 1)
        for ks in product(*[range(min(tower.level(l).poset.size, N))
                            for l in range(i - 1, -1, -1)]))
    prefix = p_infinity_prefix(tower, a, b).lower
    return {"premise": premise, "prefix": prefix,
            "holds": (not premise) or prefix < dyadic(n)}
