"""Digit-set and dependency search engines.

max_digit_set finds large solution-free digit alphabets below a base:
exact branch-and-bound when the candidate range is small, or an anytime
pipeline under a node budget.  Every anytime phase is one greedy pass
(IncrementalSolutionIndex.greedy) over a candidate order: the ascending
range, two-level seeds built from coefficient-derived bases, and the rest
of the range on top of the best seed sets.  Over a small range, the
exact search files the value set of every solution in a table of its
largest value, closes each table upward (_TableIndex), and tests a
value by one lookup; otherwise it tests on one IncrementalSolutionIndex
as well.  The anytime phases' indexes share one ConflictMemory, which a
search grid may pass from base to base (SearchConfig.memory): the digits
found do not depend on it, only the nodes spent.  Everything is
deterministic: rerunning a search reproduces the same sets bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .certificates import Rate, tight_base
from .equations import Equation
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    ConflictMemory,
    IncrementalSolutionIndex,
    _Budget,
    _learn_range_pays,
    _mitm_solutions,
)

MODE_EXACT = "exact"
MODE_ANYTIME = "anytime"

EXACT_AUTO_LIMIT = 22          # candidate count below which anytime finishes exactly
SEED_EXTENSION_PHASES = 3      # extend only the most promising seed phases
REPORT_INTERVAL = 50_000       # nodes between progress events without a gain


@dataclass(frozen=True)
class Dependency:
    """Primitive integer relation i1*a + j1*b + k1*c = 0."""

    i1: int
    j1: int
    k1: int

    def __post_init__(self):
        if self.i1 == self.j1 == self.k1 == 0:
            raise ValueError("dependency must be nonzero")
        if math.gcd(math.gcd(abs(self.i1), abs(self.j1)), abs(self.k1)) != 1:
            raise ValueError("dependency must be primitive (gcd 1)")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.i1, self.j1, self.k1)

    @property
    def magnitude(self) -> int:
        return max(abs(self.i1), abs(self.j1), abs(self.k1))


@dataclass
class SearchConfig:
    """How max_digit_set searches.  memory, when given, is the
    ConflictMemory that every anytime phase's index shares; None gives
    each call a fresh one.  Sharing one across the bases of a grid keeps
    the answers and cuts the nodes, as a later base starts with what the
    earlier ones learned; the exact search keeps its own."""

    budget: int = DEFAULT_BUDGET
    mode: str = MODE_ANYTIME
    report: object = None          # callable(dict) for progress events
    memory: ConflictMemory | None = None

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.mode not in (MODE_EXACT, MODE_ANYTIME):
            raise ValueError(f"unknown search mode {self.mode!r}")


@dataclass
class SearchResult:
    digits: tuple[int, ...]            # largest set found (canonical witness)
    exhausted: bool
    nodes: int
    best_rate_digits: tuple[int, ...]  # prefix maximizing log|D|/log(s*max+1)
    phases: list = field(default_factory=list)


def tight_rate(eq: Equation, digits) -> Rate | None:
    """Rate of digits at their tight base; None for a degenerate alphabet."""
    if len(digits) < 2 or max(digits) < 1:
        return None
    return Rate(len(digits), tight_base(eq, digits))


class _Tracker:
    """Best-found bookkeeping shared by all search phases."""

    def __init__(self, eq, cfg):
        self.eq = eq
        self.cfg = cfg
        self.best: tuple[int, ...] = ()
        self.best_rate: Rate | None = None
        self.best_rate_digits: tuple[int, ...] = ()
        self._last_report = 0

    def offer(self, digits, nodes, phase):
        digits = tuple(digits)
        improved = len(digits) > len(self.best)
        if improved:
            self.best = digits
        rate = tight_rate(self.eq, digits)
        if rate is not None and (self.best_rate is None or rate > self.best_rate):
            self.best_rate = rate
            self.best_rate_digits = digits
        if improved or nodes - self._last_report >= REPORT_INTERVAL:
            self.heartbeat(nodes, phase, depth=len(digits))

    def heartbeat(self, nodes, phase, depth=0):
        if self.cfg.report is not None:
            self.cfg.report({"best_size": len(self.best), "nodes": nodes,
                             "depth": depth, "phase": phase})
        self._last_report = nodes


def _seed_bases(eq: Equation, cap: int) -> list[int]:
    """Deterministic two-level bases: coefficient magnitudes, their pairwise
    sums/differences, and a coarse power grid."""
    mags = sorted({abs(c) for c in eq.coeffs})
    combos = set(mags)
    for i, u in enumerate(mags):
        for v in mags[i:]:
            combos.add(u + v)
            if u != v:
                combos.add(abs(u - v))
    combos.update({8, 16, 32, 64, 128, 256})
    return sorted(b for b in combos if 4 <= b <= cap)


def _exact_branch_and_bound(eq, n, budget, tracker, distinct) -> bool:
    """Full include-first DFS over the candidates 0..n-1 in increasing order,
    on a stack whose entry i >= 0 enters candidate i and ~i leaves the include
    branch of i for its exclude branch; each branch costs one node.  Over
    at most EXACT_AUTO_LIMIT candidates, when _learn_range_pays, a test is
    one lookup in the range's closed solution tables (_TableIndex); else
    one IncrementalSolutionIndex tests legality, whose work grows with the
    values held, so that a budget cut still leaves the sets found.  Returns
    whether the whole tree was enumerated within budget, the search's
    _Budget."""
    best_here = 0
    stack = [0]
    try:
        if (n <= EXACT_AUTO_LIMIT
                and _learn_range_pays(eq, n, distinct, budget.limit)):
            index = _TableIndex(eq, n, distinct, budget)
        else:
            index = IncrementalSolutionIndex(eq, distinct=distinct,
                                             budget=budget)
        while stack:
            i = stack.pop()
            if i < 0:
                index.pop()
                i = ~i + 1
            size = len(index.values)
            if i == n:
                if size > best_here:
                    best_here = size
                    tracker.offer(sorted(index.values), budget.nodes, "exact")
            elif size + (n - i) > best_here:  # else it cannot beat the incumbent
                budget.spend()
                if index.legal(i):
                    index.add(i)
                    stack.append(~i)
                stack.append(i + 1)
    except BudgetExhausted:
        return False
    return True


class _TableIndex:
    """Legality over range(n) on closed solution tables, for values added
    in ascending order: a test is one lookup, and it spends nothing.

    tables[x] has bit h set iff the values of the mask h, all below x, and
    x hold a countable solution that uses x.  The value set of each
    solution over range(n) (_mitm_solutions, spending its nodes on
    budget) is filed under its largest value x as the bit of its other
    values.  Each table is then closed upward by x shift-ORs, the i-th
    setting bit h | 2**i wherever bit h is set and h lacks i: the
    superset-sum (zeta) transform of Bjorklund, Husfeldt, Kaski and
    Koivisto (STOC 2007).  The tables hold 2**n bits in all.
    """

    __slots__ = ("tables", "values", "held")

    def __init__(self, eq, n, distinct, budget):
        tables = [bytearray(1 << x >> 3 or 1) for x in range(n)]
        value_bit = [1 << v for v in range(n)]
        for solution in _mitm_solutions(eq, range(n), distinct, budget):
            e = 0
            for v in solution:
                e |= value_bit[v]
            x = e.bit_length() - 1
            h = e ^ 1 << x
            tables[x][h >> 3] |= 1 << (h & 7)
        # clear[i] has bit h set iff h lacks i, for h below 2**(n-1); an
        # AND with a smaller table's int reads only that table's bits
        size = len(tables[-1])
        clear = [int.from_bytes(
            bytes([(0x55, 0x33, 0x0F)[i]]) * size if i < 3 else
            (b"\xff" * (1 << i - 3) + bytes(1 << i - 3)) * (size >> i - 2),
            "little") for i in range(n - 1)]
        self.tables = []
        for x, table in enumerate(tables):
            bits = int.from_bytes(table, "little")
            for i in range(x):
                bits |= (bits & clear[i]) << (1 << i)
            self.tables.append(bits.to_bytes(len(table), "little"))
        self.values: list[int] = []
        self.held = 0       # the values, as bits

    def legal(self, x: int) -> bool:
        """Whether adding x, above every value held, keeps the set
        solution-free."""
        held = self.held
        return not self.tables[x][held >> 3] >> (held & 7) & 1

    def add(self, x: int) -> None:
        self.values.append(x)
        self.held |= 1 << x

    def pop(self) -> None:
        self.held ^= 1 << self.values.pop()


def max_digit_set(eq: Equation, L: int, cfg: SearchConfig | None = None,
                  distinct: bool = False) -> SearchResult:
    """Largest (or best-found) solution-free digit subset of {0..(L-1)//s}.

    Candidates stop at (L-1)//s so the no-carry condition holds by
    construction for base L.  Every index the search builds spends on one
    budget of cfg.budget nodes, and every anytime phase's index shares one
    ConflictMemory (cfg.memory, else a fresh one), so a phase rejects at
    once a value whose solution an earlier test found among the values it
    holds.  A cfg.memory of another equation or mode is a ValueError.
    """
    cfg = cfg or SearchConfig()
    s = eq.side_sum
    if L < 2:
        raise ValueError("base must be at least 2")
    memory = ConflictMemory() if cfg.memory is None else cfg.memory
    memory.claim(eq, distinct)
    cap = (L - 1) // s
    candidates = range(cap + 1)
    tracker = _Tracker(eq, cfg)
    budget = _Budget(cfg.budget)

    if cfg.mode == MODE_EXACT or cap + 1 <= EXACT_AUTO_LIMIT:
        exhausted = _exact_branch_and_bound(eq, cap + 1, budget, tracker,
                                            distinct)
        return SearchResult(tracker.best, exhausted, budget.nodes,
                            tracker.best_rate_digits,
                            phases=[("exact", len(tracker.best))])

    phases = []

    def run_phase(name, order, start=()):
        """One greedy pass over order in a fresh index holding start, a set
        known to be solution-free; its values, sorted."""
        index = IncrementalSolutionIndex(eq, distinct=distinct, budget=budget,
                                         memory=memory)
        try:
            for x in start:
                index.add(x)
            index.greedy(order, lambda: tracker.offer(
                sorted(index.values), budget.nodes, name))
        except BudgetExhausted:
            pass
        phases.append((name, len(index.values)))
        return sorted(index.values)

    # phase 1: plain ascending greedy
    greedy = run_phase("greedy", candidates)
    greedy_nodes = budget.nodes

    # phase 2: structured two-level seeds.  The greedy scan is ascending, so
    # its values below a base are the greedy inner alphabet for that base;
    # each base is also tried with the pure interval below the first value
    # greedy rejected (it keeps the row structure clean when the greedy
    # inner alphabet is irregular).  Seeds run only after a complete greedy
    # phase: an exhausted one leaves no budget.
    accepted = set(greedy)
    first_rejected = next((x for x in candidates if x not in accepted), cap + 1)
    seed_results = []
    for base in _seed_bases(eq, cap):
        if budget.nodes >= budget.limit:
            break
        inner = [x for x in greedy if x < base]
        inners = [("seed", inner)]
        prefix = list(range(min(first_rejected, base)))
        if prefix and prefix != inner:
            inners.append(("pseed", prefix))
        for label, alphabet in inners:
            # the seeds a + base*b come out ascending, as a < base; they are
            # the whole range, and the phase would replay the greedy phase
            # bit for bit, when the alphabet holds every a < base
            if (len(alphabet) == base
                    and budget.nodes + greedy_nodes <= budget.limit):
                filtered = greedy
                phases.append((f"{label}[{base}]", len(greedy)))
            else:
                seeds = (a + base * b for b in range(cap // base + 1)
                         for a in alphabet if a + base * b <= cap)
                filtered = run_phase(f"{label}[{base}]", seeds)
            seed_results.append((len(filtered), -base, filtered))

    # phase 3: greedy extension of the most promising seeds.  A seed phase's
    # set is solution-free, so it is added without legality tests; every
    # prefix of it was already offered by its seed phase.
    seed_results.sort(reverse=True)
    for _, negbase, filtered in seed_results[:SEED_EXTENSION_PHASES]:
        if budget.nodes >= budget.limit:
            break
        kept = set(filtered)
        run_phase(f"extend[{-negbase}]",
                  (x for x in candidates if x not in kept), filtered)

    return SearchResult(tracker.best, False, budget.nodes,
                        tracker.best_rate_digits, phases=phases)


@dataclass
class GreedyResult:
    values: list[int]
    complete: bool
    nodes: int


def greedy_set(eq: Equation, N: int, budget: int = DEFAULT_BUDGET,
               distinct: bool = False) -> GreedyResult:
    """Scan 1..N, keeping x whenever the set stays solution-free."""
    if N < 1:
        raise ValueError("N must be positive")
    index = IncrementalSolutionIndex(eq, distinct=distinct, budget=budget)
    complete = True
    try:
        index.greedy(range(1, N + 1))
    except BudgetExhausted:
        complete = False
    return GreedyResult(sorted(index.values), complete, index.nodes)


def small_dependency_search(a: int, b: int, c: int, M: int) -> Dependency | None:
    """Smallest primitive triple (i,j,k) with i*a + j*b + k*c = 0.

    Smallest means lowest max-magnitude, then first in the scan order
    (i ascending from 0, j ascending); the leading nonzero entry is positive.
    None when every such triple has a magnitude above M.

    The triples form a lattice of rank 2.  Let (u, v) be a reduced basis of
    it: |u| <= |v| and 2|u.v| <= |u|^2, in Euclidean norm.  Then
    |x*u + y*v|^2 >= 3/4 * max(|x|, |y|)^2 * |u|^2, while a triple of
    max-magnitude at most that of u has |w|^2 <= 3 * |u|^2.  So every
    smallest triple is x*u + y*v with |x|, |y| <= 2, and a smallest triple
    is primitive, since the lattice holds w / gcd(w).
    """
    if min(a, b, c) < 1:
        raise ValueError("coefficients must be positive")
    if M < 1:
        raise ValueError("magnitude bound must be positive")
    u, v = _reduced_basis(*_relation_basis(a, b, c))
    found = []
    for x in range(-2, 3):
        for y in range(-2, 3):
            w = tuple(x * p + y * q for p, q in zip(u, v))
            if w[0] > 0 or (w[0] == 0 and w[1] > 0):
                found.append((max(map(abs, w)), w))
    level, w = min(found)
    return Dependency(*w) if level <= M else None


def _relation_basis(a, b, c):
    """A basis of the triples (i, j, k) with i*a + j*b + k*c = 0: (0,
    c/g, -b/g) for g = gcd(b, c), and one with the least positive i, a
    multiple i0 of g / gcd(a, g), whose (j, k) solve j*b + k*c = -i0*a."""
    g = math.gcd(b, c)
    i0 = g // math.gcd(a, g)
    j = -i0 * a // g * pow(b // g, -1, c // g)
    return (0, c // g, -b // g), (i0, j, (-i0 * a - j * b) // c)


def _reduced_basis(u, v):
    """Lagrange-reduce the basis (u, v): |u| <= |v| and 2|u.v| <= |u|^2."""
    def dot(p, q):
        return sum(x * y for x, y in zip(p, q))

    while True:
        if dot(v, v) < dot(u, u):
            u, v = v, u
        uu = dot(u, u)
        q = (2 * dot(u, v) + uu) // (2 * uu)     # nearest integer to u.v/u.u
        if q == 0:
            return u, v
        v = tuple(y - q * x for x, y in zip(u, v))
