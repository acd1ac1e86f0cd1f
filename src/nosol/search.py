"""Digit-set and dependency search engines.

max_digit_set finds large solution-free digit alphabets below a base:
exact branch-and-bound when the candidate range is small, or an anytime
pipeline under a node budget.  Every anytime phase is one greedy pass
(IncrementalSolutionIndex.greedy) over a candidate order: the ascending
range, two-level seeds built from coefficient-derived bases, and the rest
of the range on top of the best seed sets.  A seed phase starts from a
copy of an index holding its alphabet, a prefix of the ascending phase's
set.  Over a small range, the exact search files the value set of every
countable solution that the oracle's one meet-in-the-middle kernel
(_mitm_pairs) yields in a table of its largest value, closes each table
upward (_TableIndex), and tests a value by one lookup; where they do not
pay (more expected solutions than its mode's cap allows), or their
listing runs out of its trial budget, it tests on an
IncrementalSolutionIndex, branching on its copies.  The anytime phases'
indexes share one ConflictMemory, which a search grid may pass from base
to base (SearchConfig.memory): the digits found do not depend on it, only
the nodes spent.  Everything is deterministic: rerunning a search reproduces
the same sets bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .certificates import Rate, tight_base
from .equations import Equation
from .oracle import (
    DEFAULT_BUDGET,
    MITM_TABLE_CAP,
    BudgetExhausted,
    ConflictMemory,
    IncrementalSolutionIndex,
    _Budget,
    _mirrored,
    _mitm_pairs,
    _sides,
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
    # the first set of the highest tight_rate among those the search met:
    # every set an anytime phase held after a gain; in exact mode every
    # improving leaf, offered before its proper prefixes, longest first
    best_rate_digits: tuple[int, ...]
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
    on a stack of (index, i) entries, each entering candidate i with the
    values of index; each entry it expands costs one node.  A legal i
    branches: a copy of the index, taken before i is added, enters i + 1
    on the exclude branch once the include branch is done (copying, not
    undoing: Schulte, ICLP 1999).  Where the range's closed solution
    tables pay (_TableIndex.trial), a test is one lookup in them; else an
    IncrementalSolutionIndex tests legality, whose work grows with the
    values held, so that a budget cut still leaves the sets found.  An
    improving leaf is offered, and then its proper prefixes, longest
    first, which are solution-free too, for the best rate.  Returns
    whether the whole tree was enumerated within budget, the search's
    _Budget."""
    best_here = 0
    try:
        index = (_TableIndex.trial(eq, n, distinct, budget)
                 or IncrementalSolutionIndex(eq, distinct=distinct,
                                             budget=budget))
        stack = [(index, 0)]
        while stack:
            index, i = stack.pop()
            size = len(index.values)
            if i == n:
                if size > best_here:
                    best_here = size
                    leaf = sorted(index.values)
                    for end in range(size, 0, -1):
                        tracker.offer(leaf[:end], budget.nodes, "exact")
            elif size + (n - i) > best_here:  # else it cannot beat the incumbent
                budget.spend()
                if index.legal(i):
                    # the copy is taken after legal, so add stores what
                    # legal kept
                    stack.append((index.copy(), i + 1))
                    index.add(i)
                stack.append((index, i + 1))
    except BudgetExhausted:
        return False
    return True


# expected solutions over its range past which an all-mode exact search's
# closed tables may cost more than the legality index's; distinct mode
# refuses only past MITM_TABLE_CAP.  All-mode exact searches with the
# tables forced off and on (medians of 3 in one process, index -> tables):
# sym(43,69,70) at 17 candidates (about 8,300 expected) 92 -> 7.5 ms and
# sym(1,2,3) at 9 (about 10,800) 2.0 -> 2.8 ms; past the cap, at 17
# candidates (about 41,000 to 63,000), sym(5,11,21) 51 -> 24 ms,
# sym(2,8,18) 18 -> 28 ms and sym(1,5,18) 15 -> 15 ms; and sym(1,2,3,4)
# at 9 (about 531,000) 4.7 -> 159 ms
HYPERGRAPH_SOLUTION_CAP = 10_000


class _TableIndex:
    """Legality over range(n) on closed solution tables, for values added
    in ascending order: a test is one lookup, and it spends nothing.  A
    copy shares the tables.

    tables[x] has bit h set iff the values of the mask h, all below x, and
    x hold a countable solution that uses x.  The one meet-in-the-middle
    kernel, _mitm_pairs, yields the countable pairings of equal side sums
    over range(n), spending its nodes on budget (trial's own), each with
    its value set e, filed under its largest value x as the bit of its
    other values.
    Each table is then closed upward by x shift-ORs, the i-th setting bit
    h | 2**i wherever bit h is set and h lacks i: the superset-sum (zeta)
    transform of Bjorklund, Husfeldt, Kaski and Koivisto (STOC 2007).
    The tables hold 2**n bits in all.
    """

    __slots__ = ("tables", "values", "held")

    @classmethod
    def trial(cls, eq, n, distinct, budget):
        """The closed tables over range(n), or None where they do not pay.

        The listing spends a node per table entry and pairing of equal
        side sums, and per scanned tuple unless the equation is mirrored
        (_mirrored), whatever the answer, while the index's tables cost in
        proportion to the sets held.  So it needs at most EXACT_AUTO_LIMIT
        candidates and few expected solutions, n**m // (s*(n-1) + 1) for m
        variables and side sum s: at most HYPERGRAPH_SOLUTION_CAP in all
        mode, where the index's tests stay cheap, and at most
        MITM_TABLE_CAP, the most a trial may spend, in distinct mode, where
        the tables ran 3 to 60 times faster past the all-mode cap.  It runs
        on a budget of its own, what budget has left but at most
        MITM_TABLE_CAP, and is not begun when that cannot hold its table
        and scan: one that finishes charges its nodes to budget, and one
        that runs out, which leaves no set found, charges nothing.
        """
        own = _Budget(min(budget.limit - budget.nodes, MITM_TABLE_CAP))
        sides = _sides(eq)
        if _mirrored(eq):   # the scan side's tuples are the table's
            sides = sides[:1]
        solutions = n ** eq.num_vars // (eq.side_sum * (n - 1) + 1)
        if (n > EXACT_AUTO_LIMIT
                or solutions > (MITM_TABLE_CAP if distinct
                                else HYPERGRAPH_SOLUTION_CAP)
                or sum(n ** len(side) for side in sides) > own.limit):
            return None
        try:
            index = cls(eq, n, distinct, own)
        except BudgetExhausted:
            return None
        budget.spend(own.nodes)
        return index

    def __init__(self, eq, n, distinct, budget):
        tables = [bytearray(1 << x >> 3 or 1) for x in range(n)]
        for _, _, e in _mitm_pairs(eq, range(n), distinct, budget):
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

    def copy(self) -> _TableIndex:
        """An index holding the same values, sharing the tables."""
        twin = object.__new__(_TableIndex)
        twin.tables = self.tables
        twin.values = self.values.copy()
        twin.held = self.held
        return twin


def max_digit_set(eq: Equation, L: int, cfg: SearchConfig | None = None,
                  distinct: bool = False) -> SearchResult:
    """Largest (or best-found) solution-free digit subset of {0..(L-1)//s}.

    Candidates stop at (L-1)//s so the no-carry condition holds by
    construction for base L.  Every index the search builds spends on one
    budget of cfg.budget nodes, and every anytime phase's index shares one
    ConflictMemory (cfg.memory, else a fresh one), so a phase rejects at
    once a value whose solution an earlier test found among the values it
    holds.  A seed phase's alphabet is a prefix of greedy's set, so the
    phase starts from a copy (IncrementalSolutionIndex.copy, which shares
    the budget and the memory) of one index grown along greedy's set, and
    scans only the rows above its alphabet.  A cfg.memory of another
    equation or mode is a ValueError.  A budget cut anywhere ends the
    phase it falls in; BudgetExhausted never escapes.
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

    def run_phase(name, order, index, start=()):
        """One greedy pass over order in index, a fresh index or a copy of
        one on the search's budget and memory, after adding start, a set
        known to be solution-free; its values, sorted."""
        try:
            for x in start:
                index.add(x)
            index.greedy(order, lambda: tracker.offer(
                sorted(index.values), budget.nodes, name))
        except BudgetExhausted:
            pass
        phases.append((name, len(index.values)))
        return sorted(index.values)

    def fresh():
        return IncrementalSolutionIndex(eq, distinct=distinct, budget=budget,
                                        memory=memory)

    # phase 1: plain ascending greedy
    greedy = run_phase("greedy", candidates, fresh())
    greedy_nodes = budget.nodes

    # phase 2: structured two-level seeds.  The greedy scan is ascending, so
    # its values below a base are the greedy inner alphabet for that base;
    # each base is also tried with the pure interval below the first value
    # greedy rejected (it keeps the row structure clean when the greedy
    # inner alphabet is irregular).  Seeds run only after a complete greedy
    # phase: an exhausted one leaves no budget.
    accepted = set(greedy)
    first_rejected = next((x for x in candidates if x not in accepted), cap + 1)
    # Both alphabets are prefixes of greedy's set, so a seed phase starts
    # from a copy of one index that adds greedy's values in order, untested,
    # as far as the phase's alphabet; on its way past first_rejected it pins
    # a copy for the pseed phases.  These two are all that live beside the
    # running phase.  A budget cut while it grows leaves the phase the
    # values reached, and the phase's first test then ends it.
    prefix_index, pinned = fresh(), None

    def prefix_copy(n):
        """A copy of an index holding greedy[:n], or the part of it that
        the budget reaches."""
        nonlocal pinned
        if n == first_rejected and pinned is not None:
            return pinned.copy()
        try:
            for x in greedy[len(prefix_index.values):n]:
                if len(prefix_index.values) == first_rejected:
                    pinned = prefix_index.copy()
                prefix_index.add(x)
        except BudgetExhausted:
            pass
        return prefix_index.copy()

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
                # row b = 0 is the alphabet itself, which the copy holds
                seeds = (a + base * b for b in range(1, cap // base + 1)
                         for a in alphabet if a + base * b <= cap)
                filtered = run_phase(f"{label}[{base}]", seeds,
                                     prefix_copy(len(alphabet)))
            seed_results.append((len(filtered), -base, filtered))

    # the extend phases start from fresh indexes; dropping the prefix's two
    # keeps them off the search's peak memory
    prefix_index = pinned = None

    # phase 3: greedy extension of the most promising seeds.  A seed phase's
    # set is solution-free, so it is added without legality tests; every
    # prefix of it was already offered by its seed phase.
    seed_results.sort(reverse=True)
    for _, negbase, filtered in seed_results[:SEED_EXTENSION_PHASES]:
        if budget.nodes >= budget.limit:
            break
        kept = set(filtered)
        run_phase(f"extend[{-negbase}]",
                  (x for x in candidates if x not in kept), fresh(), filtered)

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
