"""Exhaustive solution oracle.

Three interchangeable enumeration engines (pruned DFS, naive product scan,
meet-in-the-middle over the equation's sides) answer "does this finite set
contain a non-trivial solution?" exactly.  For a symmetric equation with
dissociated generators in all mode, the automatic choice answers by a scan
of one-side sums alone: a clean scan stores no tuple, and a repeated sum
is the witness.
A search is only trusted when it ran to completion within its node budget;
running out raises BudgetExhausted so callers can never mistake "unknown"
for "verified absent".

The digit searches' IncrementalSolutionIndex first scans the conflicts
that its ConflictMemory remembers for a value.  One meet-in-the-middle
kernel, _mitm_pairs, yields only countable pairings, judged by their
value sets; the mitm engine decodes them into solutions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, count, islice, product
from math import inf
from operator import eq, mul

from .certificates import MODE_DISTINCT, Certificate
from .equations import (
    DISSOCIATED_MAX_LEN,
    Equation,
    SolutionClass,
    SolutionKind,
    is_dissociated,
    is_trivial,
)

DEFAULT_BUDGET = 10 ** 8
MITM_TABLE_CAP = 2_000_000
# the sum scan holds its stage k-1 and one sum range of its last stage,
# each within this cap.  Under tracemalloc a sorted sum costs about 41 bytes
# (int, list slot, sort buffer), a bitset range's sum at most 8, and a mitm
# table entry about 90 (sum, product index, two list slots, sort buffers).
# A range that cannot be a bitset is sorted in pieces no longer than stage
# k-1 (for k = 2, the whole stage), so a scan peaks below mitm at
# MITM_TABLE_CAP (about 165 against 180 MB) unless a range dense enough
# for a bitset but of too many shifts is sorted whole, up to about 310 MB
# with stage k-1.  The 512-element lift of {0..7} at base 552, depth 3,
# is sorted in 912 ranges of at most 262,144 sums, at 39 MB of RSS.  The
# cap prices the sums only: _last_stage_repeats also holds lists as long
# as the value set (shifts, start, and one cut list per range end still to
# build), which for k = 2, where stage k-1 is the value set itself, cost
# several times the sums' bytes
SCAN_SUMS_CAP = 4_000_000
# 64-bit words ORed per sum up to which the sum scan builds a range of its
# last stage as a bitset.  Timed against the sorted last stage on random
# inputs of 4,096 to 2,048,000 sums, the bitset took 0.16-0.57 of the
# sort's time at about 32 words per sum and 0.29-1.14 at about 64
BITSET_WORDS_PER_SUM = 32
# entries in the first piece of each full chunk that a distinct-mode
# legality test builds (IncrementalSolutionIndex._new_full_sums); each next
# piece is twice as long, and round r tests piece r of every chunk.  A
# rejection's witness mostly lies in the first few dozen of its chunk's
# entries, n(n-1) of them for three positions a side and n values, about
# 1,500 at n = 39
FIRST_PIECE = 32


class BudgetExhausted(RuntimeError):
    """Raised when an enumeration hits its node budget before finishing.
    engine names the oracle engine that ran out, where exhaustive_check
    ran one, else None."""

    def __init__(self, nodes: int):
        super().__init__(f"enumeration budget exhausted after {nodes} nodes")
        self.nodes = nodes
        self.engine = None


class _Budget:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int):
        self.nodes = 0
        self.limit = limit

    def spend(self, n: int = 1) -> None:
        self.nodes += n
        if self.nodes > self.limit:
            raise BudgetExhausted(self.nodes)


@dataclass(frozen=True)
class SolutionQuery:
    """One oracle question: equation, finite ground set, semantics, budget."""

    equation: Equation
    ground_set: tuple[int, ...]
    distinct_variables: bool = False
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        gs = tuple(int(v) for v in self.ground_set)
        if not gs:
            raise ValueError("ground set is empty")
        if list(gs) != sorted(set(gs)):
            raise ValueError("ground set must be sorted and duplicate-free")
        object.__setattr__(self, "ground_set", gs)
        if self.budget < 1:
            raise ValueError("budget must be at least 1")


def _is_countable(eq: Equation, assignment, distinct: bool) -> bool:
    """Mode filter on a satisfying assignment."""
    if distinct:
        return len(set(assignment)) == len(assignment)
    return not is_trivial(eq, assignment)


def _suffix_bounds(coeffs, vmin, vmax):
    m = len(coeffs)
    lo = [0] * (m + 1)
    hi = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        c = coeffs[i]
        lo[i] = lo[i + 1] + (c * vmin if c > 0 else c * vmax)
        hi[i] = hi[i + 1] + (c * vmax if c > 0 else c * vmin)
    return lo, hi


def _dfs_solutions(eq, values, distinct, budget):
    """Yield countable solutions in canonical depth-first order."""
    coeffs = eq.coeffs
    m = len(coeffs)
    lo, hi = _suffix_bounds(coeffs, values[0], values[-1])
    assignment = [0] * m
    used: dict[int, int] = {}

    def descend(i, partial):
        if i == m:
            if partial == 0 and _is_countable(eq, assignment, distinct):
                yield tuple(assignment)
            return
        for v in values:
            budget.spend()
            if distinct and used.get(v):
                continue
            p = partial + coeffs[i] * v
            if p + lo[i + 1] > 0 or p + hi[i + 1] < 0:
                continue
            assignment[i] = v
            if distinct:
                used[v] = 1
            yield from descend(i + 1, p)
            if distinct:
                used[v] = 0

    yield from descend(0, 0)


def _naive_solutions(eq, values, distinct, budget):
    """Full product scan; the reference the pruned engines are tested against."""
    coeffs = eq.coeffs
    for assignment in product(values, repeat=len(coeffs)):
        budget.spend()
        if sum(c * v for c, v in zip(coeffs, assignment)) != 0:
            continue
        if _is_countable(eq, assignment, distinct):
            yield assignment


def _sides(eq: Equation) -> tuple[list[int], list[int]]:
    """The positions of eq's positive and of its negative coefficients."""
    return ([i for i, c in enumerate(eq.coeffs) if c > 0],
            [i for i, c in enumerate(eq.coeffs) if c < 0])


def _mirrored(eq: Equation) -> bool:
    """Whether eq's negative side holds its positive side's coefficients
    negated, in order, as every make_symmetric equation does: its sides'
    tuples are then the same, and a pairing's mirror, its sides swapped, is
    a solution too."""
    pos, neg = _sides(eq)
    return [eq.coeffs[i] for i in pos] == [-eq.coeffs[i] for i in neg]


def _mitm_solutions(eq, values, distinct, budget):
    """Meet in the middle over the equation's positive/negative sides: the
    countable pairings of _mitm_pairs, decoded in their order, each
    followed by its mirror on a mirrored equation (_mirrored)."""
    mirrored = _mirrored(eq)
    for own, r, _ in _mitm_pairs(eq, values, distinct, budget):
        yield _mitm_assignment(eq, values, own, r)
        if mirrored:
            yield _mitm_assignment(eq, values, r, own)


def _mitm_assignment(eq, values, own, r) -> tuple[int, ...]:
    """The assignment of a pairing of _mitm_pairs: the scan tuple of
    product index own and the table tuple of product index r (last
    position least significant)."""
    assignment = [0] * eq.num_vars
    for idx, k in zip(sorted(_sides(eq), key=len), (r, own)):
        for i in reversed(idx):
            k, d = divmod(k, len(values))
            assignment[i] = values[d]
    return tuple(assignment)


def _mitm_pairs(eq, values, distinct, budget):
    """The one meet-in-the-middle kernel: the countable pairings of a tuple
    of the scan side and a table-side tuple of equal sum, as (the scan
    tuple's index own and the table tuple's index r, both in product
    order, the bits of the indices in values of the pairing's values).

    The shorter side is tabled as the sorted list of its sums over
    values^p; the tuple behind a sum is its index in product order, so no
    tuple is stored.  A table entry costs one node, paid before the table
    is built.  On a mirrored equation (_mirrored) the scan side's tuples
    are the table's own entries, and a tuple's mates are the other entries
    of its run of equal sums: each unordered pair own < r of a run is
    tried once, a node each, paid before the run is walked, and its mirror
    is left to the caller.  Otherwise each tuple of the other side, scanned
    in product order, costs one node, and so does each of its mates, found
    by bisection and tried in product order.  The rule reads a pairing's
    value sets: in distinct mode its m values must be distinct; in all mode
    it counts when some value lies on one side only (that value's class sum
    mixes no signs, so it is never zero), or else when is_trivial rejects
    it.  So the pairing x = x' of a mirrored equation, which counts in
    neither mode, is never tried.
    """
    coeffs = eq.coeffs
    m = len(coeffs)
    # the shorter side is tabled, the positive one on a tie
    table_idx, scan_idx = sorted(_sides(eq), key=len)
    n = len(values)
    size = n ** len(table_idx)
    # a table that does not fit spends one node past the limit, so the
    # BudgetExhausted reports limit + 1, as one spend per entry would
    budget.spend(min(size, budget.limit - budget.nodes + 1))
    sums = [0]
    for i in table_idx:
        cvs = [coeffs[i] * v for v in values]
        sums = [s + cv for s in sums for cv in cvs]
    # the sort is stable, so equal sums keep product order
    order = sorted(range(size), key=sums.__getitem__)
    keys = [sums[j] for j in order]
    del sums
    # the tuple of index r holds values[r // stride] at its first position
    # and the values of bits rest[r % stride] at the others, a list a
    # factor n shorter than the table
    stride = size // n
    rest = [0]
    for _ in table_idx[1:]:
        rest = [e | 1 << d for e in rest for d in range(n)]

    if _mirrored(eq):
        end = 0
        # keys[lo] == keys[lo + 1]: a run starts at lo past the last one
        for lo in compress(range(size - 1), map(
                int.__eq__, keys, islice(keys, 1, None))):
            if lo < end:
                continue
            end = bisect_right(keys, keys[lo], lo)
            run = order[lo:end]
            # capped as the table's spend is
            budget.spend(min(len(run) * (len(run) - 1) // 2,
                             budget.limit - budget.nodes + 1))
            for a, own in enumerate(run, 1):
                bits = 1 << own // stride | rest[own % stride]
                for r in run[a:]:
                    table = 1 << r // stride | rest[r % stride]
                    e = bits | table
                    if distinct:
                        if e.bit_count() < m:
                            continue
                    elif bits == table and is_trivial(
                            eq, _mitm_assignment(eq, values, own, r)):
                        continue
                    yield own, r, e
        return

    index = {v: d for d, v in enumerate(values)}
    scan_coeffs = [coeffs[i] for i in scan_idx]
    for own, tup in enumerate(product(values, repeat=len(scan_idx))):
        budget.spend()
        target = -sum(map(mul, scan_coeffs, tup))
        j = bisect_left(keys, target)
        bits = 0        # the scan tuple's, built at its first mate
        while j < size and keys[j] == target:
            budget.spend()
            r = order[j]
            j += 1
            if not bits:
                for v in tup:
                    bits |= 1 << index[v]
            table = 1 << r // stride | rest[r % stride]
            e = bits | table
            if distinct:
                if e.bit_count() < m:
                    continue
            elif bits == table and is_trivial(
                    eq, _mitm_assignment(eq, values, own, r)):
                continue
            yield own, r, e


def _auto_engine(q: SolutionQuery) -> str:
    """The enumeration engine of the automatic choice: meet in the middle
    whenever its table, the shorter side's sums, fits and the set is not
    tiny, else the DFS (the choice is per-query deterministic)."""
    m = q.equation.num_vars
    size = len(q.ground_set)
    table = size ** min(map(len, _sides(q.equation)))
    if table <= min(q.budget, MITM_TABLE_CAP) and size ** (m // 2) > 10:
        return "mitm"
    return "dfs"


# the enumeration engines by name: not the sum scan, which cannot count
_ENGINES = {"dfs": _dfs_solutions, "naive": _naive_solutions,
            "mitm": _mitm_solutions}


def query_engine(q: SolutionQuery, engine: str = "auto") -> str:
    """The engine that exhaustive_check(q, engine) answers q with: the one
    named, or with "auto", "scan" when the sum scan applies
    (_scan_applies), else _auto_engine's choice."""
    if engine == "auto":
        return "scan" if _scan_applies(q) else _auto_engine(q)
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    return engine


def _sums_repeat(coeffs, values, budget):
    """None when the sums sum(c_j * x_j) over x in values^k (coeffs
    positive, values distinct and ascending, k = len(coeffs)) never repeat;
    else two different k-tuples of equal sum.

    Builds the sums of j-tuples stage by stage, j = 1..k, spending one node
    per sum, and stops at the first stage whose sums repeat: equal values
    appended to both j-tuples extend the repeat to k-tuples.  Each stage
    before the last is sorted so that repeats are adjacent: it is built as
    one ascending run per value, which the sort merges, and a list takes
    less memory than a set.  The last stage, which holds a factor |values|
    more sums than the one before, is built one sum range at a time, each
    as a bitset or sorted, at the same nodes (_last_stage_repeats).  A
    repeat is decoded from the stage's least repeated sum once the stage
    is freed (_repeat_tuples), so it does not depend on that build, and a
    sparse last stage is sorted in ranges no longer than the stage before.
    """
    sums = [0]
    for j, c in enumerate(coeffs[:-1], 1):
        budget.spend(len(sums) * len(values))
        sums = [s + cv for cv in [c * v for v in values] for s in sums]
        sums.sort()
        t = next(compress(sums, map(eq, sums, islice(sums, 1, None))), None)
        if t is not None:
            break
    else:
        j = len(coeffs)
        t = _last_stage_repeats(sums, coeffs[-1], values, budget)
    del sums
    if t is None:
        return None
    pad = [values[0]] * (len(coeffs) - j)
    return tuple(tuple(tup + pad)
                 for tup in _repeat_tuples(t, coeffs[:j], values))


def _repeat_tuples(t, coeffs, values) -> list[list[int]]:
    """The two j-tuples over values of sum t, j = len(coeffs), whose last
    values are least, where t repeats in stage j of _sums_repeat and stage
    j-1 does not.  Stages 1..j-1 are rebuilt sorted, spending no node, and
    each tuple is read from its last value down by bisection: below stage
    j a sum has one tuple, so one value leaves a sum of the stage below."""
    stages = [[0]]
    for c in coeffs[:-1]:
        stages.append(sorted(s + c * v for v in values for s in stages[-1]))

    def lasts(s, j):
        """The values v, ascending, for which stage j-1 holds s - c_j*v."""
        stage, c = stages[j - 1], coeffs[j - 1]
        return (v for v in values if (i := bisect_left(stage, s - c * v))
                < len(stage) and stage[i] == s - c * v)

    tuples = [[v] for v in islice(lasts(t, len(coeffs)), 2)]
    for tup in tuples:
        s = t
        for j in range(len(coeffs), 1, -1):
            s -= coeffs[j - 1] * tup[-1]
            tup.append(next(lasts(s, j - 1)))
        tup.reverse()
    return tuples


def _range_may_be_bitset(span, prev_span, size) -> bool:
    """Whether a range of _last_stage_repeats may be a bitset for its span
    and size: at most 64 bits a sum, and wider than prev's span."""
    return prev_span < span <= 64 * size


def _range_bitset_pays(span, prev_span, shifts, size) -> bool:
    """Whether _last_stage_repeats builds a range as a bitset: it may be one
    (_range_may_be_bitset), and at most BITSET_WORDS_PER_SUM words are ORed
    per sum."""
    return (_range_may_be_bitset(span, prev_span, size)
            and shifts * span <= 64 * BITSET_WORDS_PER_SUM * size)


def _last_stage_repeats(prev, c, values, budget):
    """The least sum s + c*v, s in prev (sorted, repeat-free), v in values,
    that repeats, or None; one node per sum up to the range that holds it.

    Equal sums fall in the same range, so the stage is built one sum range
    [lo, hi) at a time, in ascending order, halved until it holds a single
    value, which at most len(prev) sums reach, or at most SCAN_SUMS_CAP
    sums, or, when it may not be a bitset (_range_may_be_bitset), at most
    max(len(prev), len(values)**2).  So past k = 2 a sparse stage is sorted
    in pieces no longer than prev, and a k = 2 stage is never cut below the
    cap.  The split reads only a range's size and span and prev, never which
    build the range gets, so the nodes do not depend on the build.  For each
    shift c*v, a range's sums come from a slice of prev, whose ends bisect
    finds.  A dense range (_range_bitset_pays) is one int, the OR of prev's
    bitset shifted by each c*v of a non-empty slice, masked unless the slice
    is all of prev (the bit-parallel subset-sum step of Pisinger,
    Algorithmica 35, 2003); its sums repeat when it has fewer bits than
    sums, and the least repeated one is found by bisection, as the end of
    the shortest prefix of the range that holds more sums than bits.  Any
    other range is sorted.
    """
    shifts = sorted(c * v for v in values)
    lo = prev[0] + shifts[0]
    start = [0] * len(shifts)
    # upper ends of the ranges still to build, each with its cuts: for
    # each shift t, the number of sums in prev below the end minus t
    ends = [(prev[-1] + shifts[-1] + 1, [len(prev)] * len(shifts))]
    stage = None    # prev's bitset, built for the first bitset range
    piece = min(SCAN_SUMS_CAP, max(len(prev), len(values) ** 2))
    while ends:
        hi, end = ends[-1]
        size = sum(end) - sum(start)
        if _range_may_be_bitset(hi - lo, prev[-1] - prev[0], size):
            cap = SCAN_SUMS_CAP
        else:
            cap = piece
        if size > cap and hi - lo > 1:
            mid = (lo + hi) // 2
            ends.append((mid, [bisect_left(prev, mid - t) for t in shifts]))
            continue
        ends.pop()
        budget.spend(size)
        reach = [(t, a, b) for t, a, b in zip(shifts, start, end) if a < b]
        if _range_bitset_pays(hi - lo, prev[-1] - prev[0], len(reach), size):
            if stage is None:   # bit d is set when prev holds prev[0] + d
                stage = bytearray((prev[-1] - prev[0]) // 8 + 1)
                for s in prev:
                    d = s - prev[0]
                    stage[d >> 3] |= 1 << (d & 7)
                stage = int.from_bytes(stage, "little")
            acc = 0
            for t, a, b in reach:
                d = prev[0] + t - lo
                if b - a == len(prev):
                    acc |= stage << d
                else:
                    acc |= (stage << d if d >= 0 else stage >> -d) & (
                        (1 << hi - lo) - 1)
            if acc.bit_count() < size:
                # [lo, a) holds no repeat and [lo, b) one; a prefix's sums
                # from shift t are prev's below its end minus t
                a, b, below = lo, hi, sum(start)
                while b - a > 1:
                    mid = (a + b) // 2
                    count = sum(bisect_left(prev, mid - t) for t in shifts)
                    if count - below > (acc & (1 << mid - lo) - 1).bit_count():
                        b = mid
                    else:
                        a = mid
                return a
        else:
            bucket = [s + t for t, a, b in reach
                      for s in (prev if b - a == len(prev) else prev[a:b])]
            bucket.sort()
            repeat = next(compress(bucket, map(
                eq, bucket, islice(bucket, 1, None))), None)
            if repeat is not None:
                return repeat
        acc = bucket = None     # freed before the next range
        lo, start = hi, end
    return None


def _sums_decide(eq: Equation, distinct: bool) -> bool:
    """Whether one-side sums alone decide solution-freeness for eq.

    For dissociated generators a_1..a_k, a solution of
    sum(a_j x_j) = sum(a_j x'_j) is trivial in all mode iff x = x', so a
    set is solution-free iff its sums over S^k never repeat (its k-fold
    additive energy is |S|^k).
    """
    gens = eq.symmetric_gen
    return (not distinct and gens is not None
            and len(gens) <= DISSOCIATED_MAX_LEN and is_dissociated(gens))


def _scan_applies(q: SolutionQuery) -> bool:
    """Whether the automatic choice may answer q by the one-side sum scan:
    sums decide it (_sums_decide), all its sums fit the query's budget, and
    its stage k-1, which the last stage's ranges are built from, fits
    SCAN_SUMS_CAP."""
    if not _sums_decide(q.equation, q.distinct_variables):
        return False
    k = len(q.equation.symmetric_gen)
    size = len(q.ground_set)
    return (size ** (k - 1) <= SCAN_SUMS_CAP
            and sum(size ** j for j in range(1, k + 1)) <= q.budget)


def exhaustive_check(q: SolutionQuery, engine: str = "auto"):
    """(first countable solution or None, nodes spent).

    A None result certifies the whole space was enumerated.  The engine is
    query_engine's: the sum scan answers clean, or with its two tuples of
    equal sum laid out as a solution, non-trivial since the generators are
    dissociated; any other engine with its first countable solution.
    """
    budget = _Budget(q.budget)
    engine = query_engine(q, engine)
    try:
        if engine == "scan":
            gens = q.equation.symmetric_gen
            found = _sums_repeat(gens, q.ground_set, budget)
            if found is not None:
                side = {a: j for j, a in enumerate(gens)}
                x, y = found
                found = tuple(x[side[c]] if c > 0 else y[side[-c]]
                              for c in q.equation.coeffs)
        else:
            found = next(_ENGINES[engine](
                q.equation, q.ground_set, q.distinct_variables, budget), None)
    except BudgetExhausted as exc:
        exc.engine = engine
        raise
    if found is None:
        return None, budget.nodes
    return SolutionClass(found, SolutionKind.NONTRIVIAL), budget.nodes


def find_nontrivial_solution(q: SolutionQuery, engine: str = "auto"):
    """First countable solution, or None once the space is fully exhausted."""
    return exhaustive_check(q, engine)[0]


def count_nontrivial_solutions(q: SolutionQuery, engine: str = "auto") -> int:
    """The number of countable solutions; the sum scan cannot count."""
    run = _ENGINES[_auto_engine(q) if engine == "auto"
                   else query_engine(q, engine)]
    return sum(1 for _ in run(q.equation, q.ground_set, q.distinct_variables,
                              _Budget(q.budget)))


def is_injective_map(a, B: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether (i_1..i_k) -> sum(i_j * a_j) is injective on [1, B]^k.

    Runs the staged sum scan of exhaustive_check, sum_j B**j nodes when
    injective, which holds stage k-1 and one sum range of the last (a dense
    one as a bitset of at most 8 bytes per sum, a sparse one sorted and no
    longer than stage k-1).  Before the scan runs, in this order: a B past
    the budget raises BudgetExhausted(B); a B whose stage k-1, B**(k-1)
    sums, exceeds SCAN_SUMS_CAP raises ValueError; and a scan whose sum_j
    B**j nodes exceed the budget raises BudgetExhausted with that total, as
    _scan_applies sizes a scan, even where a repeat would be met sooner.
    """
    a = [int(v) for v in a]
    if len(a) < 2:
        raise ValueError("need at least two coefficients")
    if min(a) < 1:
        raise ValueError("coefficients must be positive")
    if B < 1:
        raise ValueError("B must be positive")
    if B > budget:
        # the scan's first stage alone spends B nodes
        raise BudgetExhausted(B)
    if B ** (len(a) - 1) > SCAN_SUMS_CAP:
        # the scan holds stage k-1 whole, as _scan_applies bounds it
        raise ValueError(f"B = {B} is too large: the injectivity scan "
                         f"would hold B**{len(a) - 1} sums, past its cap "
                         f"of {SCAN_SUMS_CAP}")
    nodes = sum(B ** j for j in range(1, len(a) + 1))
    if nodes > budget:
        raise BudgetExhausted(nodes)
    return _sums_repeat(a, range(1, B + 1), _Budget(budget)) is None


def verify_certificate(cert, budget: int = DEFAULT_BUDGET) -> bool:
    """Re-validate a persisted certificate.

    Accepts a Certificate or its raw JSON dict; a dict that violates the
    structural invariants (no-carry, digit range) is simply invalid, not an
    error.  Re-runs the oracle on the digit alphabet; BudgetExhausted
    propagates because an interrupted check proves nothing.
    """
    if isinstance(cert, dict):
        try:
            cert = Certificate.from_json(cert)
        except (ValueError, KeyError, TypeError):
            return False
    ds = cert.digit_set
    q = SolutionQuery(ds.equation, ds.digits,
                      ds.mode == MODE_DISTINCT, budget)
    return find_nontrivial_solution(q) is None


class ConflictMemory:
    """Conflicts that legality tests found, kept for later tests (nogood
    recording: Schiex and Verfaillie, IJAIT 1994).

    When an index rejects x, it records a witness: the set of the other
    values of one non-trivial solution that uses x.  While every value of
    a witness is held, x stays illegal.  Witnesses are int bitmasks over
    bits that the memory assigns per value on first use.  A memory serves
    every index of one equation and mode (its scope), whatever the values
    it ranges over: a witness is a solution, so it holds below any base.
    So the phases of one search share what they learn, and so do the bases
    of one search grid (SearchConfig.memory).
    """

    __slots__ = ("bits", "conflicts", "scope")

    def __init__(self):
        self.bits: dict[int, int] = {}
        self.conflicts: dict[int, list[int]] = {}
        self.scope = None

    def claim(self, eq: Equation, distinct: bool) -> None:
        """Scope the memory to eq and mode on first use; ValueError when
        it serves another."""
        if self.scope is None:
            self.scope = (eq, distinct)
        elif self.scope != (eq, distinct):
            raise ValueError("a conflict memory serves one equation and mode")

    def bit(self, v: int) -> int:
        b = self.bits.get(v)
        if b is None:
            b = self.bits[v] = 1 << len(self.bits)
        return b

    def record(self, x: int, solution) -> None:
        """Remember the values of solution, a non-trivial solution that
        uses x, other than x."""
        bit = self.bit
        w = 0
        for v in solution:
            w |= bit(v)
        self.conflicts.setdefault(x, []).append(w & ~bit(x))


class IncrementalSolutionIndex:
    """Incremental legality oracle used by the digit searches.

    It holds one of three representations, chosen from the equation and
    mode; the state of the other two is None:

    - sums, when one-side sums alone decide solution-freeness (all mode and
      dissociated symmetric generators, see _sums_decide): ``sums[j-1]`` is
      the set of sums a_1*v_1 + ... + a_j*v_j over values^j, for j = 1..k.
      The held set is always solution-free, so these sums never repeat;
    - masks, in distinct mode: for each side, ``pos_subsets[S]`` (and
      ``neg_subsets[S]``) holds the tuples of distinct held values on the
      side's positions in the bit set S, as parallel lists (sums, masks).
      Bit i of a mask is set when the tuple uses ``values[i]``.  For the
      full position set it is a dict from a sum to its mask, bare while
      the sum has one tuple, else to the list of their masks;
    - tuples, otherwise: for each side of the equation a table
      (``pos_table``, ``neg_table``) mapping one-side sums to the tuple of
      the value tuples achieving them; a filed bucket is never changed in
      place, so a copy of a table shares them.

    When both sides have the same coefficients (a symmetric equation), the
    sides share their tuples and one table.  Adding a candidate value only
    touches the sums or tuples that contain it, so a legality test costs
    time proportional to what x brings.  An accepting ``legal(x)`` keeps
    what it built, and an ``add(x)`` that follows on the same values stores
    it without building or spending again; ``pop`` and any other ``legal``
    or ``add`` drop it.  ``add`` spends its nodes before it changes any
    table, so a BudgetExhausted leaves the index as it was, and it keeps
    no undo record: a search that returns to an earlier state branches on
    a ``copy`` (copying, not trailing: Schulte, ICLP 1999), and ``pop``
    rebuilds the index from the values before the last, spending nothing.

    Sums accounting: a sum costs one node when it is built.  The new sums
    are built stage by stage, each stage in chunks (x appended to the
    stored tuples, then each value appended to the new ones), and a test
    rejects at the first chunk whose sums meet the stored ones or an
    earlier chunk's: equal values appended to both j-tuples extend the
    repeat to k-tuples.  The one-sum chunks of stage 2 are tested in one
    pass that spends as the chunk walk would, up to the rejecting chunk.

    Mask accounting: an entry costs one node when it is built and a pairing
    of two entries one node when it is tested.  A solution that uses x
    holds it once, on one side, and only old values on the other side.  So
    ``legal(x)`` builds, for each position p of a side, the full tuples
    with x at p as one chunk (the tuples on the other positions, shifted by
    c_p*x), and tests its sums against the other side's full table.  Each
    chunk is cut into pieces, FIRST_PIECE entries and then twice as many as
    the piece before, and the chunks are walked in rounds: round r builds
    and tests piece r of every chunk, sides then positions, before piece
    r + 1 of any.  So a rejection spends the entries of the pieces walked
    up to the one that holds its witness, wherever its chunk comes, never
    more than the whole chunks.  Only a sum met there costs pairings, one
    per mate, walked in entry and mate order and spent together at the
    piece's end or at the witness; a pairing is a solution when the two
    masks share no bit.  The order moves the witness found, not the
    answer.  A symmetric equation tests one side: the tuples with x on the
    other side mirror it.

    Tuple accounting (all mode): a tuple costs one node when it is built
    and a pairing of two tuples one node when it is tested.  New tuples are
    built in chunks that differ in one position only, and a chunk's nodes
    are spent together, so a rejected test stops after the chunk holding
    its witness.

    Conflict accounting: every rejection records its witness in the
    index's ConflictMemory (its own unless one is passed in), and decoding
    the witness costs nothing.  Before it builds anything, ``legal(x)``
    tests the witnesses remembered for x against the held values, one node
    each, and rejects at the first one that is held entirely.  Sums decode
    a rejection through the stage sets: each of the two sums is its chunk's
    prefix, decoded stage by stage, and value.  Masks give the values of
    both masks, and tuples those of both tuples.

    The answers do not depend on this accounting, but the node counts, and
    so how far a given budget reaches, do.
    """

    def __init__(self, eq: Equation, distinct: bool = False,
                 budget: int | _Budget = DEFAULT_BUDGET,
                 memory: ConflictMemory | None = None):
        self.eq = eq
        self.distinct = distinct
        self.memory = ConflictMemory() if memory is None else memory
        self.memory.claim(eq, distinct)
        self.pos_idx, self.neg_idx = _sides(eq)
        self.pos_coeffs = [eq.coeffs[i] for i in self.pos_idx]
        self.neg_coeffs = [-eq.coeffs[i] for i in self.neg_idx]
        self.values: list[int] = []
        self.held = 0       # the memory's bits of the values
        self.symmetric = _mirrored(eq)
        self.sums: list[set[int]] | None = None
        self.pos_subsets = self.neg_subsets = None
        self.pos_table = self.neg_table = None
        if _sums_decide(eq, distinct):
            self.sums = [set() for _ in eq.symmetric_gen]
        elif distinct:
            self.pos_subsets = _empty_subsets(len(self.pos_coeffs))
            self.neg_subsets = (self.pos_subsets if self.symmetric
                                else _empty_subsets(len(self.neg_coeffs)))
        else:
            self.pos_table = {}
            self.neg_table = self.pos_table if self.symmetric else {}
        # (x, what add(x) stores) of the last accepting legality test: the
        # new stages for sums, the full chunks per side for masks, (pos
        # chunks, neg chunks) for tuples
        self._kept = None
        # a _Budget passed in is shared: its nodes count every index's spend
        self.tracker = budget if isinstance(budget, _Budget) else _Budget(budget)

    @property
    def nodes(self) -> int:
        return self.tracker.nodes

    def _mask_sides(self):
        """(coeffs, subsets, mates) of each side that holds its own tables;
        mates is the other side's full table."""
        sides = [(self.pos_coeffs, self.pos_subsets, self.neg_subsets[-1])]
        if not self.symmetric:
            sides.append((self.neg_coeffs, self.neg_subsets, self.pos_subsets[-1]))
        return sides

    def _new_full_sums(self, x):
        """(kept, None), kept holding per side tested one list per position
        p of the sums of the full tuples with x at p; (None, witness) once
        one of them meets a mate of equal sum on the other side that shares
        no value with it, the witness being the values of both.

        Each (side, position) list is a lane, built in pieces, the first
        FIRST_PIECE sums long and each next one twice as long.  Round r
        builds, spends and tests piece r of every lane, sides then
        positions, before piece r + 1 of any lane, so a rejection stops
        after the piece that holds its witness, whichever lane it is in."""
        spend = self.tracker.spend
        kept, lanes = [], []
        for coeffs, subsets, mates in self._mask_sides():
            chunks = []
            for sums, masks, cx in _full_shifts(coeffs, subsets, x):
                chunks.append([])
                if sums:
                    lanes.append((sums, masks, cx, chunks[-1], mates.keys(),
                                  mates.get))
            kept.append(chunks)
        lo, size = 0, FIRST_PIECE
        while lanes:
            hi = lo + size
            for sums, masks, cx, new, keys, get in lanes:
                piece = [s + cx for s in sums[lo:hi]]
                spend(len(piece))
                if not keys.isdisjoint(piece):
                    pairs = 0
                    for s, m in zip(piece, masks[lo:hi]):
                        bucket = get(s)
                        if bucket is None:
                            continue
                        for mate in ((bucket,) if bucket.__class__ is int
                                     else bucket):
                            pairs += 1
                            if not m & mate:
                                spend(pairs)
                                m |= mate
                                return None, [v for i, v in enumerate(
                                    self.values) if m >> i & 1]
                    spend(pairs)
                new += piece
            lanes = [lane for lane in lanes if hi < len(lane[0])]
            lo, size = hi, 2 * size
        return kept, None

    def _add_masks(self, x, kept) -> None:
        """Extend every position subset's table by the tuples that use x.
        A full table's sum holds its mask bare while it has one, else the
        list of its masks."""
        bit = 1 << len(self.values)
        rows, buckets, nodes = [], [], 0
        for side, (coeffs, subsets, _) in enumerate(self._mask_sides()):
            full = len(subsets) - 1
            if kept is not None:
                chunks = kept[side]
            else:
                chunks = [[s + cx for s in sums]
                          for sums, _, cx in _full_shifts(coeffs, subsets, x)]
                nodes += sum(map(len, chunks))
            for p, new in enumerate(chunks):
                # zip stops at new's end, before the rows that extend masks
                buckets.append((subsets[full], new,
                                subsets[full ^ (1 << p)][1]))
            for S in range(1, full):
                for q, c in enumerate(coeffs):
                    if S >> q & 1:
                        sums, masks = subsets[S ^ (1 << q)]
                        cx = c * x
                        rows.append((subsets[S], [s + cx for s in sums],
                                     [m | bit for m in masks]))
                        nodes += len(sums)
        # every entry is paid for before a table changes, so that a
        # BudgetExhausted leaves the index as it was
        self.tracker.spend(nodes)
        for (sums, masks), new_sums, new_masks in rows:
            sums.extend(new_sums)
            masks.extend(new_masks)
        for table, sums, masks in buckets:
            get = table.get
            for s, m in zip(sums, masks):
                m |= bit
                bucket = get(s)
                if bucket is None:
                    table[s] = m
                elif bucket.__class__ is int:
                    table[s] = [bucket, m]
                else:
                    bucket.append(m)

    def _new_tuples(self, coeffs, x):
        """Chunks (tuples, sums) covering, in product order, every tuple over
        values+[x] that uses x.  A chunk's tuples differ only in the last
        position free to vary: the last one, or the one before when that
        holds x.  Building them spends nothing (see _paid_tuples)."""
        old = self.values
        later = old + [x]
        k = len(coeffs)
        if k == 1:
            yield [(x,)], [coeffs[0] * x]
            return
        for first in range(k):
            if first < k - 1:
                pools = [old] * first + [[x]] + [later] * (k - first - 2)
                tail, c, base = later, coeffs[-1], 0
            else:
                pools = [old] * (k - 2)
                tail, c, base = old, coeffs[-2], coeffs[-1] * x
            if not tail:
                continue
            for prefix in product(*pools):
                partial = base + sum(map(mul, coeffs, prefix))
                if first < k - 1:
                    tups = [prefix + (v,) for v in tail]
                else:
                    tups = [prefix + (v, x) for v in tail]
                yield tups, [partial + c * v for v in tail]

    def _paid_tuples(self, coeffs, x):
        """The chunks of _new_tuples, each spent, a node a tuple, in turn."""
        for chunk in self._new_tuples(coeffs, x):
            self.tracker.spend(len(chunk[0]))
            yield chunk

    def _new_sums(self, x):
        """(stages, None), stages being the sets, one per stage j, of sums
        over the j-tuples of values+[x] that use x; (None, witness) at the
        first chunk of new sums that meets the stored ones or repeats an
        earlier chunk's, the witness being the values of two j-tuples of
        equal sum, one of them using x.  Equal values appended to both
        extend them to a solution.

        A stage is built in chunks, each spent before it is tested: x
        appended to the stored (j-1)-tuples, then each value appended to
        the new ones.  A chunk's sums are distinct, so a repeat pairs two
        chunks, and each sum's tuple is its chunk's prefix and value.
        Where the new (j-1)-tuples have one sum, as at j = 2, every chunk
        after the first is that sum plus c_j*v, distinct from the others,
        and one pass finds the first that meets the stored sums or the
        first chunk's; it spends the nodes of the chunks up to that one,
        or up to the limit + 1 where the chunks would have run out."""
        values = self.values + [x]
        tracker = self.tracker
        spend = tracker.spend
        old_prev, new_prev = (0,), ()
        stages = []
        for j, (c, old) in enumerate(zip(self.eq.symmetric_gen, self.sums), 1):
            new = set()
            built = []
            for prev, v in [(old_prev, x)] + [(new_prev, v) for v in values
                                              if len(new_prev) > 1]:
                cv = c * v
                chunk = [s + cv for s in prev]
                spend(len(chunk))
                if not old.isdisjoint(chunk):
                    t = next(s for s in chunk if s in old)
                    return None, (self._tuple(t, j, x, stages)
                                  + self._tuple(t - cv, j - 1, x, stages) + [v])
                size = len(new)
                new.update(chunk)
                if len(new) < size + len(chunk):
                    t, w = next((s, w) for s in chunk for p, w in built
                                if s - c * w in p)
                    return None, (self._tuple(t - c * w, j - 1, x, stages) + [w]
                                  + self._tuple(t - cv, j - 1, x, stages) + [v])
                built.append((prev, v))
            if len(new_prev) == 1:
                (p,) = new_prev
                chunk = [p + c * v for v in values]
                i = min(next(compress(count(), map(sums.__contains__, chunk)),
                             len(chunk)) for sums in (old, new))
                spend(min(i + 1, len(chunk),
                          tracker.limit - tracker.nodes + 1))
                if i < len(chunk):
                    t, v = chunk[i], values[i]
                    if t in old:
                        return None, (self._tuple(t, j, x, stages)
                                      + self._tuple(p, j - 1, x, stages) + [v])
                    return None, (self._tuple(t - c * x, j - 1, x, stages)
                                  + [x] + self._tuple(p, j - 1, x, stages)
                                  + [v])
                new.update(chunk)
            stages.append(new)
            old_prev, new_prev = old, new
        return stages, None

    def _tuple(self, t, j, x, stages) -> list:
        """The values of a j-tuple over values+[x] of sum t: one that uses
        x when t is a new sum of stage j in stages, the new sums of
        _new_sums, else one of held values.  Each level takes the first
        value that leaves a sum of the stage below: for a new sum, x on a
        held sum, else a value of values+[x] on a new one; for a held sum,
        a held value on a held one."""
        gen = self.eq.symmetric_gen
        held, new = [(0,)] + self.sums, [()] + stages
        is_new = j < len(new) and t in new[j]
        tup = []
        for i in range(j - 1, -1, -1):
            c = gen[i]
            if is_new and t - c * x in held[i]:
                v, is_new = x, False
            elif is_new:
                v = next(v for v in self.values + [x] if t - c * v in new[i])
            else:
                v = next(v for v in self.values if t - c * v in held[i])
            tup.append(v)
            t -= c * v
        return tup

    def _solution(self, pos_tup, neg_tup) -> bool:
        self.tracker.spend()
        assignment = [0] * self.eq.num_vars
        for i, v in zip(self.pos_idx, pos_tup):
            assignment[i] = v
        for i, v in zip(self.neg_idx, neg_tup):
            assignment[i] = v
        return _is_countable(self.eq, assignment, False)

    def _first_solution(self, chunks, tables, new_is_pos, built=None):
        """The first pair of a new tuple and a mate of equal sum from tables
        that forms a countable solution, as (pos tuple, neg tuple), or None.
        Each chunk scanned is appended to built, when given."""
        keys = [table.keys() for table in tables]
        for chunk in chunks:
            if built is not None:
                built.append(chunk)
            tups, sums = chunk
            for k in keys:
                if not k.isdisjoint(sums):
                    break
            else:
                continue
            for tup, s in zip(tups, sums):
                for table in tables:
                    for mate in table.get(s, ()):
                        if mate is tup:
                            continue    # x = x' itself: trivial
                        pair = (tup, mate) if new_is_pos else (mate, tup)
                        if self._solution(*pair):
                            return pair
        return None

    def _new_tuple_chunks(self, x):
        """((pos chunks, neg chunks) of the new tuples, None); (None,
        witness) when one of them completes a countable solution, the
        witness being the values of its two tuples."""
        pos_chunks = []
        found = self._first_solution(self._paid_tuples(self.pos_coeffs, x),
                                     (self.neg_table,), True, pos_chunks)
        if found is not None:
            return None, found[0] + found[1]
        new_pos: dict[int, tuple[tuple[int, ...], ...]] = {}
        _store(new_pos, pos_chunks)
        if self.symmetric:
            # the sides' tuples and tables coincide, and each pairing of a
            # new tuple with an old one mirrors one rejected above
            neg_chunks = pos_chunks
            found = self._first_solution(neg_chunks, (new_pos,), False)
        else:
            neg_chunks = []
            found = self._first_solution(self._paid_tuples(self.neg_coeffs, x),
                                         (self.pos_table, new_pos), False,
                                         neg_chunks)
        if found is not None:
            return None, found[0] + found[1]
        return (pos_chunks, neg_chunks), None

    def legal(self, x: int) -> bool:
        """Whether adding x keeps the set solution-free.  A value already
        present is not legal."""
        self._kept = None
        memory = self.memory
        if self.held & memory.bits.get(x, 0):
            return False
        conflicts = memory.conflicts.get(x)
        if conflicts:
            free = ~self.held
            for i, w in enumerate(conflicts, 1):
                if not w & free:
                    self.tracker.spend(i)
                    return False
            self.tracker.spend(len(conflicts))
        if self.sums is not None:
            kept, witness = self._new_sums(x)
        elif self.distinct:
            kept, witness = self._new_full_sums(x)
        else:
            kept, witness = self._new_tuple_chunks(x)
        if kept is None:
            memory.record(x, witness)
            return False
        self._kept = (x, kept)
        return True

    def add(self, x: int) -> None:
        """Add x.  With sums, the set must stay solution-free: an x that
        creates a solution raises ValueError and leaves the index as it
        was."""
        kept, self._kept = self._kept, None
        if self.held & self.memory.bits.get(x, 0):
            raise ValueError(f"{x} is already in the index")
        kept = kept[1] if kept is not None and kept[0] == x else None
        if self.sums is not None:
            stages = kept or self._new_sums(x)[0]
            if stages is None:
                raise ValueError(f"adding {x} creates a solution")
            for stored, new in zip(self.sums, stages):
                stored |= new
        elif self.distinct:
            self._add_masks(x, kept)
        else:
            if kept is not None:
                pos_chunks, neg_chunks = kept
            else:
                pos_chunks = list(self._paid_tuples(self.pos_coeffs, x))
                neg_chunks = (pos_chunks if self.symmetric
                              else list(self._paid_tuples(self.neg_coeffs, x)))
            _store(self.pos_table, pos_chunks)
            if not self.symmetric:
                _store(self.neg_table, neg_chunks)
        self.values.append(x)
        self.held |= self.memory.bit(x)

    def greedy(self, candidates, on_gain=None) -> None:
        """Add, in order, each candidate that keeps the set solution-free,
        calling on_gain() after each addition.  A BudgetExhausted leaves
        the values added so far in place."""
        for x in candidates:
            if self.legal(x):
                self.add(x)
                if on_gain is not None:
                    on_gain()

    def copy(self) -> IncrementalSolutionIndex:
        """An independent index holding the same values in the same order.
        It spends on the same budget and shares the ConflictMemory; its
        tables are copied, sharing only a tuples table's buckets, which no
        index changes in place, and copying spends nothing."""
        twin = object.__new__(IncrementalSolutionIndex)
        twin.__dict__.update(self.__dict__)
        twin.values = self.values.copy()
        twin._kept = None
        if self.sums is not None:
            twin.sums = [set(stage) for stage in self.sums]
        elif self.distinct:
            twin.pos_subsets = _copy_subsets(self.pos_subsets)
            twin.neg_subsets = (twin.pos_subsets if self.symmetric
                                else _copy_subsets(self.neg_subsets))
        else:
            twin.pos_table = self.pos_table.copy()
            twin.neg_table = (twin.pos_table if self.symmetric
                              else self.neg_table.copy())
        return twin

    def pop(self) -> int:
        """Drop the last value added, and return it, spending nothing: the
        index is rebuilt from the values before it on a budget of its own,
        and keeps its memory and its budget."""
        x = self.values[-1]
        fresh = IncrementalSolutionIndex(self.eq, self.distinct,
                                         _Budget(inf), self.memory)
        for v in self.values[:-1]:
            fresh.add(v)
        fresh.tracker = self.tracker
        self.__dict__.update(fresh.__dict__)
        return x


def _empty_subsets(k: int) -> list:
    """Mask tables of a side with k positions and no values: only the empty
    position set has a tuple, of sum 0 and mask 0."""
    return [([0], [0])] + [([], []) for _ in range(2 ** k - 2)] + [{}]


def _copy_subsets(subsets) -> list:
    """A copy of a side's mask tables: each position set's lists, and the
    full table with its list buckets copied."""
    full = dict(subsets[-1])
    for s, bucket in full.items():
        if bucket.__class__ is list:
            full[s] = bucket.copy()
    return [(sums.copy(), masks.copy()) for sums, masks in subsets[:-1]] + [full]


def _full_shifts(coeffs, subsets, x):
    """For each position p, the full tuples with x at p: the sums and masks
    of the tuples on the other positions, and the shift c_p*x of their
    sums (the masks lack x's bit)."""
    full = len(subsets) - 1
    for p, c in enumerate(coeffs):
        sums, masks = subsets[full ^ (1 << p)]
        yield sums, masks, c * x


def _store(table, chunks) -> None:
    """File each chunk's tuples under their sums.  A bucket is replaced by
    a longer tuple, never changed in place, so copies of the table may
    share it."""
    for tups, sums in chunks:
        # a chunk's tuples differ in one value, so its sums are distinct and
        # keys new to the table need no bucket lookups
        if table.keys().isdisjoint(sums):
            table.update(zip(sums, [(tup,) for tup in tups]))
            continue
        get = table.get
        for tup, s in zip(tups, sums):
            table[s] = get(s, ()) + (tup,)
