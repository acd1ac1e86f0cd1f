"""Exhaustive solution oracle.

Three interchangeable enumeration engines (pruned DFS, naive product scan,
meet-in-the-middle over the equation's sides) answer "does this finite set
contain a non-trivial solution?" exactly.  For a symmetric equation with
dissociated generators in all mode, the automatic choice first runs a scan
of one-side sums, which certifies a clean set without storing any tuple.
A search is only trusted when it ran to completion within its node budget;
running out raises BudgetExhausted so callers can never mistake "unknown"
for "verified absent".
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, islice, product
from math import perm
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
# the sum scan holds its stage k-1 and one bucket of its last stage, each
# within this cap.  Under tracemalloc a scanned sum costs about 41 bytes
# (its int, a list slot and the sort's buffer) and a mitm table entry about
# 90 (its sum, its product index, two list slots and the sort's buffers).
# So a scan whose last stage is one bucket peaks below mitm at
# MITM_TABLE_CAP (about 165 against 180 MB), but a bucketed scan, which
# also holds stage k-1, can peak above it (up to about 310 MB)
SCAN_SUMS_CAP = 4_000_000


class BudgetExhausted(RuntimeError):
    """Raised when an enumeration hits its node budget before finishing."""

    def __init__(self, nodes: int):
        super().__init__(f"enumeration budget exhausted after {nodes} nodes")
        self.nodes = nodes


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


def _mitm_solutions(eq, values, distinct, budget):
    """Meet in the middle over the equation's positive/negative sides.

    The shorter side (the positive one on a tie) is tabled as the sorted
    list of its sums over values^p; the tuple behind a sum is decoded from
    its index in product order, so no tuple is stored.  A table entry costs
    one node, paid before the table is built, and so do each tuple of the
    other side, scanned in product order, and each of its mates, tried in
    product order (a mirror mate too, though it is not tested).
    """
    coeffs = eq.coeffs
    pos, neg = _sides(eq)
    table_idx, scan_idx = (pos, neg) if len(pos) <= len(neg) else (neg, pos)
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

    scan_coeffs = [coeffs[i] for i in scan_idx]
    # when the scan side's coefficients are the table side's negated, in
    # order (every make_symmetric equation), the mate whose product index is
    # the scan tuple's own is its mirror x = x', countable in neither mode
    mirrored = [-c for c in scan_coeffs] == [coeffs[i] for i in table_idx]
    table_back = table_idx[::-1]
    assignment = [0] * len(coeffs)
    for own, tup in enumerate(product(values, repeat=len(scan_idx))):
        budget.spend()
        target = -sum(map(mul, scan_coeffs, tup))
        j = bisect_left(keys, target)
        if j == size or keys[j] != target:
            continue
        for i, v in zip(scan_idx, tup):
            assignment[i] = v
        while j < size and keys[j] == target:
            budget.spend()
            r = order[j]
            j += 1
            if mirrored and r == own:
                continue
            for i in table_back:
                r, d = divmod(r, n)
                assignment[i] = values[d]
            if _is_countable(eq, assignment, distinct):
                yield tuple(assignment)


def _pick_engine(q: SolutionQuery, engine: str):
    if engine != "auto":
        return {"dfs": _dfs_solutions, "naive": _naive_solutions,
                "mitm": _mitm_solutions}[engine]
    # meet in the middle whenever its table, the shorter side's sums,
    # fits and the set is not tiny (the choice is per-query deterministic)
    m = q.equation.num_vars
    size = len(q.ground_set)
    table = size ** min(map(len, _sides(q.equation)))
    if table <= min(q.budget, MITM_TABLE_CAP) and size ** (m // 2) > 10:
        return _mitm_solutions
    return _dfs_solutions


def _sums_repeat(coeffs, values, budget) -> bool:
    """Whether two different tuples x, x' in values^k (values distinct) have
    sum(c_j * x_j) == sum(c_j * x'_j), for k = len(coeffs).

    Builds the sums of j-tuples stage by stage, j = 1..k, spending one node
    per sum, and stops at the first stage whose sums repeat: equal values
    appended to both j-tuples extend the repeat to k-tuples.  Each stage is
    sorted so that repeats are adjacent: it is built as one ascending run
    per value, which the sort merges, and a list takes less memory than a
    set.  The last stage is built by _last_stage_repeats, in buckets when
    it holds more than SCAN_SUMS_CAP sums.
    """
    sums = [0]
    for c in coeffs[:-1]:
        budget.spend(len(sums) * len(values))
        sums = [s + cv for cv in [c * v for v in values] for s in sums]
        sums.sort()
        if any(map(eq, sums, islice(sums, 1, None))):
            return True
    return _last_stage_repeats(sums, coeffs[-1], values, budget)


def _last_stage_repeats(prev, c, values, budget) -> bool:
    """Whether the sums s + c*v, s in prev (sorted, repeat-free), v in
    values, repeat; one node per sum.

    Equal sums fall in the same range, so the stage is built one sum range
    [lo, hi) at a time, in ascending order, and a range is halved until it
    holds at most SCAN_SUMS_CAP sums or a single value, which at most
    len(prev) sums reach.  For each shift c*v, the sums of a range come
    from a slice of prev, whose ends bisect finds.
    """
    shifts = sorted(c * v for v in values)
    lo = prev[0] + shifts[0]
    start = [0] * len(shifts)
    # upper ends of the ranges still to build, each with its cuts: for
    # each shift t, the number of sums in prev below the end minus t
    ends = [(prev[-1] + shifts[-1] + 1, [len(prev)] * len(shifts))]
    while ends:
        hi, end = ends[-1]
        size = sum(end) - sum(start)
        if size > SCAN_SUMS_CAP and hi - lo > 1:
            mid = (lo + hi) // 2
            ends.append((mid, [bisect_left(prev, mid - t) for t in shifts]))
            continue
        ends.pop()
        budget.spend(size)
        bucket = [s + t for t, a, b in zip(shifts, start, end)
                  for s in prev[a:b]]
        bucket.sort()
        if any(map(eq, bucket, islice(bucket, 1, None))):
            return True
        del bucket      # freed before the next bucket is built
        lo, start = hi, end
    return False


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
    its stage k-1, which the last stage's buckets are built from, fits
    SCAN_SUMS_CAP."""
    if not _sums_decide(q.equation, q.distinct_variables):
        return False
    k = len(q.equation.symmetric_gen)
    size = len(q.ground_set)
    return (size ** (k - 1) <= SCAN_SUMS_CAP
            and sum(size ** j for j in range(1, k + 1)) <= q.budget)


def exhaustive_check(q: SolutionQuery, engine: str = "auto"):
    """(first countable solution or None, nodes spent).

    A None result certifies the whole space was enumerated.  With
    engine="auto", a primitive symmetric equation in all mode whose sum scan
    applies (_scan_applies) is certified clean by that scan, whose nodes are
    its sums.  When the scan finds a repeat, the engine
    _pick_engine chooses runs under a fresh budget, so witnesses and their
    node counts do not depend on the scan.
    """
    if engine == "auto" and _scan_applies(q):
        budget = _Budget(q.budget)
        if not _sums_repeat(q.equation.symmetric_gen, q.ground_set, budget):
            return None, budget.nodes
    run = _pick_engine(q, engine)
    budget = _Budget(q.budget)
    for assignment in run(q.equation, q.ground_set, q.distinct_variables, budget):
        return SolutionClass(assignment, SolutionKind.NONTRIVIAL), budget.nodes
    return None, budget.nodes


def find_nontrivial_solution(q: SolutionQuery, engine: str = "auto"):
    """First countable solution, or None once the space is fully exhausted."""
    return exhaustive_check(q, engine)[0]


def count_nontrivial_solutions(q: SolutionQuery, engine: str = "auto") -> int:
    run = _pick_engine(q, engine)
    budget = _Budget(q.budget)
    n = 0
    for _ in run(q.equation, q.ground_set, q.distinct_variables, budget):
        n += 1
    return n


def is_injective_map(a, B: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether (i_1..i_k) -> sum(i_j * a_j) is injective on [1, B]^k.

    Runs the staged sum scan of exhaustive_check, sum_j B**j nodes when
    injective; memory grows with stage k-1 and one bucket of the last.  A B
    past the budget raises BudgetExhausted(B), and a B whose stage k-1,
    B**(k-1) sums, exceeds SCAN_SUMS_CAP raises ValueError, before the scan
    runs.
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
    return not _sums_repeat(a, range(1, B + 1), _Budget(budget))


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
    every index of one equation and mode (its scope), so one search can
    share what its phases learn.
    """

    __slots__ = ("bits", "conflicts", "scope")

    def __init__(self):
        self.bits: dict[int, int] = {}
        self.conflicts: dict[int, list[int]] = {}
        self.scope = None

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
      full position set it is a dict from sums to their masks;
    - tuples, otherwise: for each side of the equation a table
      (``pos_table``, ``neg_table``) mapping one-side sums to the value
      tuples achieving them.

    When both sides have the same coefficients (a symmetric equation), the
    sides share their tuples and one table.  Adding a candidate value only
    touches the sums or tuples that contain it, so a legality test costs
    time proportional to what x brings.  An accepting ``legal(x)`` keeps
    what it built, and an ``add(x)`` that follows on the same values stores
    it without building or spending again; ``pop`` and any other ``legal``
    or ``add`` drop it.  ``add`` spends its nodes before it changes any
    table, so a BudgetExhausted leaves the index as it was.

    Sums accounting: a sum costs one node when it is built.  The new sums
    are built stage by stage, and a test rejects at the first stage whose
    new sums repeat or meet the stored ones: equal values appended to both
    j-tuples extend the repeat to k-tuples.

    Mask accounting: an entry costs one node when it is built and a pairing
    of two entries one node when it is tested.  A solution that uses x
    holds it once, on one side, and only old values on the other side.  So
    ``legal(x)`` builds, for each position p of a side, the full tuples
    with x at p as one chunk (the tuples on the other positions, shifted by
    c_p*x), and tests its sums against the other side's full table.  Only a
    sum met there costs pairings, one per mate, and a pairing is a solution
    when the two masks share no bit.  A symmetric equation tests one side:
    the tuples with x on the other side mirror it.

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
    a rejection through the stage sets: a meet pairs the stored tuple with
    the new one, and a repeat within a stage rebuilds that stage with the
    (prefix sum, value) provenance of each sum.  Masks give the values of
    both masks, and tuples those of both tuples.

    The answers do not depend on this accounting, but the node counts, and
    so how far a given budget reaches, do.
    """

    def __init__(self, eq: Equation, distinct: bool = False,
                 budget: int = DEFAULT_BUDGET,
                 memory: ConflictMemory | None = None):
        self.eq = eq
        self.distinct = distinct
        self.memory = ConflictMemory() if memory is None else memory
        if self.memory.scope is None:
            self.memory.scope = (eq, distinct)
        elif self.memory.scope != (eq, distinct):
            raise ValueError("a conflict memory serves one equation and mode")
        self.pos_idx, self.neg_idx = _sides(eq)
        self.pos_coeffs = [eq.coeffs[i] for i in self.pos_idx]
        self.neg_coeffs = [-eq.coeffs[i] for i in self.neg_idx]
        self.values: list[int] = []
        self.held = 0       # the memory's bits of the values
        self.symmetric = self.pos_coeffs == self.neg_coeffs
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
        self._undo: list = []
        # (x, what add(x) stores) of the last accepting legality test: the
        # new stages for sums, the full chunks per side for masks, (pos
        # chunks, neg chunks) for tuples
        self._kept = None
        self.tracker = _Budget(budget)

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
        no value with it, the witness being the values of both."""
        spend = self.tracker.spend
        kept = []
        for coeffs, subsets, mates in self._mask_sides():
            keys = mates.keys()
            chunks = []
            for new, masks in _full_shifts(coeffs, subsets, x):
                spend(len(new))
                if not keys.isdisjoint(new):
                    for s, m in zip(new, masks):
                        for mate in mates.get(s, ()):
                            spend()
                            if not m & mate:
                                m |= mate
                                return None, [v for i, v in enumerate(self.values)
                                              if m >> i & 1]
                chunks.append(new)
            kept.append(chunks)
        return kept, None

    def _add_masks(self, x, kept) -> list:
        """Extend every position subset's table by the tuples that use x;
        the full chunks' sums, per side, for pop."""
        bit = 1 << len(self.values)
        rows, buckets, nodes, undo = [], [], 0, []
        for side, (coeffs, subsets, _) in enumerate(self._mask_sides()):
            full = len(subsets) - 1
            if kept is not None:
                chunks = kept[side]
            else:
                chunks = [new for new, _ in _full_shifts(coeffs, subsets, x)]
                nodes += sum(map(len, chunks))
            for p, new in enumerate(chunks):
                masks = subsets[full ^ (1 << p)][1]
                buckets.append((subsets[full], new, [m | bit for m in masks]))
            undo.append(chunks)
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
            for s, m in zip(sums, masks):
                bucket = table.get(s)
                if bucket is None:
                    table[s] = [m]
                else:
                    bucket.append(m)
        return undo

    def _pop_masks(self, undo) -> None:
        n = len(self.values) - 1
        for (_, subsets, _), chunks in zip(self._mask_sides(), undo):
            _unstore(subsets[-1], chunks)
            # a position set S holds the perm(n, |S|) tuples of n values
            for S in range(1, len(subsets) - 1):
                sums, masks = subsets[S]
                size = perm(n, S.bit_count())
                del sums[size:], masks[size:]

    def _new_tuples(self, coeffs, x):
        """Chunks (tuples, sums) covering, in product order, every tuple over
        values+[x] that uses x.  A chunk's tuples differ only in the last
        position free to vary: the last one, or the one before when that
        holds x."""
        old = self.values
        later = old + [x]
        spend = self.tracker.spend
        k = len(coeffs)
        if k == 1:
            spend()
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
                spend(len(tail))
                if first < k - 1:
                    tups = [prefix + (v,) for v in tail]
                else:
                    tups = [prefix + (v, x) for v in tail]
                yield tups, [partial + c * v for v in tail]

    def _new_sums(self, x):
        """(stages, None), stages being the sets, one per stage j, of sums
        over the j-tuples of values+[x] that use x; (None, witness) at the
        first stage whose new sums repeat or meet the stored ones, the
        witness being the values of two j-tuples of equal sum, one of them
        using x.  Equal values appended to both extend them to a solution."""
        values = self.values + [x]
        spend = self.tracker.spend
        old_prev, new_prev = (0,), ()
        stages = []
        for c, old in zip(self.eq.symmetric_gen, self.sums):
            n = len(old_prev) + len(new_prev) * len(values)
            spend(n)
            new = {s + cv for cv in [c * v for v in values] for s in new_prev}
            cx = c * x
            new.update([s + cx for s in old_prev])
            if len(new) < n:
                return None, self._repeat(x, stages, c, old_prev, new_prev)
            if not old.isdisjoint(new):
                t = min(old.intersection(new))
                stages.append(new)
                return None, (self._old_tuple(t, len(stages))
                              + self._new_tuple(t, len(stages), x, stages))
            stages.append(new)
            old_prev, new_prev = old, new
        return stages, None

    def _old_tuple(self, t, j) -> list:
        """The values of a j-tuple of held values of sum t."""
        gen, sums = self.eq.symmetric_gen, self.sums
        tup = []
        for i in range(j - 1, -1, -1):
            below = sums[i - 1] if i else (0,)
            c = gen[i]
            v = next(v for v in self.values if t - c * v in below)
            tup.append(v)
            t -= c * v
        return tup

    def _new_tuple(self, t, j, x, stages) -> list:
        """The values of a j-tuple over values+[x] that uses x, of sum t in
        stages[j-1], the new sums of _new_sums."""
        gen = self.eq.symmetric_gen
        tup = []
        for i in range(j - 1, -1, -1):
            c = gen[i]
            if t - c * x in (self.sums[i - 1] if i else (0,)):
                return tup + [x] + self._old_tuple(t - c * x, i)
            v = next(v for v in self.values + [x] if t - c * v in stages[i - 1])
            tup.append(v)
            t -= c * v
        raise AssertionError("t is not a new sum")

    def _repeat(self, x, stages, c, old_prev, new_prev) -> list:
        """The values of two j-tuples that use x with equal sums, for a
        repeat within the new stage j = len(stages) + 1: the stage is
        rebuilt with the (prefix sum, last value) provenance of each sum."""
        values = self.values + [x]
        seen = {}
        for p, v in chain(product(new_prev, values), product(old_prev, (x,))):
            first = seen.setdefault(p + c * v, (p, v))
            if first != (p, v):
                break
        else:
            raise AssertionError("the stage does not repeat")
        j = len(stages) + 1
        tuples = []
        for p, v in (first, (p, v)):
            prefix = (self._new_tuple(p, j - 1, x, stages) if p in new_prev
                      else self._old_tuple(p, j - 1))
            tuples += prefix + [v]
        return tuples

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
        found = self._first_solution(self._new_tuples(self.pos_coeffs, x),
                                     (self.neg_table,), True, pos_chunks)
        if found is not None:
            return None, found[0] + found[1]
        new_pos: dict[int, list[tuple[int, ...]]] = {}
        _store(new_pos, pos_chunks)
        if self.symmetric:
            # the sides' tuples and tables coincide, and each pairing of a
            # new tuple with an old one mirrors one rejected above
            neg_chunks = pos_chunks
            found = self._first_solution(neg_chunks, (new_pos,), False)
        else:
            neg_chunks = []
            found = self._first_solution(self._new_tuples(self.neg_coeffs, x),
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
            undo = stages
        elif self.distinct:
            undo = self._add_masks(x, kept)
        else:
            if kept is not None:
                pos_chunks, neg_chunks = kept
            else:
                pos_chunks = list(self._new_tuples(self.pos_coeffs, x))
                neg_chunks = (pos_chunks if self.symmetric
                              else list(self._new_tuples(self.neg_coeffs, x)))
            _store(self.pos_table, pos_chunks)
            neg_sums = []
            if not self.symmetric:
                _store(self.neg_table, neg_chunks)
                neg_sums = [s for _, s in neg_chunks]
            undo = ([s for _, s in pos_chunks], neg_sums)
        self.values.append(x)
        self.held |= self.memory.bit(x)
        self._undo.append(undo)

    def greedy(self, candidates, on_gain=None) -> None:
        """Add, in order, each candidate that keeps the set solution-free,
        calling on_gain() after each addition.  A BudgetExhausted leaves
        the values added so far in place."""
        for x in candidates:
            if self.legal(x):
                self.add(x)
                if on_gain is not None:
                    on_gain()

    def pop(self) -> int:
        self._kept = None
        undo = self._undo.pop()
        if self.sums is not None:
            for stored, new in zip(self.sums, undo):
                stored.difference_update(new)
        elif self.distinct:
            self._pop_masks(undo)
        else:
            _unstore(self.pos_table, undo[0])
            _unstore(self.neg_table, undo[1])
        x = self.values.pop()
        self.held ^= self.memory.bits[x]
        return x


def _empty_subsets(k: int) -> list:
    """Mask tables of a side with k positions and no values: only the empty
    position set has a tuple, of sum 0 and mask 0."""
    return [([0], [0])] + [([], []) for _ in range(2 ** k - 2)] + [{}]


def _full_shifts(coeffs, subsets, x):
    """For each position p, the sums of the full tuples with x at p (the
    tuples on the other positions, shifted by c_p*x) and their masks
    without x's bit."""
    full = len(subsets) - 1
    for p, c in enumerate(coeffs):
        sums, masks = subsets[full ^ (1 << p)]
        cx = c * x
        yield [s + cx for s in sums], masks


def _store(table, chunks) -> None:
    for tups, sums in chunks:
        # a chunk's tuples differ in one value, so its sums are distinct and
        # keys new to the table need no bucket lookups
        if table.keys().isdisjoint(sums):
            table.update(zip(sums, [[tup] for tup in tups]))
            continue
        for tup, s in zip(tups, sums):
            bucket = table.get(s)
            if bucket is None:
                table[s] = [tup]
            else:
                bucket.append(tup)


def _unstore(table, chunk_sums) -> None:
    for sums in reversed(chunk_sums):
        for s in reversed(sums):
            bucket = table[s]
            bucket.pop()
            if not bucket:
                del table[s]
