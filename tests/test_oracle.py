import copy
import math
from collections import Counter
import operator
import random
import tracemalloc
from itertools import islice, product

import pytest

from nosol import oracle, search
from nosol.certificates import Certificate, make_digit_set
from nosol.constructions import (
    PipelineConfig,
    _lift_below,
    geometric_digits,
    lift,
    three_coefficient_pipeline,
    two_var_digits,
)
from nosol.equations import (
    classify_solution,
    is_dissociated,
    make_equation,
    make_symmetric,
)
from nosol.oracle import (
    BudgetExhausted,
    SCAN_SUMS_CAP,
    ConflictMemory,
    IncrementalSolutionIndex,
    SolutionQuery,
    _Budget,
    _mitm_solutions,
    _sides,
    _sums_repeat,
    count_nontrivial_solutions,
    exhaustive_check,
    find_nontrivial_solution,
    is_injective_map,
    verify_certificate,
)


def countable_solution(eq, x, distinct):
    """Whether assignment x solves eq and counts in the given mode."""
    if sum(c * v for c, v in zip(eq.coeffs, x)) != 0:
        return False
    if distinct:
        return len(set(x)) == len(x)
    sums = {}
    for c, v in zip(eq.coeffs, x):
        sums[v] = sums.get(v, 0) + c
    return any(s != 0 for s in sums.values())


def brute_count(eq, values, distinct=False):
    """Reference count, straight product scan with no shared code paths."""
    return sum(countable_solution(eq, x, distinct)
               for x in product(values, repeat=eq.num_vars))


SIDON = make_equation([1, 1, -1, -1])


def test_find_returns_nontrivial_witness():
    q = SolutionQuery(SIDON, (1, 2, 3, 4))
    sol = find_nontrivial_solution(q)
    assert sol is not None
    assert sum(c * v for c, v in zip(SIDON.coeffs, sol.assignment)) == 0
    assert not sol.is_trivial
    # deterministic first-found witness of the canonical DFS
    assert find_nontrivial_solution(q).assignment == sol.assignment


def test_find_absent_on_sidon_set():
    q = SolutionQuery(SIDON, (1, 2, 5, 11))
    assert find_nontrivial_solution(q) is None


def test_paper_exemplar_10_11_31():
    eq = make_symmetric([10, 11, 31])
    q = SolutionQuery(eq, (0, 1, 4, 5))
    assert find_nontrivial_solution(q) is None


def test_count_examples():
    assert count_nontrivial_solutions(SolutionQuery(SIDON, (1, 2, 3))) == \
        brute_count(SIDON, (1, 2, 3)) == 4
    assert count_nontrivial_solutions(SolutionQuery(SIDON, (1,))) == 0
    eq12 = make_symmetric([1, 2])
    assert count_nontrivial_solutions(SolutionQuery(eq12, (0, 1))) == 0


def test_symmetric_counts_are_even():
    for values in [(1, 2, 3), (1, 2, 3, 4), (0, 1, 2, 5)]:
        n = count_nontrivial_solutions(SolutionQuery(SIDON, values))
        assert n % 2 == 0


def test_engines_agree_randomized():
    rng = random.Random(7)
    eqs = [
        SIDON,
        make_symmetric([1, 2]),
        make_symmetric([1, 2, 4]),
        make_equation([2, 2, -3, -1]),
        make_equation([1, 1, 3, 3, -2, -6]),
    ]
    for _ in range(40):
        eq = rng.choice(eqs)
        size = rng.randint(1, 8 if eq.num_vars <= 4 else 5)
        lo = rng.randint(-10, 10)
        values = tuple(sorted(rng.sample(range(lo, lo + 40), size)))
        distinct = rng.random() < 0.5
        q = SolutionQuery(eq, values, distinct_variables=distinct)
        counts = {
            engine: count_nontrivial_solutions(q, engine=engine)
            for engine in ("dfs", "naive", "mitm")
        }
        assert counts["dfs"] == counts["naive"] == counts["mitm"]
        assert counts["dfs"] == brute_count(eq, values, distinct)
        found = {
            engine: find_nontrivial_solution(q, engine=engine) is not None
            for engine in ("dfs", "naive", "mitm")
        }
        assert len(set(found.values())) == 1


def test_distinct_mode_requires_all_values_distinct():
    # (1,3,2,2) solves the Sidon equation but repeats the value 2
    q = SolutionQuery(SIDON, (1, 2, 3), distinct_variables=True)
    assert count_nontrivial_solutions(q) == 0
    q = SolutionQuery(SIDON, (1, 2, 3, 4), distinct_variables=True)
    assert count_nontrivial_solutions(q) == brute_count(SIDON, (1, 2, 3, 4), True) > 0


def test_budget_exhaustion_raises():
    q = SolutionQuery(SIDON, tuple(range(1, 30)), budget=50)
    with pytest.raises(BudgetExhausted):
        find_nontrivial_solution(q)


def test_query_validation():
    with pytest.raises(ValueError):
        SolutionQuery(SIDON, ())
    with pytest.raises(ValueError):
        SolutionQuery(SIDON, (3, 1))
    with pytest.raises(ValueError):
        SolutionQuery(SIDON, (1, 2), budget=0)


def test_is_injective_map_examples():
    assert is_injective_map([1, 2], 2)
    assert not is_injective_map([1, 1], 2)
    # brute force on [1,5]^2: 5(i-i') = 7(j'-j) forces i=i', j=j'
    sums = [5 * i + 7 * j for i in range(1, 6) for j in range(1, 6)]
    assert len(sums) == len(set(sums))
    assert is_injective_map([5, 7], 5)
    assert not is_injective_map([5, 7], 8)   # d = (7, -5) now in range
    assert is_injective_map([4, 9], 1)


def test_injectivity_matches_symmetric_oracle():
    rng = random.Random(11)
    for _ in range(25):
        k = rng.randint(2, 3)
        a = sorted(rng.sample(range(1, 40), k))
        B = rng.randint(2, 5)
        eq = make_symmetric(a)
        free = find_nontrivial_solution(
            SolutionQuery(eq, tuple(range(1, B + 1)))) is None
        injective = is_injective_map(a, B)
        if injective:
            assert free
        # the converse needs dissociated generators
        from nosol.equations import is_dissociated
        if is_dissociated(a):
            assert injective == free


def test_verify_certificate_valid_and_tampered():
    eq = make_symmetric([1, 2])
    good = Certificate(make_digit_set(4, [0, 1], eq), verified=True)
    assert verify_certificate(good)

    tampered = good.to_json()
    tampered["digits"] = [0, 1, 2]
    assert verify_certificate(tampered) is False

    eq31 = make_symmetric([10, 11, 31])
    cert31 = Certificate(make_digit_set(261, [0, 1, 4, 5], eq31), verified=True)
    assert verify_certificate(cert31)


def test_verify_certificate_catches_solution():
    # digits {0,1,2,3} admit 1+2 = 3+0 for the Sidon equation
    eq = make_equation([1, 1, -1, -1])
    bad = Certificate(make_digit_set(9, [0, 1, 2, 3], eq), verified=False)
    assert verify_certificate(bad) is False


def test_verify_certificate_propagates_budget():
    eq = make_symmetric([10, 11, 31])
    cert = Certificate(make_digit_set(261, [0, 1, 4, 5], eq), verified=True)
    with pytest.raises(BudgetExhausted):
        verify_certificate(cert, budget=3)


def test_incremental_index_matches_oracle():
    rng = random.Random(3)
    for eq in (SIDON, make_symmetric([1, 2]), make_equation([2, 2, -3, -1])):
        for distinct in (False, True):
            idx = IncrementalSolutionIndex(eq, distinct=distinct)
            chosen = []
            for x in range(0, 25):
                if idx.legal(x):
                    idx.add(x)
                    chosen.append(x)
            q = SolutionQuery(eq, tuple(chosen), distinct_variables=distinct)
            assert find_nontrivial_solution(q) is None
            # every rejected candidate really does create a solution
            for x in range(0, 25):
                if x in chosen:
                    continue
                q2 = SolutionQuery(eq, tuple(sorted(chosen + [x])),
                                   distinct_variables=distinct)
                assert find_nontrivial_solution(q2) is not None


def test_incremental_index_pop_restores_state():
    idx = IncrementalSolutionIndex(SIDON)
    for x in (0, 1, 3):
        assert idx.legal(x)
        idx.add(x)
    assert not idx.legal(4)    # 1+3 = 4+0
    idx.pop()
    assert idx.values == [0, 1]
    assert idx.legal(3)


def index_state(idx):
    """Every table of the index, whichever representation it holds."""
    return (idx.sums, idx.pos_subsets, idx.neg_subsets,
            idx.pos_table, idx.neg_table)


def pop_spending_nothing(idx):
    """idx.pop(), which rebuilds what it removes without spending a node."""
    nodes = idx.nodes
    idx.pop()
    assert idx.nodes == nodes


def fresh_index_state(idx):
    """The state of a fresh index on the same equation fed idx.values."""
    fresh = IncrementalSolutionIndex(idx.eq, distinct=idx.distinct)
    for v in idx.values:
        fresh.add(v)
    return index_state(fresh)


def test_incremental_index_random_operations():
    """Random legal/add/pop sequences against the naive engine.

    Covers the three representations (sums in all mode for the dissociated
    symmetric equations, masks in distinct mode, tuples otherwise), sides
    of unequal length, an add after an accepting legal, an add with no
    legal before it, a pop between an accepting legal and the add of the
    same value (what legal kept is then stale) and negative values.  Sets
    stay small so the naive product scan stays cheap.
    """
    rng = random.Random(20261018)
    cases = [(make_symmetric([43, 69, 70]), 4), (make_symmetric([10, 11, 31]), 4),
             (make_symmetric([1, 2]), 7), (make_equation([2, 2, -3, -1]), 7),
             (make_equation([3, -1, -1, -1]), 7),
             (make_symmetric([1, 2, 4, 8]), 3)]
    for eq, cap in cases:
        for distinct in (False, True):
            expected = {}

            def free_with(idx, x):
                key = tuple(sorted(idx.values + [x]))
                if key not in expected:
                    q = SolutionQuery(eq, key, distinct_variables=distinct)
                    expected[key] = find_nontrivial_solution(q, engine="naive") is None
                return expected[key]

            idx = IncrementalSolutionIndex(eq, distinct=distinct)
            for _ in range(60):
                x = rng.randrange(-12, 24)
                op = rng.randrange(3)
                if x in idx.values:
                    assert not idx.legal(x)
                elif op == 0:
                    assert idx.legal(x) == free_with(idx, x)
                    if free_with(idx, x) and len(idx.values) < cap:
                        if idx.values and rng.random() < 0.3:
                            pop_spending_nothing(idx)
                        idx.add(x)
                elif op == 1 and free_with(idx, x) and len(idx.values) < cap:
                    idx.add(x)
                elif op == 2 and idx.values:
                    pop_spending_nothing(idx)
            assert index_state(idx) == fresh_index_state(idx)


def test_sums_index_holds_each_sum_once():
    # the depth-3 lift of the thm3 10/11/31 alphabet {0, 1, 4, 5} at base
    # 261: 64 values, 64 + 64**2 + 64**3 held sums.  Held once, a sum costs
    # about 64 traced bytes; a second copy of each (an undo record) costs 124
    eq = make_symmetric([10, 11, 31])
    cert = Certificate(make_digit_set(261, [0, 1, 4, 5], eq), verified=True)
    values = lift(cert, 261 ** 3).elements
    tracemalloc.start()
    try:
        idx = IncrementalSolutionIndex(eq)
        for x in values:
            idx.add(x)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    sums = sum(map(len, idx.sums))
    assert (len(values), sums) == (64, 266304)
    assert held / sums < 96


@pytest.mark.parametrize("eq,distinct,sums", [
    (make_symmetric([43, 69, 70]), False, True),
    (make_symmetric([1, 2, 4, 8]), False, True),
    (make_symmetric([43, 69, 70]), True, False),
    (make_symmetric([1, 1]), False, False),       # not dissociated
    (make_symmetric([1, 2, 3]), False, False),    # 1 + 2 = 3
    (make_equation([2, 2, -3, -1]), False, False),
    (make_symmetric([1, 1]), True, False),
    (make_equation([3, -1, -1, -1]), True, False),
])
def test_incremental_index_representation(eq, distinct, sums):
    """Sums when they decide, masks in distinct mode, tuples otherwise."""
    representation = "sums" if sums else "masks" if distinct else "tuples"
    idx = IncrementalSolutionIndex(eq, distinct=distinct)
    for x in (0, 1, 3, 7):
        if idx.legal(x):
            idx.add(x)
    held = {"sums": idx.sums, "masks": idx.pos_subsets, "tuples": idx.pos_table}
    assert [name for name, state in held.items() if state is not None] == [representation]
    # every stage, the full position set's table or the tuple table is filled
    assert all(idx.sums) if sums else idx.pos_subsets[-1] if distinct else idx.pos_table


@pytest.mark.parametrize("eq,distinct,after_legal", [
    (make_symmetric([43, 69, 70]), False, False),
    (make_symmetric([43, 69, 70]), True, False),
    (make_symmetric([43, 69, 70]), True, True),
    (make_equation([3, -1, -1, -1]), True, True),
    (make_equation([2, 2, -3, -1]), False, False),
])
def test_incremental_index_add_is_budget_atomic(eq, distinct, after_legal):
    """A budget that runs out at the last node an add needs leaves the
    index unchanged."""
    def build():
        idx = IncrementalSolutionIndex(eq, distinct=distinct)
        idx.greedy(range(8))
        return idx

    finder = build()
    x = next(v for v in range(8, 100) if finder.legal(v))

    def ready():
        idx = build()
        if after_legal:
            assert idx.legal(x)     # add then builds all but what legal kept
        return idx

    probe = ready()
    before = probe.nodes
    probe.add(x)
    need = probe.nodes - before
    assert need > 1
    idx = ready()
    held = list(idx.values)
    idx.tracker.limit = idx.nodes + need - 1
    with pytest.raises(BudgetExhausted):
        idx.add(x)
    assert idx.values == held
    assert index_state(idx) == fresh_index_state(idx)


@pytest.mark.parametrize("eq,distinct,kind", [
    (make_symmetric([1, 2]), False, "sums"),
    (make_symmetric([1, 2]), True, "pos_subsets"),
    (make_equation([2, 2, -3, -1]), False, "pos_table"),
])
def test_incremental_index_add_refuses_a_held_value(eq, distinct, kind):
    idx = IncrementalSolutionIndex(eq, distinct)
    assert getattr(idx, kind) is not None
    for x in (0, 1, 5):
        idx.add(x)
    before = index_state(idx)
    with pytest.raises(ValueError, match="1 is already in the index"):
        idx.add(1)
    assert index_state(idx) == before


def test_incremental_index_sums_add_refuses_a_solution():
    # sym(1,2) in all mode: 0 + 2*2 = 2 + 2*1, so {0, 1, 2} has a solution
    idx = IncrementalSolutionIndex(make_symmetric([1, 2]))
    idx.add(0)
    idx.add(1)
    before = [set(stage) for stage in idx.sums]
    with pytest.raises(ValueError):
        idx.add(2)
    assert idx.values == [0, 1] and idx.sums == before


@pytest.mark.parametrize("eq,distinct,representation", [
    (make_symmetric([43, 69, 70]), False, "sums"),
    (make_symmetric([43, 69, 70]), True, "masks"),
    (make_equation([2, 2, -3, -1]), False, "tuples"),
])
def test_conflict_memory_differential(eq, distinct, representation):
    """Random legal/add/pop sequences on two indexes that share one memory
    answer as a fresh index fed the same values does, and every remembered
    conflict plus its key holds a non-trivial solution that uses the key."""
    rng = random.Random(20261019)
    memory = ConflictMemory()
    indexes = [IncrementalSolutionIndex(eq, distinct, memory=memory)
               for _ in range(2)]
    state = {"sums": indexes[0].sums, "masks": indexes[0].pos_subsets,
             "tuples": indexes[0].pos_table}
    assert [name for name, s in state.items() if s is not None] == [representation]
    answered = 0
    for _ in range(600):
        idx = rng.choice(indexes)
        x = rng.randrange(16)
        if rng.random() < 0.2 and idx.values:
            idx.pop()
            continue
        fresh = IncrementalSolutionIndex(eq, distinct)
        for v in idx.values:
            fresh.add(v)
        held = any(w & idx.held == w for w in memory.conflicts.get(x, ()))
        answer = idx.legal(x)
        assert answer == fresh.legal(x)
        answered += held and x not in idx.values
        if answer and len(idx.values) < 8:
            idx.add(x)
    # enough of the rejections came from the memory to test it
    assert answered >= 20
    value_of = {b: v for v, b in memory.bits.items()}
    for x, witnesses in memory.conflicts.items():
        for w in witnesses:
            values = sorted([v for b, v in value_of.items() if w & b] + [x])
            q = SolutionQuery(eq, values, distinct_variables=distinct)
            solution, _ = exhaustive_check(q, engine="naive")
            assert solution is not None and x in solution.assignment, (x, values)


@pytest.mark.parametrize("eq,distinct,representation", [
    (make_symmetric([43, 69, 70]), False, "sums"),
    (make_symmetric([43, 69, 70]), True, "masks"),
    (make_equation([3, -1, -1, -1]), True, "masks"),
    (make_equation([2, 2, -3, -1]), False, "tuples"),
    (make_symmetric([1, 2, 3]), False, "tuples"),
])
def test_incremental_index_copy_is_independent(eq, distinct, representation):
    """After a seeded add/pop/legal run, a copy answers as a fresh index
    fed the same values, and adds and pops on the copy leave the
    original's tables as they were and its answers and the nodes each
    costs equal to those of a double that was never copied."""
    rng = random.Random(20261020)

    def fed(values):
        fresh = IncrementalSolutionIndex(eq, distinct)
        for v in values:
            fresh.add(v)
        return fresh

    for _ in range(12):
        memory = ConflictMemory()
        original = IncrementalSolutionIndex(eq, distinct, memory=memory)
        double = IncrementalSolutionIndex(eq, distinct)
        assert getattr(original, {"sums": "sums", "masks": "pos_subsets",
                                  "tuples": "pos_table"}[representation]
                       ) is not None
        for _ in range(rng.randrange(40)):
            x = rng.randrange(16)
            if rng.random() < 0.2 and original.values:
                pop_spending_nothing(original)
                pop_spending_nothing(double)
                continue
            answer = original.legal(x)
            assert answer == double.legal(x)
            if answer and len(original.values) < 7:
                original.add(x)
                double.add(x)
        # an accepting test whose add comes after the copy's changes
        pending = None
        for x in range(16):
            answer = original.legal(x)
            assert answer == double.legal(x)
            if answer:
                pending = x
                break
        spent = original.nodes
        twin = original.copy()
        assert original.nodes == spent
        assert (twin.tracker, twin.memory) == (original.tracker, memory)
        assert twin.values == original.values and twin.held == original.held
        assert index_state(twin) == index_state(original)
        before = copy.deepcopy(index_state(original))
        for _ in range(rng.randrange(1, 30)):
            x = rng.randrange(24)
            if rng.random() < 0.3 and twin.values:
                pop_spending_nothing(twin)
            elif len(twin.values) < 8 and fed(twin.values).legal(x):
                twin.add(x)
        assert index_state(original) == before
        for x in range(16):
            start = (original.nodes, double.nodes)
            assert original.legal(x) == double.legal(x)
            assert original.nodes - start[0] == double.nodes - start[1]
        if pending is not None:
            assert original.legal(pending)
            original.add(pending)
            double.add(pending)
            assert index_state(original) == index_state(double)
        for x in range(24):
            assert twin.legal(x) == fed(twin.values).legal(x)
        assert index_state(twin) == fresh_index_state(twin)
        while original.values:
            pop_spending_nothing(original)
            assert index_state(original) == fresh_index_state(original)


def rounds_reference(idx, x):
    """(answer, witness mask, nodes, round, lane) of idx.legal(x) in
    distinct mode, walked over whole chunks: each lane, a side's full
    tuples with x at one position, is cut into pieces of FIRST_PIECE
    entries and then twice as many, and round r tests piece r of every
    lane in turn.  A piece's entries cost a node each, and each mate of
    an entry's sum a node; remembered conflicts are scanned first.
    witness is the memory's bits of the held values of the solution."""
    memory = idx.memory
    if idx.held & memory.bits.get(x, 0):
        return False, None, 0, None, None
    conflicts = memory.conflicts.get(x, [])
    for i, w in enumerate(conflicts, 1):
        if w & idx.held == w:
            return False, None, i, None, None
    nodes = len(conflicts)
    lanes = []
    for coeffs, subsets, mates in idx._mask_sides():
        full = len(subsets) - 1
        for p, c in enumerate(coeffs):
            sums, masks = subsets[full ^ (1 << p)]
            lanes.append(([s + c * x for s in sums], masks, mates))
    lo, size, r = 0, oracle.FIRST_PIECE, 0
    while any(lo < len(sums) for sums, _, _ in lanes):
        for lane, (sums, masks, mates) in enumerate(lanes):
            piece = range(lo, min(lo + size, len(sums)))
            nodes += len(piece)
            for i in piece:
                bucket = mates.get(sums[i], [])
                for mate in [bucket] if isinstance(bucket, int) else bucket:
                    nodes += 1
                    if not masks[i] & mate:
                        both = masks[i] | mate
                        witness = 0
                        for j, v in enumerate(idx.values):
                            if both >> j & 1:
                                witness |= memory.bits[v]
                        return False, witness, nodes, r, lane
        lo, size, r = lo + size, 2 * size, r + 1
    return True, None, nodes, None, None


@pytest.mark.parametrize("eq", [make_symmetric([211, 347, 509]),
                                make_equation([5, 7, 11, -23])])
def test_distinct_index_pieces_differential(eq):
    """Random legal/add/pop sequences in distinct mode over range(60), on
    held sets that reach 11-14 values, so that a position's full chunk,
    n(n-1) tuples on a side of three positions, spans three pieces or
    more.  Each test's answer, witness and nodes are those of a plain
    walk over whole chunks in round order, and the memory holds exactly
    the witnesses it gave.  Each answer agrees with mitm, which shares no
    code with the index, and each remembered conflict plus its key holds
    a solution that uses the key."""
    rng = random.Random(20261020)
    idx = IncrementalSolutionIndex(eq, distinct=True)
    memory = idx.memory
    log, conflicts, found = [], {}, []
    for _ in range(400):
        x = rng.randrange(60)
        if rng.random() < 0.1 and idx.values:
            idx.pop()
            continue
        answer, witness, nodes, r, lane = rounds_reference(idx, x)
        before = idx.nodes
        assert idx.legal(x) == answer
        assert idx.nodes - before == nodes
        if witness is not None:
            conflicts.setdefault(x, []).append(witness)
            found.append((len(idx.values), r, lane))
        assert memory.conflicts == conflicts
        log.append((tuple(idx.values), x, answer))
        if answer and len(idx.values) < 14:
            idx.add(x)
    assert max(len(values) for values, _, _ in log) == 14
    # rejections built from the index's tables on 11 values or more, some
    # of them met in a later round, and some in a later lane of a round
    built = [(r, lane) for n, r, lane in found if n >= 11]
    assert len(built) >= 50
    assert any(r >= 2 for r, _ in built)
    assert any(r >= 1 and lane >= 1 for r, lane in built)

    expected = {}
    for values, x, answer in log:
        if x in values:
            assert not answer
            continue
        key = tuple(sorted(values + (x,)))
        if key not in expected:
            q = SolutionQuery(eq, key, distinct_variables=True)
            expected[key] = exhaustive_check(q, engine="mitm")[0] is None
        assert answer == expected[key], key
    value_of = {b: v for v, b in memory.bits.items()}
    for x, witnesses in memory.conflicts.items():
        for w in witnesses:
            values = sorted([v for b, v in value_of.items() if w & b] + [x])
            q = SolutionQuery(eq, values, distinct_variables=True)
            solution, _ = exhaustive_check(q, engine="mitm")
            assert solution is not None and x in solution.assignment, (x, values)


@pytest.mark.parametrize("eq", [make_symmetric([43, 69, 70]),
                                make_equation([5, 7, 11, -23])])
def test_distinct_index_budget_edge(eq):
    """A distinct-mode test spends its pairings once per walked piece, or
    at the witness.  On seeded held sets, legal(x) at every limit from its
    unlimited cost - 40 to + 5 gives the unlimited answer when the cost
    fits the limit, and otherwise raises BudgetExhausted with a count past
    the limit and within the cost, leaving the tables and the memory as
    they were.  Popped back value by value, the index holds a fresh
    index's tables at every size."""
    rng = random.Random(20261021)
    idx = IncrementalSolutionIndex(eq, distinct=True)
    memory = idx.memory
    cut = 0
    for _ in range(150):
        x = rng.randrange(60)
        state = copy.deepcopy((index_state(idx), memory.conflicts))

        def probe(limit):
            idx.memory = copy.deepcopy(memory)
            idx.tracker = _Budget(limit)
            return idx.legal(x)

        answer = probe(10 ** 9)
        cost = idx.nodes
        for limit in range(max(cost - 40, 0), cost + 6):
            if limit >= cost:
                assert probe(limit) == answer and idx.nodes == cost
                continue
            with pytest.raises(BudgetExhausted) as raised:
                probe(limit)
            assert limit < raised.value.nodes <= cost
            assert (index_state(idx), idx.memory.conflicts) == state
            cut += 1
        idx.memory, idx.tracker = memory, _Budget(10 ** 9)
        if idx.legal(x) and len(idx.values) < 12:
            idx.add(x)
    assert len(idx.values) >= 9 and cut >= 2000
    while idx.values:
        idx.pop()
        assert index_state(idx) == fresh_index_state(idx)


def test_conflict_memory_serves_one_equation_and_mode():
    memory = ConflictMemory()
    IncrementalSolutionIndex(make_symmetric([43, 69, 70]), memory=memory)
    IncrementalSolutionIndex(make_symmetric([43, 69, 70]), memory=memory)
    for eq, distinct in ((make_symmetric([43, 69, 70]), True),
                         (make_symmetric([10, 11, 31]), False)):
        with pytest.raises(ValueError):
            IncrementalSolutionIndex(eq, distinct, memory=memory)


def test_injectivity_two_coefficients_closed_form():
    # a1*i + a2*j repeats on [1,B]^2 iff the smallest nonzero difference
    # (a2/g, -a1/g), g = gcd(a1, a2), fits in [-(B-1), B-1]^2
    rng = random.Random(23)
    for _ in range(500):
        a1, a2 = rng.randint(1, 60), rng.randint(1, 60)
        B = rng.randint(1, 12)
        fails = max(a1, a2) // math.gcd(a1, a2) <= B - 1
        assert is_injective_map([a1, a2], B) == (not fails)


def _scan_witness(coeffs, values):
    """The repeat that _sums_repeat returns, from plain lists of all the
    sums: at the first stage j whose j-tuple sums repeat, the two j-tuples
    of its least repeated sum with the least last values, padded with
    values[0]; None when no stage repeats."""
    for j in range(1, len(coeffs) + 1):
        by_sum = {}
        for x in product(values, repeat=j):
            by_sum.setdefault(sum(map(operator.mul, coeffs, x)), []).append(x)
        repeated = [t for t, xs in by_sum.items() if len(xs) > 1]
        if repeated:
            pad = (values[0],) * (len(coeffs) - j)
            return tuple(x + pad for x in sorted(by_sum[min(repeated)],
                                                 key=lambda x: x[-1])[:2])
    return None


def _scan_ranges(coeffs, values):
    """The sums of each range of _sums_repeat's last stage, in order, from
    a plain list of all its sums (stage k-1 repeat-free): a range [lo, hi)
    is halved at (lo + hi) // 2 while it holds more than one value and more
    sums than its cap: SCAN_SUMS_CAP when it spans at most 64 bits a sum
    and more than stage k-1, else the least of SCAN_SUMS_CAP and
    max(|S|**(k-1), |S|**2)."""
    k = len(coeffs)
    prev = sorted(sum(map(operator.mul, coeffs, x))
                  for x in product(values, repeat=k - 1))
    sums = sorted(s + coeffs[-1] * v for s in prev for v in values)
    piece = min(oracle.SCAN_SUMS_CAP, max(len(prev), len(values) ** 2))
    ranges = []

    def build(lo, hi):
        inside = [s for s in sums if lo <= s < hi]
        dense = prev[-1] - prev[0] < hi - lo <= 64 * len(inside)
        if (len(inside) > (oracle.SCAN_SUMS_CAP if dense else piece)
                and hi - lo > 1):
            build(lo, (lo + hi) // 2)
            build((lo + hi) // 2, hi)
        else:
            ranges.append(inside)

    build(sums[0], sums[-1] + 1)
    return ranges


def _last_stage_nodes(coeffs, values):
    """The nodes _sums_repeat spends on its last stage: the sums of the
    ranges (_scan_ranges) up to the first that holds a repeat, or all."""
    nodes = 0
    for sums in _scan_ranges(coeffs, values):
        nodes += len(sums)
        if len(set(sums)) < len(sums):
            break
    return nodes


def test_bucketed_last_stage_matches_one_bucket(monkeypatch):
    """A last stage over SCAN_SUMS_CAP sums is built in sum-range buckets.
    With a cap of a few sums, small inputs split, and BITSET_WORDS_PER_SUM
    from 0 (every range sorted) to large (every range that spans few
    enough bits a bitset); the repeat must be the one that plain lists of
    all the sums give, whatever the split, and a clean scan must spend the
    same nodes."""
    rng = random.Random(20261019)
    max_size = {1: 30, 2: 14, 3: 6, 4: 4}
    default_words = oracle.BITSET_WORDS_PER_SUM
    outcomes = set()
    for _ in range(400):
        k = rng.randint(1, 4)
        coeffs = [rng.randint(1, 25) for _ in range(k)]
        size = rng.randint(1, max_size[k])
        lo = rng.randint(-60, 10)
        spread = rng.choice((size, 2 * size, 12 * size))
        values = sorted(rng.sample(range(lo, lo + spread), size))
        want = _scan_witness(coeffs, values)
        repeats = want is not None
        answers = []
        for cap, words in ((10 ** 9, default_words),
                           (rng.randint(1, 7), rng.choice((0, 1, 10 ** 6)))):
            monkeypatch.setattr(oracle, "SCAN_SUMS_CAP", cap)
            monkeypatch.setattr(oracle, "BITSET_WORDS_PER_SUM", words)
            budget = _Budget(10 ** 9)
            answers.append((_sums_repeat(coeffs, values, budget), budget.nodes))
        (whole, whole_nodes), (split, split_nodes) = answers
        assert whole == split == want, (coeffs, values)
        if not repeats:
            assert split_nodes == whole_nodes, (coeffs, values)
        split_up = size ** k > cap
        # whether the first repeat is in the last stage, where buckets are
        last_only = repeats and len({sum(map(operator.mul, coeffs, x))
                                     for x in product(values, repeat=k - 1)
                                     }) == size ** (k - 1)
        outcomes.add((split_up, repeats, last_only))
    assert {(True, False, False), (True, True, True)} <= outcomes


def _first_repeating_stage(coeffs, values):
    """The first j whose j-tuple sums repeat, from plain sets of all the
    sums; None when the k-tuple sums are distinct."""
    for j in range(1, len(coeffs) + 1):
        sums = {sum(map(operator.mul, coeffs, x))
                for x in product(values, repeat=j)}
        if len(sums) < len(values) ** j:
            return j
    return None


def _forced_scan(monkeypatch, bitset, coeffs, values, limit):
    """(answer, nodes) of _sums_repeat with every range of its last stage
    forced to the bitset or the sorted scan; ("cut", nodes) when the budget
    runs out."""
    monkeypatch.setattr(oracle, "_range_bitset_pays", lambda *args: bitset)
    budget = _Budget(limit)
    try:
        return _sums_repeat(coeffs, values, budget), budget.nodes
    except BudgetExhausted as exc:
        return "cut", exc.nodes


def test_bitset_last_stage_matches_the_sorted_scan(monkeypatch):
    """The bitset and the sorted last stage give the repeat of plain lists
    of all the sums, spend one node per sum up to the first repeating
    stage, and are cut by a small budget at the same node, whether the
    last stage is one sum range or, under a cap of a few sums, several."""
    rng = random.Random(20261020)
    max_size = {1: 30, 2: 14, 3: 7, 4: 4}
    seen = set()
    splits = set()
    for _ in range(400):
        k = rng.randint(1, 4)
        size = rng.randint(2, max_size[k])
        lo = rng.randint(-60, 10)
        spread = rng.choice((size, 3 * size, 12 * size))
        values = sorted(rng.sample(range(lo, lo + spread), size))
        if rng.random() < 0.5:
            coeffs = [rng.randint(1, 25) for _ in range(k)]
        else:
            # powers of the width keep the j-tuple sums distinct, and a
            # repeated coefficient makes the stage after it repeat
            width = values[-1] - values[0] + 1
            coeffs = [width ** j for j in range(k)]
            stage = rng.randint(2, k + 1)
            if stage <= k:
                coeffs[stage - 1] = coeffs[stage - 2]
        first = _first_repeating_stage(coeffs, values)
        seen.add((k, first))
        nodes = sum(size ** j for j in range(1, (first or k) + 1))
        for cap in (10 ** 9, rng.randint(1, 9)):
            monkeypatch.setattr(oracle, "SCAN_SUMS_CAP", cap)
            runs = {bitset: _forced_scan(monkeypatch, bitset, coeffs, values,
                                         10 ** 9) for bitset in (True, False)}
            assert runs[True] == runs[False], (coeffs, values, cap)
            answer, spent = runs[True]
            assert answer == _scan_witness(coeffs, values), (coeffs, values)
            if first in (None, k):
                # a last stage in several ranges stops at its first
                # repeating range
                below = sum(size ** j for j in range(1, k))
                assert spent == below + _last_stage_nodes(coeffs, values), (
                    coeffs, values, cap)
                split = len(_scan_ranges(coeffs, values)) > 1
                splits.add((split, first is not None))
            else:
                assert spent == nodes, (coeffs, values, cap)
            for limit in {1, nodes - 1, rng.randint(1, nodes)} - {0}:
                assert _forced_scan(monkeypatch, True, coeffs, values, limit) \
                    == _forced_scan(monkeypatch, False, coeffs, values,
                                    limit), (coeffs, values, cap, limit)
    # every k, clean and with the first repeat at each stage from 2 (the
    # values are distinct, so stage 1 never repeats)
    assert seen == {(k, first) for k in range(1, 5)
                    for first in (None, *range(2, k + 1))}
    # one range and several, clean and repeating
    assert splits == {(split, repeats) for split in (False, True)
                      for repeats in (False, True)}


def _range_paths(monkeypatch):
    """The list to which each later last-stage range of _sums_repeat
    appends True when it is built as a bitset and False when sorted."""
    paths = []
    pays = oracle._range_bitset_pays

    def spy(*args):
        paths.append(pays(*args))
        return paths[-1]

    monkeypatch.setattr(oracle, "_range_bitset_pays", spy)
    return paths


@pytest.mark.parametrize("build,N,sorted_ranges,bitset_ranges", [
    # 64 elements of sum span 67.8 bits per last-stage sum: too sparse for
    # a bitset, so sorted in 110 ranges of at most 64**2 sums
    pytest.param(lambda: three_coefficient_pipeline(
        10, 11, 31, PipelineConfig(alpha=0.3, alpha2_small=0.03)).certificate,
        261 ** 3, 110, 0, id="thm3_10_11_31"),
    # 1,024 and 128 elements whose sums fill their span: one bitset
    pytest.param(lambda: two_var_digits(1, 2), 10 ** 6, 0, 1,
                 id="two_var_1e6"),
    pytest.param(lambda: geometric_digits(2, 3), 8 ** 7, 0, 1,
                 id="geometric_8e7"),
])
def test_lift_scan_takes_the_path_its_sums_call_for(monkeypatch, build, N,
                                                    sorted_ranges,
                                                    bitset_ranges):
    cert = build()
    q = SolutionQuery(cert.equation, lift(cert, N).elements)
    paths = _range_paths(monkeypatch)
    k = len(cert.equation.symmetric_gen)
    size = len(q.ground_set)
    assert exhaustive_check(q) == (None, sum(size ** j
                                             for j in range(1, k + 1)))
    assert (paths.count(False), paths.count(True)) == (sorted_ranges,
                                                        bitset_ranges)


def test_sparse_lift_scan_holds_no_range_longer_than_stage_two():
    # the 64-element 10/11/31 lift: its 64**3 last-stage sums, sorted in one
    # range, peaked at 10.7 MiB traced; in ranges of at most 64**2 sums
    # the check stays under 1 MiB
    cert = three_coefficient_pipeline(
        10, 11, 31, PipelineConfig(alpha=0.3, alpha2_small=0.03)).certificate
    q = SolutionQuery(cert.equation, lift(cert, 261 ** 3).elements)
    tracemalloc.start()
    try:
        result = exhaustive_check(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (None, 266304)
    assert peak <= 2 ** 20


def test_sparse_last_stage_differential(monkeypatch):
    """Sparse sets (a spread of at least 40*|S|), k = 3 and 4, at the
    default caps, whose last stages _scan_ranges cuts into several ranges.
    The repeat is the one plain lists of all the sums give, a clean scan
    spends sum_j |S|**j nodes and a repeating last stage the stages below
    and the ranges up to the repeat, and the forced bitset and sorted
    builds agree on answer and nodes at every budget limit."""
    rng = random.Random(20261028)
    max_size = {3: 6, 4: 4}
    outcomes = set()
    for _ in range(60):
        k = rng.choice((3, 4))
        size = rng.randint(2, max_size[k])
        lo = rng.randint(-60, 10)
        spread = rng.choice((40, 200)) * size
        values = sorted(rng.sample(range(lo, lo + spread), size))
        coeffs = [rng.randint(1, 60) for _ in range(k)]
        first = _first_repeating_stage(coeffs, values)
        if first in (None, k):
            nodes = (sum(size ** j for j in range(1, k))
                     + _last_stage_nodes(coeffs, values))
            ranges = len(_scan_ranges(coeffs, values))
        else:
            nodes, ranges = sum(size ** j for j in range(1, first + 1)), 0
        if first is None:
            assert nodes == sum(size ** j for j in range(1, k + 1))
        answer = _scan_witness(coeffs, values)
        for limit in range(1, nodes + 1):
            runs = [_forced_scan(monkeypatch, bitset, coeffs, values, limit)
                    for bitset in (True, False)]
            assert runs[0] == runs[1], (coeffs, values, limit)
        assert runs[0] == (answer, nodes), (coeffs, values)
        outcomes.add((k, ranges > 1, first))
    # clean and repeating last stages, each cut into several ranges
    assert {(k, True, first) for k in (3, 4) for first in (None, k)
            } <= outcomes


@pytest.mark.parametrize("build,nodes,ranges", [
    # 2500**2 sums that fill their span, in 2 ranges of 1,250 shifts
    pytest.param(lambda: two_var_digits(1, 2500), 2500 + 2500 ** 2, 2,
                 id="two_var_1_2500"),
    # 60**4 sums that fill their span, in 4 ranges of 15 shifts
    pytest.param(lambda: geometric_digits(60, 4), 60 + 60 ** 2 + 60 ** 3
                 + 60 ** 4, 4, id="geometric_60_4"),
])
def test_scan_past_the_cap_builds_every_range_as_a_bitset(monkeypatch, build,
                                                          nodes, ranges):
    # their last-stage sums exceed SCAN_SUMS_CAP, dense as they are
    paths = _range_paths(monkeypatch)
    assert build().oracle_nodes == nodes
    assert paths == [True] * ranges


def _picked_engine_result(q):
    """(witness or None, nodes) of the engine _auto_engine(q)
    chooses, run directly under a fresh budget; ("budget", nodes) when it
    runs out."""
    budget = _Budget(q.budget)
    try:
        for assignment in oracle._ENGINES[oracle._auto_engine(q)](
                q.equation, q.ground_set, q.distinct_variables, budget):
            return assignment, budget.nodes
    except BudgetExhausted as exc:
        return "budget", exc.nodes
    return None, budget.nodes


def _auto_result(q):
    try:
        solution, nodes = exhaustive_check(q)
    except BudgetExhausted as exc:
        return "budget", exc.nodes
    return (solution.assignment if solution else None), nodes


def test_auto_sum_scan_differential():
    """The automatic choice against the naive engine and the engine it
    falls back to.  On a dissociated symmetric equation in all mode, unless
    the scan exceeds the budget, the scan answers: a clean set costs its
    sum_j |S|**j nodes, and a witness is a non-trivial solution in the set
    at the nodes of the stages up to the first that repeats, of which a
    last stage spends only its ranges up to the repeat (_last_stage_nodes).
    Every other answer, witnesses included, is exactly that of the engine
    _auto_engine selects.  Non-dissociated generators and distinct mode
    never use the scan."""
    rng = random.Random(20261018)
    dissociated = [(1, 2), (2, 5), (1, 2, 4), (1, 3, 9), (10, 11, 31),
                   (43, 69, 70), (1, 2, 4, 8)]
    other = [(1, 1), (1, 2, 3), (2, 3, 5)]
    max_size = {2: 12, 3: 5, 4: 3}
    outcomes = set()
    for _ in range(300):
        gens = rng.choice(dissociated + other)
        k = len(gens)
        size = rng.randint(1, max_size[k])
        lo = rng.randint(-60, 20)
        spread = rng.choice((3 * size, 40 * size))
        values = tuple(sorted(rng.sample(range(lo, lo + spread), size)))
        distinct = rng.random() < 0.2
        scan_nodes = sum(size ** j for j in range(1, k + 1))
        budget = rng.choice((10 ** 6, scan_nodes - 1))
        q = SolutionQuery(make_symmetric(gens), values, distinct, budget)
        got = _auto_result(q)
        direct = _picked_engine_result(q)
        uses_scan = (not distinct and is_dissociated(gens)
                     and budget >= scan_nodes)
        if uses_scan:
            # the stages below the first that repeats, and of a repeating
            # last stage the ranges up to the one that holds the repeat
            first = _first_repeating_stage(gens, values) or k
            last = (_last_stage_nodes(gens, values) if first == k
                    else size ** first)
            assert got[1] == sum(size ** j for j in range(1, first)) + last
            if got[0] is not None:
                assert set(got[0]) <= set(values), (gens, values)
                assert countable_solution(q.equation, got[0], False)
        else:
            assert got == direct, (gens, values, distinct, budget)
        if got[0] != "budget":
            naive = find_nontrivial_solution(
                SolutionQuery(q.equation, values, distinct), engine="naive")
            assert (got[0] is None) == (naive is None), (gens, values)
        outcomes.add((uses_scan, got[0] is None, got[0] == "budget"))
    # clean and witness answers on both sides of the rule, and a fallback
    # that runs out of budget
    assert {(True, True, False), (True, False, False), (False, True, False),
            (False, False, False), (False, False, True)} <= outcomes


def test_scan_queries_run_no_other_engine(monkeypatch):
    """Every query that _scan_applies accepts is answered by the scan
    alone: with every enumeration engine made to raise, exhaustive_check
    still answers it, with a non-trivial solution in the set exactly when a
    plain product scan finds one."""
    def no_engine(*args):
        raise AssertionError("the scan's query reached an enumeration engine")

    monkeypatch.setattr(oracle, "_ENGINES",
                        dict.fromkeys(oracle._ENGINES, no_engine))
    rng = random.Random(20261020)
    dissociated = [(1, 2), (2, 5), (1, 2, 4), (1, 3, 9), (43, 69, 70),
                   (1, 2, 4, 8)]
    max_size = {2: 12, 3: 5, 4: 3}
    answers = set()
    for _ in range(200):
        gens = rng.choice(dissociated)
        size = rng.randint(1, max_size[len(gens)])
        lo = rng.randint(-60, 20)
        spread = rng.choice((2 * size, 40 * size))
        values = tuple(sorted(rng.sample(range(lo, lo + spread), size)))
        q = SolutionQuery(make_symmetric(gens), values)
        assert oracle._scan_applies(q)
        solution, _ = exhaustive_check(q)
        assert (solution is None) == (brute_count(q.equation, values) == 0)
        if solution is not None:
            assert set(solution.assignment) <= set(values)
            assert countable_solution(q.equation, solution.assignment, False)
        answers.add(solution is None)
    assert answers == {True, False}


def test_query_engine_names_only_engines():
    q = SolutionQuery(make_symmetric([1, 2]), (0, 1, 5))
    assert oracle.query_engine(q) == "scan"
    for engine in ("dfs", "naive", "mitm"):
        assert oracle.query_engine(q, engine) == engine
    # the scan is the automatic choice's alone
    with pytest.raises(ValueError, match="unknown engine 'scan'"):
        exhaustive_check(q, "scan")


@pytest.mark.parametrize("entry", [exhaustive_check, count_nontrivial_solutions])
@pytest.mark.parametrize("engine", ["bogus", "scan"])
def test_entry_points_refuse_unknown_engines(entry, engine):
    # only the automatic choice takes the sum scan, and it cannot count
    q = SolutionQuery(make_symmetric([1, 2]), (0, 1, 5))
    with pytest.raises(ValueError, match=f"unknown engine '{engine}'"):
        entry(q, engine)


def test_auto_certifies_geometric_lift_at_8_pow_7():
    # 128 elements: the mitm table (128**3) is over MITM_TABLE_CAP, and the
    # depth-first engine runs out of this budget
    cert = geometric_digits(2, 3)
    values = lift(cert, 8 ** 7).elements
    q = SolutionQuery(cert.equation, values, budget=10 ** 7)
    assert exhaustive_check(q) == (None, 128 + 128 ** 2 + 128 ** 3)


# the 3AP-free set of x <= 3**11 whose base-3 digits are all 0 or 1
TERNARY_3AP_FREE = tuple(_lift_below(range(2), 3, 3 ** 11))
THREE_AP = make_equation([1, 1, -2])


def test_pick_engine_tables_the_shorter_side():
    # 2,049 elements: x + y = 2z has one negative position, so the mitm
    # table holds 2,049 tuples, not 2,049**2 (over MITM_TABLE_CAP)
    assert len(TERNARY_3AP_FREE) == 2049
    q = SolutionQuery(THREE_AP, TERNARY_3AP_FREE, budget=10 ** 8)
    assert oracle._auto_engine(q) == "mitm"


def test_auto_mitm_under_a_small_table_cap(monkeypatch):
    monkeypatch.setattr(oracle, "MITM_TABLE_CAP", 100)
    values = TERNARY_3AP_FREE[:40]
    q = SolutionQuery(THREE_AP, values)
    # 40 tabled tuples fit the cap; 40**2, the larger half, would not
    assert oracle._auto_engine(q) == "mitm"
    assert exhaustive_check(q) == exhaustive_check(q, "mitm")
    assert exhaustive_check(q)[0] is None
    assert find_nontrivial_solution(q, engine="naive") is None
    # 2 completes the 3AP 0, 1, 2
    planted = SolutionQuery(THREE_AP, tuple(sorted(values + (2,))))
    assert oracle._auto_engine(planted) == "mitm"
    witness = find_nontrivial_solution(planted)
    assert witness is not None
    assert not classify_solution(THREE_AP, witness.assignment).is_trivial
    assert find_nontrivial_solution(planted, engine="naive") is not None


def _random_equation(rng):
    """An equation with 1..3 positive and 1..3 negative coefficients."""
    pos = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
    total = sum(pos)
    cuts = sorted(rng.sample(range(1, total), min(rng.randint(0, 2),
                                                   total - 1)))
    neg = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return make_equation(pos + [-c for c in neg])


@pytest.mark.parametrize("distinct", [False, True])
def test_learn_range_gate_admits_only_listings_that_fit(distinct):
    """_TableIndex.trial lists range(n) on a budget of what the search's
    has left: a range it admits at all, it admits with exactly the
    listing's nodes left and charges them, and with one node fewer it
    refuses and charges nothing."""
    rng = random.Random(21)
    eqs = [make_symmetric([43, 69, 70]), make_symmetric([5, 11, 21]),
           make_symmetric([1, 1, 2]), make_equation([2, 2, -3, -1])]
    while len(eqs) < 11:
        eqs.append(make_symmetric(rng.sample(range(1, 13), rng.randint(2, 3)))
                   if len(eqs) % 2 else _random_equation(rng))
    trial = search._TableIndex.trial
    admitted = 0
    for eq, n in product(eqs, (3, 6, 9, 12, 17)):
        listing = _Budget(10 ** 8)
        for _ in _mitm_solutions(eq, range(n), distinct, listing):
            pass
        need = listing.nodes
        pays = trial(eq, n, distinct, _Budget(10 ** 8)) is not None
        for left, fits in ((need, pays), (need - 1, False)):
            budget = _Budget(10 ** 8)
            budget.nodes = 10 ** 8 - left
            assert (trial(eq, n, distinct, budget) is not None) == fits, (
                eq, n, left)
            assert budget.nodes == 10 ** 8 - left + (need if fits else 0)
        admitted += pays
    assert admitted >= 25


def test_pick_engine_changes_only_where_the_shorter_side_fits():
    """The choice against the formula that sized the table as
    |S|**ceil(m/2): they differ exactly when the shorter side's table fits
    min(budget, cap), the ceil(m/2) estimate does not, and the set is not
    tiny (|S|**(m//2) > 10)."""
    rng = random.Random(20261018)
    cap = oracle.MITM_TABLE_CAP
    outcomes = set()
    for _ in range(2000):
        eq = _random_equation(rng)
        m = eq.num_vars
        short = min(sum(c > 0 for c in eq.coeffs),
                    sum(c < 0 for c in eq.coeffs))
        size = rng.randint(1, 3000 if short == 1 else 60)
        budget = rng.choice((10 ** 8, 10 ** 4, size ** short,
                             size ** short - 1, size ** ((m + 1) // 2),
                             rng.randint(1, 10 ** 6)))
        q = SolutionQuery(eq, tuple(range(size)), rng.random() < 0.5,
                          max(budget, 1))
        old_table = size ** ((m + 1) // 2)
        old = old_table <= min(q.budget, cap) and size ** m > 10 * old_table
        new = oracle._auto_engine(q) == "mitm"
        band = size ** short <= min(q.budget, cap) < old_table
        assert (new != old) == (band and size ** (m // 2) > 10), (
            eq, size, q.budget)
        outcomes.add((m % 2 == 0 and 2 * short == m, old, new))
    # balanced and unbalanced equations, each with both choices, and the
    # band reached
    assert {(True, False, False), (True, True, True), (False, False, False),
            (False, True, True), (False, False, True)} <= outcomes


@pytest.mark.parametrize("B", [10 ** 9, 10 ** 40])
def test_is_injective_map_over_budget_raises_at_once(B):
    # the first stage's B nodes; 10**40 is past the length a range() can hold
    with pytest.raises(BudgetExhausted) as exc:
        is_injective_map([1, 2], B, budget=10 ** 8)
    assert exc.value.nodes == B


def test_is_injective_map_sizes_its_scan_before_it_starts(monkeypatch):
    """B = 10**4 fits the budget and the scan cap, but the scan's B + B**2
    nodes do not fit the default 10**8: the map raises with that total
    before the scan starts.  The scan once ran 30 s and 214 MB to that
    count."""
    def scan(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(oracle, "_sums_repeat", scan)
    with pytest.raises(BudgetExhausted) as exc:
        is_injective_map([10 ** 20 + 39, 10 ** 20 + 7], 10 ** 4)
    assert exc.value.nodes == 100_010_000


@pytest.mark.parametrize("a,B,message", [
    ([3], 5, "at least two coefficients"),
    ([1, 0], 5, "coefficients must be positive"),
    ([2, -1], 5, "coefficients must be positive"),
    ([1, 2], 0, "B must be positive"),
])
def test_is_injective_map_input_checks(a, B, message):
    with pytest.raises(ValueError, match=message):
        is_injective_map(a, B)


@pytest.mark.parametrize("B", [SCAN_SUMS_CAP + 1, 10 ** 8, 10 ** 20])
def test_is_injective_map_past_the_scan_cap_is_a_value_error(B):
    # within the budget, but the scan would hold a first stage of B sums;
    # 10**8 of them once ran out of memory, 10**20 raised OverflowError
    with pytest.raises(ValueError, match=f"B = {B} "):
        is_injective_map([1, 2], B, budget=10 ** 30)


def test_is_injective_map_scan_cap_bounds_stage_k_minus_1(monkeypatch):
    monkeypatch.setattr(oracle, "SCAN_SUMS_CAP", 100)
    # stage 2 holds 10**2 sums, within the cap; the last stage is bucketed
    assert is_injective_map([1, 11, 121], 10)
    assert not is_injective_map([1, 9, 121], 10)   # 9*1 = 1*9
    with pytest.raises(ValueError, match="B = 11 "):
        is_injective_map([1, 12, 144], 11)


# forced mitm: (coefficients, set, distinct, first witness, nodes spent,
# countable solutions), recorded on the per-tuple table the sorted sums
# replaced; the mirrored equations' rows (the first five and the last) as
# their listing pairs equal-sum runs (_mirrored).  Balanced and unbalanced
# equations, tables on the positive and the negative side, and
# one-position sides
MITM_PINNED = [
    ((1, 1, -1, -1), (1, 2, 3, 5, 8), False, (2, 2, 1, 3), 29, 12),
    ((1, 1, -1, -1), (1, 2, 3, 5, 8), True, None, 41, 0),
    ((1, 1, -1, -1), (1, 2, 5, 11), False, None, 22, 0),
    ((1, 2, -1, -2), (0, 1, 3, 4, 9, 10, 12), False, (1, 0, 1, 3), 50, 38),
    ((1, 2, -1, -2), (0, 1, 3, 4, 9, 10, 12), True, (3, 1, 0, 4), 51, 24),
    ((1, 1, 1, -3), (0, 1, 2, 4, 7), False, (1, 0, 1, 2), 15, 21),
    ((1, 1, 1, -3), (0, 1, 2, 4, 7), True, None, 156, 0),
    ((1, -2, 1), (0, 1, 3, 4, 9, 10), False, None, 48, 0),
    ((1, -2, 1), (-4, -1, 0, 2, 5, 6), True, (-1, -4, 2), 12, 4),
    ((3, -1, -1, -1), (0, 2, 3, 7, 11), False, (3, 0, 2, 7), 16, 15),
    ((2, 3, -1, -1, -3), (0, 1, 4, 6), False, (1, 0, 1, 1, 4), 26, 12),
    ((2, 3, -1, -1, -3), (0, 1, 4, 6, 9), True, None, 211, 0),
    ((5, -5), (1, 2, 3, 9), False, None, 4, 0),
]


@pytest.mark.parametrize("coeffs,values,distinct,witness,nodes,count",
                         MITM_PINNED)
def test_mitm_pinned_witnesses_and_nodes(coeffs, values, distinct, witness,
                                         nodes, count):
    eq = make_equation(coeffs)
    q = SolutionQuery(eq, values, distinct)
    solution, spent = exhaustive_check(q, "mitm")
    assert (solution and solution.assignment, spent) == (witness, nodes)
    assert count_nontrivial_solutions(q, "mitm") == \
        count_nontrivial_solutions(q, "naive") == count


# (coefficients, set, distinct, budget, solutions found before the raise);
# the budget's next node falls where the last field says.  On a mirrored
# equation (the first five rows) a mate run is a run of equal table sums,
# whose pairs are paid before it is walked
MITM_LIMITS = [
    ((1, 2, -1, -2), (0, 1, 3, 4, 9, 10, 12), False, 24, 0, "table"),
    ((1, 2, -1, -2), (0, 1, 3, 4, 9, 10, 12), False, 49, 0, "mate run"),
    # two pairings and their mirrors before the run that runs out
    ((1, 2, -1, -2), (0, 1, 3, 4, 9, 10, 12), False, 51, 4, "mate run"),
    ((1, 1, -1, -1), (1, 2, 3, 5, 8), True, 12, 0, "table"),
    # every pair of the runs walked repeats a value, so none counts
    ((1, 1, -1, -1), (1, 2, 3, 5, 8), True, 32, 0, "mate run"),
    ((1, 1, 1, -3), (0, 1, 2, 4, 7), True, 2, 0, "table"),
    ((1, 1, 1, -3), (0, 1, 2, 4, 7), True, 9, 0, "scan"),
]


@pytest.mark.parametrize("coeffs,values,distinct,budget,found,where",
                         MITM_LIMITS, ids=[f"{c}-{d}-{b}-{w}" for c, _, d, b, _, w
                                           in MITM_LIMITS])
def test_mitm_budget_exhausted_nodes(coeffs, values, distinct, budget, found,
                                     where):
    eq = make_equation(coeffs)
    table = len(values) ** min(map(len, _sides(eq)))
    assert (budget < table) == (where == "table")
    solutions = _mitm_solutions(eq, values, distinct, _Budget(budget))
    got = []
    with pytest.raises(BudgetExhausted) as exc:
        for solution in solutions:
            got.append(solution)
    assert (len(got), exc.value.nodes) == (found, budget + 1)


def test_mitm_table_memory_per_entry():
    # 128 elements whose sums x + 2y are distinct; the per-tuple table
    # peaked at about 210 bytes per entry, the sorted sums at about 90
    cert = two_var_digits(1, 2)
    values = lift(cert, 4 ** 7).elements
    q = SolutionQuery(cert.digit_set.equation, values)
    tracemalloc.start()
    try:
        solution, nodes = exhaustive_check(q, "mitm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(values), solution, nodes) == (128, None, 128 ** 2)
    assert peak < 130 * 128 ** 2


@pytest.mark.parametrize("lifted,distinct", [(True, False), (False, False),
                                             (False, True)])
def test_mitm_skips_mirror_mates(monkeypatch, lifted, distinct):
    # under x + 2y = z + 2w every tabled tuple pairs with itself, the mirror
    # x = x', whose sides hold the same values, so a kernel that judged it
    # would ask is_trivial; no other pair has equal value sets (z, w = y, x
    # needs x = y), so is_trivial is never called when mirrors are never
    # tried
    cert = two_var_digits(1, 2)
    values = lift(cert, 4 ** 7).elements if lifted else tuple(range(20))
    eq = cert.digit_set.equation
    trivial = oracle.is_trivial
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return trivial(*args)

    monkeypatch.setattr(oracle, "is_trivial", counting)
    q = SolutionQuery(eq, values, distinct)
    count = count_nontrivial_solutions(q, "mitm")
    n = len(values)
    assert calls == 0
    if lifted:       # a clean lift: the mirrors are its only mates
        assert (n, count) == (128, 0)
        assert exhaustive_check(q, "mitm") == (None, n ** 2)
    else:
        assert count == brute_count(eq, values, distinct) > 0


def test_mitm_own_index_mate_counts_without_mirror():
    # sides (5, 2, 1) and (-3, -3, -2) are not mirrors: the mate with the
    # scan tuple's own index, x = x' = (1, 0, 2), is a countable solution
    eq = make_equation([5, 2, 1, -3, -3, -2])
    assert eq.coeffs == (5, -3, -3, 2, -2, 1)
    q = SolutionQuery(eq, (0, 1, 2))
    solutions = set(_mitm_solutions(eq, q.ground_set, False, _Budget(10 ** 6)))
    assert (1, 1, 0, 0, 2, 2) in solutions
    assert len(solutions) == count_nontrivial_solutions(q, "naive")


@pytest.mark.parametrize("coeffs", [[1, 2, 3, -1, -2, -3],
                                    [5, 2, 1, -3, -3, -2], [5, 7, 11, -23]])
def test_mitm_table_masks_match_decoded_pairings(coeffs):
    """Every pairing _mitm_pairs yields over non-contiguous values decodes
    to a countable solution, whose sides hold the tuples of the yielded
    product indices and whose values' indices are the yielded bits; in both
    modes the decoded pairings, each with its mirror on a mirrored
    equation, are the naive scan's solutions."""
    eq = make_equation(coeffs)
    values = (-2, 0, 1, 3, 4, 6, 9)
    table_idx, scan_idx = sorted(_sides(eq), key=len)
    mirrored = oracle._mirrored(eq)
    assert mirrored == (coeffs == [1, 2, 3, -1, -2, -3])
    for distinct in (False, True):
        found = []
        for own, r, e in oracle._mitm_pairs(eq, values, distinct,
                                            _Budget(10 ** 7)):
            for scan, table in [(own, r)] + [(r, own)] * mirrored:
                x = oracle._mitm_assignment(eq, values, scan, table)
                assert countable_solution(eq, x, distinct), (scan, table)
                for idx, k in ((scan_idx, scan), (table_idx, table)):
                    assert tuple(x[i] for i in idx) == next(islice(product(
                        values, repeat=len(idx)), k, None))
                assert e == sum({1 << values.index(v) for v in x}), (scan, table)
                found.append(x)
        naive = oracle._naive_solutions(eq, values, distinct, _Budget(10 ** 7))
        assert sorted(found) == sorted(naive)
        assert len(found) >= 5, distinct


def _naive_closed_tables(eq, n, distinct):
    """_TableIndex's closed tables over range(n), from the value sets of
    the naive engine's solutions: bit h of table x is set iff the values
    of some solution that uses x lie among those of h and x."""
    sets = {sum({1 << v for v in solution}) for solution in
            oracle._naive_solutions(eq, range(n), distinct, _Budget(10 ** 8))}
    tables = []
    for x in range(n):
        bits = 0
        for h in range(2 ** x):
            if any(e >> x & 1 and not e & ~(h | 1 << x) for e in sets):
                bits |= 1 << h
        tables.append(bits.to_bytes(max(1, 2 ** x // 8), "little"))
    return tables


@pytest.mark.parametrize("distinct", [False, True])
def test_mirrored_listing_matches_the_naive_engine(distinct):
    """The listing of mirrored equations, seeded make_symmetric ones of 2
    to 4 generators: its closed tables over range(n) are those of the
    naive engine's value sets; over non-contiguous values, negative ones
    among them, the mitm engine yields the naive engine's solutions as a
    multiset; and at every budget below the listing's nodes it raises
    with limit + 1 nodes."""
    rng = random.Random(33)
    listed = 0
    for k in (2, 2, 2, 3, 3, 3, 4, 4):
        eq = make_symmetric([rng.randint(1, 9) for _ in range(k)])
        assert oracle._mirrored(eq)
        n = {2: 8, 3: 6, 4: 4}[k]
        tables = search._TableIndex(eq, n, distinct, _Budget(10 ** 8)).tables
        assert tables == _naive_closed_tables(eq, n, distinct), eq
        values = tuple(sorted(rng.sample(range(-9, 12), n)))
        full = _Budget(10 ** 8)
        solutions = Counter(_mitm_solutions(eq, values, distinct, full))
        assert solutions == Counter(oracle._naive_solutions(
            eq, values, distinct, _Budget(10 ** 8))), (eq, values)
        listed += sum(solutions.values())
        for limit in range(1, full.nodes):
            with pytest.raises(BudgetExhausted) as exc:
                for _ in _mitm_solutions(eq, values, distinct, _Budget(limit)):
                    pass
            assert exc.value.nodes == limit + 1, (eq, values, limit)
    assert listed >= 50


def _chunk_walk_new_sums(self, x):
    """IncrementalSolutionIndex._new_sums as it walked every chunk, one
    spend and one test each, the one-sum chunks too: the reference for the
    one pass over those chunks."""
    values = self.values + [x]
    spend = self.tracker.spend
    old_prev, new_prev = (0,), ()
    stages = []
    for j, (c, old) in enumerate(zip(self.eq.symmetric_gen, self.sums), 1):
        new = set()
        built = []
        for prev, v in [(old_prev, x)] + [(new_prev, v) for v in values
                                          if new_prev]:
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
        stages.append(new)
        old_prev, new_prev = old, new
    return stages, None


class _ChunkWalkIndex(IncrementalSolutionIndex):
    _new_sums = _chunk_walk_new_sums


def _cut_twin(idx, limit):
    """A copy of idx, of its class, with what its last legal kept and its
    own copy of the memory, on a budget of limit nodes of which idx's are
    spent."""
    twin = idx.copy()
    twin.__class__ = idx.__class__
    twin._kept = idx._kept
    twin.memory = copy.deepcopy(idx.memory)
    twin.tracker = _Budget(limit)
    twin.tracker.nodes = idx.nodes
    return twin


def _index_call(idx, op, x):
    """The outcome of one legal, add or pop call on idx."""
    if op == "legal":
        return idx.legal(x)
    if op == "pop":
        return idx.pop()
    try:
        idx.add(x)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("gens", [[43, 69, 70], [10, 11, 31], [1, 2],
                                  [1, 2, 4, 8]])
def test_sums_index_one_pass_matches_the_chunk_walk(gens):
    """The one pass over the one-sum chunks of the sums index against the
    chunk walk it replaced, on seeded legal/add/pop sequences over values
    that include negative ones: after each call the same answer, the same
    tracker.nodes and the same witnesses in the memory; and at every budget
    from 1 to the full run's nodes, the call the budget falls in raises
    with the same nodes on both."""
    eq = make_symmetric(gens)
    rng = random.Random(33)
    new, walk = IncrementalSolutionIndex(eq), _ChunkWalkIndex(eq)
    assert new.sums is not None
    rejected = 0
    for _ in range(120):
        x, r = rng.randrange(-6, 30), rng.random()
        op = ("pop" if r < 0.1 and new.values else "add" if r < 0.2
              else "legal")
        twins = [_cut_twin(idx, None) for idx in (new, walk)]
        before = new.nodes
        outcome = _index_call(new, op, x)
        assert outcome == _index_call(walk, op, x), (op, x, new.values)
        assert new.nodes == walk.nodes
        assert (new.memory.bits, new.memory.conflicts) == (
            walk.memory.bits, walk.memory.conflicts)
        rejected += outcome is False
        for limit in range(before, new.nodes):
            cuts = []
            for twin in twins:
                cut = _cut_twin(twin, limit)
                with pytest.raises(BudgetExhausted) as exc:
                    _index_call(cut, op, x)
                cuts.append((exc.value.nodes, cut.nodes))
            assert cuts[0] == cuts[1], (op, x, limit)
        if op == "legal" and outcome and len(new.values) < 7:
            assert _index_call(new, "add", x) == _index_call(walk, "add", x)
    assert rejected >= 20
