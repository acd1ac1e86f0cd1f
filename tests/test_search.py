import json
import math
import random
from itertools import combinations, product

import pytest

from nosol import search
from nosol.cli import main
from nosol.equations import make_equation, make_symmetric
from nosol.oracle import (
    ConflictMemory,
    IncrementalSolutionIndex,
    SolutionQuery,
    _Budget,
    _naive_solutions,
    find_nontrivial_solution,
)
from nosol.search import (
    Dependency,
    SearchConfig,
    SearchResult,
    greedy_set,
    max_digit_set,
    small_dependency_search,
)


def brute_max_digit_set(eq, L, distinct=False):
    """Reference maximum by checking every subset with the naive oracle."""
    cap = (L - 1) // eq.side_sum
    candidates = list(range(cap + 1))
    best = ()
    for r in range(len(candidates), 0, -1):
        for combo in combinations(candidates, r):
            q = SolutionQuery(eq, combo, distinct_variables=distinct)
            if find_nontrivial_solution(q, engine="naive") is None:
                return combo
    return best


def test_max_digit_set_tiny_exact():
    eq = make_symmetric([1, 2])
    res = max_digit_set(eq, 4)
    assert res.digits == (0, 1)
    assert res.exhausted


def test_max_digit_set_10_11_31():
    eq = make_symmetric([10, 11, 31])
    res = max_digit_set(eq, 261)
    assert res.exhausted
    assert res.digits == (0, 1, 4, 5)
    q = SolutionQuery(eq, res.digits)
    assert find_nontrivial_solution(q) is None


def test_exact_mode_agrees_with_subset_enumeration():
    cases = [
        (make_symmetric([1, 2]), 13),
        (make_equation([1, 1, -1, -1]), 17),
        (make_equation([2, 2, -3, -1]), 29),
    ]
    for eq, L in cases:
        res = max_digit_set(eq, L, SearchConfig(mode="exact"))
        assert res.exhausted
        reference = brute_max_digit_set(eq, L)
        assert len(res.digits) == len(reference)
        q = SolutionQuery(eq, res.digits)
        assert find_nontrivial_solution(q, engine="naive") is None


def test_two_two_three_one_stays_small():
    # 2x + 2y = 3w + z admits no reasonably big digit set: the exact
    # maximum over {0..10} is 4 (confirmed by subset enumeration)
    eq = make_equation([2, 2, -3, -1])
    res = max_digit_set(eq, 41, SearchConfig(mode="exact"))
    assert res.exhausted
    assert len(res.digits) == len(brute_max_digit_set(eq, 41)) == 4


def test_anytime_monotone_in_budget():
    eq = make_symmetric([10, 11, 31])
    sizes = []
    for budget in (200, 2_000, 20_000, 200_000):
        res = max_digit_set(eq, 521, SearchConfig(budget=budget))
        sizes.append(len(res.digits))
    assert sizes == sorted(sizes)


def test_search_determinism():
    eq = make_symmetric([3, 5, 17])
    cfg = SearchConfig(budget=300_000)
    r1 = max_digit_set(eq, 401, cfg)
    r2 = max_digit_set(eq, 401, SearchConfig(budget=300_000))
    assert r1.digits == r2.digits
    assert r1.best_rate_digits == r2.best_rate_digits


def test_progress_events_stream():
    events = []
    eq = make_symmetric([1, 2])
    max_digit_set(eq, 40, SearchConfig(report=events.append))
    assert events
    assert all({"best_size", "nodes", "depth", "phase"} <= set(e) for e in events)


def test_progress_nodes_are_the_running_total():
    # every phase's index spends on the search's one budget, whose running
    # total the events carry
    events = []
    cfg = SearchConfig(budget=10 ** 9 // 8, report=events.append)
    result = max_digit_set(make_symmetric([43, 69, 70]), 182 * 64 + 1, cfg,
                           distinct=True)
    nodes = [e["nodes"] for e in events]
    assert len(nodes) > 1
    assert nodes == sorted(nodes)
    assert nodes[-1] <= result.nodes


def test_greedy_set_mian_chowla():
    # greedy on the Sidon equation reproduces the Mian-Chowla sequence
    eq = make_equation([1, 1, -1, -1])
    res = greedy_set(eq, 30)
    assert res.complete
    assert res.values == [1, 2, 4, 8, 13, 21]


def test_greedy_set_n1():
    res = greedy_set(make_symmetric([1, 2]), 1)
    assert res.values == [1]


def test_greedy_set_solution_free():
    for eq in (make_symmetric([1, 2, 4]), make_equation([2, 2, -3, -1])):
        res = greedy_set(eq, 120)
        assert res.complete
        q = SolutionQuery(eq, tuple(res.values))
        assert find_nontrivial_solution(q) is None
        assert len(res.values) >= 3


def test_greedy_budget_abort_flags_partial():
    eq = make_equation([1, 1, -1, -1])
    res = greedy_set(eq, 200, budget=500)
    assert not res.complete
    assert res.values  # partial set still reported


def test_small_dependency_search_examples():
    assert small_dependency_search(10, 11, 31, 3).as_tuple() == (2, 1, -1)
    assert small_dependency_search(1, 2, 4, 1) is None
    assert small_dependency_search(1, 2, 3, 1).as_tuple() == (1, 1, -1)


def test_small_dependency_cross_check():
    rng = random.Random(5)
    for _ in range(40):
        a, b, c = (rng.randint(1, 40) for _ in range(3))
        M = rng.randint(1, 3)
        dep = small_dependency_search(a, b, c, M)
        brute = [
            (i, j, k)
            for i, j, k in product(range(-M, M + 1), repeat=3)
            if (i, j, k) != (0, 0, 0) and i * a + j * b + k * c == 0
        ]
        assert (dep is None) == (not brute)
        if dep is not None:
            i, j, k = dep.as_tuple()
            assert i * a + j * b + k * c == 0
            assert dep.magnitude <= M


def test_dependency_validation():
    with pytest.raises(ValueError):
        Dependency(0, 0, 0)
    with pytest.raises(ValueError):
        Dependency(2, 4, -2)
    assert Dependency(2, 1, -1).magnitude == 2


def test_search_result_has_best_rate_prefix():
    eq = make_symmetric([1, 2])
    res = max_digit_set(eq, 100, SearchConfig(budget=100_000))
    assert res.best_rate_digits
    assert set(res.best_rate_digits) <= set(range(34))


def test_seed_phase_that_repeats_greedy_reuses_it_within_budget():
    # at M=32 the first seed phase, seed[8] over inner alphabet {0..7},
    # orders the whole range as greedy does
    eq = make_symmetric([43, 69, 70])
    L = eq.side_sum * 32 + 1
    # g: greedy's nodes; r: a replay's, which shares greedy's conflict
    # memory and so rejects each value greedy rejected with one node
    memory = ConflictMemory()
    costs = []
    for _ in range(2):
        index = IncrementalSolutionIndex(eq, distinct=True, memory=memory)
        index.greedy(range(33))
        costs.append(index.nodes)
    g, r = costs
    assert r < g

    def run(budget):
        return max_digit_set(eq, L, SearchConfig(budget=budget), distinct=True)

    full = run(10 ** 9 // 8)
    assert full.phases[:2] == [("greedy", 9), ("seed[8]", 9)]
    # the budget left covers greedy's nodes: reused, at no cost
    reused = run(2 * g)
    assert reused.phases[:2] == full.phases[:2] and len(reused.phases) > 2
    # one node short: the phase runs, and its r nodes leave later phases less
    short = run(2 * g - 1)
    assert short.phases[:2] == full.phases[:2]
    assert len(short.phases) < len(reused.phases)
    # a budget of g + r covers greedy and the replay, and nothing after
    exact = run(g + r)
    assert (exact.phases, exact.nodes) == (full.phases[:2], g + r)
    assert run(g + r // 2).phases == [("greedy", 9), ("seed[8]", 7)]


@pytest.mark.parametrize("distinct", [False, True])
def test_search_shares_one_conflict_memory(monkeypatch, distinct):
    """The indexes of one max_digit_set call share one memory, two calls
    share none, and each remembered conflict holds, with its key, a
    solution that uses the key."""
    indexes = []

    class Recorded(IncrementalSolutionIndex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            indexes.append(self)

    monkeypatch.setattr(search, "IncrementalSolutionIndex", Recorded)
    eq = make_symmetric([43, 69, 70])
    memories = []
    for M in (32, 64):    # two anytime searches
        max_digit_set(eq, eq.side_sum * M + 1,
                      SearchConfig(budget=10 ** 9 // 8), distinct=distinct)
        memories.append(indexes[0].memory)
        assert len(indexes) >= 5
        assert all(index.memory is memories[-1] for index in indexes)
        indexes.clear()
    assert memories[0] is not memories[1]
    for memory in memories:
        assert memory.conflicts
        value_of = {b: v for v, b in memory.bits.items()}
        for x, witnesses in memory.conflicts.items():
            for w in witnesses:
                values = sorted([v for b, v in value_of.items() if w & b] + [x])
                q = SolutionQuery(eq, values, distinct_variables=distinct)
                solution = find_nontrivial_solution(q)
                assert solution is not None and x in solution.assignment


@pytest.mark.parametrize("M", [4, 64])     # an exact and an anytime search
def test_search_memory_serves_one_equation_and_mode(M):
    eq = make_symmetric([43, 69, 70])
    memory = ConflictMemory()
    max_digit_set(eq, eq.side_sum * M + 1, SearchConfig(memory=memory))
    for other, distinct in ((eq, True), (make_symmetric([10, 11, 31]), False)):
        with pytest.raises(ValueError):
            max_digit_set(other, other.side_sum * M + 1,
                          SearchConfig(memory=memory), distinct=distinct)


# (equation, distinct, M) -> (digits, best_rate_digits, exhausted) at base
# L = s*M + 1 under the CLI's per-base budget; each row's result is decided
# by a seed or extension phase, named in the comment
PHASE_REGRESSION = [
    (("sym", (10, 11, 31)), False, 64,                          # extend[11]
     (0, 1, 12, 26, 30, 44, 55, 56), (0, 1, 12, 26, 30, 44, 55, 56), False),
    (("sym", (10, 11, 31)), False, 128,                         # extend[8]
     (0, 1, 4, 5, 28, 29, 89, 90, 117), (0, 1, 4, 5, 28, 29, 89, 90, 117),
     False),
    (("sym", (5, 6)), False, 64,                                # seed[10]
     (0, 1, 2, 3, 4, 5, 21, 22, 23, 31, 32, 42, 60, 61, 62, 63, 64),
     (0, 1, 2, 3, 4, 5), False),
    (("sym", (5, 6)), True, 128,                                # extend[32]
     (0, 1, 2, 3, 4, 5, 6, 13, 32, 33, 34, 35, 64, 65, 66, 67, 95, 96, 97, 98,
      99, 125, 126, 128), (0, 1, 2, 3, 4, 5, 6), False),
    (("sym", (3, 5, 17)), False, 512,                           # pseed[128]
     (0, 1, 2, 3, 128, 129, 130, 131, 256, 257, 258, 259, 384, 385, 386, 387),
     (0, 1, 2, 3), False),
    (("sym", (3, 5, 17)), True, 512,                            # seed[8]
     (0, 1, 2, 3, 4, 5, 35, 45, 90, 300, 354), (0, 1, 2, 3, 4, 5), False),
    (("eq", (2, 2, -3, -1)), False, 32,                         # seed[5]
     (0, 1, 5, 6, 25, 26, 30, 31), (0, 1), False),
    (("eq", (2, 2, -3, -1)), True, 128,                         # extend[8]
     (0, 1, 2, 3, 4, 16, 17, 18, 19, 48, 105, 106, 114, 115, 117),
     (0, 1, 2, 3, 4), False),
]


@pytest.mark.parametrize("equation,distinct,M,digits,best,exhausted",
                         PHASE_REGRESSION)
def test_seed_and_extend_phase_regression(equation, distinct, M, digits,
                                          best, exhausted):
    kind, coeffs = equation
    eq = make_symmetric(coeffs) if kind == "sym" else make_equation(coeffs)
    res = max_digit_set(eq, eq.side_sum * M + 1,
                        SearchConfig(budget=10 ** 9 // 8), distinct=distinct)
    assert (res.digits, res.best_rate_digits, res.exhausted) == (
        digits, best, exhausted)


# (L, digits, best_rate_digits, exhausted) of every base of the all-mode
# 43/69/70 --extended search, the all-mode twin of acceptance criterion 5;
# the legality index holds sums here, not tuples
ROWS_43_69_70_ALL = [
    (729, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4), True),
    (1457, tuple(range(8)), tuple(range(8)), True),
    (2913, tuple(range(8)), tuple(range(8)), True),
    (5825, tuple(range(8)), tuple(range(8)), False),
    (11649, tuple(range(8)), tuple(range(8)), False),
    (23297, tuple(range(8)) + (69,), tuple(range(8)), False),
    (46593, tuple(range(8)) + (69, 208, 209, 250), tuple(range(8)), False),
    (93185, tuple(range(8)) + (69, 208, 209, 276, 277, 417, 482, 483, 484),
     tuple(range(8)), False),
]


def test_43_69_70_all_mode_rows():
    eq = make_symmetric([43, 69, 70])
    rows = []
    for L, *_ in ROWS_43_69_70_ALL:
        res = max_digit_set(eq, L, SearchConfig(budget=10 ** 9 // 8))
        rows.append((L, res.digits, res.best_rate_digits, res.exhausted))
    assert rows == ROWS_43_69_70_ALL


def test_43_69_70_all_mode_grid_nodes(tmp_path, capsys):
    """The same rows through cmd_search, whose bases share one conflict
    memory, with each row's nodes pinned."""
    assert main(["search", "--sym", "43,69,70", "--extended", "--budget",
                 str(10 ** 9), "-o", str(tmp_path / "all.json")]) == 0
    table = json.loads(capsys.readouterr().out)["table"]
    assert [(row["L"], tuple(row["digits"]), row["exhausted"], row["nodes"])
            for row in table] == [
        (L, digits, exhausted, nodes) for (L, digits, _, exhausted), nodes
        in zip(ROWS_43_69_70_ALL, [160, 675, 28820, 7415, 11047, 31910,
                                   82811, 283817])]


# (equation, distinct, M, budget) -> (digits, best_rate_digits, exhausted,
# nodes, phase names) at base L = s*M + 1; node counts are part of what a
# search must reproduce bit for bit
SEARCH_TABLE = [
    (("sym", (3, 5, 17)), True, 8, 3000,
     (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5), False, 3030, "exact"),
    (("sym", (3, 5, 17)), True, 8, 30000,
     (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5), True, 4705, "exact"),
    (("sym", (3, 5, 17)), True, 64, 30000,
     (0, 1, 2, 3, 4, 5, 35, 45), (0, 1, 2, 3, 4, 5), False, 16503,
     "greedy seed[5] seed[6] seed[8] seed[10] seed[12] seed[14] seed[16] "
     "seed[17] seed[20] seed[22] seed[32] seed[34] seed[64] pseed[64] "
     "extend[5] extend[6] extend[8]"),
    (("sym", (3, 5, 17)), True, 300, 3000,
     (0, 1, 2, 3, 4, 5, 35), (0, 1, 2, 3, 4, 5), False, 3019, "greedy"),
    (("sym", (3, 5, 17)), True, 300, 30000,
     (0, 1, 2, 3, 4, 5, 35, 45, 86), (0, 1, 2, 3, 4, 5), False, 30018,
     "greedy"),
    (("sym", (3, 5, 17)), True, 300, 10 ** 7,
     (0, 1, 2, 3, 4, 5, 35, 45, 90, 300), (0, 1, 2, 3, 4, 5), False, 143969,
     "greedy seed[5] seed[6] seed[8] seed[10] seed[12] seed[14] seed[16] "
     "seed[17] seed[20] seed[22] seed[32] seed[34] seed[64] pseed[64] "
     "seed[128] pseed[128] seed[256] pseed[256] extend[8] extend[10] "
     "extend[16]"),
    (("eq", (2, 2, -3, -1)), False, 8, 10 ** 7,
     (0, 1, 5, 6), (0, 1, 5, 6), True, 461, "exact"),
    (("eq", (2, 2, -3, -1)), False, 64, 3000,
     (0, 1, 5, 6, 23, 25, 51, 61), (0, 1), False, 3005,
     "greedy seed[4] seed[5] seed[6] pseed[6] seed[8] pseed[8] seed[16] "
     "pseed[16] seed[32] pseed[32] seed[64] pseed[64]"),
    (("eq", (2, 2, -3, -1)), False, 64, 30000,
     (0, 1, 5, 6, 23, 25, 51, 61), (0, 1), False, 4780,
     "greedy seed[4] seed[5] seed[6] pseed[6] seed[8] pseed[8] seed[16] "
     "pseed[16] seed[32] pseed[32] seed[64] pseed[64] extend[5] extend[6] "
     "extend[8]"),
    (("eq", (2, 2, -3, -1)), False, 300, 30000,
     (0, 1, 5, 6, 23, 25, 54, 66, 71, 133, 138, 221, 223, 252, 295, 300),
     (0, 1), False, 30011,
     "greedy seed[4] seed[5] seed[6] pseed[6] seed[8] pseed[8] seed[16] "
     "pseed[16] seed[32] pseed[32] seed[64] pseed[64] seed[128] pseed[128] "
     "seed[256] pseed[256] extend[6]"),
    (("eq", (2, 2, -3, -1)), False, 300, 10 ** 7,
     (0, 1, 5, 6, 23, 25, 54, 66, 71, 133, 138, 221, 223, 252, 295, 300),
     (0, 1), False, 35927,
     "greedy seed[4] seed[5] seed[6] pseed[6] seed[8] pseed[8] seed[16] "
     "pseed[16] seed[32] pseed[32] seed[64] pseed[64] seed[128] pseed[128] "
     "seed[256] pseed[256] extend[6] extend[8] extend[256]"),
    (("sym", (1, 1)), False, 64, 30000,
     (0, 1, 3, 7, 15, 24, 35, 40, 53), (0, 1), False, 2377,
     "greedy seed[8] pseed[8] seed[16] pseed[16] seed[32] pseed[32] seed[64] "
     "pseed[64] extend[8] extend[32] extend[64]"),
    (("sym", (1, 1)), False, 300, 3000,
     (0, 1, 3, 7, 12, 20, 30, 44, 65, 80, 96, 122, 147, 181, 203), (0, 1),
     False, 3013, "greedy"),
    (("sym", (1, 1)), False, 300, 10 ** 7,
     (0, 1, 3, 7, 12, 20, 30, 44, 65, 80, 96, 122, 147, 181, 203, 251, 289),
     (0, 1), False, 20476,
     "greedy seed[8] pseed[8] seed[16] pseed[16] seed[32] pseed[32] seed[64] "
     "pseed[64] seed[128] pseed[128] seed[256] pseed[256] extend[256] "
     "extend[8] extend[16]"),
    # ranges that run on the index: the sums index keeps a narrow range,
    # and a listing that would not fit the budget is not begun
    (("sym", (5, 11, 21)), False, 3, 200, (0, 1), (0, 1), True, 118, "exact"),
    (("sym", (43, 69, 70)), False, 8, 10 ** 9 // 8,
     tuple(range(8)), tuple(range(8)), True, 675, "exact"),
    (("sym", (12, 14, 27)), True, 8, 3000,
     (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5), False, 3014, "exact"),
]


@pytest.mark.parametrize(
    "equation,distinct,M,budget,digits,best,exhausted,nodes,phases",
    SEARCH_TABLE)
def test_search_table(equation, distinct, M, budget, digits, best, exhausted,
                      nodes, phases):
    kind, coeffs = equation
    eq = make_symmetric(coeffs) if kind == "sym" else make_equation(coeffs)
    res = max_digit_set(eq, eq.side_sum * M + 1, SearchConfig(budget=budget),
                        distinct=distinct)
    assert (res.digits, res.best_rate_digits, res.exhausted, res.nodes,
            " ".join(name for name, _ in res.phases)) == (
        digits, best, exhausted, nodes, phases)


def _random_equations(rng, count):
    """Symmetric equations of two or three generators, and equations of
    three or four coefficients, with sides of equal or unequal length."""
    eqs = [make_equation([2, 2, -3, -1]), make_equation([4, -1, -1, -2])]
    while len(eqs) < count:
        if rng.random() < 0.5:
            eqs.append(make_symmetric(sorted(rng.randint(1, 12)
                                             for _ in range(rng.randint(2, 3)))))
            continue
        pos = [rng.randint(1, 6) for _ in range(rng.randint(1, 2))]
        neg = [rng.randint(1, 6) for _ in range(rng.randint(2, 3) - len(pos))]
        if sum(neg) < sum(pos):
            neg.append(sum(pos) - sum(neg))
            eqs.append(make_equation(pos + [-c for c in neg]))
    return eqs


@pytest.mark.parametrize("distinct", [False, True])
def test_hypergraph_exact_search_matches_the_index(monkeypatch, distinct):
    """On the solution hypergraph, the exact search offers the sets the
    legality index's offers, in the same order, and ends with the same
    digits and best-rate digits."""
    offers = []
    offer = search._Tracker.offer

    def recorded(self, digits, nodes, phase):
        offers.append(tuple(digits))
        offer(self, digits, nodes, phase)

    monkeypatch.setattr(search._Tracker, "offer", recorded)
    rng = random.Random(16)
    for eq in _random_equations(rng, 24):
        L = eq.side_sum * rng.randint(3, 11) + 1
        runs = []
        for hypergraph in (True, False):
            monkeypatch.setattr(search, "_learn_range_pays",
                                lambda *args: hypergraph)
            offers.clear()
            res = max_digit_set(eq, L, SearchConfig(mode="exact"),
                                distinct=distinct)
            assert res.exhausted
            runs.append((list(offers), res.digits, res.best_rate_digits))
        assert runs[0] == runs[1], (eq, L)


@pytest.mark.parametrize("distinct", [False, True])
def test_closed_tables_match_the_naive_engine(distinct):
    """Bit h of the closed table of x is set iff the values of h and x hold
    a countable solution that uses x: for every x and h over range(n), n <=
    7, against the solutions the naive engine lists over range(n)."""
    rng = random.Random(21)
    eqs = _random_equations(rng, 7) + [make_symmetric([1, 1]),
                                       make_symmetric([1, 2, 4])]
    for eq in eqs:
        n = 7 if eq.num_vars <= 4 else 5
        sets = {sum(1 << v for v in set(solution))
                for solution in _naive_solutions(eq, range(n), distinct,
                                                 _Budget(10 ** 8))}
        tables = search._TableIndex(eq, n, distinct, _Budget(10 ** 8)).tables
        assert [len(t) for t in tables] == [max(1, 2 ** x // 8)
                                           for x in range(n)]
        for x in range(n):
            for h in range(2 ** x):
                held = h | 1 << x
                uses_x = any(e >> x & 1 and not e & ~held for e in sets)
                assert tables[x][h >> 3] >> (h & 7) & 1 == uses_x, (eq, x, h)


def test_exact_search_on_a_learned_range_builds_no_index(monkeypatch):
    """The distinct 43/69/70 exact search at M=16 tests on the closed
    tables of its range, with no legality index."""
    def never(*args, **kwargs):
        raise AssertionError("a legality index was built")

    monkeypatch.setattr(search, "IncrementalSolutionIndex", never)
    eq = make_symmetric([43, 69, 70])
    res = max_digit_set(eq, eq.side_sum * 16 + 1,
                        SearchConfig(budget=10 ** 9 // 8), distinct=True)
    assert (res.exhausted, res.nodes, res.phases) == (True, 33105,
                                                      [("exact", 9)])
    assert res.digits == (0, 1, 5, 6, 7, 10, 11, 12, 16)


def test_budget_cut_exact_search_keeps_its_learned_range_apart(monkeypatch):
    """An automatic exact search on a learned range that ran out of budget
    builds no legality index, and reports the sets it found as its own."""
    def never(*args, **kwargs):
        raise AssertionError("a legality index was built")

    monkeypatch.setattr(search, "IncrementalSolutionIndex", never)
    eq = make_symmetric([43, 69, 70])
    res = max_digit_set(eq, eq.side_sum * 16 + 1, SearchConfig(budget=25_000),
                        distinct=True)
    assert not res.exhausted and res.phases == [("exact", 8)]
    assert res.digits == tuple(range(8)) and res.nodes > 25_000


def test_small_dependency_search_matches_the_scan():
    """The lattice search against the scan it replaced, levels 1..M."""
    def scan(a, b, c, M):
        for level in range(1, M + 1):
            for i in range(0, level + 1):
                for j in range(-level, level + 1):
                    num = -(i * a + j * b)
                    if num % c:
                        continue
                    k = num // c
                    if (abs(k) > level or max(i, abs(j), abs(k)) != level
                            or (i == 0 and j <= 0)
                            or math.gcd(math.gcd(i, abs(j)), abs(k)) != 1):
                        continue
                    return (i, j, k)
        return None

    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rng.randint(1, rng.choice([3, 20, 1000, 10 ** 5]))
                   for _ in range(3))
        if rng.random() < 0.3:
            b = a * rng.randint(1, 4)
        M = rng.randint(1, 60)
        dep = small_dependency_search(a, b, c, M)
        assert (dep and dep.as_tuple()) == scan(a, b, c, M), (a, b, c, M)
