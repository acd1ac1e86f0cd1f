from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nosol.equations import (
    SolutionKind,
    classify_solution,
    equation_dumps,
    equation_from_json,
    equation_to_json,
    genus,
    is_dissociated,
    is_primitive,
    make_equation,
    make_symmetric,
    normalize_generators,
    zero_sum_partition,
)


def brute_dissociated(a):
    """Independent check: all subset sums pairwise distinct."""
    sums = [sum(c) for r in range(len(a) + 1) for c in combinations(a, r)]
    return len(sums) == len(set(sums))


def brute_primitive(coeffs):
    """Independent check straight from the definition: some zero-sum
    partition whose blocks generate every zero-sum subset as unions."""
    m = len(coeffs)
    idx = range(m)
    zero_subsets = [
        frozenset(s)
        for r in range(m + 1)
        for s in combinations(idx, r)
        if sum(coeffs[i] for i in s) == 0
    ]

    def partitions(rest):
        if not rest:
            yield []
            return
        first = min(rest)
        pool = sorted(rest - {first})
        for r in range(len(pool) + 1):
            for extra in combinations(pool, r):
                block = frozenset((first, *extra))
                if sum(coeffs[i] for i in block) != 0:
                    continue
                for tail in partitions(rest - block):
                    yield [block] + tail

    for part in partitions(frozenset(idx)):
        blocks = set(part)
        ok = True
        for z in zero_subsets:
            if not z:
                continue
            covered = frozenset().union(*(b for b in blocks if b <= z)) if blocks else frozenset()
            if covered != z:
                ok = False
                break
        if ok:
            return True
    return False


def test_make_symmetric_expands_generators():
    eq = make_symmetric([1, 2])
    assert sorted(eq.coeffs) == [-2, -1, 1, 2]
    assert eq.symmetric_gen == (1, 2)
    assert eq.num_vars == 4
    assert eq.side_sum == 3


def test_make_symmetric_paper_triples():
    eq = make_symmetric([10, 11, 31])
    assert sorted(eq.coeffs) == [-31, -11, -10, 10, 11, 31]
    assert make_symmetric([43, 69, 70]).num_vars == 6


def test_make_symmetric_rejects_bad_input():
    with pytest.raises(ValueError):
        make_symmetric([])
    with pytest.raises(ValueError):
        make_symmetric([1, -2])
    with pytest.raises(ValueError):
        make_symmetric([0, 3])


def test_normalize_generators():
    assert normalize_generators([-3, 2]) == [3, 2]
    with pytest.raises(ValueError):
        normalize_generators([0, 1])


def test_make_equation_strips_zeros_and_checks_invariance():
    eq = make_equation([1, 0, 1, -2])
    assert sorted(eq.coeffs) == [-2, 1, 1]
    with pytest.raises(ValueError):
        make_equation([1, 2, -2])
    with pytest.raises(ValueError):
        make_equation([0, 0])


def test_canonical_order_is_deterministic():
    eq = make_equation([1, -2, 2, -1])
    assert eq.coeffs == (2, -2, 1, -1)


def test_genus_symmetric_is_k():
    assert genus(make_symmetric([1, 2])) == 2
    assert genus(make_symmetric([1, 2, 4])) == 3
    assert genus(make_symmetric([10, 11, 31])) == 3
    assert genus(make_symmetric([1, 2, 4, 8, 16])) == 5


def test_genus_three_term():
    assert genus(make_equation([1, 1, -2])) == 1


def test_genus_guard():
    with pytest.raises(ValueError):
        genus(make_symmetric([2 ** i for i in range(9)]))


def test_classify_trivial_and_nontrivial():
    eq = make_equation([1, 1, -1, -1])
    assert classify_solution(eq, (3, 5, 5, 3)).is_trivial
    assert classify_solution(eq, (1, 4, 2, 3)).kind is SolutionKind.NONTRIVIAL
    sym = make_symmetric([1, 2])
    assert classify_solution(sym, (7, 7, 7, 7)).is_trivial
    with pytest.raises(ValueError):
        classify_solution(eq, (1, 2, 3, 4))
    with pytest.raises(ValueError, match="length 3 != 4"):
        classify_solution(eq, (1, 2, 3))


@given(st.integers(min_value=-5, max_value=5),
       st.booleans(), st.booleans())
def test_classify_invariant_under_equal_coeff_permutation(c, swap_pos, swap_neg):
    # eq (1,1,-1,-1): permuting the two +1 slots or the two -1 slots
    # never changes the classification
    eq = make_equation([1, 1, -1, -1])
    x = [1 + c, 4 + c, 2 + c, 3 + c]
    assert sum(co * v for co, v in zip(eq.coeffs, x)) == 0
    permuted = list(x)
    if swap_pos:
        permuted[0], permuted[1] = permuted[1], permuted[0]
    if swap_neg:
        permuted[2], permuted[3] = permuted[3], permuted[2]
    assert (classify_solution(eq, x).kind
            == classify_solution(eq, permuted).kind)


def test_is_dissociated_examples():
    assert is_dissociated([1, 2, 4])
    assert not is_dissociated([1, 2, 3])
    # derived by enumerating all {-1,0,1}^3 combinations
    assert not any(
        e1 * 10 + e2 * 11 + e3 * 31 == 0
        for e1, e2, e3 in product((-1, 0, 1), repeat=3)
        if (e1, e2, e3) != (0, 0, 0)
    )
    assert is_dissociated([10, 11, 31])
    with pytest.raises(ValueError):
        is_dissociated(list(range(1, 26)))


def test_is_primitive_examples():
    assert not is_primitive(make_symmetric([1, 2, 3]))
    assert is_primitive(make_symmetric([1, 2, 4]))
    # c = a + b is never primitive; brute-force confirmation for (1,2,3)
    assert not brute_primitive(make_symmetric([1, 2, 3]).coeffs)
    assert not is_primitive(make_symmetric([3, 4, 7]))
    with pytest.raises(ValueError):
        is_primitive(make_equation([1] * 13 + [-1] * 13))


def test_is_primitive_matches_bruteforce_small():
    cases = [
        [1, 1, -1, -1],
        [2, -2, 1, -1],
        [3, -1, -2],
        [1, 2, 4, -1, -2, -4],
        [1, 2, 3, -1, -2, -3],
        [5, -5],
        [2, 2, -3, -1],
    ]
    for coeffs in cases:
        eq = make_equation(coeffs)
        assert is_primitive(eq) == brute_primitive(eq.coeffs), coeffs


def test_zero_sum_partition_covers():
    eq = make_symmetric([1, 2, 4])
    blocks = zero_sum_partition(eq)
    seen = sorted(i for b in blocks for i in b)
    assert seen == list(range(6))
    for b in blocks:
        assert sum(eq.coeffs[i] for i in b) == 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=10))
def test_primitive_iff_dissociated(gens):
    eq = make_symmetric(gens)
    assert is_primitive(eq) == is_dissociated(gens)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=10 ** 6), min_size=1, max_size=6))
def test_genus_of_dissociated_symmetric(gens):
    gens = sorted(gens)
    if not is_dissociated(gens):
        return
    assert genus(make_symmetric(gens)) == len(gens)


def test_dissociated_agrees_with_bruteforce():
    for gens in ([1, 1], [2, 3, 5], [3, 5, 6, 7], [1, 2, 4, 8], [4, 6, 10]):
        assert is_dissociated(gens) == brute_dissociated(gens), gens


def test_json_roundtrip_big_integers():
    big = 2 ** 80
    eq = make_symmetric([1, big])
    obj = equation_to_json(eq)
    assert obj["coeffs"] == [str(big), str(-big), "1", "-1"]
    assert equation_from_json(obj) == eq
    assert "symmetric_gen" in equation_dumps(eq)
