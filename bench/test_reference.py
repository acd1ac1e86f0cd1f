"""Hand-worked cases for the benchmark's reference checker.

Run with ``python3 -m pytest bench/test_reference.py``.
"""

import pytest

from reference import digit_lift, find_solution, is_witness, symmetric

# the 39-digit prefix that the 43/69/70 distinct-mode search certifies at
# base 182 * 283 + 1 = 51507
DIGITS_43_69_70 = ([d for block in (0, 69, 138, 207) for d in range(block, block + 8)]
                   + list(range(277, 284)))


def test_symmetric_coefficient_order():
    assert symmetric([1, 2]) == (2, -2, 1, -1)
    assert symmetric([10, 11, 31]) == (31, -31, 11, -11, 10, -10)


def test_sym_1_1_on_1_to_4_has_a_witness():
    coeffs = symmetric([1, 1])
    witness = find_solution(coeffs, [1, 2, 3, 4])
    assert witness is not None
    assert is_witness(coeffs, [1, 2, 3, 4], witness, distinct=False)
    # 1 + 4 = 2 + 3 uses four distinct values, so distinct mode agrees
    assert find_solution(coeffs, [1, 2, 3, 4], distinct=True) is not None


def test_sym_1_1_three_term_progression_only_trivial():
    # {0, 1, 3}: the sums 0+3, 1+1, ... never collide non-trivially
    assert find_solution(symmetric([1, 1]), [0, 1, 3]) is None


def test_10_11_31_digits_are_clean():
    assert find_solution(symmetric([10, 11, 31]), [0, 1, 4, 5]) is None


def test_43_69_70_alphabet_is_clean_in_distinct_mode():
    assert len(DIGITS_43_69_70) == 39
    assert find_solution(symmetric([43, 69, 70]), DIGITS_43_69_70,
                         distinct=True) is None


def test_asymmetric_equation():
    # x + y = 2z: {0, 1, 2} holds the progression 0, 1, 2
    coeffs = (1, 1, -2)
    witness = find_solution(coeffs, [0, 1, 2])
    assert witness is not None and is_witness(coeffs, [0, 1, 2], witness, False)
    assert find_solution(coeffs, [0, 1, 3]) is None


def test_is_witness_rejects_bad_claims():
    coeffs = symmetric([1, 1])          # (1, 1, -1, -1)
    values = [1, 2, 3, 4]
    assert coeffs == (1, 1, -1, -1)
    assert is_witness(coeffs, values, (1, 4, 2, 3), False)
    assert not is_witness(coeffs, values, (1, 2, 2, 1), False)   # trivial
    assert not is_witness(coeffs, values, (1, 2, 3, 4), False)   # not a solution
    assert not is_witness(coeffs, values, (1, 5, 2, 4), False)   # 5 not in set
    assert not is_witness(coeffs, values, (1, 4, 2), False)      # wrong arity
    assert not is_witness(coeffs, values, (1, 3, 2, 2), True)    # repeats a value


def test_digit_lift():
    assert digit_lift([0, 1], 4, 20) == [0, 1, 4, 5, 16, 17]
    assert len(digit_lift([0, 1], 8, 8 ** 6)) == 2 ** 6
    with pytest.raises(ValueError):
        digit_lift([1, 2], 4, 20)
