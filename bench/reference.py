"""Reference solution checker for invariant linear equations.

Standalone on purpose: it imports nothing from ``nosol``, so the benchmark can
judge the program's answers with code that shares none of its logic.

An equation is a sequence of integer coefficients summing to zero, in the
order a witness lists its values.  A solution is an assignment x with
``sum(c_i * x_i) == 0`` and every x_i in the set.  It counts (is non-trivial)
when, in ``all`` mode, some value's coefficients do not cancel (the class-sum
test), or, in ``distinct`` mode, when the values are pairwise distinct.
"""

from __future__ import annotations


def canonical(coeffs) -> tuple[int, ...]:
    """Coefficients by descending magnitude, positive first on ties: the
    order in which the program lists an equation and its witnesses."""
    return tuple(sorted((int(c) for c in coeffs), key=lambda c: (-abs(c), c < 0)))


def symmetric(gens) -> tuple[int, ...]:
    """Coefficients of a1 x1 + ... + ak xk = a1 x1' + ... + ak xk'."""
    return canonical([*gens, *(-a for a in gens)])


def counts(coeffs, assignment, distinct: bool) -> bool:
    """Whether a satisfying assignment is non-trivial in the given mode."""
    if distinct:
        return len(set(assignment)) == len(assignment)
    classes: dict[int, int] = {}
    for c, v in zip(coeffs, assignment):
        classes[v] = classes.get(v, 0) + c
    return any(classes.values())


def is_witness(coeffs, values, assignment, distinct: bool) -> bool:
    """Substitution, membership and non-triviality of a claimed solution."""
    allowed = set(values)
    return (len(assignment) == len(coeffs)
            and all(v in allowed for v in assignment)
            and sum(c * v for c, v in zip(coeffs, assignment)) == 0
            and counts(coeffs, assignment, distinct))


def _side_sums(coeffs, values) -> list[int]:
    """Sum of every tuple over ``values``, indexed in product order."""
    sums = [0]
    for c in coeffs:
        sums = [s + c * v for s in sums for v in values]
    return sums


def _decode(code: int, k: int, values) -> list[int]:
    out = [0] * k
    n = len(values)
    for j in range(k - 1, -1, -1):
        code, r = divmod(code, n)
        out[j] = values[r]
    return out


def find_solution(coeffs, values, distinct: bool = False):
    """A non-trivial solution as a tuple in ``coeffs`` order, or None.

    Groups the one-side sums of the positive coefficients and looks up the
    one-side sums of the negated negative coefficients against them.  When
    both sides carry the same coefficient vector, the scan reuses the table
    and skips each tuple's match with itself, which is always trivial.
    """
    coeffs = [int(c) for c in coeffs]
    values = sorted(set(int(v) for v in values))
    if sum(coeffs) != 0 or not values:
        raise ValueError("need coefficients summing to zero and a nonempty set")
    pos = [i for i, c in enumerate(coeffs) if c > 0]
    neg = [i for i, c in enumerate(coeffs) if c < 0]
    pos_c = [coeffs[i] for i in pos]
    neg_c = [-coeffs[i] for i in neg]

    left = _side_sums(pos_c, values)
    first: dict[int, int] = {}
    more: dict[int, list[int]] = {}
    for code, s in enumerate(left):
        if s in first:
            more.setdefault(s, [first[s]]).append(code)
        else:
            first[s] = code
    same_sides = pos_c == neg_c
    right = left if same_sides else _side_sums(neg_c, values)

    assignment = [0] * len(coeffs)
    for code, s in enumerate(right):
        mate = first.get(s)
        if mate is None:
            continue
        for other in more.get(s, (mate,)):
            if same_sides and other == code:
                continue
            for i, v in zip(pos, _decode(other, len(pos), values)):
                assignment[i] = v
            for i, v in zip(neg, _decode(code, len(neg), values)):
                assignment[i] = v
            if counts(coeffs, assignment, distinct):
                return tuple(assignment)
    return None


def digit_lift(digits, base: int, bound: int) -> list[int]:
    """All integers in [0, bound) whose base-``base`` digits lie in ``digits``,
    enumerated digit string by digit string.  ``digits`` must contain 0, so
    that shorter numbers are the strings with leading zeros."""
    digits = sorted(set(digits))
    if not digits or digits[0] != 0:
        raise ValueError("digit alphabet must contain 0")
    out = [0]
    power = 1
    while power < bound:
        out = [x + d * power for d in digits for x in out]
        power *= base
    return sorted(x for x in set(out) if x < bound)
