"""Invariant linear equations and their structural predicates.

An equation is a coefficient vector (c_1, ..., c_m) with sum zero, read as
c_1*x_1 + ... + c_m*x_m = 0.  The symmetric family a_1*x_1 + ... + a_k*x_k =
a_1*x_1' + ... + a_k*x_k' is stored with its positive generators so that
constructions can recover them.

All arithmetic is exact (Python integers never wrap).
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from itertools import combinations

GENUS_MAX_VARS = 16
PRIMITIVE_MAX_VARS = 24
DISSOCIATED_MAX_LEN = 24


class SolutionKind(enum.Enum):
    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"


@dataclass(frozen=True)
class SolutionClass:
    assignment: tuple[int, ...]
    kind: SolutionKind

    @property
    def is_trivial(self) -> bool:
        return self.kind is SolutionKind.TRIVIAL


@dataclass(frozen=True)
class Equation:
    """Canonical invariant equation.

    coeffs are sorted by descending absolute value, positive before negative
    on ties; this fixes serialization and search order.  symmetric_gen holds
    the positive generators (ascending) when the equation is the symmetric
    two-sided form, else None.
    """

    coeffs: tuple[int, ...]
    symmetric_gen: tuple[int, ...] | None = None

    @property
    def num_vars(self) -> int:
        return len(self.coeffs)

    @property
    def side_sum(self) -> int:
        """Sum of the positive coefficients (one side of the equation)."""
        return sum(c for c in self.coeffs if c > 0)

    def __str__(self) -> str:
        if self.symmetric_gen is not None:
            return "sym(" + ",".join(map(str, self.symmetric_gen)) + ")"
        return "eq(" + ",".join(map(str, self.coeffs)) + ")"


def _canonical(coeffs) -> tuple[int, ...]:
    return tuple(sorted(coeffs, key=lambda c: (-abs(c), c < 0)))


def make_equation(coeffs, symmetric_gen=None) -> Equation:
    """Build an equation from raw coefficients.

    Zero coefficients are stripped; the remaining ones must be nonempty and
    sum to zero (translation invariance).
    """
    stripped = [int(c) for c in coeffs if c != 0]
    if not stripped:
        raise ValueError("equation needs at least one nonzero coefficient")
    if sum(stripped) != 0:
        raise ValueError(f"coefficients must sum to zero, got {sum(stripped)}")
    gen = None
    if symmetric_gen is not None:
        gen = tuple(sorted(int(a) for a in symmetric_gen))
        if any(a < 1 for a in gen):
            raise ValueError("symmetric generators must be positive")
        expected = sorted(list(gen) + [-a for a in gen])
        if sorted(stripped) != expected:
            raise ValueError("coefficients do not match symmetric generators")
    return Equation(_canonical(stripped), gen)


def make_symmetric(gens) -> Equation:
    """Equation a_1 x_1 + ... + a_k x_k = a_1 x_1' + ... + a_k x_k'."""
    gens = list(gens)
    if not gens:
        raise ValueError("empty generator vector")
    if any(a < 1 for a in gens):
        raise ValueError("generators must be positive; normalize signs first")
    coeffs = [int(a) for a in gens] + [-int(a) for a in gens]
    return make_equation(coeffs, symmetric_gen=gens)


def normalize_generators(raw) -> list[int]:
    """Sign-normalize raw generators: swapping x_i with x_i' flips a sign.

    Rejects zeros (a zero coefficient contributes nothing and is ambiguous
    in the symmetric form).
    """
    out = []
    for a in raw:
        if a == 0:
            raise ValueError("zero generator in symmetric equation")
        out.append(abs(int(a)))
    return out


def _subset_sums(coeffs) -> list[int]:
    """Sum of every subset of coeffs, indexed by bitmask."""
    sums = [0] * (1 << len(coeffs))
    for i, c in enumerate(coeffs):
        bit = 1 << i
        for mask in range(bit):
            sums[bit | mask] = sums[mask] + c
    return sums


def genus(eq: Equation) -> int:
    """Largest g such that the index set splits into g disjoint zero-sum blocks."""
    m = eq.num_vars
    if m > GENUS_MAX_VARS:
        raise ValueError(f"genus limited to {GENUS_MAX_VARS} variables, got {m}")
    sums = _subset_sums(eq.coeffs)
    full = (1 << m) - 1
    zero_masks = [mask for mask in range(1, full + 1) if sums[mask] == 0]
    by_lowbit: dict[int, list[int]] = {}
    for z in zero_masks:
        by_lowbit.setdefault(z & -z, []).append(z)

    memo: dict[int, int] = {0: 0}

    def best(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        low = mask & -mask
        result = -1
        for z in by_lowbit.get(low, ()):
            if z & ~mask:
                continue
            rest = best(mask ^ z)
            if rest >= 0 and rest + 1 > result:
                result = rest + 1
        memo[mask] = result
        return result

    g = best(full)
    if g < 1:
        raise ValueError("no zero-sum partition exists")
    return g


def classify_solution(eq: Equation, x) -> SolutionClass:
    """Classify a satisfying assignment as trivial (is_trivial) or not."""
    x = tuple(int(v) for v in x)
    if len(x) != eq.num_vars:
        raise ValueError(f"assignment length {len(x)} != {eq.num_vars}")
    if sum(c * v for c, v in zip(eq.coeffs, x)) != 0:
        raise ValueError("assignment does not satisfy the equation")
    kind = SolutionKind.TRIVIAL if is_trivial(eq, x) else SolutionKind.NONTRIVIAL
    return SolutionClass(x, kind)


def is_trivial(eq: Equation, x) -> bool:
    """Whether, for every distinct value in the assignment x, the
    coefficients at the positions holding that value sum to zero.

    When more than half of the positions hold distinct values, one value
    is held once, and its sum is one coefficient, nonzero since
    make_equation strips zeros: the answer is False at once."""
    if 2 * len(set(x)) > len(x):
        return False
    class_sums: dict[int, int] = {}
    for c, v in zip(eq.coeffs, x):
        class_sums[v] = class_sums.get(v, 0) + c
    return all(s == 0 for s in class_sums.values())


def _min_zero_block(coeffs, indices, anchor) -> tuple[int, ...] | None:
    """Smallest-cardinality zero-sum subset of indices containing anchor."""
    rest = [i for i in indices if i != anchor]
    for size in range(2, len(indices) + 1):
        for combo in combinations(rest, size - 1):
            if coeffs[anchor] + sum(coeffs[i] for i in combo) == 0:
                return (anchor, *combo)
    return None


def _zero_subset_count(coeffs) -> int:
    """Number of zero-sum subsets (including the empty one), meet in the middle."""
    m = len(coeffs)
    half = m // 2
    left = _subset_sums(coeffs[:half])
    right = _subset_sums(coeffs[half:])
    tally: dict[int, int] = {}
    for s in left:
        tally[s] = tally.get(s, 0) + 1
    return sum(tally.get(-s, 0) for s in right)


def zero_sum_partition(eq: Equation) -> list[tuple[int, ...]]:
    """Greedy partition of the index set into minimal zero-sum blocks.

    Always succeeds when sum(coeffs) == 0; the blocks are the candidate
    partition for the primitivity test.
    """
    remaining = list(range(eq.num_vars))
    blocks = []
    while remaining:
        block = _min_zero_block(eq.coeffs, remaining, remaining[0])
        if block is None:
            block = tuple(remaining)  # whole rest sums to zero
        blocks.append(tuple(sorted(block)))
        chosen = set(block)
        remaining = [i for i in remaining if i not in chosen]
    return blocks


def is_primitive(eq: Equation) -> bool:
    """Whether every zero-sum coefficient subset is a union of one fixed
    zero-sum partition's blocks.

    Every zero-sum subset decomposes into inclusion-minimal zero-sum subsets,
    so the equation is primitive iff the greedy minimal blocks partition the
    index set and the number of zero-sum subsets is exactly 2**(#blocks).
    """
    m = eq.num_vars
    if m > PRIMITIVE_MAX_VARS:
        raise ValueError(f"primitivity limited to {PRIMITIVE_MAX_VARS} variables, got {m}")
    blocks = zero_sum_partition(eq)
    return _zero_subset_count(eq.coeffs) == 1 << len(blocks)


def is_dissociated(a) -> bool:
    """Whether all 2**k subset sums of a are pairwise distinct."""
    a = [int(v) for v in a]
    if len(a) > DISSOCIATED_MAX_LEN:
        raise ValueError(f"dissociativity limited to {DISSOCIATED_MAX_LEN} entries, got {len(a)}")
    sums = {0}
    for v in a:
        shifted = {s + v for s in sums}
        if shifted & sums:
            return False
        sums |= shifted
    return True


def equation_to_json(eq: Equation) -> dict:
    """JSON object with exact integers as decimal strings."""
    return {
        "coeffs": [str(c) for c in eq.coeffs],
        "symmetric_gen": [str(a) for a in eq.symmetric_gen] if eq.symmetric_gen else None,
    }


def int_from_json(value) -> int:
    """A JSON integer (not a bool) or a decimal string of one; anything else
    raises ValueError rather than being coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def ints_from_json(values) -> list[int]:
    """A JSON array of integers, each read by int_from_json."""
    if not isinstance(values, list):
        raise ValueError(f"expected an array of integers, got {values!r}")
    return [int_from_json(v) for v in values]


def equation_from_json(obj: dict) -> Equation:
    gen = obj.get("symmetric_gen")
    return make_equation(ints_from_json(obj["coeffs"]),
                         symmetric_gen=ints_from_json(gen) if gen else None)


def equation_dumps(eq: Equation) -> str:
    return json.dumps(equation_to_json(eq), sort_keys=True)
