"""Explicit constructions of certified digit sets and their lifts.

Each construction assembles a digit alphabet for a target equation, runs the
oracle over it, and returns a Certificate.  An alphabet the oracle cannot
finish within the budget raises BudgetExhausted, never a certificate.  The
lift then expands any certified alphabet to a solution-free subset of an
arbitrary initial segment of the integers.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from .certificates import (
    MODE_ALL,
    MODE_DISTINCT,
    Certificate,
    DigitSet,
    Rate,
    integer_root,
    make_digit_set,
    tight_base,
)
from .equations import Equation, is_primitive, make_equation, make_symmetric
from .oracle import (
    DEFAULT_BUDGET,
    MITM_TABLE_CAP,
    BudgetExhausted,
    IncrementalSolutionIndex,
    SolutionQuery,
    exhaustive_check,
)
from .rates import DEFAULT_Q, alpha_optimal
from .search import Dependency, small_dependency_search

MATERIALIZE_LIMIT = 2_000_000


class ConstructionError(ValueError):
    """A construction's digit set failed its own certification."""


def _certify(digits, base, eq, mode, meta, budget=DEFAULT_BUDGET) -> Certificate:
    ds = make_digit_set(base, digits, eq, mode)
    q = SolutionQuery(eq, ds.digits, mode == MODE_DISTINCT, budget)
    solution, nodes = exhaustive_check(q)
    if solution is not None:
        raise ConstructionError(
            f"digit set {list(ds.digits)} admits solution {solution.assignment}")
    return Certificate(ds, verified=True, oracle_nodes=nodes,
                       meta={**meta, "proof": meta.get("proof", "oracle")})


def _certify_interval(n, eq, mode, meta, budget) -> Certificate:
    """Certify the alphabet {0..n-1} at its tight base.  On a solution-free
    alphabet every engine spends at least one node per element, so one with
    more elements than the budget raises what the oracle run would, before
    anything is built."""
    if n > budget:
        raise BudgetExhausted(budget + 1)
    return _certify(range(n), tight_base(eq, range(n)), eq, mode, meta, budget)


# ---------------------------------------------------------------------------
# base-L lift


def _digits_of(x: int, L: int) -> list[int]:
    if x == 0:
        return [0]
    out = []
    while x:
        out.append(x % L)
        x //= L
    return out


def _count_admissible_below(bound: int, L: int, digits) -> int:
    """|{x : 0 <= x < bound, all base-L digits of x in digits}|."""
    if bound <= 0:
        return 0
    ordered = sorted(digits)
    digit_set = set(ordered)
    rep = _digits_of(bound - 1, L)  # count x <= bound-1
    k = len(ordered)
    total = 0
    prefix_ok = True
    for pos in range(len(rep) - 1, -1, -1):
        total += bisect.bisect_left(ordered, rep[pos]) * k ** pos
        if rep[pos] not in digit_set:
            prefix_ok = False
            break
    return total + (1 if prefix_ok else 0)


@dataclass
class LiftedSet:
    """Solution-free subset of [0, n) produced by the digit lift.

    For a contiguous alphabet {0..m} the whole admissible range below n is
    used; otherwise the enumeration stops at the largest power of the base
    not exceeding n (the leading digit is pinned to zero), which keeps the
    guaranteed size within a factor L of n**rate.
    """

    n: int
    source: DigitSet
    bound: int = field(init=False)
    _elements: tuple[int, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        digits = self.source.digits
        contiguous = digits == tuple(range(len(digits)))
        if contiguous:
            self.bound = self.n
        else:
            power = 1
            while power * self.source.base <= self.n:
                power *= self.source.base
            self.bound = power

    def __contains__(self, x: int) -> bool:
        if not 0 <= x < self.bound:
            return False
        allowed = set(self.source.digits)
        return all(d in allowed for d in _digits_of(x, self.source.base))

    @property
    def size(self) -> int:
        """Exact element count via digit counting (no materialization)."""
        return _count_admissible_below(self.bound, self.source.base,
                                       self.source.digits)

    def __len__(self) -> int:
        return self.size

    @property
    def elements(self) -> tuple[int, ...]:
        if self._elements is None:
            if self.size > MATERIALIZE_LIMIT:
                raise ValueError(
                    f"{self.size} elements exceed the materialization limit; "
                    "use membership tests instead")
            found = _lift_below(self.source.digits, self.source.base,
                                self.bound - 1)
            self._elements = tuple(found)
        return self._elements

    @property
    def rate(self) -> Rate:
        return self.source.rate


def lift(cert: Certificate | DigitSet, N: int,
         budget: int = DEFAULT_BUDGET) -> LiftedSet:
    """Expand a certified digit alphabet to a solution-free subset of [0, N).

    Requires a primitive equation (the digit-restriction argument needs it)
    and a verified certificate; a bare DigitSet is oracle-checked first.
    Digit alphabets must contain 0 so shorter numbers stay admissible.

    For distinct-variables certificates the digit argument alone does not
    transfer, so the materialized lift is re-verified by the oracle.
    """
    if isinstance(cert, DigitSet):
        cert = _certify(cert.digits, cert.base, cert.equation, cert.mode, {},
                        budget)
    if not cert.verified:
        raise ValueError("refusing to lift an unverified certificate")
    ds = cert.digit_set
    if 0 not in ds.digits:
        raise ValueError("digit alphabet must contain 0 to lift")
    if not is_primitive(ds.equation):
        raise ValueError("lift requires a primitive equation")
    lifted = LiftedSet(N, ds)
    if ds.mode == MODE_DISTINCT and lifted.size >= 2:
        if lifted.size > 5000:
            raise ValueError(f"distinct-mode lift of {lifted.size} elements "
                             "is too large to re-verify (limit 5000)")
        q = SolutionQuery(ds.equation, lifted.elements, True, budget)
        solution, _ = exhaustive_check(q)
        if solution is not None:
            raise ConstructionError(
                "distinct-mode lift admits a solution; the alphabet lacks "
                "the digit-forcing structure")
    return lifted


# ---------------------------------------------------------------------------
# digit alphabet constructions


def _guarantee(bound: float) -> float | None:
    """An analytic rate bound as a certificate records it: None when it is
    not positive, as such a bound guarantees nothing."""
    return bound if bound > 0 else None


def two_var_digits(a: int, b: int, budget: int = DEFAULT_BUDGET) -> Certificate:
    """Alphabet {0..b-1} in base (a+b)(b-1)+1 for a*x1 + b*x2 symmetric.

    Solution-free by the divisibility argument (b | x1 - x1'), and certified
    by the oracle.
    """
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    if math.gcd(a, b) != 1:
        raise ValueError("a and b must be coprime")
    eq = make_symmetric([a, b])
    meta = {
        "kind": "two-var", "a": a, "b": b,
        "analytic_bound": _guarantee(0.5 - 1.0 / math.log(b)),
        "analytic_formula": "1/2 - 1/log(b)",
        "proof": "oracle+divisibility",
    }
    return _certify_interval(b, eq, MODE_ALL, meta, budget)


def two_var_rate(a: int, b: int) -> Rate:
    """Rate of two_var_digits without building or certifying it."""
    if not 0 < a < b or math.gcd(a, b) != 1:
        raise ValueError("need coprime 0 < a < b")
    return Rate(b, (a + b) * (b - 1) + 1)


def geometric_digits(m: int, k: int, budget: int = DEFAULT_BUDGET) -> Certificate:
    """Alphabet {0..m-1} in base m**k for generators 1, m, ..., m**(k-1)."""
    if m < 2 or k < 2:
        raise ValueError("need m, k >= 2")
    if m ** k > 10 ** 12:
        raise ValueError("base m**k too large")
    eq = make_symmetric([m ** i for i in range(k)])
    meta = {"kind": "geometric", "m": m, "k": k,
            "analytic_bound": 1.0 / k, "analytic_formula": "1/k"}
    return _certify_interval(m, eq, MODE_ALL, meta, budget)


def coprime_power_digits(a: int, b: int, k: int,
                         budget: int = DEFAULT_BUDGET) -> Certificate:
    """Alphabet {0..b-1} for generators a, b, b**2, ..., b**(k-1)."""
    if b < 2 or k < 2 or a < 1:
        raise ValueError("need a >= 1 and b, k >= 2")
    if math.gcd(a, b) != 1:
        raise ValueError("a and b must be coprime")
    if a > b ** (k - 1):
        raise ValueError("need a <= b**(k-1)")
    gens = [a] + [b ** i for i in range(1, k)]
    eq = make_symmetric(gens)
    meta = {"kind": "coprime-power", "a": a, "b": b, "k": k,
            "analytic_bound": _guarantee(1.0 / k - 1.0 / math.log(b)),
            "analytic_formula": "1/k - 1/log(b)"}
    return _certify_interval(b, eq, MODE_ALL, meta, budget)


def spaced_digits(gens, s: int, budget: int = DEFAULT_BUDGET) -> Certificate:
    """Alphabet {0..s-1} for generators with s*a_i <= a_{i+1}."""
    gens = [int(g) for g in gens]
    if s < 2:
        raise ValueError("spacing factor must be at least 2")
    if any(g < 1 for g in gens) or not gens:
        raise ValueError("generators must be positive")
    for u, v in zip(gens, gens[1:]):
        if s * u > v:
            raise ValueError(f"spacing violation: {s}*{u} > {v}")
    eq = make_symmetric(gens)
    total = sum(gens)
    meta = {"kind": "spaced", "gens": gens, "s": s,
            "analytic_bound": math.log(s) / (math.log(s) + math.log(total)),
            "analytic_formula": "log(s) / (log(s) + log(sum))"}
    return _certify_interval(s, eq, MODE_ALL, meta, budget)


# ---------------------------------------------------------------------------
# dependency machinery (three-coefficient pipeline)


def _dependency_pair(dep: Dependency) -> tuple[int, int]:
    """Coordinate pair used to dodge the dependency: among pairs with
    distinct nonzero magnitudes, the one with the biggest reduced larger
    entry (best two-variable rate).  Returns (small, large), coprime."""
    best = None
    for u, v in ((dep.i1, dep.j1), (dep.i1, dep.k1), (dep.j1, dep.k1)):
        u, v = abs(u), abs(v)
        if u == 0 or v == 0 or u == v:
            continue
        g = math.gcd(u, v)
        lo, hi = sorted((u // g, v // g))
        if best is None or hi > best[1]:
            best = (lo, hi)
    if best is None:
        raise ValueError("dependency has no usable coordinate pair "
                         "(all magnitudes equal or zero)")
    return best


def avoid_one_dependency_digits(dep: Dependency, L: int) -> tuple[int, ...]:
    """Subset A of [0, L] such that A - A never contains the pattern
    (t*i1, t*j1) for t != 0, built by lifting a two-variable alphabet."""
    if L < 1:
        raise ValueError("L must be positive")
    a, b = _dependency_pair(dep)
    base = (a + b) * (b - 1) + 1
    return tuple(_lift_below(range(b), base, L))


def dependency_gap_check(a: int, b: int, c: int, dep: Dependency,
                         bound: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Confirm the small/large dependency gap empirically.

    Enumerates every relation i*a + j*b + k*c = 0 with magnitudes <= bound
    that is not a rational multiple of dep, and checks each has max
    magnitude at least b / (2 * max|dep|).  For coprime b and c that gap
    always holds: two genuinely independent small relations cannot coexist.
    """
    if math.gcd(b, c) != 1:
        raise ValueError("b and c must be coprime")
    i1, j1, k1 = dep.as_tuple()
    if i1 * a + j1 * b + k1 * c != 0:
        raise ValueError("dependency does not satisfy the relation")
    if (2 * bound + 1) ** 2 > budget:
        raise BudgetExhausted((2 * bound + 1) ** 2)
    d = dep.magnitude
    for i in range(-bound, bound + 1):
        for j in range(-bound, bound + 1):
            num = -(i * a + j * b)
            if num % c:
                continue
            k = num // c
            if abs(k) > bound or (i, j, k) == (0, 0, 0):
                continue
            if i * j1 == j * i1 and i * k1 == k * i1 and j * k1 == k * j1:
                continue  # rational multiple of dep
            if 2 * d * max(abs(i), abs(j), abs(k)) < b:
                return False
    return True


# the case split's thresholds on log(reduced ratio) and log(coordinate
# size): the asymptotic analysis uses e**1000 and e**10**6, and the
# desk-scale pair 1000 and 10**6 keeps the same split reachable
LITERAL_LOG_THRESHOLDS = (1000.0, 10.0 ** 6)
DESK_LOG_THRESHOLDS = (math.log(1000.0), math.log(10 ** 6))


@dataclass
class PipelineConfig:
    """Knobs for the three-coefficient pipeline.

    literal_constants=True uses the literal asymptotic thresholds of the
    case split instead of the desk-scale ones.
    """

    alpha: float | None = None
    alpha2_small: float = 0.1
    literal_constants: bool = False
    budget: int = DEFAULT_BUDGET


@dataclass
class ThreePipelineResult:
    status: str                      # "certified" | "unverified-plan"
    certificate: Certificate | None
    case: str
    dependency: Dependency | None
    alpha: float
    alpha2: float | None
    plan: dict = field(default_factory=dict)


def three_coefficient_pipeline(
        a: int, b: int, c: int,
        config: PipelineConfig | None = None) -> ThreePipelineResult:
    """Certified digit set for a*x + b*y + c*z symmetric, a <= b <= c.

    Case split: no small dependency (interval alphabet), a dependency with a
    large reduced ratio or large coordinates (two-variable dodge at the
    0.499 exponent), or a small dependency (same dodge at the 0.44
    exponent).  Every emitted digit set is oracle-certified; a budget blowup
    downgrades the result to an unverified plan rather than a certificate.
    """
    cfg = config or PipelineConfig()
    if not 0 < a <= b <= c:
        raise ValueError("need 0 < a <= b <= c")
    if math.gcd(b, c) != 1:
        raise ValueError("b and c must be coprime")
    if c == a + b:
        raise ValueError("c == a + b makes the equation non-primitive")
    eq = make_symmetric([a, b, c])
    if not is_primitive(eq):
        raise ValueError("equation is not primitive")
    s = a + b + c
    beta = math.log(c) / math.log(b) if b > 1 else 1.0
    alpha = cfg.alpha if cfg.alpha is not None else alpha_optimal(beta, DEFAULT_Q).alpha

    def emit(digits, case, dep, alpha2, extra, greedy=False):
        # greedy: certify the solution-free subset that one greedy pass
        # keeps of digits; a budget blowup in either step leaves a plan.
        # The pass stores up to a sum per node, about 120 bytes each in the
        # sums index (mitm's table entry costs 90), until its last stage's
        # set doubles its table at about 1.26M sums.  So its nodes are
        # capped at 3/5 of MITM_TABLE_CAP whatever the budget, where it
        # peaks at about 160 MB, below mitm's 180 MB at that cap
        meta = {"kind": "thm3", "a": a, "b": b, "c": c, "case": case,
                "alpha": alpha, **extra}
        if dep is not None:
            meta["dependency"] = list(dep.as_tuple())
        if alpha2 is not None:
            meta["alpha2"] = alpha2
        plan = {"digits": list(digits)}
        try:
            if greedy:
                index = IncrementalSolutionIndex(
                    eq, budget=min(cfg.budget, MITM_TABLE_CAP * 3 // 5))
                index.greedy(digits)
                digits = index.values
            digits = tuple(sorted(digits))
            base = tight_base(eq, digits)
            plan = {"digits": list(digits), "base": base}
            cert = _certify(digits, base, eq, MODE_ALL, meta, cfg.budget)
        except BudgetExhausted:
            return ThreePipelineResult("unverified-plan", None, case, dep,
                                       alpha, alpha2, plan=plan)
        return ThreePipelineResult("certified", cert, case, dep, alpha, alpha2)

    if c > b ** 3:
        # two-variable alphabet below c**(2/3)/2 already dodges the c term;
        # the emitted base is tightened so the no-carry condition holds
        cap = max(integer_root(c * c, 3) // 2, 1)
        base0 = (a + b) * (b - 1) + 1
        return emit(_lift_below(range(b), base0, cap), "easy-c-gt-b3", None,
                    None, {"cap": cap}, greedy=True)

    M = int(_float_power(b, alpha))
    dep = small_dependency_search(a, b, c, M) if M >= 1 else None
    if dep is None:
        return emit(range(M + 1), "no-small-dependency", None, None, {"m": M})

    _, reduced_hi = _dependency_pair(dep)
    log_ratio_threshold, log_coord_threshold = (
        LITERAL_LOG_THRESHOLDS if cfg.literal_constants else DESK_LOG_THRESHOLDS)
    if (math.log(reduced_hi) > log_ratio_threshold
            or math.log(dep.magnitude) > log_coord_threshold):
        alpha2 = alpha
        case = "large-dependency"
        exponent = 0.499
    else:
        alpha2 = cfg.alpha2_small
        case = "small-dependency"
        exponent = 0.44
    cap = max(int(_float_power(b, 1 - alpha2) / 2), 1)
    return emit(avoid_one_dependency_digits(dep, cap), case, dep, alpha2,
                {"exponent_claim": exponent, "cap": cap}, greedy=True)


def _float_power(b: int, exponent: float) -> float:
    """b ** exponent as a finite float; ValueError when it is not one."""
    try:
        value = b ** exponent
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{b} ** {exponent} is not a finite float")
    return value


def _lift_below(digits, base, cap) -> list[int]:
    """All values <= cap whose base-`base` representation uses only digits."""
    digits = sorted(set(digits))
    if 0 not in digits:
        raise ValueError("digit alphabet must contain 0")
    out = []

    def grow(value):
        if value > cap:
            return
        out.append(value)
        for d in digits:
            if value == 0 and d == 0:
                continue
            grow(value * base + d)

    grow(0)
    return sorted(out)


# ---------------------------------------------------------------------------
# progression-free digits (six-variable family)


def behrend_set(m: int) -> tuple[int, ...]:
    """A 3AP-free subset of {0..m}: the numbers up to m whose base-3 digits
    are all 0 or 1.

    Behrend's sphere-shell construction (dimension ceil(sqrt(log2 m)), best
    shell by exhaustive count) is shorter at every m from 2 to 2,999 and at
    m = 10**4, 3*10**4, 10**5, 3*10**5, 10**6 and 10**7 (2,470 elements
    against 32,768 at 10**7), so it is not built.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    ternary = tuple(_lift_below(range(2), 3, m))
    if m <= 10 ** 5:
        _assert_3ap_free(ternary)
    return ternary


def _assert_3ap_free(values) -> None:
    present = set(values)
    vals = sorted(values)
    for i, x in enumerate(vals):
        for y in vals[i + 1:]:
            if 2 * y - x in present and 2 * y - x != y:
                raise ConstructionError(f"3AP found: {x}, {y}, {2 * y - x}")


def double_progression_digits(d: int, budget: int = DEFAULT_BUDGET) -> Certificate:
    """Behrend digits for x1 + x2 + d*x3 + d*x4 = 2*y1 + 2*d*y2.

    m = floor((d-1)/2); the base is (4m+3)m+1 unless the alphabet's top
    digit forces a larger one through the no-carry condition.
    """
    if d < 1:
        raise ValueError("d must be positive")
    eq = make_equation([1, 1, d, d, -2, -2 * d])
    m = (d - 1) // 2
    if m == 0:
        # degenerate: singleton alphabet, flagged rather than an error
        meta = {"kind": "section5", "d": d, "m": 0, "degenerate": True}
        return _certify([0], 2, eq, MODE_ALL, meta, budget)
    digits = behrend_set(m)
    L = max((4 * m + 3) * m + 1, tight_base(eq, digits))
    meta = {"kind": "section5", "d": d, "m": m,
            "analytic_formula": "1/2 - C/sqrt(log m)"}
    return _certify(digits, L, eq, MODE_ALL, meta, budget)


def distinct_var_digits(m: int, budget: int = DEFAULT_BUDGET) -> Certificate:
    """Alphabet {0..m-2} for generators (m, 2m-2, 3m-3), certified with all
    variables pairwise distinct (the R(N) semantics)."""
    if m < 3:
        raise ValueError("m must be at least 3")
    eq = make_symmetric([m, 2 * m - 2, 3 * m - 3])
    meta = {"kind": "distinct-var", "m": m,
            "analytic_formula": "1/2 - eps(m)"}
    return _certify_interval(m - 1, eq, MODE_DISTINCT, meta, budget)


# ---------------------------------------------------------------------------
# transfers


def shift_transfer(cert: Certificate, i_shifts, j_shifts,
                   budget: int = DEFAULT_BUDGET) -> Certificate:
    """Certificate for the equation with coefficients shifted by multiples
    of the base: (i_t*L + a_t) on the left, (j_t*L + a_t) on the right.

    The digit alphabet is unchanged; any solution of the shifted equation
    would reduce to one modulo L.  The new base is the smallest multiple of
    L clearing the no-carry bound.
    """
    ds = cert.digit_set
    if ds.equation.symmetric_gen is None:
        raise ValueError("shift transfer needs a symmetric certificate")
    if not cert.verified:
        raise ValueError("refusing to transfer an unverified certificate")
    gens = ds.equation.symmetric_gen
    i_shifts = [int(v) for v in i_shifts]
    j_shifts = [int(v) for v in j_shifts]
    if len(i_shifts) != len(gens) or len(j_shifts) != len(gens):
        raise ValueError(f"need exactly {len(gens)} shifts per side")
    L = ds.base
    left = [i * L + g for i, g in zip(i_shifts, gens)]
    right = [j * L + g for j, g in zip(j_shifts, gens)]
    if min(left + right) < 1:
        raise ValueError("shifted coefficients must stay positive")
    if sum(left) != sum(right):
        raise ValueError("shift sums must balance to keep the equation invariant")
    new_eq = make_equation(left + [-r for r in right])
    s_new = new_eq.side_sum
    M = (s_new * ds.digits[-1] // L + 1) * L
    s_shift = sum(i_shifts) + sum(j_shifts)
    meta = {"kind": "shift", "i": i_shifts, "j": j_shifts,
            "source_base": L, "shift_total": s_shift,
            "rate_formula": "log|A_L| / (log L + log s)"}
    return _certify(ds.digits, M, new_eq, ds.mode, meta, budget)


def window_extract(values, L: int, eq: Equation,
                   budget: int = DEFAULT_BUDGET) -> Certificate:
    """Convert a solution-free set into a digit alphabet for base L.

    Finds the window of (L - 1) // s + 1 values, the widest under the
    no-carry rule s*max < L, with the most elements, shifts it to start at
    0 (translation invariance), and certifies the result.
    """
    values = sorted(set(int(v) for v in values))
    if not values:
        raise ValueError("empty source set")
    s = eq.side_sum
    if L < 2 * s:
        raise ValueError("base must be at least twice the side sum")
    width = (L - 1) // s + 1
    best_count, best_at = 0, values[0]
    j = 0
    for i, v in enumerate(values):
        while values[j] < v - (width - 1):
            j += 1
        count = i - j + 1
        if count > best_count:
            best_count, best_at = count, values[j]
    digits = [v - best_at for v in values
              if best_at <= v <= best_at + width - 1]
    meta = {"kind": "window", "window_start": best_at, "width": width}
    return _certify(digits, L, eq, MODE_ALL, meta, budget)
