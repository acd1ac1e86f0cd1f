"""Rate computations: the three-coefficient alpha optimization, random-tuple
injectivity sweeps, and certificate rate reports."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .certificates import Certificate, Rate, decimal_below
from .oracle import DEFAULT_BUDGET, BudgetExhausted, is_injective_map

RESIDUAL_TOL = 1e-12
# exponent q of the three-coefficient rate optimization
DEFAULT_Q = 0.499


@dataclass(frozen=True)
class AlphaParams:
    """Root of alpha*(1+beta-alpha) = q*(1-alpha)*(beta+alpha) in (0,1)."""

    q: float
    beta: float
    alpha: float

    @property
    def rate(self) -> float:
        return self.alpha / (self.beta + self.alpha)

    @property
    def residual(self) -> float:
        a, b, q = self.alpha, self.beta, self.q
        return abs(a * (1 + b - a) - q * (1 - a) * (b + a))


def alpha_optimal(beta: float, q: float) -> AlphaParams:
    """Optimal digit-range exponent for the three-coefficient pipeline.

    Closed form (the "+" branch of the quadratic), polished by Newton so the
    residual stays below 1e-12 across the whole parameter box.
    """
    if not 0 < beta < math.inf:     # also rejects nan
        raise ValueError(f"beta must be a positive finite number, got {beta}")
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    try:
        disc = 4 * (q - 1) * q * beta + (1 + q * (beta - 1) + beta) ** 2
    except OverflowError:
        raise ValueError(f"beta {beta} overflows the discriminant") from None
    if disc < 0:
        raise ValueError("negative discriminant; no real optimum")
    alpha = (-1 + q - beta - q * beta + math.sqrt(disc)) / (2 * (q - 1))
    for _ in range(3):
        f = alpha * (1 + beta - alpha) - q * (1 - alpha) * (beta + alpha)
        fp = 1 + beta - 2 * alpha - q + q * beta + 2 * q * alpha
        if fp == 0:
            break
        alpha -= f / fp
    if not 0 < alpha < 1:
        raise ValueError(f"root {alpha} escaped (0, 1)")
    params = AlphaParams(q, beta, alpha)
    if params.residual > RESIDUAL_TOL:
        raise ValueError(f"residual {params.residual} above tolerance")
    return params


def injectivity_threshold(k: int, epsilon: float) -> tuple[float, float]:
    """Thresholds above which random coefficient tuples are mostly injective.

    Returns the pair ((2^k/eps)^(1/(eps*k)), (k*2^k/eps)^(1/(eps*k))): the
    first suffices for the raw counting bound, the second for the full
    solution-free statement.  epsilon above 1/k is clamped to 1/k.  Values
    overflow to inf for very small epsilon, which is faithful: the
    thresholds really are astronomically large.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    eps = min(epsilon, 1.0 / k)
    exponent = 1.0 / (eps * k)

    def power(base):
        try:
            return math.exp(exponent * math.log(base))
        except OverflowError:
            return math.inf

    return power(2 ** k / eps), power(k * 2 ** k / eps)


@dataclass(frozen=True)
class SweepReport:
    k: int
    C: int
    epsilon: float
    B: int
    total: int
    bad: int
    bound: float
    bound_ok: bool
    sampling: str
    samples: int | None = None
    seed: int | None = None

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "k": self.k, "c": self.C, "epsilon": self.epsilon, "b": self.B,
            "total": self.total, "bad": self.bad, "bound": self.bound,
            "bound_ok": self.bound_ok, "sampling": self.sampling,
            "samples": self.samples, "seed": self.seed,
        }


def _power_at_most(b: int, c: int, t: Fraction) -> bool:
    """Whether b**t.denominator <= c**t.numerator, for b >= 1, c >= 2 and
    t > 0, without forming the powers (a long decimal epsilon makes both
    exponents huge).

    log b / log c is rational exactly when b and c are powers of a common
    root, and then Rate gives it as a Fraction.  Otherwise the two sides
    differ, and decimal_below decides.
    """
    exact = Rate(b, c).as_fraction()
    if exact is not None:
        return exact <= t
    return decimal_below((t.denominator, b), (t.numerator, c))


def _tuple_range_bound(k: int, C: int, epsilon: float) -> int:
    """Largest B >= 1 with B <= C**(1/k - epsilon), exactly.

    epsilon is read as the decimal its repr prints (0.3 is 3/10), so
    t = 1/k - epsilon is rational and B is the largest integer with
    B**den(t) <= C**num(t).
    """
    t = Fraction(1, k) - Fraction(str(epsilon))
    if t <= 0 or C < 2:
        return 1
    # B lies in [lo, hi): double hi past it, then bisect
    lo, hi = 1, 2
    while _power_at_most(hi, C, t):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _power_at_most(mid, C, t):
            lo = mid
        else:
            hi = mid
    return lo


def _bad_last_coefficients(prefix, B: int, C: int) -> int:
    """How many a_k in [1, C] make x -> (prefix + (a_k,)).x non-injective
    on [1, B]^k.

    If the sums of the prefix over [1, B]^(k-1) repeat, every a_k does.
    Otherwise two points collide exactly when their prefix sums differ by
    d > 0 and a_k * t == d, with t in 1..B-1 the difference of their last
    coordinates; so the bad a_k are the quotients d / t up to C.
    """
    sums = [0]
    for c in prefix:
        sums = [s + c * v for v in range(1, B + 1) for s in sums]
    sums.sort()
    diffs = {y - x for x, y in combinations(sums, 2)}
    if 0 in diffs:
        return C
    return len({d // t for d in diffs for t in range(1, B)
                if d % t == 0 and d <= C * t})


def random_tuple_sweep(k: int, C: int, epsilon: float,
                       samples: int | None = None, seed: int = 0,
                       budget: int = DEFAULT_BUDGET) -> SweepReport:
    """Count coefficient tuples in [1,C]^k whose linear map fails injectivity
    on [1,B]^k with B = floor(C^(1/k - epsilon)) (see _tuple_range_bound).

    Exhaustive when samples is None, else a seeded Monte-Carlo estimate
    that runs is_injective_map on each sampled tuple.  The exhaustive count
    decides all C last coefficients per prefix (a_1..a_{k-1}) at once
    (_bad_last_coefficients); it costs C^(k-1) * (sum_{j<k} B^j +
    n(n-1)/2 * (B-1)) nodes with n = B^(k-1), which must fit the budget.
    The counting bound checked is 2^k * C^(k - epsilon*k); a C for which
    it or C^k overflows a float raises ValueError.
    """
    if k < 2 or C < 1:
        raise ValueError("need k >= 2 and C >= 1")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    # checked before B, whose decimal logs are slow for a huge C
    try:
        bound = 2.0 ** k * C ** (k - epsilon * k)
        float(C ** k)
    except OverflowError:
        bound = math.inf
    if math.isinf(bound):
        raise ValueError(f"C is too large: the counting bound or C**{k} "
                         "overflows a float")
    B = _tuple_range_bound(k, C, epsilon)

    if samples is None:
        n = B ** (k - 1)
        work = C ** (k - 1) * (sum(B ** j for j in range(1, k))
                               + n * (n - 1) // 2 * (B - 1))
        if work > budget:
            raise BudgetExhausted(work)
        bad = sum(_bad_last_coefficients(prefix, B, C)
                  for prefix in product(range(1, C + 1), repeat=k - 1))
        ok = bad <= bound
        return SweepReport(k, C, epsilon, B, C ** k, bad, bound, ok,
                           "exhaustive")

    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        tup = [rng.randint(1, C) for _ in range(k)]
        if not is_injective_map(tup, B, budget=budget):
            bad += 1
    estimate = bad / samples * C ** k
    ok = estimate <= bound
    return SweepReport(k, C, epsilon, B, samples, bad, bound, ok,
                       "monte_carlo", samples=samples, seed=seed)


def rate_report(cert: Certificate) -> dict:
    """Decimal rate plus the analytic guarantee recorded at construction."""
    if not cert.verified:
        raise ValueError("refusing to report on an unverified certificate")
    rate = cert.rate
    meta = cert.meta or {}
    analytic = meta.get("analytic_bound")
    report = {
        "schema": 1,
        "rate": rate.to_json(),
        "rate_decimal": rate.decimal,
        "analytic_bound": analytic,
        "analytic_formula": meta.get("analytic_formula"),
        "kind": meta.get("kind"),
    }
    if analytic is not None:
        frac = rate.as_fraction()
        exact_tight = frac is not None and math.isclose(float(frac), analytic,
                                                        rel_tol=0, abs_tol=1e-15)
        report["binding"] = "tight" if (
            exact_tight or math.isclose(rate.decimal, analytic, rel_tol=1e-12)
        ) else "exact-rate"
    else:
        report["binding"] = "exact-rate"
    return report
