"""Rate computations: the three-coefficient alpha optimization, random-tuple
injectivity sweeps, and certificate rate reports."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .certificates import Certificate
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
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    disc = 4 * (q - 1) * q * beta + (1 + q * (beta - 1) + beta) ** 2
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

    @property
    def bad_fraction(self) -> float:
        return self.bad / self.total if self.total else 0.0

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "k": self.k, "c": self.C, "epsilon": self.epsilon, "b": self.B,
            "total": self.total, "bad": self.bad, "bound": self.bound,
            "bound_ok": self.bound_ok, "sampling": self.sampling,
            "samples": self.samples, "seed": self.seed,
        }


def _tuple_range_bound(k: int, C: int, epsilon: float) -> int:
    t = 1.0 / k - epsilon
    if t <= 0:
        return 1
    B = int(C ** t)
    while (B + 1) ** (1.0 / t) <= C:
        B += 1
    while B > 1 and B ** (1.0 / t) > C * (1 + 1e-9):
        B -= 1
    return max(B, 1)


def random_tuple_sweep(k: int, C: int, epsilon: float,
                       samples: int | None = None, seed: int = 0,
                       budget: int = DEFAULT_BUDGET) -> SweepReport:
    """Count coefficient tuples in [1,C]^k whose linear map fails injectivity
    on [1,B]^k with B = floor(C^(1/k - epsilon)).

    Exhaustive when samples is None, else a seeded Monte-Carlo estimate.
    The counting bound checked is 2^k * C^(k - epsilon*k).
    """
    if k < 2 or C < 1:
        raise ValueError("need k >= 2 and C >= 1")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    B = _tuple_range_bound(k, C, epsilon)
    bound = 2 ** k * C ** (k - epsilon * k)

    if samples is None:
        # is_injective_map spends at most sum_j B**j nodes per tuple
        work = C ** k * sum(B ** j for j in range(1, k + 1))
        if work > budget:
            raise BudgetExhausted(work)
        total = C ** k
        bad = 0
        idx = [1] * k
        while True:
            if not is_injective_map(idx, B, budget=budget):
                bad += 1
            pos = k - 1
            while pos >= 0 and idx[pos] == C:
                idx[pos] = 1
                pos -= 1
            if pos < 0:
                break
            idx[pos] += 1
        ok = bad <= bound
        return SweepReport(k, C, epsilon, B, total, bad, bound, ok, "exhaustive")

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
