import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nosol.certificates import Certificate, make_digit_set
from nosol.constructions import geometric_digits, spaced_digits, two_var_digits
from nosol.equations import make_symmetric
from nosol.oracle import BudgetExhausted, is_injective_map
from nosol.rates import alpha_optimal, injectivity_threshold, random_tuple_sweep, rate_report


def test_alpha_optimal_paper_rates():
    # 3 significant figures on 1/rate
    assert abs(1 / alpha_optimal(1.0, 0.499).rate - 4.74) < 0.005
    assert abs(1 / alpha_optimal(1.01, 0.499).rate - 4.77) < 0.005
    assert abs(1 / alpha_optimal(1.1, 0.499).rate - 5.03) < 0.005


def test_alpha_optimal_residual_tiny():
    for beta, q in [(1.0, 0.499), (1.5, 0.4), (2.0, 0.31), (1.2, 0.59)]:
        p = alpha_optimal(beta, q)
        assert p.residual <= 1e-12
        assert 0 < p.alpha < 1


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1.0, max_value=2.0),
       st.floats(min_value=0.31, max_value=0.59))
def test_alpha_optimal_residual_property(beta, q):
    p = alpha_optimal(beta, q)
    assert p.residual <= 1e-12


def test_alpha_optimal_validation():
    with pytest.raises(ValueError):
        alpha_optimal(1.0, 0.0)
    with pytest.raises(ValueError):
        alpha_optimal(1.0, 1.0)
    with pytest.raises(ValueError):
        alpha_optimal(-0.5, 0.4)


def test_injectivity_threshold_values():
    lemma, theorem = injectivity_threshold(2, 0.25)
    assert theorem == pytest.approx(1024.0)
    assert lemma == pytest.approx(256.0)
    # clamp above 1/k
    assert injectivity_threshold(2, 1.0) == injectivity_threshold(2, 0.5)
    with pytest.raises(ValueError):
        injectivity_threshold(2, 0.0)
    with pytest.raises(ValueError, match="k must be at least 2"):
        injectivity_threshold(1, 0.1)


def test_injectivity_threshold_lemma_below_theorem_and_monotone():
    prev = None
    for eps in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
        lemma, theorem = injectivity_threshold(2, eps)
        assert lemma <= theorem
        if prev is not None:
            assert theorem <= prev
        prev = theorem


def test_injectivity_threshold_overflows_to_inf():
    lemma, theorem = injectivity_threshold(2, 1e-4)
    assert lemma == math.inf and theorem == math.inf


def test_sweep_exhaustive_small():
    rep = random_tuple_sweep(2, 30, 0.3)
    assert rep.B == 1
    assert rep.bad == 0          # single-point domain is always injective
    assert rep.bound_ok

    rep = random_tuple_sweep(2, 100, 0.3)
    assert rep.B == 2
    # at B = 2 a pair fails injectivity iff a1 == a2
    assert rep.bad == 100
    assert rep.total == 100 ** 2
    assert rep.bound == pytest.approx(4 * 100 ** 1.4)
    assert rep.bound_ok


def test_sweep_monte_carlo_deterministic_and_close():
    mc1 = random_tuple_sweep(2, 100, 0.3, samples=500, seed=1)
    mc2 = random_tuple_sweep(2, 100, 0.3, samples=500, seed=1)
    assert mc1 == mc2
    assert mc1.seed == 1
    # within 3 sigma of the exhaustive bad count (100 of 10^4)
    p = 100 / 10 ** 4
    sigma = math.sqrt(p * (1 - p) / 500) * 10 ** 4
    estimate = mc1.bad / 500 * 10 ** 4
    assert abs(estimate - 100) <= 3 * sigma


@pytest.mark.parametrize("samples", [0, -3])
def test_sweep_rejects_nonpositive_samples(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        random_tuple_sweep(2, 10, 0.3, samples=samples)


def test_sweep_budget_guard():
    with pytest.raises(BudgetExhausted):
        random_tuple_sweep(3, 200, 0.05, budget=10 ** 4)


def test_sweep_budget_guard_counts_scan_nodes():
    # B = 3: each tuple costs at most 3 + 9 scan nodes, 1,920,000 in all
    rep = random_tuple_sweep(2, 400, 0.3, budget=2_000_000)
    assert (rep.B, rep.total, rep.bad) == (3, 160_000, 800)


@pytest.mark.parametrize("samples", [None, 1])
@pytest.mark.parametrize("C", [10 ** 200, 10 ** 400],
                         ids=["C=10**200", "C=10**400"])
def test_sweep_rejects_a_c_past_float_range(C, samples):
    # 10**400 overflows the bound, and 10**200 squared overflows C**2
    with pytest.raises(ValueError, match="too large"):
        random_tuple_sweep(2, C, 0.3, samples=samples)


def test_sweep_sample_over_budget_raises_at_once():
    # B = 10**20 is past the length a range() can hold
    with pytest.raises(BudgetExhausted) as exc:
        random_tuple_sweep(2, 10 ** 100, 0.3, samples=1)
    assert exc.value.nodes == 10 ** 20


def test_sweep_report_json():
    rep = random_tuple_sweep(2, 50, 0.3)
    obj = rep.to_json()
    assert obj["schema"] == 1
    assert obj["bound_ok"] is True
    assert obj["sampling"] == "exhaustive"


def test_rate_report_geometric_tight():
    rep = rate_report(geometric_digits(2, 3))
    assert rep["rate_decimal"] == pytest.approx(1 / 3)
    assert rep["analytic_bound"] == pytest.approx(1 / 3)
    assert rep["binding"] == "tight"


def test_rate_report_two_var():
    rep = rate_report(two_var_digits(5, 6))
    assert 0.445 < rep["rate_decimal"] < 0.446
    assert rep["binding"] == "exact-rate"


def test_rate_report_spaced():
    rep = rate_report(spaced_digits([2, 17, 167], 8))
    assert rep["rate_decimal"] >= 1 / 3.52
    assert rep["analytic_bound"] >= 1 / 3.52


def test_rate_report_rejects_unverified():
    eq = make_symmetric([1, 2])
    cert = Certificate(make_digit_set(4, [0, 1], eq), verified=False)
    with pytest.raises(ValueError):
        rate_report(cert)


# (k, C, epsilon) -> (B, bad) as the per-tuple scan counted them
SWEEP_PINNED = [
    ((2, 30, 0.3), (1, 0)), ((2, 100, 0.3), (2, 100)),
    ((2, 200, 0.3), (2, 200)), ((2, 400, 0.3), (3, 800)),
    ((2, 60, 0.05), (6, 356)), ((3, 20, 0.05), (2, 1700)),
    ((3, 40, 0.02), (3, 19168)), ((4, 12, 0.01), (1, 0)),
    ((2, 500, 0.1), (12, 6604)),
]


@pytest.mark.parametrize("args,expected", SWEEP_PINNED,
                         ids=[str(args) for args, _ in SWEEP_PINNED])
def test_sweep_pinned_counts(args, expected):
    k, C, _ = args
    rep = random_tuple_sweep(*args)
    assert (rep.B, rep.bad) == expected
    assert rep.total == C ** k


def _sweep_cases():
    """Seeded small (k, C, epsilon) with B <= 6 and at most 6000 tuples;
    the first two pin B = 1 and a k = 3 case whose prefix sums repeat."""
    cases = [(2, 9, 0.3), (3, 12, 0.0)]
    rng = random.Random(9)
    while len(cases) < 14:
        k = rng.randint(2, 4)
        C = rng.randint(2, int(6000 ** (1 / k)))
        eps = round(rng.uniform(-0.4, 0.4), 2)
        if 2 <= random_tuple_sweep(k, C, eps, samples=1).B <= 6:
            cases.append((k, C, eps))
    return cases


@pytest.mark.parametrize("k,C,eps", _sweep_cases())
def test_sweep_matches_per_tuple_scan(k, C, eps):
    rep = random_tuple_sweep(k, C, eps)
    t = Fraction(1, k) - Fraction(str(eps))
    B = 1
    while t > 0 and (B + 1) ** t.denominator <= C ** t.numerator:
        B += 1
    assert rep.B == B
    assert rep.bad == sum(not is_injective_map(a, B)
                          for a in product(range(1, C + 1), repeat=k))


@pytest.mark.parametrize("k,C,eps,B", [
    (2, 1024, 0.2, 8), (2, 59049, 0.2, 27), (3, 32768, 0.2, 4),
    (3, 4096, 0.25, 2), (4, 1048576, 0.1, 8),
    # 1/2 - 0.16666666666666666 lies just above 1/3, the next float just below
    (2, 1000, 0.16666666666666666, 10), (2, 1000, 0.16666666666666669, 9),
])
def test_sweep_range_bound_exact_at_powers(k, C, eps, B):
    # in the first five B**den == C**num, where C ** (1/k - eps) in floats
    # fell short of B
    assert random_tuple_sweep(k, C, eps, samples=1).B == B
