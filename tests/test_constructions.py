import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from nosol.certificates import Certificate, Rate, make_digit_set
from nosol.constructions import (
    ConstructionError,
    PipelineConfig,
    avoid_one_dependency_digits,
    behrend_set,
    coprime_power_digits,
    dependency_gap_check,
    distinct_var_digits,
    geometric_digits,
    lift,
    double_progression_digits,
    shift_transfer,
    spaced_digits,
    three_coefficient_pipeline,
    two_var_digits,
    two_var_rate,
    window_extract,
)
from nosol.equations import make_equation, make_symmetric
from nosol import oracle
from nosol.oracle import SolutionQuery, find_nontrivial_solution, verify_certificate
from nosol.search import Dependency


def assert_solution_free(cert):
    ds = cert.digit_set
    q = SolutionQuery(ds.equation, ds.digits, ds.mode == "distinct")
    assert find_nontrivial_solution(q, engine="naive") is None


# -- corollary alphabets ----------------------------------------------------

def test_two_var_basic():
    cert = two_var_digits(1, 2)
    assert cert.digit_set.base == 4
    assert cert.digit_set.digits == (0, 1)
    assert cert.rate == Rate(2, 4)
    assert cert.verified
    assert_solution_free(cert)


def test_two_var_5_6_is_the_floor():
    cert = two_var_digits(5, 6)
    assert cert.digit_set.base == 56
    assert cert.digit_set.digits == tuple(range(6))
    assert 0.445 < cert.rate.decimal < 0.446


def test_two_var_rejects():
    with pytest.raises(ValueError):
        two_var_digits(2, 4)
    with pytest.raises(ValueError):
        two_var_digits(3, 2)


def test_two_var_rate_lower_bound():
    for b in range(3, 60):
        a = b - 1
        r = two_var_rate(a, b)
        assert r.decimal >= 0.5 - 1.0 / math.log(b)
    with pytest.raises(ValueError, match="coprime"):
        two_var_rate(2, 2)


@pytest.mark.parametrize("build,nodes,proof,cap", [
    pytest.param(lambda: two_var_digits(1, 211), 211 + 211 ** 2,
                 "oracle+divisibility", None, id="two_var_1_211"),
    pytest.param(lambda: geometric_digits(500, 2), 500 + 500 ** 2, "oracle",
                 None, id="geometric_500_2"),
    pytest.param(lambda: coprime_power_digits(3, 401, 2), 401 + 401 ** 2,
                 "oracle", None, id="coprime_power_3_401_2"),
    pytest.param(lambda: spaced_digits([1, 1000], 401), 401 + 401 ** 2,
                 "oracle", None, id="spaced_1_1000_401"),
    # 211**2 last-stage sums in buckets of at most 5,000
    pytest.param(lambda: two_var_digits(1, 211), 211 + 211 ** 2,
                 "oracle+divisibility", 5_000, id="two_var_1_211_bucketed"),
])
def test_large_alphabets_are_oracle_certified(monkeypatch, build, nodes,
                                              proof, cap):
    # inputs that used to be certified by argument alone, with no oracle run
    if cap is not None:
        monkeypatch.setattr(oracle, "SCAN_SUMS_CAP", cap)
    cert = build()
    assert cert.verified
    assert (cert.oracle_nodes, cert.meta["proof"]) == (nodes, proof)


def test_geometric():
    c22 = geometric_digits(2, 2)
    assert c22.digit_set.base == 4 and c22.digit_set.digits == (0, 1)
    assert c22.rate.as_fraction() == Fraction(1, 2)
    c23 = geometric_digits(2, 3)
    assert c23.digit_set.base == 8
    assert c23.rate.as_fraction() == Fraction(1, 3)
    c32 = geometric_digits(3, 2)
    assert c32.digit_set.base == 9 and c32.digit_set.digits == (0, 1, 2)
    assert c32.rate.as_fraction() == Fraction(1, 2)
    for cert in (c22, c23, c32):
        assert_solution_free(cert)


@pytest.mark.parametrize("build,bound", [
    # 1/2 - 1/log 6 and 1/3 - 1/log 3 are negative: no guarantee
    (lambda: two_var_digits(5, 6), None),
    (lambda: coprime_power_digits(2, 3, 3), None),
    (lambda: two_var_digits(99, 100), 0.5 - 1 / math.log(100)),
])
def test_analytic_bound_is_recorded_only_when_positive(build, bound):
    got = build().meta["analytic_bound"]
    assert got == bound
    if bound is not None:
        assert round(got, 4) == 0.2829


def test_coprime_power():
    cert = coprime_power_digits(3, 2, 3)
    assert sorted(cert.equation.symmetric_gen) == [2, 3, 4]
    assert cert.digit_set.base == (3 + 2 + 4) * 1 + 1 == 10
    assert cert.digit_set.digits == (0, 1)
    assert_solution_free(cert)
    # a=1 reduces to the geometric base
    assert coprime_power_digits(1, 2, 3).digit_set.base == 8
    # k=2 matches the two-variable construction
    c = coprime_power_digits(5, 6, 2)
    assert c.digit_set.base == two_var_digits(5, 6).digit_set.base == 56
    assert c.digit_set.digits == tuple(range(6))
    with pytest.raises(ValueError):
        coprime_power_digits(2, 4, 3)
    with pytest.raises(ValueError):
        coprime_power_digits(9, 2, 3)   # a > b**(k-1)


def test_spaced():
    cert = spaced_digits([2, 17, 167], 8)
    assert cert.digit_set.base == (2 + 17 + 167) * 7 + 1 == 1303
    assert cert.rate.decimal >= 1 / 3.52
    cert2 = spaced_digits([1, 10], 10)
    assert cert2.digit_set.base == 100
    assert cert2.digit_set.digits == tuple(range(10))
    assert_solution_free(cert2)
    with pytest.raises(ValueError):
        spaced_digits([2, 15], 8)       # 8*2 > 15


# -- the lift ---------------------------------------------------------------

def test_lift_two_var_small():
    cert = two_var_digits(1, 2)
    lifted = lift(cert, 16)
    assert lifted.elements == (0, 1, 4, 5)
    assert lifted.size == 4
    assert 5 in lifted and 2 not in lifted and 16 not in lifted


def test_lift_counts_powers_exactly():
    cert = geometric_digits(2, 3)
    for d in range(1, 5):
        lifted = lift(cert, 8 ** d)
        assert lifted.size == 2 ** d
        q = SolutionQuery(cert.equation, lifted.elements)
        assert find_nontrivial_solution(q) is None


def test_lift_induction_bound_contiguous():
    # size >= sqrt(n), exactly, for a {0..m} alphabet
    cert = two_var_digits(1, 2)
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 10 ** 6)
        assert lift(cert, n).size ** 2 >= n


def test_lift_noncontiguous_pins_leading_digit():
    eq = make_symmetric([10, 11, 31])
    cert = Certificate(make_digit_set(261, [0, 1, 4, 5], eq), verified=True)
    lifted = lift(cert, 300)
    assert lifted.bound == 261
    assert lifted.elements == (0, 1, 4, 5)
    big = lift(cert, 261 ** 2)
    assert big.size == 16


def test_lift_accepts_bare_digit_set():
    # a DigitSet without a certificate is oracle-checked on the spot
    eq = make_symmetric([1, 2])
    ds = make_digit_set(4, [0, 1], eq)
    assert lift(ds, 16).elements == (0, 1, 4, 5)
    bad = make_digit_set(9, [0, 1, 2], make_equation([1, 1, -1, -1]))
    with pytest.raises(ConstructionError):
        lift(bad, 100)   # 0 + 2 = 1 + 1 with distinct classes


def test_lift_rejects_bad_inputs():
    eq = make_symmetric([1, 2])
    unverified = Certificate(make_digit_set(4, [0, 1], eq), verified=False)
    with pytest.raises(ValueError):
        lift(unverified, 100)
    nonprim = make_symmetric([1, 2, 3])
    cert = Certificate(make_digit_set(25, [0, 1], nonprim), verified=True)
    with pytest.raises(ValueError):
        lift(cert, 100)
    no_zero = Certificate(
        make_digit_set(10, [1, 2], make_symmetric([1, 2])), verified=True)
    with pytest.raises(ValueError):
        lift(no_zero, 100)
    # a file cannot vouch for itself: (0, 1, 2, 0) solves this alphabet
    claimed = Certificate(make_digit_set(7, [0, 1, 2], eq), verified=True)
    with pytest.raises(ValueError, match="unverified"):
        lift(Certificate.from_json(claimed.to_json()), 343)
    with pytest.raises(ValueError, match="positive"):
        lift(two_var_digits(1, 2), 0)


def test_lift_rate_degenerate():
    eq = make_symmetric([1, 2])
    ds = make_digit_set(4, [0], eq)
    assert ds.rate.degenerate
    assert ds.rate.decimal == 0.0


def test_lift_count_matches_enumeration():
    # the digit-counting recurrence against a brute scan of [0, bound)
    from nosol.constructions import LiftedSet, _digits_of

    eq = make_symmetric([1, 2])
    rng = random.Random(7)
    for _ in range(60):
        base = rng.randint(7, 40)
        cap = (base - 1) // 3
        k = rng.randint(1, cap)
        digits = tuple(sorted({0} | set(rng.sample(range(cap + 1), k))))
        ds = make_digit_set(base, digits, eq)
        n = rng.randint(1, 4000)
        lifted = LiftedSet(n, ds)
        allowed = set(digits)
        brute = sum(1 for x in range(lifted.bound)
                    if all(d in allowed for d in _digits_of(x, base)))
        assert lifted.size == brute
        assert len(lifted.elements) == brute


# -- dependency machinery ---------------------------------------------------

def test_avoid_one_dependency_exemplar():
    dep = Dependency(2, 1, -1)
    assert avoid_one_dependency_digits(dep, 5) == (0, 1, 4, 5)
    out = avoid_one_dependency_digits(dep, 52)
    assert out == (0, 1, 4, 5, 16, 17, 20, 21)
    # A - A never contains the full pattern (2t, t, -t) for t != 0
    diffs = {x - y for x in out for y in out}
    for t in range(1, 60):
        assert not (2 * t in diffs and t in diffs and -t in diffs) or t == 0


def test_avoid_one_dependency_pair_choice():
    dep = Dependency(1, 2, -3)
    out = avoid_one_dependency_digits(dep, 4)
    diffs = {x - y for x in out for y in out}
    for t in range(1, 20):
        pattern = (t * dep.i1, t * dep.j1, t * dep.k1)
        assert not all(p in diffs for p in pattern)
    with pytest.raises(ValueError):
        avoid_one_dependency_digits(Dependency(1, -1, 0), 10)


def test_avoid_respects_size_bound():
    dep = Dependency(2, 1, -1)
    for L in (5, 20, 52, 200):
        out = avoid_one_dependency_digits(dep, L)
        assert len(out) >= L ** 0.44


def test_dependency_gap_check():
    assert dependency_gap_check(10, 11, 31, Dependency(2, 1, -1), 40)
    assert dependency_gap_check(1, 2, 3, Dependency(1, 1, -1), 10)
    with pytest.raises(ValueError):
        dependency_gap_check(4, 6, 9, Dependency(1, 1, -1), 10)
    with pytest.raises(ValueError):
        dependency_gap_check(10, 11, 31, Dependency(1, 1, -1), 10)


def test_three_pipeline_10_11_31():
    cfg = PipelineConfig(alpha=0.3, alpha2_small=0.03)
    res = three_coefficient_pipeline(10, 11, 31, cfg)
    assert res.status == "certified"
    assert res.case == "small-dependency"
    assert res.dependency.as_tuple() == (2, 1, -1)
    cert = res.certificate
    assert cert.digit_set.digits == (0, 1, 4, 5)
    assert cert.digit_set.base == 261
    assert 1 / 4.1 <= cert.rate.decimal
    assert verify_certificate(cert)


def test_three_pipeline_no_dependency_case():
    res = three_coefficient_pipeline(2, 17, 167, PipelineConfig(alpha=0.3))
    assert res.status == "certified"
    assert res.case == "no-small-dependency"
    assert res.certificate.digit_set.digits == (0, 1, 2)
    assert res.certificate.digit_set.base == (2 + 17 + 167) * 2 + 1


def test_three_pipeline_large_dependency_case():
    res = three_coefficient_pipeline(11217, 199765, 1439391,
                                     PipelineConfig(alpha=0.7))
    assert (res.status, res.case) == ("certified", "large-dependency")
    assert res.dependency.as_tuple() == (1111, -84, 3)
    assert verify_certificate(res.certificate)


def test_three_pipeline_easy_case():
    res = three_coefficient_pipeline(1, 2, 9)
    assert res.status == "certified"
    assert res.case == "easy-c-gt-b3"
    assert_solution_free(res.certificate)


def test_three_pipeline_preconditions():
    with pytest.raises(ValueError):
        three_coefficient_pipeline(1, 2, 3)       # c = a + b
    with pytest.raises(ValueError):
        three_coefficient_pipeline(1, 4, 6)       # gcd(b, c) > 1
    with pytest.raises(ValueError):
        three_coefficient_pipeline(3, 3, 7)       # not primitive
    with pytest.raises(ValueError):
        three_coefficient_pipeline(5, 2, 7)       # not sorted


def test_three_pipeline_default_alpha():
    # the optimized alpha keeps the dependency search below the (2,1,-1)
    # relation for 10/11/31, landing in the interval case
    res = three_coefficient_pipeline(10, 11, 31)
    assert res.status == "certified"
    assert res.case == "no-small-dependency"
    assert 0 < res.alpha < 0.5
    assert_solution_free(res.certificate)


def test_three_pipeline_literal_constants():
    cfg = PipelineConfig(alpha=0.3, literal_constants=True)
    res = three_coefficient_pipeline(10, 11, 31, cfg)
    # the literal ratio threshold e**1000 can never fire at desk scale
    assert res.case == "small-dependency"
    assert res.alpha2 == pytest.approx(0.1)
    assert res.status == "certified"
    assert_solution_free(res.certificate)


# -- progression-free digits ------------------------------------------------

def brute_3ap_free(values):
    s = set(values)
    return not any(2 * y - x in s and 2 * y - x != y
                   for x in values for y in values if x < y)


def test_behrend_small():
    assert behrend_set(2) == (0, 1)
    assert behrend_set(8) == (0, 1, 3, 4)
    assert len(behrend_set(8)) >= 4
    assert behrend_set(10) == (0, 1, 3, 4, 9, 10)
    with pytest.raises(ValueError, match="nonnegative"):
        behrend_set(-1)


def test_behrend_sizes_and_freeness():
    for m, floor in ((100, 5), (1000, 20), (10 ** 4, 100)):
        s = behrend_set(m)
        assert brute_3ap_free(s)
        assert max(s) <= m
        assert len(s) >= floor
        bound = m * math.exp(-2 * math.sqrt(2 * math.log(2))
                             * math.sqrt(math.log(m)))
        assert len(s) >= bound


def test_section5_small():
    cert = double_progression_digits(5)
    assert cert.digit_set.digits == (0, 1)
    assert cert.digit_set.base == 23
    assert sorted(cert.equation.coeffs) == [-10, -2, 1, 1, 5, 5]
    assert_solution_free(cert)


def test_section5_degenerate():
    for d in (1, 2):
        cert = double_progression_digits(d)
        assert cert.digit_set.digits == (0,)
        assert cert.meta.get("degenerate") is True
        assert cert.rate.degenerate


def test_section5_small_m():
    # d = 3, 4 give m = 1, alphabet {0, 1}
    for d in (3, 4):
        cert = double_progression_digits(d)
        assert cert.digit_set.digits == (0, 1)
        assert_solution_free(cert)


def test_section5_rates_increase():
    rates = [double_progression_digits(d).rate.decimal for d in (5, 11, 21)]
    assert rates == sorted(rates)
    assert rates[-1] > 0.25
    assert double_progression_digits(21).digit_set.base == 441  # no-carry forces 441


# -- transfers ---------------------------------------------------------------

def test_shift_transfer_identity():
    cert = two_var_digits(1, 2)
    out = shift_transfer(cert, [0, 0], [0, 0])
    assert out.digit_set.base == 4
    assert sorted(out.equation.coeffs) == [-2, -1, 1, 2]


def test_shift_transfer_example():
    cert = two_var_digits(1, 2)
    out = shift_transfer(cert, [1, 0], [0, 1])
    assert sorted(out.equation.coeffs) == [-6, -1, 2, 5]
    assert out.digit_set.base == 8
    assert out.rate.as_fraction() == Fraction(1, 3)
    assert_solution_free(out)


def test_shift_transfer_rejects():
    cert = two_var_digits(1, 2)
    with pytest.raises(ValueError):
        shift_transfer(cert, [-1, 0], [0, -1])   # nonpositive coefficient
    with pytest.raises(ValueError):
        shift_transfer(cert, [1, 0], [0, 0])     # unbalanced shift sums
    with pytest.raises(ValueError, match="exactly 2 shifts"):
        shift_transfer(cert, [1, 0, 0], [0, 0, 1])
    with pytest.raises(ValueError, match="unverified"):
        shift_transfer(replace(cert, verified=False), [0, 0], [0, 0])
    sidon = window_extract([1, 2, 5, 11], 24, make_equation([1, 1, -1, -1]))
    with pytest.raises(ValueError, match="symmetric"):
        shift_transfer(sidon, [0, 0], [0, 0])


def test_window_extract_sidon():
    eq = make_equation([1, 1, -1, -1])
    cert = window_extract([1, 2, 5, 11], 24, eq)
    assert cert.digit_set.digits == (0, 1, 4, 10)
    assert cert.digit_set.base == 24
    assert_solution_free(cert)


def test_window_extract_identity():
    eq = make_symmetric([5, 6])
    cert = window_extract(range(6), 67, eq)   # width 67 // 11 = 6
    assert cert.digit_set.digits == tuple(range(6))


def test_window_extract_takes_the_widest_no_carry_window():
    # 2 does not divide 25: the window holds (25 - 1) // 2 + 1 = 13 values,
    # and 2*12 < 25, where a width of 25 // 2 left out 12 at rate 0.4307
    eq = make_equation([1, 1, -1, -1])
    cert = window_extract([0, 1, 3, 7, 12], 25, eq)
    assert cert.digit_set.digits == (0, 1, 3, 7, 12)
    assert (cert.digit_set.base, cert.meta["width"]) == (25, 13)
    assert cert.rate.decimal == 0.5
    assert_solution_free(cert)


def test_window_extract_slides_to_the_densest_window():
    """Over Sidon sets spanning several windows, the window chosen is the
    lowest-starting one of the most elements, against a scan of every
    window that starts at an element."""
    eq = make_equation([1, 1, -1, -1])
    rng = random.Random(24)
    moved = tied = 0
    for _ in range(20):
        values, sums = [], set()
        for v in rng.sample(range(400), 80):
            new = {v + a for a in values} | {2 * v}
            if len(new) == len(values) + 1 and not new & sums:
                values.append(v)
                sums |= new
        values.sort()
        L = rng.choice((24, 40, 60))
        width = L // 2
        assert values[-1] - values[0] >= 3 * width
        counts = {a: sum(a <= v < a + width for v in values) for a in values}
        best = max(counts.values())
        starts = [a for a in values if counts[a] == best]
        start = starts[0]
        cert = window_extract(values, L, eq)
        assert cert.meta["window_start"] == start
        assert cert.digit_set.digits == tuple(
            v - start for v in values if start <= v < start + width)
        assert len(cert.digit_set.digits) == best
        moved += start > values[0]
        tied += len(starts) > 1
    assert moved >= 10 and tied >= 5


def test_window_extract_rejects_solutions_in_window():
    eq = make_symmetric([1, 2])
    with pytest.raises(ConstructionError):
        window_extract(range(5), 24, eq)   # 0 + 2*2 = 4 + 2*0
    with pytest.raises(ValueError, match="empty"):
        window_extract([], 24, eq)
    with pytest.raises(ValueError, match="twice the side sum"):
        window_extract([0, 1], 5, eq)


# -- distinct-variable digits -------------------------------------------------

def test_distinct_var_digits():
    cert = distinct_var_digits(5)
    assert sorted(cert.equation.symmetric_gen) == [5, 8, 12]
    assert cert.digit_set.digits == (0, 1, 2, 3)
    assert cert.digit_set.mode == "distinct"
    assert_solution_free(cert)
    c3 = distinct_var_digits(3)
    assert sorted(c3.equation.symmetric_gen) == [3, 4, 6]
    assert c3.digit_set.digits == (0, 1)
    with pytest.raises(ValueError):
        distinct_var_digits(2)


def test_distinct_mode_is_weaker_than_all_mode():
    # the same alphabet carries all-mode solutions but no distinct ones
    cert = distinct_var_digits(5)
    q_all = SolutionQuery(cert.equation, cert.digit_set.digits)
    assert find_nontrivial_solution(q_all) is not None


def test_distinct_lift_recheck_passes():
    cert = distinct_var_digits(3)
    lifted = lift(cert, 14 ** 2)
    assert lifted.size == 4
    q = SolutionQuery(cert.equation, lifted.elements, distinct_variables=True)
    assert find_nontrivial_solution(q) is None


def test_distinct_lift_holding_a_solution_is_refused():
    # four distinct variables cannot fit three digits, but the lift's nine
    # elements hold a solution
    ds = make_digit_set(7, (0, 1, 2), make_symmetric([1, 2]), "distinct")
    with pytest.raises(ConstructionError, match="admits a solution"):
        lift(ds, 49)


def test_distinct_lift_too_large_to_recheck_is_refused():
    # 2**13 elements: the lift is never returned without its oracle check
    with pytest.raises(ValueError, match="too large to re-verify"):
        lift(distinct_var_digits(3), 14 ** 13)


def test_alphabet_past_the_scan_cap_is_certified_in_buckets():
    # its 2500**2 last-stage sums exceed SCAN_SUMS_CAP
    cert = two_var_digits(1, 2500)
    assert cert.oracle_nodes == 2500 + 2500 ** 2
