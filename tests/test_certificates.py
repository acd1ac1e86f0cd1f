import decimal
import json
import math
import random
from fractions import Fraction
from functools import cmp_to_key, lru_cache

import pytest

from nosol.certificates import (
    Certificate,
    DigitSet,
    Rate,
    _primitive_power,
    integer_root,
    load_certificate,
    make_digit_set,
    save_certificate,
    tight_base,
)
from nosol.constructions import two_var_rate
from nosol.equations import make_symmetric
from nosol.oracle import verify_certificate


def test_rate_rational_detection():
    assert Rate(2, 4).as_fraction() == Fraction(1, 2)
    assert Rate(4, 16).as_fraction() == Fraction(1, 2)
    assert Rate(8, 16).as_fraction() == Fraction(3, 4)
    assert Rate(6, 56).as_fraction() is None


def test_rate_equality_across_representations():
    assert Rate(2, 4) == Rate(4, 16)
    assert Rate(4, 9) == Rate(2, 3)       # log4/log9 == log2/log3
    assert Rate(2, 3) != Rate(2, 4)
    assert Rate(2, 4) != Rate(6, 56)
    assert hash(Rate(4, 9)) == hash(Rate(2, 3))


def test_rate_ordering_exact():
    assert Rate(6, 56) < Rate(2, 4)       # 0.4451... < 0.5
    assert Rate(2, 4) < Rate(2, 3)        # 1/2 < log2/log3 via 2^2 > 3
    assert Rate(2, 8) < Rate(6, 56)       # 1/3 < 0.445
    assert Rate(5, 37) > Rate(6, 56)      # corollary minimum comparison
    assert max(Rate(2, 4), Rate(2, 8), Rate(6, 56)) == Rate(2, 4)


def test_rate_decimal_and_degenerate():
    assert 0.445 < Rate(6, 56).decimal < 0.446
    assert Rate(1, 10).decimal == 0.0
    assert Rate(1, 10).degenerate
    with pytest.raises(ValueError):
        Rate(2, 1)
    with pytest.raises(ValueError):
        Rate(0, 4)


def test_rate_ordering_agrees_with_floats():
    import math
    import random

    rng = random.Random(13)
    for _ in range(400):
        r1 = Rate(rng.randint(2, 400), rng.randint(2, 5000))
        r2 = Rate(rng.randint(2, 400), rng.randint(2, 5000))
        f1 = math.log(r1.size) / math.log(r1.base)
        f2 = math.log(r2.size) / math.log(r2.base)
        if abs(f1 - f2) > 1e-9:
            assert (r1 < r2) == (f1 < f2)
        if r1 == r2:
            assert abs(f1 - f2) < 1e-12


def test_integer_root_exact_at_any_size():
    import random

    rng = random.Random(17)
    for _ in range(2000):
        n = rng.randrange(10 ** rng.randint(1, 500))
        k = rng.randint(1, 40)
        r = integer_root(n, k)
        assert r ** k <= n < (r + 1) ** k
    assert integer_root(10 ** 400, 400) == 10
    assert integer_root(10 ** 400 - 1, 400) == 9


def test_primitive_power_matches_every_exponent_scan():
    def every_exponent(n):
        if n < 2:
            return n, 1
        for e in range(n.bit_length(), 1, -1):
            u = integer_root(n, e)
            if u >= 2 and u ** e == n:
                return u, e
        return n, 1

    for n in range(10 ** 5):
        assert _primitive_power(n) == every_exponent(n), n
    for n in (6 ** 120, 2 ** 127, (10 ** 9 + 7) ** 6, 2 ** 1024, 12 ** 60,
              3 ** 625, 10 ** 400, 10 ** 400 + 1, (2 ** 61 - 1) ** 35):
        assert _primitive_power(n) == every_exponent(n), n
    assert _primitive_power(6 ** 120) == (6, 120)
    assert _primitive_power(3 ** 625) == (3, 625)


def test_rate_ordering_beyond_float_range():
    assert Rate(2, 10 ** 400) < Rate(3, 10)
    assert not Rate(3, 10) < Rate(2, 10 ** 400)
    assert Rate(10 ** 300, 10 ** 400) == Rate(8, 16) == Rate(3 ** 300, 3 ** 400)
    assert Rate(10 ** 300, 10 ** 400).as_fraction() == Fraction(3, 4)


def test_rate_ordering_near_ties():
    # log(2**30)/log(3**30 +- 1) is within 1e-16 of log 2/log 3, closer
    # than floats resolve, so the decimal comparison decides
    assert Rate(2 ** 30, 3 ** 30 + 1) < Rate(2, 3) < Rate(2 ** 30, 3 ** 30 - 1)
    assert not Rate(2, 3) < Rate(2 ** 30, 3 ** 30 + 1)
    assert sorted([Rate(2 ** 30, 3 ** 30 - 1), Rate(2, 3), Rate(2 ** 30, 3 ** 30 + 1)]) \
        == [Rate(2 ** 30, 3 ** 30 + 1), Rate(2, 3), Rate(2 ** 30, 3 ** 30 - 1)]


def test_rate_ordering_past_60_digits():
    # the log products differ by about 1e-94: 60-digit decimals call the
    # rates equal, yet the larger base makes the first rate the smaller
    low, high = Rate(2 ** 112, 7 ** 112 + 1), Rate(16, 2401)
    assert low < high and high > low
    assert not high < low and not low > high and low != high
    assert sorted([high, low]) == [low, high]


def test_digit_set_invariants():
    eq = make_symmetric([1, 2])
    ds = make_digit_set(4, [0, 1], eq)
    assert ds.rate == Rate(2, 4)
    assert not ds.degenerate
    with pytest.raises(ValueError):
        DigitSet(4, (0, 1, 2), eq)        # 3 * 2 >= 4, carries
    with pytest.raises(ValueError):
        DigitSet(4, (), eq)
    with pytest.raises(ValueError):
        DigitSet(4, (1, 0), eq)           # unsorted
    with pytest.raises(ValueError):
        DigitSet(4, (0, 5), eq)           # out of range
    with pytest.raises(ValueError):
        DigitSet(4, (0, 1), eq, mode="weird")


def test_tight_base():
    eq = make_symmetric([10, 11, 31])
    assert tight_base(eq, [0, 1, 4, 5]) == 52 * 5 + 1 == 261


def test_certificate_roundtrip(tmp_path):
    eq = make_symmetric([10, 11, 31])
    ds = make_digit_set(261, [0, 1, 4, 5], eq)
    cert = Certificate(ds, verified=True, oracle_nodes=1234,
                       meta={"kind": "manual"})
    path = tmp_path / "cert.json"
    save_certificate(cert, str(path))
    loaded = load_certificate(str(path))
    assert loaded == cert
    obj = json.loads(path.read_text())
    assert obj["schema"] == 1
    assert obj["base"] == 261
    assert obj["digits"] == [0, 1, 4, 5]
    assert obj["mode"] == "all"
    assert obj["rate"]["num_log"] == 4
    assert obj["rate"]["den_log"] == 261
    assert obj["equation"]["coeffs"][0] == "31"


def test_certificate_json_rejects_tampering():
    eq = make_symmetric([1, 2])
    ds = make_digit_set(4, [0, 1], eq)
    obj = Certificate(ds, verified=True).to_json()
    obj["digits"] = [0, 1, 2]             # violates no-carry
    with pytest.raises(ValueError):
        Certificate.from_json(obj)


@pytest.mark.parametrize("key,value", [
    ("base", 7.9), ("base", "7.9"), ("base", True), ("base", " 7"),
    ("digits", "013"), ("digits", [0, 1.0, 3]), ("digits", [0, True, 3]),
    ("digits", {"0": 0}), ("oracle_nodes", 5.5),
    ("equation", {"coeffs": [True, -1]}), ("equation", {"coeffs": "2"}),
    ("equation", {"coeffs": [2, -1, "-1.0"]}),
    ("equation", {"coeffs": [1, 1, -1, -1], "symmetric_gen": ["1", 1.0]}),
])
def test_certificate_json_numbers_are_checked_not_coerced(key, value):
    obj = {"equation": {"coeffs": ["2", "-1", "-1"]}, "base": 7,
           "digits": [0, 1, 3], "verified": True}
    # JSON integers and decimal strings of them are read exactly
    cert = Certificate.from_json(obj)
    assert (cert.digit_set.base, cert.digit_set.digits) == (7, (0, 1, 3))
    assert cert.equation.coeffs == (2, -1, -1)
    assert verify_certificate(obj)
    obj[key] = value
    with pytest.raises(ValueError):
        Certificate.from_json(obj)
    assert verify_certificate(obj) is False


# The exact comparison Rate used before its float screen, kept as the
# reference the screen is differential-tested against: canonical keys,
# integer powers for a rational side, 60-digit decimals for two irrationals.

_primitive_power_of = lru_cache(maxsize=None)(_primitive_power)


@lru_cache(maxsize=None)
@lru_cache(maxsize=None)
def _ln(n, prec):
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        return decimal.Decimal(n).ln()


def _log_products_lt(s1, b1, s2, b2):
    """log s1 * log b2 < log s2 * log b1, in decimals of 60 digits and then
    of 60 more at a time, until the products differ by more than a relative
    10**(10 - prec), far above the error of correctly rounded logs."""
    prec = 60
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            lhs = _ln(s1, prec) * _ln(b2, prec)
            rhs = _ln(s2, prec) * _ln(b1, prec)
            if abs(lhs - rhs) > max(lhs, rhs) * decimal.Decimal(10) ** (10 - prec):
                return lhs < rhs
        prec += 60


@lru_cache(maxsize=None)
def _reference_key_of(size, base):
    if size < 2:
        return Fraction(0)
    u, e = _primitive_power_of(size)
    v, f = _primitive_power_of(base)
    if u == v:
        return Fraction(e, f)
    g = math.gcd(e, f)
    return (u, v, e // g, f // g)


def _reference_key(r):
    return _reference_key_of(r.size, r.base)


def _reference_lt(r1, r2):
    a, b = _reference_key(r1), _reference_key(r2)
    if a == b:
        return False
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a < b
    if isinstance(a, Fraction):     # a < log(s)/log(b) iff not s**q < b**p
        return not r2.size ** a.denominator < r2.base ** a.numerator
    if isinstance(b, Fraction):
        return r1.size ** b.denominator < r1.base ** b.numerator
    return _log_products_lt(r1.size, r1.base, r2.size, r2.base)


def _reference_ops(r1, r2):
    """(<, >, <=, ==, !=) as the reference derives them: == on canonical
    keys, the rest from < and == as functools.total_ordering does."""
    lt, eq = _reference_lt(r1, r2), _reference_key(r1) == _reference_key(r2)
    return lt, not lt and not eq, lt or eq, eq, not eq


def _reference_cmp(r1, r2):
    return -1 if _reference_lt(r1, r2) else int(_reference_lt(r2, r1))


def _rate_pairs(rng):
    """Seeded pairs of every shape the exact path must still decide."""
    small = [2, 3, 4, 5, 6, 7, 10, 12]
    huge = [10 ** 310, 10 ** 310 + 1, 10 ** 465, 2 ** 1030, 2 ** 1545,
            3 ** 650, 6 ** 400]
    for _ in range(6000):         # plain pairs, size-1 rates included
        yield (Rate(rng.randint(1, 400), rng.randint(2, 5000)),
               Rate(rng.randint(1, 400), rng.randint(2, 5000)))
    for _ in range(2000):         # near-ties and equal rates in other forms
        u, v = rng.sample(small, 2)
        a, b, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 20)
        base = max(2, v ** (b * k) + rng.choice((-1, 0, 1)))
        yield Rate(u ** (a * k), base), Rate(u ** a, v ** b)
    for _ in range(1500):         # rational rates, equal in different roots
        w1, w2 = rng.sample(small, 2)
        e, f = rng.randint(1, 6), rng.randint(1, 6)
        j, k = rng.randint(1, 20), rng.randint(1, 20)
        yield Rate(w1 ** (e * j), w1 ** (f * j)), Rate(w2 ** (e * k), w2 ** (f * k))
    for _ in range(500):          # sizes and bases past float range
        yield (Rate(rng.choice(huge + [1, 2]), rng.choice(huge)),
               Rate(rng.choice(huge + [1, 3, 100]), rng.choice(huge + [7, 1000])))
    for _ in range(200):          # irrational near-ties of a rational rate
        w = rng.choice(small)
        e, f, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 20)
        base = max(2, w ** (f * k) + rng.choice((-1, 1)))
        yield Rate(w ** (e * k), base), Rate(w ** e, w ** f)


def test_rate_screen_matches_exact_reference():
    rng = random.Random(2024)
    pairs = list(_rate_pairs(rng))
    assert len(pairs) >= 10_000
    ties = 0
    for r1, r2 in pairs:
        want = _reference_ops(r1, r2)
        assert (r1 < r2, r1 > r2, r1 <= r2, r1 == r2, r1 != r2) == want, (r1, r2)
        if want[3]:
            ties += 1
            assert hash(r1) == hash(r2), (r1, r2)
    assert ties > 1000


def test_rate_sorted_matches_exact_reference():
    rng = random.Random(7)
    pairs = list(_rate_pairs(rng))
    for _ in range(10):
        rates = [r for pair in rng.sample(pairs, 100) for r in pair]
        rng.shuffle(rates)
        want = sorted(rates, key=cmp_to_key(_reference_cmp))
        got = sorted(rates)
        # stable sorts under the same order keep equal rates' input order
        assert [(r.size, r.base) for r in got] == [(r.size, r.base) for r in want]


def test_two_var_floor_matches_exact_reference():
    rates = {(a, b): two_var_rate(a, b) for b in range(2, 61)
             for a in range(1, b) if math.gcd(a, b) == 1}
    want = min(rates, key=lambda ab: cmp_to_key(_reference_cmp)(rates[ab]))
    assert min(rates, key=rates.__getitem__) == want == (5, 6)
