"""Digit sets, certificates, and exact log-ratio rates.

A certificate bundles an equation with a digit alphabet that was checked to
be solution-free, the base of the digit system, and the rate
log|A_L| / log L.  Rates are kept as exact (size, base) pairs and rendered
to decimals only at reporting boundaries.  A float screen orders two rates
whose log products differ by more than a relative 1e-9; ties and near-ties
go to exact canonical forms, and unequal ones to decimal logs of rising
precision, so comparisons never drift.
"""

from __future__ import annotations

import decimal
import json
import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import total_ordering

from .equations import (
    Equation,
    equation_from_json,
    equation_to_json,
    int_from_json,
    ints_from_json,
)

MODE_ALL = "all"
MODE_DISTINCT = "distinct"


def integer_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, exact at any size (integer Newton
    iteration, descending from a power of two above the root)."""
    if n < 2 or k == 1:
        return n
    r = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * r + n // r ** (k - 1)) // k
        if y >= r:
            return r
        r = y


def _primitive_power(n: int, start: int = 2) -> tuple[int, int]:
    """Write n = u**e with e maximal; returns (u, e).

    n is a p-th power for a prime p iff p divides e, so the search recurses
    on the root for the smallest such p, and that root has no prime
    exponent below p (start).  Only 2, 3 and exponents prime to 6 are
    tried: a composite one (25, 35, ...) never succeeds, since a prime
    factor of it was tried first.
    """
    for p in range(start, n.bit_length()):
        if p > 3 and (p % 2 == 0 or p % 3 == 0):
            continue
        u = integer_root(n, p)
        if u ** p == n:
            u, e = _primitive_power(u, p)
            return u, e * p
    return n, 1


@total_ordering
@dataclass(frozen=True)
class Rate:
    """Exact rate log(size)/log(base) for integers size >= 1, base >= 2."""

    size: int
    base: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("rate base must be at least 2")
        if self.size < 1:
            raise ValueError("rate size must be at least 1")

    @property
    def degenerate(self) -> bool:
        return self.size < 2

    @property
    def decimal(self) -> float:
        if self.size < 2:
            return 0.0
        return math.log(self.size) / math.log(self.base)

    def as_fraction(self) -> Fraction | None:
        """Exact rational value when size and base are powers of a common root."""
        key = self._canonical()
        return key if isinstance(key, Fraction) else None

    def _canonical(self):
        """The exact value as a Fraction when rational, else the canonical
        (root_num, root_den, exponent ratio) key of an irrational rate.

        log(u**e)/log(v**f) equals log(u**e')/log(v**f') iff e*f' == e'*f, so
        the exponent pair is reduced by its gcd.
        """
        if self.size < 2:
            return Fraction(0)
        u, e = _primitive_power(self.size)
        v, f = _primitive_power(self.base)
        if u == v:
            return Fraction(e, f)
        g = math.gcd(e, f)
        return (u, v, e // g, f // g)

    def _screen(self, other: "Rate") -> int:
        """Float order of self and other: -1 or 1 when the log products
        log(size)*log(other.base) and log(other.size)*log(base) differ by
        more than a relative 1e-9, far above their rounding error; 0 on a
        tie or near-tie, which only the exact forms can decide."""
        lhs = math.log(self.size) * math.log(other.base)
        rhs = math.log(other.size) * math.log(self.base)
        if abs(lhs - rhs) > 1e-9 * max(lhs, rhs):
            return -1 if lhs < rhs else 1
        return 0

    def __eq__(self, other):
        if not isinstance(other, Rate):
            return NotImplemented
        # a Fraction never equals a key tuple: rational never equals irrational
        return (self._screen(other) == 0
                and self._canonical() == other._canonical())

    def __hash__(self):
        return hash(("rate", self._canonical()))

    def __lt__(self, other):
        if not isinstance(other, Rate):
            return NotImplemented
        order = self._screen(other)
        if order:
            return order < 0
        if self._canonical() == other._canonical():
            return False
        # unequal rates have unequal log products
        return decimal_below((1, self.size, other.base),
                             (1, other.size, self.base))

    def to_json(self) -> dict:
        return {
            "num_log": self.size,
            "den_log": self.base,
            "decimal": round(self.decimal, 12),
        }

    @staticmethod
    def from_json(obj) -> "Rate":
        return Rate(int(obj["num_log"]), int(obj["den_log"]))


def decimal_below(lhs, rhs) -> bool:
    """Whether lhs < rhs for two unequal, nonnegative products, each given
    as (w, n_1, ..., n_j) for w * log(n_1) * ... * log(n_j), with integers
    w >= 0, n_i >= 1 and j <= 2.

    The products are taken in decimals of 30 digits, doubled until they
    differ by more than a relative 10**(2 - prec) of their sum, well above
    the error of correctly rounded logs and products.  Two rates with
    unequal canonical forms are taken to have unequal log products (the
    four exponentials conjecture), so this ends.
    """
    prec = 30
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            a, b = (math.prod((decimal.Decimal(n).ln() for n in logs), start=w)
                    for w, *logs in (lhs, rhs))
            if abs(a - b) > (a + b).scaleb(2 - prec):
                return a < b
        prec *= 2


@dataclass(frozen=True)
class DigitSet:
    """A base L together with an admissible digit alphabet.

    Invariant: side_sum(equation) * max(digits) < L, so digit arithmetic in
    base L never carries; the alphabet must be oracle-certified before it is
    trusted (see Certificate.verified).
    """

    base: int
    digits: tuple[int, ...]
    equation: Equation
    mode: str = MODE_ALL

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be at least 2")
        if not self.digits:
            raise ValueError("digit alphabet is empty")
        if list(self.digits) != sorted(set(self.digits)):
            raise ValueError("digits must be sorted and distinct")
        if self.digits[0] < 0 or self.digits[-1] >= self.base:
            raise ValueError("digits must lie in [0, base)")
        if self.mode not in (MODE_ALL, MODE_DISTINCT):
            raise ValueError(f"unknown mode {self.mode!r}")
        s = self.equation.side_sum
        if s * self.digits[-1] >= self.base:
            raise ValueError(
                f"no-carry violation: {s} * {self.digits[-1]} >= {self.base}"
            )

    @property
    def rate(self) -> Rate:
        return Rate(len(self.digits), self.base)

    @property
    def degenerate(self) -> bool:
        return len(self.digits) < 2


def make_digit_set(base, digits, equation, mode=MODE_ALL) -> DigitSet:
    return DigitSet(int(base), tuple(sorted(set(int(d) for d in digits))), equation, mode)


def tight_base(equation: Equation, digits) -> int:
    """Smallest base satisfying the no-carry condition for these digits."""
    return equation.side_sum * max(digits) + 1


@dataclass(frozen=True)
class Certificate:
    """A digit set plus the record of its exhaustive verification."""

    digit_set: DigitSet
    verified: bool
    oracle_nodes: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def equation(self) -> Equation:
        return self.digit_set.equation

    @property
    def rate(self) -> Rate:
        return self.digit_set.rate

    def to_json(self) -> dict:
        obj = {
            "schema": 1,
            "equation": equation_to_json(self.digit_set.equation),
            "base": self.digit_set.base,
            "digits": list(self.digit_set.digits),
            "rate": self.digit_set.rate.to_json(),
            "verified": self.verified,
            "oracle_nodes": self.oracle_nodes,
            "mode": self.digit_set.mode,
        }
        if self.meta:
            obj["meta"] = self.meta
        return obj

    @staticmethod
    def from_json(obj: dict) -> "Certificate":
        """The certificate obj records, unverified whatever its verified
        field says: only an oracle run (load_certificate) verifies it."""
        ds = DigitSet(
            int_from_json(obj["base"]),
            tuple(ints_from_json(obj["digits"])),
            equation_from_json(obj["equation"]),
            obj.get("mode", MODE_ALL),
        )
        return Certificate(
            ds,
            False,
            int_from_json(obj.get("oracle_nodes", 0)),
            dict(obj.get("meta", {})),
        )


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path atomically (temp file in the same directory, then
    rename), so readers never see a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_certificate(cert: Certificate, path: str) -> None:
    """Write certificate JSON atomically."""
    atomic_write_text(
        path, json.dumps(cert.to_json(), indent=2, sort_keys=True) + "\n")


def read_certificate(path: str) -> Certificate:
    """Read a certificate file without checking it: the result is
    unverified (Certificate.from_json).  A file that is not a certificate
    object raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"malformed certificate {path}: not a JSON object")
    try:
        return Certificate.from_json(obj)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed certificate {path}: {exc!r}") from None


def load_certificate(path: str, budget: int | None = None) -> Certificate:
    """Read a certificate file.  Its verified field is not trusted: it is
    set by a fresh oracle run on the alphabet under budget (the oracle's
    default when None).  BudgetExhausted propagates, because an
    interrupted check proves nothing."""
    from .oracle import DEFAULT_BUDGET, verify_certificate  # oracle imports this module
    cert = read_certificate(path)
    return replace(cert, verified=verify_certificate(
        cert, DEFAULT_BUDGET if budget is None else budget))
