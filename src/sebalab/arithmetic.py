"""Arithmetic of sums of two squares.

Sieves and serves all arithmetic inputs of the billiard computation:

  r2(n)     = #{(x, y) in Z^2 : x^2 + y^2 = n}
            = 4 * sum_{d | n} chi4(d)          (chi4 = nontrivial character mod 4)
            = 4 * prod_{p^e || n, p = 1 mod 4} (e + 1)   if every p = 3 mod 4
              divides n to an even power, else 0.
  omega1(n) = number of distinct primes p = 1 mod 4 dividing n (omega1(0) := 0).
  N         = {n : r2(n) > 0}, ascending, n0 = 0 included (r2(0) = 1).
  f(n)      = r2(n) / (4 * 2^omega1(n)), an exact rational.

The sieve evaluates the divisor-character formula in its multiplicative form
(chi4 is totally multiplicative) over the primes p <= sqrt(x_max) only, as in
Bays & Hudson (BIT 17, 1977).  A strided pass over the multiples of each
power p^k <= x_max multiplies small[n] by p; for p = 1 mod 4 it doubles b1
and counts omega1 at k = 1 and turns b1's factor k into k + 1 at k >= 2
(exact: b1 holds that factor), and for p = 3 mod 4 it adds (-1)^(k+1) to
odd3, which so counts the primes of odd exponent.  n <= x_max has at most
one prime factor above sqrt(x_max), so n // small[n] is 1 or that prime, and
one vectorized pass applies it.  All arithmetic is exact in int32 (x_max <
2^31); the finished table is immutable, so concurrent readers are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List

import numpy as np

from .lattice import BlockMoments

_HALF_LOG2 = 0.34657359027997264  # (1/2) log 2, the normal-order exponent of log r2

# Peak memory of build_table, from tracemalloc: int32 small and b1 (r2) and
# int8 omega1 and odd3 take 10 bytes per integer, one cofactor chunk under
# 1 MB (20.7 MB at x_max = 2M, 110.8 MB at 11M); 1M-element chunks ran no
# faster and peaked ~10 MB higher.
_COFACTOR_CHUNK = 1 << 16
_BYTES_PER_N = 11
_INT32_MAX = 2 ** 31 - 1
DEFAULT_MEMORY_BUDGET = 2 * 1024 ** 3


class CapacityError(Exception):
    """x_max needs more than DEFAULT_MEMORY_BUDGET to sieve."""


class RangeError(ValueError):
    """Query outside the sieved range [0, x_max]."""


@dataclass(frozen=True)
class ArithmeticTable:
    """Sieved arithmetic data on [0, x_max].

    r2 and omega1 are dense arrays indexed by n; representable is the
    ascending set N of n with r2(n) > 0 (0 is a member: the zero vector).
    """

    x_max: int
    r2: np.ndarray        # int32, r2[n]
    omega1: np.ndarray    # int8, omega1[n]
    representable: np.ndarray = field(repr=False)  # int64, ascending

    def __post_init__(self):
        self.r2.setflags(write=False)
        self.omega1.setflags(write=False)
        self.representable.setflags(write=False)

    def check_range(self, x) -> None:
        if not 0 <= x <= self.x_max:
            raise RangeError(f"x={x} outside sieved range [0, {self.x_max}]")

    @cached_property
    def moments(self) -> BlockMoments:
        """Block moments of N, kept with the table; BlockMoments.upto builds
        the blocks a query reaches."""
        return BlockMoments(self.representable, self.r2, self.x_max)


def _sieve_bytes(x_max: int) -> int:
    """Upper estimate of the peak memory build_table(x_max) allocates."""
    return _BYTES_PER_N * (x_max + 1)


def build_table(x_max: int) -> ArithmeticTable:
    """Sieve r2, omega1 and the representable set on [0, x_max]: the one
    way to get a table.  Raises ValueError unless 0 <= x_max <= 2^31 - 1
    (the int32 range of r2), and CapacityError if the estimated working set
    exceeds DEFAULT_MEMORY_BUDGET (read at call time), before allocating.
    """
    if not 0 <= x_max <= _INT32_MAX:
        raise ValueError(f"x_max must be in [0, {_INT32_MAX}], got {x_max}")
    if _sieve_bytes(x_max) > DEFAULT_MEMORY_BUDGET:
        raise CapacityError(
            f"x_max={x_max} needs ~{_sieve_bytes(x_max)} bytes, "
            f"budget is {DEFAULT_MEMORY_BUDGET}")

    n_total = x_max + 1
    small = np.ones(n_total, dtype=np.int32)   # prod p^e_p over p <= sqrt(x_max)
    b1 = np.ones(n_total, dtype=np.int32)      # prod (e_p + 1), p = 1 mod 4
    odd3 = np.zeros(n_total, dtype=np.int8)    # #{p = 3 mod 4 <= sqrt : e_p odd}
    omega1 = np.zeros(n_total, dtype=np.int8)
    for p in range(2, math.isqrt(x_max) + 1):
        if small[p] > 1:                       # composite: small[p] = p by now
            continue
        q, k = p, 1
        while q <= x_max:                      # the multiples of p^k
            v = small[q::q]                    # views, updated in place
            v *= p
            if p & 3 == 1:
                v = b1[q::q]
                if k == 1:
                    v <<= 1
                    v = omega1[q::q]
                    v += 1
                else:                          # b1 holds the factor k of p
                    v //= k
                    v *= k + 1
            elif p & 3 == 3:
                v = odd3[q::q]
                v += 1 if k & 1 else -1
            q *= p
            k += 1

    # n // small[n] is 1 or the one prime factor of n above sqrt(x_max); then
    # r2 = 4 * b1, or 0 where some p = 3 mod 4 has an odd exponent
    for lo in range(0, n_total, _COFACTOR_CHUNK):
        hi = min(lo + _COFACTOR_CHUNK, n_total)
        c = np.arange(lo, hi, dtype=np.int32) // small[lo:hi]
        one = (c & 3 == 1) & (c > 1)
        omega1[lo:hi] += one
        b1[lo:hi] <<= one
        b1[lo:hi] <<= 2
        b1[lo:hi] *= (odd3[lo:hi] == 0) & (c & 3 != 3)

    del small, odd3
    r2 = b1
    r2[0] = 1
    rep = np.flatnonzero(r2).astype(np.int64, copy=False)
    return ArithmeticTable(x_max, r2, omega1, rep)


def f_value(table: ArithmeticTable, n: int) -> Fraction:
    """f(n) = r2(n) / (4 * 2^omega1(n)) as an exact rational, for n in N, n >= 1."""
    table.check_range(n)
    if n < 1 or table.r2[n] == 0:
        raise ValueError(f"n={n} is not a representable integer >= 1")
    return Fraction(int(table.r2[n]) // 4, 2 ** int(table.omega1[n]))


def summatory_r2(table: ArithmeticTable, x: int) -> int:
    """Exact partial sum sum_{n <= x} r2(n) (the lattice-point count R(x))."""
    table.check_range(x)
    return int(table.r2[:int(x) + 1].sum(dtype=np.int64))


def normal_order_filter(table: ArithmeticTable, epsilon: float, n_min: int) -> np.ndarray:
    """Elements n >= n_min of N with |log r2(n) / log log n - (1/2) log 2| <= epsilon.

    Models the subsequence on which r2 stays close to its logarithmic normal
    order (log n)^{(1/2) log 2 + o(1)}.  Requires n_min >= 16 so log log n > 0.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if n_min < 16:
        raise ValueError("n_min must be >= 16 so that log log n > 0")
    rep = table.representable
    cand = rep[rep >= n_min]
    return cand[_normal_order(table, cand, epsilon)]


def _normal_order(table: ArithmeticTable, n: np.ndarray, epsilon: float) -> np.ndarray:
    """Mask of |log r2(n) / log log n - (1/2) log 2| <= epsilon over n >= 16."""
    ratio = np.log(table.r2[n].astype(np.float64)) / np.log(np.log(n.astype(np.float64)))
    return np.abs(ratio - _HALF_LOG2) <= epsilon


def omega1_histogram(table: ArithmeticTable, x: int) -> Dict[int, int]:
    """Counts {k: #{n in N(x) : omega1(n) = k}}; total equals |N(x)|."""
    table.check_range(x)
    rep = table.representable
    rep = rep[rep <= x]
    counts = np.bincount(table.omega1[rep])
    return {int(k): int(c) for k, c in enumerate(counts) if c > 0}


def landau_ratio(table: ArithmeticTable, x: int) -> float:
    """Empirical |N(x)| * sqrt(log x) / x (Landau's constant is its limit)."""
    table.check_range(x)
    if x < 2:
        raise ValueError("x must be >= 2")
    count = int(np.searchsorted(table.representable, x, side="right"))
    return count * float(np.sqrt(np.log(x))) / x


def representable_list(table: ArithmeticTable, x: int) -> List[int]:
    """The set N(x) as a python list (mostly for small-x reporting)."""
    table.check_range(x)
    rep = table.representable
    return rep[rep <= x].tolist()
