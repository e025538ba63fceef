import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sebalab import arithmetic
from sebalab.arithmetic import (ArithmeticTable, CapacityError, RangeError,
                                build_table, f_value, landau_ratio,
                                normal_order_filter, omega1_histogram,
                                representable_list, summatory_r2)


def lattice_r2(x_max):
    """Independent oracle: count x^2 + y^2 = n by direct lattice enumeration."""
    counts = np.zeros(x_max + 1, dtype=np.int64)
    m = int(math.isqrt(x_max))
    for x in range(-m, m + 1):
        x2 = x * x
        ymax = int(math.isqrt(x_max - x2))
        for y in range(-ymax, ymax + 1):
            counts[x2 + y * y] += 1
    return counts


def chi4_divisor_sum(n):
    """4 * sum_{d | n} chi4(d), computed straight from the divisors."""
    s = 0
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            for e in (d, n // d):
                if e % 4 == 1:
                    s += 1
                elif e % 4 == 3:
                    s -= 1
            if d * d == n:  # counted the square divisor twice
                if d % 4 == 1:
                    s -= 1
                elif d % 4 == 3:
                    s += 1
    return 4 * s


@pytest.fixture(scope="module")
def table():
    return build_table(100_000)


def test_r2_matches_lattice_enumeration(table):
    counts = lattice_r2(2000)
    assert np.array_equal(table.r2[:2001], counts)


def test_r2_equals_divisor_character_sum(table):
    # exact identity r2(n) = 4 sum_{d|n} chi4(d), spot-checked densely
    for n in range(1, 3000):
        assert int(table.r2[n]) == chi4_divisor_sum(n), n


def test_small_values_pinned(table):
    assert int(table.r2[0]) == 1
    assert [int(table.r2[n]) for n in (1, 2, 3, 4, 5, 25)] == [4, 4, 0, 4, 8, 12]
    assert [int(table.omega1[n]) for n in (0, 1, 2, 5, 25, 65)] == [0, 0, 0, 1, 1, 2]


def test_representable_prefix(table):
    assert representable_list(table, 16) == [0, 1, 2, 4, 5, 8, 9, 10, 13, 16]


def test_summatory_r2(table):
    assert summatory_r2(table, 10) == 37
    assert summatory_r2(table, 0) == 1
    brute = lattice_r2(500)
    assert summatory_r2(table, 500) == int(brute.sum())


def test_circle_law_small_scale(table):
    for x in (1000, 10_000, 100_000):
        assert abs(summatory_r2(table, x) - math.pi * x) <= 10 * x ** 0.75


def test_f_value_examples(table):
    from fractions import Fraction
    assert f_value(table, 1) == 1
    assert f_value(table, 5) == 1
    assert f_value(table, 25) == Fraction(3, 2)
    with pytest.raises(ValueError):
        f_value(table, 3)
    with pytest.raises(ValueError):
        f_value(table, 0)


def test_omega1_histogram_at_10(table):
    h = omega1_histogram(table, 10)
    assert h[0] == 6          # {0, 1, 2, 4, 8, 9}
    assert h[1] == 2          # {5, 10}
    assert sum(h.values()) == 8


def test_normal_order_filter_basic(table):
    # at this scale the smallest attainable ratio is log 4 / log log x ~ 0.57,
    # so the window has to be wider than the asymptotic exponent suggests
    sel = normal_order_filter(table, epsilon=0.35, n_min=1000)
    assert sel.size > 0
    for n in sel[:50]:
        ratio = math.log(table.r2[n]) / math.log(math.log(n))
        assert abs(ratio - 0.5 * math.log(2)) <= 0.35
    # a too-narrow window at this scale must come back empty, not error
    assert normal_order_filter(table, epsilon=0.05, n_min=1000).size == 0
    # members are representable and respect n_min
    assert int(sel.min()) >= 1000
    assert np.all(table.r2[sel] > 0)
    with pytest.raises(ValueError):
        normal_order_filter(table, epsilon=0.2, n_min=4)


def test_landau_ratio_sane(table):
    # K = 0.7642...; at desk scale the ratio sits in the right neighbourhood
    assert 0.7 < landau_ratio(table, 100_000) < 0.9


class NoNumpy:
    """Stands in for the module's numpy: any use fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"build_table reached numpy.{name}")


def test_capacity_error(monkeypatch):
    # 10^9 needs ~11 GB against the 2 GiB default; refused before allocating
    monkeypatch.setattr(arithmetic, "np", NoNumpy())
    with pytest.raises(CapacityError):
        build_table(10 ** 9)


def test_capacity_estimate_covers_traced_peak():
    # the dense arrays are 10 B/n; at 2M one cofactor chunk's temporaries
    # weigh most against them (20.7 MB traced, 10.36 B/n)
    for x in (2_000_000, 11_000_000):
        tracemalloc.start()
        try:
            build_table(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= arithmetic._sieve_bytes(x), x
    # the 10^8 sieve that a weak solve to 10^7 needs fits the default budget
    assert arithmetic._sieve_bytes(10 ** 8) <= arithmetic.DEFAULT_MEMORY_BUDGET


def test_x_max_beyond_int32_rejected_before_allocating(monkeypatch):
    # r2, the sieved prime-power part and the cofactor are int32
    monkeypatch.setattr(arithmetic, "np", NoNumpy())
    monkeypatch.setattr(arithmetic, "DEFAULT_MEMORY_BUDGET", 10 ** 13)
    with pytest.raises(ValueError, match="2147483647"):
        build_table(2 ** 31)
    # the largest int32 x_max passes the guard (and only then reaches numpy)
    with pytest.raises(AssertionError, match="reached numpy"):
        build_table(2 ** 31 - 1)


def omega1_trial(n):
    """Distinct primes p = 1 mod 4 dividing n, by trial division."""
    count, d = 0, 2
    while d * d <= n:
        if n % d == 0:
            count += d % 4 == 1
            while n % d == 0:
                n //= d
        d += 1
    return count + (n > 1 and n % 4 == 1)


@pytest.fixture(scope="module")
def million():
    return build_table(1_000_000)


@pytest.fixture(scope="module")
def past_1019_squared():
    return build_table(4 * 1019 ** 2 + 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1009, 1019])
def test_prefix_of_larger_table_across_prime_square(p, past_1019_squared):
    # only primes <= isqrt(x_max) are sieved, so p is sieved in the tables of
    # p^2 and p^2 + 1 (and the large one) but enters n = p * m as the
    # cofactor in the table of p^2 - 1
    big = past_1019_squared
    for x in (p * p - 1, p * p, p * p + 1):
        t = build_table(x)
        assert t.r2.dtype == np.int32 and t.omega1.dtype == np.int8
        assert t.representable.dtype == np.int64
        assert np.array_equal(t.r2, big.r2[:x + 1]), x
        assert np.array_equal(t.omega1, big.omega1[:x + 1]), x
        assert np.array_equal(t.representable,
                              big.representable[big.representable <= x]), x


def test_top_of_million_table_against_divisors(million):
    # most n here have a prime factor above sqrt(10^6) = 1000, which only the
    # cofactor pass sees
    for n in range(1_000_000 - 1999, 1_000_001):
        assert int(million.r2[n]) == chi4_divisor_sum(n), n
        assert int(million.omega1[n]) == omega1_trial(n), n


@pytest.mark.parametrize("which", ["million", "past_1019_squared"])
def test_prime_power_families(which, request):
    t = request.getfixturevalue(which)

    def powers(base, factor=1):
        n, k = factor, 0
        while n <= t.x_max:
            yield k, n
            n, k = n * base, k + 1

    for p in (5, 13):                            # r2(p^k) = 4 (k + 1)
        for k, n in powers(p):
            assert (int(t.r2[n]), int(t.omega1[n])) == (4 * (k + 1), int(k > 0)), n
    for k, n in powers(9):                       # 3^(2k): r2 = 4
        assert (int(t.r2[n]), int(t.omega1[n])) == (4, 0), n
    for k, n in powers(9, 15):                   # 3^(2k+1) * 5: odd exponent
        assert (int(t.r2[n]), int(t.omega1[n])) == (0, 1), n
    for k, n in powers(5, 21):                   # 21 * 5^k: 3 and 7 both odd
        assert (int(t.r2[n]), int(t.omega1[n])) == (0, int(k > 0)), n
        assert chi4_divisor_sum(n) == 0


def test_range_errors(table):
    with pytest.raises(RangeError):
        summatory_r2(table, 200_000)
    with pytest.raises(RangeError):
        omega1_histogram(table, -1)


def test_tiny_tables():
    t0 = build_table(0)
    assert list(t0.representable) == [0]
    t1 = build_table(1)
    assert int(t1.r2[1]) == 4


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 300), st.integers(2, 300))
def test_multiplicativity(m, n):
    # r2/4 and omega1 are multiplicative / additive on coprime arguments
    if math.gcd(m, n) != 1:
        return
    t = _SHARED
    assert int(t.r2[m * n]) * 4 == int(t.r2[m]) * int(t.r2[n])
    assert int(t.omega1[m * n]) == int(t.omega1[m]) + int(t.omega1[n])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 50_000))
def test_r2_divisibility_structure(n):
    # r2 is 1 at n=0 and otherwise 0 or a positive multiple of 4
    t = _SHARED
    v = int(t.r2[n])
    if n == 0:
        assert v == 1
    else:
        assert v == 0 or (v > 0 and v % 4 == 0)


_SHARED = build_table(90_000)
