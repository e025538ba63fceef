import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sebalab.arithmetic import ArithmeticTable, build_table
from sebalab.spectrum import (CouplingConfig, EmptyWindowError,
                              SecularPoleError, solve_range)
from sebalab import lattice
from sebalab import multifractal as mf

LOG2 = math.log(2.0)


@pytest.fixture(scope="module")
def table():
    return build_table(3_100_000)


@pytest.fixture(scope="module")
def weak_spec(table):
    return solve_range(1000, 90_000, table,
                       CouplingConfig(mode="weak", theta=0.0))


def toy_table(reps, r2_values, x_max):
    r2 = np.zeros(x_max + 1, dtype=np.int32)
    for n, v in zip(reps, r2_values):
        r2[n] = v
    return ArithmeticTable(x_max=x_max, r2=r2,
                           omega1=np.zeros(x_max + 1, dtype=np.int8),
                           representable=np.array(reps, dtype=np.int64))


# ------------------------------------------------------------- zeta_lambda --

def test_zeta_single_term_toy():
    t = toy_table([40], [12], 100)
    v = mf.zeta_lambda(38.5, 3.0, t, rel_tol=math.inf)
    assert v.value == pytest.approx(12.0 * 1.5 ** -3, rel=1e-14)
    assert v.tail_bound > 0.0


def test_zeta_equidistant_pair_toy():
    t = toy_table([30, 40], [4, 4], 100)
    v = mf.zeta_lambda(35.0, 2.5, t, rel_tol=math.inf)
    assert v.value == pytest.approx(8.0 * 5.0 ** -2.5, rel=1e-14)


def test_zeta_reversed_summation_oracle(table):
    lam, s = 2.5, 4.0
    rep = table.representable[table.representable <= 100_000]
    acc = 0.0
    for n in rep[::-1]:
        acc += float(table.r2[n]) * abs(float(n) - lam) ** -s
    v = mf.zeta_lambda(lam, s, table, x_window=100_000, rel_tol=math.inf)
    assert abs(v.value - acc) / acc < 1e-12


def test_zeta_validation(table):
    with pytest.raises(SecularPoleError):
        mf.zeta_lambda(25.0, 2.0, table)
    with pytest.raises(ValueError):
        mf.zeta_lambda(2.5, 1.0, table)
    with pytest.raises(mf.InsufficientWindowError):
        mf.zeta_lambda(2.5, 2.0, table, x_window=2 * table.x_max)
    with pytest.raises(mf.InsufficientWindowError):
        mf.zeta_lambda(1000.5, 2.0, table, x_window=1500.0)  # < 2*lambda
    with pytest.raises(mf.InsufficientWindowError):
        mf.zeta_lambda(2.5, 1.1, table)  # tail cannot reach 1e-8 relative


def test_zeta_tail_bound_is_rigorous(table):
    # omitted mass when truncating at X must sit below the certified bound
    lam, s, x = 2.5, 2.0, 50_000.0
    trunc = mf.zeta_lambda(lam, s, table, x_window=x, rel_tol=math.inf)
    full = mf.zeta_lambda(lam, s, table, rel_tol=math.inf)
    omitted = full.value - trunc.value
    assert 0.0 < omitted < trunc.tail_bound


# ---------------------------------------------------------- moment_profile --

def test_single_term_moment_ratio():
    t = toy_table([40], [12], 100)
    prof = mf.moment_profile(38.5, 1.5, 40, (0.75, 2.0, 3.0), t,
                             rel_tol=math.inf)
    for q in prof.q_grid:
        assert prof.moment_ratio(q) == pytest.approx(12.0 ** (1 - q),
                                                     rel=1e-12)
        assert prof.m_q[q] == pytest.approx(12.0, rel=1e-12)


def test_uniform_toy_entropy_is_log_atom_count():
    # 4+4 lattice points at equal distance: flat measure over 8 atoms
    t = toy_table([48, 52], [4, 4], 200)
    prof = mf.moment_profile(50.0, 2.0, 48, (0.75, 1.0, 1.5, 3.0), t,
                             rel_tol=math.inf)
    for q in prof.q_grid:
        assert prof.H_q[q] == pytest.approx(math.log(8.0), rel=1e-12)


def test_moment_identity_on_real_profiles(table, weak_spec):
    qs = (1.25, 1.5, 2.0, 3.0)
    for k in range(0, len(weak_spec), 503):
        lam = float(weak_spec.lam[k])
        prof = mf.moment_profile(lam, float(weak_spec.delta[k]),
                                 int(weak_spec.n_tilde[k]), qs, table,
                                 rel_tol=1e-6)
        for q in qs:
            direct = prof.zeta2q[q] / prof.zeta2q[1.0] ** q
            assert abs(prof.moment_ratio(q) - direct) <= 1e-10 * abs(direct)


def test_shannon_continuity(table):
    base = mf.moment_profile(2.5, 0.5, 2, (1.0,), table, rel_tol=1e-3)
    lo = mf.moment_profile(2.5, 0.5, 2, (0.9999,), table, rel_tol=1e-3)
    hi = mf.moment_profile(2.5, 0.5, 2, (1.0001,), table, rel_tol=1e-3)
    h_shannon = base.H_q[1.0]
    assert abs(lo.H_q[0.9999] - h_shannon) <= 1e-3
    assert abs(hi.H_q[1.0001] - h_shannon) <= 1e-3


def test_moment_profile_monotonicity(table):
    # with Delta < 1 every m_q ratio (Delta/|n-lam|)^{2q} is <= 1, so m_q
    # decreases in q and never falls below the nearest-eigenvalue term
    prof = mf.moment_profile(2.5, 0.5, 2, (0.75, 1.0, 1.5, 2.0, 4.0),
                             table, rel_tol=1e-3)
    vals = [prof.m_q[q] for q in prof.q_grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v >= float(table.r2[2]) for v in vals)


def test_moment_profile_validation(table):
    with pytest.raises(ValueError):
        mf.moment_profile(2.5, 0.5, 2, (), table)
    with pytest.raises(ValueError):
        mf.moment_profile(2.5, 0.5, 2, (2.0, 1.0), table)
    with pytest.raises(ValueError):
        mf.moment_profile(2.5, 0.5, 2, (0.4, 2.0), table)
    with pytest.raises(ValueError):
        mf.moment_profile(2.5, 0.0, 2, (2.0,), table)
    # the zeta checks: a pole, a window past the table or below 2 lambda,
    # and a tail above rel_tol at one q of the grid
    with pytest.raises(SecularPoleError):
        mf.moment_profile(25.0, 0.5, 25, (1.5,), table)
    with pytest.raises(mf.InsufficientWindowError, match="exceeds table"):
        mf.moment_profile(2.5, 0.5, 2, (1.5,), table,
                          x_window=2 * table.x_max)
    with pytest.raises(mf.InsufficientWindowError, match="below 2"):
        mf.moment_profile(1000.5, 0.5, 1000, (1.5,), table, x_window=1500.0,
                          rel_tol=math.inf)
    with pytest.raises(mf.InsufficientWindowError, match="at s=1.1"):
        mf.moment_profile(2.5, 0.5, 2, (0.55, 2.0), table)


def test_nan_fails_every_check(weak_spec):
    # NaN passes no comparison, so each check is written to fail on it; a
    # NaN rel_tol used to switch the certified tail check off (inf still does)
    small = build_table(3000)
    with pytest.raises(ValueError, match="rel_tol"):
        mf.zeta_lambda(1000.5, 2.0, small, rel_tol=math.nan)
    assert mf.zeta_lambda(1000.5, 2.0, small, rel_tol=math.inf).tail_bound > 9e-3
    with pytest.raises(ValueError, match="require s > 1"):
        mf.zeta_lambda(1000.5, math.nan, small)
    for grid in ((1.0, math.nan), (math.nan,), (math.nan, 2.0)):
        with pytest.raises(ValueError):
            mf.moment_profile(1000.5, 0.5, 1000, grid, small, rel_tol=math.inf)
        with pytest.raises(ValueError, match="q_grid"):
            mf.fractal_estimates(weak_spec, small, grid, (1000, 90_000))
    with pytest.raises(ValueError, match="delta"):
        mf.moment_profile(1000.5, math.nan, 1000, (1.5,), small, rel_tol=math.inf)
    with pytest.raises(ValueError, match="q > 1/2"):
        mf.tail_tau(1000.5, 10.0, math.nan, small)
    with pytest.raises(ValueError, match="G >= 1"):
        mf.tail_tau(1000.5, math.nan, 1.5, small)
    with pytest.raises(ValueError, match="q > 1/2"):
        mf.mean_tail(900.0, 10.0, math.nan, small)
    with pytest.raises(ValueError, match="T too small"):
        mf.mean_tail(math.nan, 10.0, 1.5, small)
    with pytest.raises(ValueError, match="q > 1/2"):
        mf.essential_support_G(1.0, math.nan)
    with pytest.raises(ValueError, match="mean_delta"):
        mf.essential_support_G(math.nan, 1.5)
    with pytest.raises(ValueError, match="q >= 3/2"):
        mf.rigid_bound_f(math.nan)
    with pytest.raises(ValueError, match="q >= 3/2"):
        mf.breakdown_diagnostic(math.nan)
    for field in ("normal_eps", "delta_eps", "alpha"):
        with pytest.raises(ValueError, match=field):
            mf.FilterConfig(**{field: math.nan})


# ----------------------------------------------------------------- tails --

def test_tail_tau_direct_oracle(table):
    t, g = 1e5 + 0.5, 100.0
    got = mf.tail_tau(t, g, 1.0, table)
    d = np.abs(table.representable.astype(float) - t)
    keep = d >= g
    brute = float(np.sum(table.r2[table.representable[keep]]
                         * d[keep] ** -2.0))
    assert abs(got.value - brute) <= 1e-12 * brute
    assert got.tail_bound > 0.0


def test_tail_tau_empty_annulus():
    t = build_table(1000)
    got = mf.tail_tau(500.0, 600.0, 1.0, t)
    assert got.value == 0.0
    assert got.tail_bound > 0.0


def test_tail_tau_large_q_dominant_term(table):
    t = 1e5 + 0.4
    got = mf.tail_tau(t, 1.0, 25.0, table)
    rep = table.representable
    d = np.abs(rep.astype(float) - t)
    d[d < 1.0] = np.inf    # inside the excluded disc
    j = int(np.argmin(d))
    lead = float(table.r2[rep[j]]) * d[j] ** -50.0
    assert got.value == pytest.approx(lead, rel=1e-10)


def test_tail_tau_validation(table):
    with pytest.raises(ValueError):
        mf.tail_tau(100.0, 0.5, 1.0, table)
    with pytest.raises(ValueError):
        mf.tail_tau(100.0, 2.0, 0.5, table)
    with pytest.raises(mf.InsufficientWindowError):
        mf.tail_tau(float(table.x_max + 5), 2.0, 1.0, table)


def test_mean_tail_single_shell_closed_form():
    t = toy_table([5000], [12], 6001)
    for q in (0.75, 1.0, 2.0):
        got = mf.mean_tail(2000.0, 10.0, q, t)
        # only u = t - 5000 in [-3000,-1000] clipped to |u| in [1000,2000]
        hand = 12.0 * (1000.0 ** (1 - 2 * q) - 2000.0 ** (1 - 2 * q)) \
            / (2 * q - 1) / 2000.0
        assert got.value == pytest.approx(hand, rel=1e-12)


def test_mean_tail_scaling_ratio(table):
    t_big = 1.0e6
    g = t_big ** 0.3
    for q in (1.0, 1.5, 2.0):
        got = mf.mean_tail(t_big, g, q, table)
        pred = 2.0 * math.pi / (2 * q - 1) * g ** (1 - 2 * q)
        assert 0.95 <= got.value / pred <= 1.05
        assert got.remainder_bound < got.value


def test_mean_tail_validation(table):
    with pytest.raises(ValueError):
        mf.mean_tail(1e5, 10.0, 0.5, table)
    with pytest.raises(ValueError):
        mf.mean_tail(1e5, 1e5 ** 0.95, 1.0, table)
    with pytest.raises(mf.InsufficientWindowError):
        mf.mean_tail(2e6, 10.0, 1.0, table)


# ------------------------------------------------------- essential support --

def test_essential_support_closed_form():
    assert mf.essential_support_G(1.0, 1.0) == pytest.approx(2 * math.pi,
                                                             rel=1e-15)
    with pytest.raises(ValueError):
        mf.essential_support_G(1.0, 0.5)
    with pytest.raises(ValueError):
        mf.essential_support_G(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(0.51, 20.0))
def test_essential_support_back_substitution(mean_delta, q):
    g = mf.essential_support_G(mean_delta, q)
    resid = mean_delta ** (2 * q) * (2 * math.pi / (2 * q - 1)) \
        * g ** (1 - 2 * q)
    assert abs(resid - 1.0) <= 1e-12


def test_essential_support_loglog_exponent():
    # with <Delta> = (log n)^alpha, log G / loglog n approaches
    # alpha * 2q/(2q-1), and the gap shrinks as n grows
    alpha, q = 0.4, 1.5
    target = alpha * 2 * q / (2 * q - 1)
    gaps = []
    for n in (1e10, 1e50, 1e250):
        loglog = math.log(math.log(n))
        g = mf.essential_support_G(math.log(n) ** alpha, q)
        gap = math.log(g) / loglog - target
        # the residual is exactly the constant prefactor of G
        assert gap == pytest.approx(
            math.log(2 * math.pi / (2 * q - 1)) / ((2 * q - 1) * loglog),
            rel=1e-12)
        gaps.append(abs(gap))
    assert gaps[2] < gaps[1] < gaps[0]


# ------------------------------------------------------------ closed forms --

def test_theory_exponents_values():
    d, big_d = mf.theory_exponents(0.4, 0.5 * LOG2, 2.0)
    assert d == pytest.approx(0.64982548177494872758, abs=1e-15)
    assert big_d == d


def test_theory_identity_at_lower_constant():
    # 2cq - log2 = (q-1) log2 at c = log2/2: D_q collapses onto d_q
    for q in np.linspace(0.8, 2.4, 9):
        d, big_d = mf.theory_exponents(0.4, 0.5 * LOG2, float(q))
        if q != 1.0:
            assert big_d == pytest.approx(d, rel=1e-13)


def test_theory_domain_contract():
    lo, hi = mf.admissible_q_range(0.4)
    assert hi == pytest.approx(2.5)
    mf.theory_exponents(0.4, 0.6, hi)          # endpoint included
    with pytest.raises(ValueError):
        mf.theory_exponents(0.4, 0.6, hi + 1e-9)
    with pytest.raises(ValueError):
        mf.theory_exponents(0.4, 0.6, lo)      # open at the bottom
    with pytest.raises(ValueError):
        mf.theory_exponents(0.2, 0.6, 1.5)
    with pytest.raises(ValueError):
        mf.theory_exponents(0.4, 0.2, 1.5)
    with pytest.raises(ValueError):
        mf.admissible_q_range(0.5)


def test_rigid_bound():
    assert mf.rigid_bound_f(1.5) == pytest.approx(0.5 * LOG2, abs=1e-15)
    grid = np.linspace(1.6, 10.0, 40)
    vals = [mf.rigid_bound_f(float(q)) for q in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert mf.rigid_bound_f(300.0) < 1e-3
    with pytest.raises(ValueError):
        mf.rigid_bound_f(1.49)


def test_breakdown_interval():
    bi = mf.breakdown_diagnostic(1.5)
    assert bi.lower == pytest.approx((2 / 3) * LOG2, rel=1e-14)
    assert bi.upper == pytest.approx((2 / 3) * (1 + LOG2) * LOG2, rel=1e-14)
    assert bi.contains_rigid
    far = mf.breakdown_diagnostic(1e6)
    assert far.lower == pytest.approx(LOG2, rel=1e-5)
    assert far.upper == pytest.approx(LOG2, rel=2e-5)
    # F = 1/(2q-1) turns (1-1/2q)(1+F) into exactly 1
    for q in (1.7, 3.0, 8.0):
        point = (1 - 1 / (2 * q)) * (1 + 1 / (2 * q - 1)) * LOG2
        bi = mf.breakdown_diagnostic(q)
        assert point == pytest.approx(LOG2, rel=1e-14)
        assert bi.lower <= point <= bi.upper
    with pytest.raises(ValueError):
        mf.breakdown_diagnostic(1.2)


# -------------------------------------------------------- estimator chain --

def synthetic_chain(alpha, qs, c_factor=1.0):
    n_t = np.unique(np.linspace(10_000, 1_000_000, 4000).astype(np.int64))
    loglog = np.log(np.log(n_t))
    delta = np.log(n_t.astype(float)) ** alpha
    h = {q: c_factor * 0.5 * LOG2 * loglog for q in set(qs) | {1.0}}
    return n_t, delta, h


def test_exponent_chain_exact_on_prescribed_moments():
    alpha = 0.4
    qs = (1.25, 2.0)
    n_t, delta, h = synthetic_chain(alpha, qs)
    rep = mf.exponent_chain(n_t, delta, h, qs)
    assert rep.alpha_hat == pytest.approx(alpha, abs=1e-12)
    for q in qs:
        want = (1 / (2 * alpha)) * (1 - 1 / (2 * q)) * LOG2
        assert abs(rep.d_hat[q] - want) < 1e-6
        assert abs(rep.D_hat[q] - want) < 1e-6
        assert abs(rep.D_hat_alt[q] - want) < 1e-6
        assert abs(rep.d_theory[q] - want) < 1e-6
    assert rep.theory_applicable
    assert rep.q_admissible[1] == pytest.approx(2.5)


def test_exponent_chain_simple_normalization_unit():
    qs = (1.25, 2.0, 3.0)
    n_t, delta, h = synthetic_chain(-0.4, qs)
    rep = mf.exponent_chain(n_t, delta, h, qs, normalization="simple")
    for q in qs:
        assert rep.d_hat[q] == pytest.approx(1.0, abs=1e-12)
        assert rep.D_hat[q] == pytest.approx(1.0, abs=1e-12)
        assert rep.D_hat_alt[q] == pytest.approx(1.0, abs=1e-12)
    assert not rep.theory_applicable   # alpha < 1/4: outside the regime


def test_exponent_chain_validation():
    n_t, delta, h = synthetic_chain(0.4, (2.0,))
    with pytest.raises(ValueError):
        mf.exponent_chain(n_t, delta, h, (2.0,), normalization="other")
    with pytest.raises(ValueError):
        mf.exponent_chain(n_t, delta, {2.0: h[2.0]}, (2.0,))
    with pytest.raises(EmptyWindowError):
        mf.exponent_chain(np.array([], dtype=np.int64), delta[:0],
                          {1.0: delta[:0], 2.0: delta[:0]}, (2.0,))
    with pytest.raises(ValueError):
        # Shannon samples are mandatory once q = 1 joins the grid
        mf.exponent_chain(n_t, delta, {**h, 1.0: h[2.0]}, (1.0, 2.0))
    with pytest.raises(ValueError):
        mf.exponent_chain(np.array([4, 100]), np.array([1.0, 1.0]),
                          {1.0: np.zeros(2), 2.0: np.zeros(2)}, (2.0,))


def test_fractal_estimates_on_weak_spectrum(table, weak_spec):
    # scaling-law shape check: with the normal-order normalization the
    # exponents come out O(1); desk-scale r2 quantization (only r2 = 4
    # survives the filter when loglog is this small) biases the surrogate
    # upward, so "near 1" is asserted as a broad band
    rep = mf.fractal_estimates(weak_spec, table, (1.25, 1.5, 2.0),
                               (1000, 90_000), normalization="simple",
                               rel_tol=1e-6)
    assert rep.n_records > 50
    for q in rep.q_grid:
        assert 0.5 < rep.d_hat[q] < 2.5
        assert 0.5 < rep.D_hat[q] < 2.5
        assert rep.G[q] > 0 and rep.N[q] == pytest.approx(
            2 * math.pi * rep.G[q], rel=1e-15)
    # weak coupling sits outside the multifractal window: alpha < 0
    assert rep.alpha_hat < 0.0
    assert not rep.theory_applicable
    assert rep.q_admissible is None
    # the two limsup/liminf orderings genuinely differ on real data
    assert any(not math.isclose(rep.D_hat[q], rep.D_hat_alt[q])
               for q in rep.q_grid)


def test_fractal_estimates_filters_and_errors(table, weak_spec):
    with pytest.raises(EmptyWindowError):
        mf.fractal_estimates(weak_spec, table, (1.5,), (1000, 90_000),
                             filters=mf.FilterConfig(normal_eps=1e-6),
                             rel_tol=1e-6)
    with pytest.raises(EmptyWindowError):
        mf.fractal_estimates(weak_spec, table, (1.5,), (2, 5))
    with pytest.raises(ValueError):
        mf.fractal_estimates(weak_spec, table, (0.4,), (1000, 90_000))
    # the zeta checks: records at poles, a table below 2 lambda, and a
    # tail above rel_tol
    at_poles = dataclasses.replace(weak_spec,
                                   lam=weak_spec.n_left.astype(np.float64))
    with pytest.raises(SecularPoleError):
        mf.fractal_estimates(at_poles, table, (1.5,), (1000, 90_000),
                             rel_tol=1e-6)
    with pytest.raises(mf.InsufficientWindowError, match="below 2"):
        mf.fractal_estimates(weak_spec, build_table(150_000), (1.5,),
                             (1000, 90_000), rel_tol=math.inf)
    with pytest.raises(mf.InsufficientWindowError, match="certified tail"):
        mf.fractal_estimates(weak_spec, table, (1.5,), (1000, 90_000),
                             rel_tol=1e-30)
    pinned = mf.fractal_estimates(weak_spec, table, (1.5,), (1000, 90_000),
                                  filters=mf.FilterConfig(alpha=0.3),
                                  rel_tol=1e-6)
    assert pinned.alpha_hat == 0.3
    assert pinned.theory_applicable


def test_shannon_branch_in_chain(table, weak_spec):
    rep = mf.fractal_estimates(weak_spec, table, (1.0, 2.0), (1000, 90_000),
                               normalization="simple", rel_tol=1e-6)
    assert math.isnan(rep.D_hat[1.0])
    assert np.isfinite(rep.d_hat[1.0])
    assert np.isfinite(rep.D_hat_alt[1.0])   # Shannon-based quotient


# ------------------------------------------------------ density predicates --

def test_density_predicates_basic(table):
    rep = table.representable
    # find an element with a touching neighbour: gap predicate must reject
    gaps = np.minimum(np.diff(rep)[1:], np.diff(rep)[:-1])
    i = int(np.nonzero((rep[1:-1] > 20_000) & (gaps == 1))[0][0]) + 1
    assert not mf.neighbour_gap_ok(int(rep[i]), table, eps=0.25)
    with pytest.raises(ValueError):
        mf.neighbour_gap_ok(3, table)   # not representable


def test_density_filter_selects_lemma_satisfying_elements(table):
    sel = mf.density_filter(table, 10_000, 100_000, eps=-0.25, max_count=25)
    assert len(sel) == 25
    assert np.all(np.diff(sel) > 0)
    for m in sel[::5]:
        el = math.log(m)
        assert mf.neighbour_gap_ok(int(m), table, eps=-0.25)
        for q in (1.5, 2.0):
            s = mf.tail_tau(float(m), 1.0, q, table)
            assert s.value <= el ** (-q + 1.0)


def test_density_filter_deterministic(table):
    a = mf.density_filter(table, 10_000, 60_000, eps=-0.25, max_count=10)
    b = mf.density_filter(table, 10_000, 60_000, eps=-0.25, max_count=10)
    assert np.array_equal(a, b)
    empty = mf.density_filter(table, 10, 12)
    assert empty.size == 0


# ------------------------------------------------------ block-moment engine --

U = 2.0 ** -53


@pytest.fixture(scope="module")
def big():
    return build_table(11_000_000)


def exact_sum(terms):
    """Sum in 80-bit extended precision: exactly rounded for these sums."""
    return float(np.asarray(terms, dtype=np.longdouble).sum())


def direct_terms(table, lam, s, x=None, gap=0.0, unit=False, log=False):
    rep = table.representable
    if x is not None:
        rep = rep[rep <= x]
    d = np.abs(rep.astype(np.float64) - lam)
    rep, d = rep[d >= gap], d[d >= gap]
    t = (1.0 if unit else table.r2[rep]) * d ** -s
    return t * np.log(d) if log else t


def assert_within_bound(table, lam, s, x=None, gap=0.0, unit=False,
                        log=False):
    """The engine's sum is within its computed truncation bound plus the
    rounding of a pairwise float64 sum of the exactly rounded reference,
    and that bound is at most 1e-15 relative."""
    (value,), (bound,) = (a.ravel() for a in mf._lattice_sums(
        table, [lam], [(s, log)], x, (gap,), unit))
    terms = direct_terms(table, lam, s, x, gap, unit, log)
    mag = float(np.abs(terms).sum())
    assert 0.0 <= bound <= 1e-15 * mag
    rounding = (math.log2(max(terms.size, 2)) + 16.0) * U * mag
    assert abs(value - exact_sum(terms)) <= bound + rounding
    return value, bound


@pytest.mark.parametrize("s", [2.0, 2.5, 3.0, 4.0])
def test_engine_matches_exact_sum_at_scale(big, s):
    lams = [100_000.37, 262_144.5, 555_555.25, 999_999.5,
            big.x_max - 0.5, big.x_max - 6000.25]
    for lam in lams:
        _, bound = assert_within_bound(big, lam, s)
        assert bound > 0.0          # far blocks did enter through series
        # no near mass: the nearest expanded blocks carry much of the sum
        assert_within_bound(big, lam, s, gap=2.5 * 4096)
        if lam < 10 ** 6:           # the cutoff falls inside a block
            x = 4096.0 * math.floor(2.5 * lam / 4096.0) + 1234.5
            assert_within_bound(big, lam, s, x=x)
            got = mf.zeta_lambda(lam, s, big, x_window=x, rel_tol=math.inf)
            assert got.value == mf._lattice_sums(big, [lam], [(s, False)],
                                                 x)[0][0, 0, 0]


@pytest.mark.parametrize("s", [2.0, 2.5, 3.0, 4.0])
def test_far_field_matches_exact_sum_over_expanded_blocks(big, s):
    # the series part alone, where a short expansion would show: every
    # block but lambda's own and two on each side enters through it
    mom, rep = big.moments.upto(big.x_max), big.representable
    h, order, blocks = mom.width, mom.r2.shape[0], mom.r2.shape[1]
    for lam in (100_000.37, 555_555.25, 999_999.5, big.x_max - 6000.25):
        own = int(lam // h)
        lo, hi = max(own - 2, 0), min(own + 2, blocks - 1)
        n = np.concatenate((rep[:mom.start[lo]], rep[mom.start[hi + 1]:]))
        d = np.abs(n.astype(np.float64) - lam)
        for log in (False, True) if s == 2.0 else (False,):
            reach = lattice._reach(s, log, h, order)
            assert reach[order] <= 2.5 * h     # own +- 2 may be direct
            far = lattice._far_field(mom, np.array([lam]), np.array([lo]),
                                np.array([hi]), blocks, [(s, log)], [reach],
                                False)[0, 0]
            terms = big.r2[n] * d ** -s * (np.log(d) if log else 1.0)
            mag = float(np.abs(terms).sum())
            tol = lattice._TRUNCATION * mag + (math.log2(blocks) + 4.0) * U * mag
            assert abs(far - exact_sum(terms)) <= tol


def test_engine_tail_with_gap_over_several_blocks(big):
    t, g = 500_000.25, 3.3 * 4096
    for q in (1.0, 1.25, 2.0):
        value, _ = assert_within_bound(big, t, 2.0 * q, gap=g)
        assert mf.tail_tau(t, g, q, big).value == value


def test_engine_unweighted_annulus_and_shannon(big):
    rep = big.representable
    for m in (int(rep[np.searchsorted(rep, 123_457)]),
              int(rep[np.searchsorted(rep, 876_543)])):
        for s in (3.0, 4.0):
            for g in (2.0, 8.0, 32.0):
                assert_within_bound(big, float(m), s, gap=g, unit=True)
    for lam in (150_000.5, 777_777.75):
        z, bz = assert_within_bound(big, lam, 2.0)
        zl, bl = assert_within_bound(big, lam, 2.0, log=True)
        ref_z = exact_sum(direct_terms(big, lam, 2.0))
        ref_zl = exact_sum(direct_terms(big, lam, 2.0, log=True))
        want = math.log(ref_z) + 2.0 * ref_zl / ref_z
        got = mf.moment_profile(lam, 1.0, 0, (1.0,), big,
                                rel_tol=math.inf).H_q[1.0]
        rel_z = (bz + 40.0 * U * z) / z
        tol = rel_z * (1.0 + 2.0 * abs(zl) / z) \
            + 2.0 * (bl + 40.0 * U * float(np.abs(direct_terms(
                big, lam, 2.0, log=True)).sum())) / z \
            + 8.0 * U * (abs(math.log(z)) + 2.0 * abs(zl) / z)
        assert abs(got - want) <= tol


def test_engine_all_blocks_direct_on_small_tables():
    small = build_table(20_000)               # five blocks, all near 10^4
    for s in (2.0, 3.0):
        value, bound = assert_within_bound(small, 10_000.5, s)
        assert bound == 0.0
    toy = toy_table([0, 3, 7, 4000, 9000], [1, 4, 8, 4, 16], 9500)
    got = mf._lattice_sums(toy, [4500.5], [(2.0, False), (2.0, True)],
                           gaps=(0.0, 600.0))[0][0]
    d = np.abs(np.array([0.0, 3.0, 7.0, 4000.0, 9000.0]) - 4500.5)
    w = np.array([1.0, 4.0, 8.0, 4.0, 16.0]) * d ** -2.0
    assert got[0, 0] == pytest.approx(w.sum(), rel=1e-15)
    assert got[0, 1] == pytest.approx(w[[0, 1, 2, 4]].sum(), rel=1e-15)
    assert got[1, 0] == pytest.approx((w * np.log(d)).sum(), rel=1e-15)


def test_batch_zeta_matches_single_calls(big):
    rng = np.random.default_rng(11)
    lams = np.sort(rng.uniform(1e3, 1e6, 40)) + 0.5
    q_list = [1.25, 1.5, 2.0, 1.0]
    out, _, shan = mf._checked_zeta(big, lams, [2.0 * q for q in q_list],
                                    rel_tol=math.inf, shannon=True)
    for i, lam in enumerate(lams):
        for k, q in enumerate(q_list):
            one = mf.zeta_lambda(float(lam), 2.0 * q, big, rel_tol=math.inf)
            assert abs(out[i, k] - one.value) <= 4.0 * U * one.value
        h = mf.moment_profile(float(lam), 1.0, 0, (1.0,), big,
                              rel_tol=math.inf).H_q[1.0]
        assert abs(shan[i] - h) <= 16.0 * U * max(1.0, abs(h))


def test_moment_profile_matches_exact_sums_at_scale(big):
    # one engine query per profile: every zeta value within the engine's
    # bound of the exactly rounded direct sum, with a cutoff X or without,
    # and the Shannon entropy within the error those bounds propagate to
    qs = (1.0, 1.25, 1.5, 2.0, 2.5)
    kernels = [(2.0 * q, False) for q in qs] + [(2.0, True)]
    for lam in (100_000.37, 555_555.25, 999_999.5, 2_600_000.75):
        for x in (None, 4096.0 * math.floor(2.5 * lam / 4096.0) + 1234.5):
            prof = mf.moment_profile(lam, 0.5, int(lam), qs, big, x_window=x,
                                     rel_tol=math.inf)
            bounds = mf._lattice_sums(big, [lam], kernels, x)[1][0]
            for q, bound in zip(qs, bounds):
                terms = direct_terms(big, lam, 2.0 * q, x)
                mag = float(terms.sum())
                assert 0.0 <= bound <= 1e-15 * mag
                rounding = (math.log2(terms.size) + 16.0) * U * mag
                assert abs(prof.zeta2q[q] - exact_sum(terms)) \
                    <= bound + rounding
                assert prof.m_q[q] == 0.5 ** (2.0 * q) * prof.zeta2q[q]
            z = exact_sum(direct_terms(big, lam, 2.0, x))
            logs = direct_terms(big, lam, 2.0, x, log=True)
            zl = exact_sum(logs)
            want = math.log(z) + 2.0 * zl / z
            rel_z = (bounds[0] + 40.0 * U * z) / z
            tol = rel_z * (1.0 + 2.0 * abs(zl) / z) \
                + 2.0 * (bounds[-1] + 40.0 * U * float(np.abs(logs).sum())) / z \
                + 8.0 * U * (abs(math.log(z)) + 2.0 * abs(zl) / z)
            assert abs(prof.H_q[1.0] - want) <= tol


def test_block_moments_built_once_and_lazily(monkeypatch):
    built = []
    real = lattice._build_blocks
    monkeypatch.setattr(lattice, "_build_blocks",
                        lambda mom, j0, j1, v: built.append((j0, j1)) or real(mom, j0, j1, v))
    t = build_table(100_000)
    assert "moments" not in vars(t)
    mf.zeta_lambda(1000.5, 2.0, t, rel_tol=math.inf)
    mf.tail_tau(5000.5, 10.0, 1.5, t)
    mf.annulus_decay_ok(int(t.representable[2000]), 1.5, t)
    mf.moment_profile(1000.5, 0.5, 1000, (1.0, 2.0), t, rel_tol=math.inf)
    # every block built, each range once
    assert built == [(0, t.moments.start.size - 1)]
    mom = t.moments
    assert mom is t.moments
    # M_k(j) against its definition, summed exactly
    rep = t.representable
    for j in (0, 7, mom.start.size - 2):
        n = rep[mom.start[j]:mom.start[j + 1]]
        assert np.all((n >= j * mom.width) & (n < (j + 1) * mom.width))
        u = (n - mom.centre(j)) / mom.width
        for k in (0, 1, 5, mom.r2.shape[0] - 1):
            for got, w in ((mom.r2[k, j], t.r2[n]), (mom.unit[k, j], 1.0)):
                terms = w * u ** k
                assert abs(got - exact_sum(terms)) \
                    <= 64.0 * U * float(np.abs(terms).sum())
