"""Oracle and invariant tests for the Epstein-zeta layer.

The scalar oracle for the square lattice is the classical factorization
zeta_{Z^2}(s) = 4 zeta(s) beta(s), evaluated here through mpmath's Riemann
and Hurwitz zetas — fully independent of the lattice-summation code under
test.  Raw box summation provides a second, dumber cross-check.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from sebalab import epstein
from sebalab.epstein import (EpsteinValue, LogDomainError, NonconvergenceError,
                             PoleError, RectangularForm, _zeta_star,
                             epstein_continued, epstein_direct,
                             ground_exponents, modified_moment,
                             modified_moment_slope, phi_Q,
                             shannon_entropy_series, symmetry_check,
                             zeta_Q_derivative)

F1 = RectangularForm(1.0)
F12 = RectangularForm(1.2)


def scalar_oracle(s: float) -> float:
    """4 zeta(s) beta(s) via independent scalar series (a = 1 only)."""
    with mp.workdps(30):
        beta = mp.mpf(4) ** -s * (mp.zeta(s, mp.mpf(1) / 4) - mp.zeta(s, mp.mpf(3) / 4))
        return float(4 * mp.zeta(s) * beta)


def brute_box(form: RectangularForm, s: float, half: int = 600) -> float:
    """Raw summation over the integer box [-half, half]^2 minus the origin."""
    g = np.arange(-half, half + 1, dtype=np.float64)
    mm, nn = np.meshgrid(g, g, sparse=True)
    q = form.a ** 2 * mm * mm + form.a ** -2 * nn * nn
    q[0 if half == 0 else half, half] = np.inf  # knock out the origin
    return float(np.sum(q ** -s))


# ----------------------------------------------------------------- direct --

@pytest.mark.parametrize("s", [2.0, 3.0])
def test_direct_matches_scalar_oracle(s):
    got = epstein_direct(F1, s, tol=1e-10)
    assert abs(got.value - scalar_oracle(s)) < 1e-10
    assert got.certified_error < 1e-10
    assert got.method == "direct"


def test_direct_value_pinned():
    # 25-digit reference for zeta_{Z^2}(2) = 4 zeta(2) beta(2) = pi^2/6 * 4G-ish
    assert abs(epstein_direct(F1, 2.0).value - 6.02681203969194012354626) < 1e-12


@pytest.mark.parametrize("form", [F1, F12])
def test_direct_matches_brute_box(form):
    # at s = 4 everything outside the box contributes < 1e-16
    got = epstein_direct(form, 4.0, tol=1e-12)
    assert abs(got.value - brute_box(form, 4.0)) < 1e-11


def test_direct_aspect_swap():
    va = epstein_direct(RectangularForm(1.2), 2.5).value
    vb = epstein_direct(RectangularForm(1 / 1.2), 2.5).value
    assert abs(va - vb) < 1e-12


def test_direct_positive_real_and_certified():
    v = epstein_direct(F12, 3.7)
    assert isinstance(v.value, float) and v.value > 0
    assert math.isfinite(v.certified_error)


def test_direct_precondition_and_nonconvergence():
    with pytest.raises(ValueError):
        epstein_direct(F1, 1.04)
    with pytest.raises(NonconvergenceError):
        epstein_direct(F1, 1.2, tol=1e-10)  # needs a hopeless shell radius
    # the derivative and the modified moments run the same shell loop: a
    # budget below the first radius, a tolerance out of reach, and a pinned
    # radius whose doublings pass the budget before the bound reaches tol
    with pytest.raises(NonconvergenceError):
        zeta_Q_derivative(F1, 2.0, r_max=1e3)
    with pytest.raises(NonconvergenceError):
        modified_moment(F1, 0.0, 1.2, tol=1e-10)
    with pytest.raises(NonconvergenceError):
        _zeta_star(F1, 0.0, 3.0, 1e-9, r_cut=10.0, r_max=100.0)


@pytest.mark.parametrize("a", [0.4, 1.0, 1.3, 1.4477750617969067])
@pytest.mark.parametrize("fn", [lambda q: q ** -1.5, lambda q: q ** -(1.5 + 2j)],
                         ids=["real", "complex"])
def test_lattice_pass_matches_double_loop(a, fn):
    # no value test sees a boundary error: a dropped point with Q = R lowers
    # the partial sum by R^-s, and the boundary term -R^-s E(R) gives it back.
    # Radii: points on the boundary (exactly at a = 1, to rounding else),
    # below 1/a^2 (empty column 0) and below a^2 (empty m axis).  A point is
    # in when a^-2 n^2 <= r - a^2 m^2 in float64; where float Q lies within
    # rounding of r this and Q <= r may differ, and either choice is exact
    # for the boundary term, which counts the same points
    a2, inv_a2 = a * a, 1.0 / (a * a)
    radii = [a2 * m * m + inv_a2 * n * n for m, n in ((3, 4), (5, 5), (1, 8), (7, 0), (0, 7))]
    radii += [25.0, 50.0, 65.0, 200.5, 0.5 * inv_a2, 0.5 * a2, 0.99 * min(a2, inv_a2)]
    for r in radii:
        m_hi, n_hi = int(math.sqrt(r / a2)) + 2, int(math.sqrt(r * a2)) + 2
        q = np.array([a2 * m * m + inv_a2 * n * n
                      for m in range(-m_hi, m_hi + 1) for n in range(-n_hi, n_hi + 1)
                      if (m, n) != (0, 0) and inv_a2 * n * n <= r - a2 * m * m])
        terms = fn(q)
        want = complex(math.fsum(terms.real), math.fsum(np.imag(terms)))
        got, count = epstein._sum_over_lattice(RectangularForm(a), r, fn)
        assert count == len(q), (r, count, len(q))
        assert abs(got - want) <= 1e-14 * np.abs(terms).sum(), (r, got, want)
        assert isinstance(got, complex) == np.iscomplexobj(terms) or not len(q)


def shell_passes(monkeypatch):
    """Record each lattice pass's radius and each shell sum's finish and tol."""
    passes, sums = [], []
    lattice, shell = epstein._sum_over_lattice, epstein._certified_shell_sum

    def counted(form, r_cut, fn):
        passes.append(r_cut)
        return lattice(form, r_cut, fn)

    def recorded(form, fn, finish, r_cut, tol, r_max):
        sums.append((finish, tol))
        return shell(form, fn, finish, r_cut, tol, r_max)

    monkeypatch.setattr(epstein, "_sum_over_lattice", counted)
    monkeypatch.setattr(epstein, "_certified_shell_sum", recorded)
    return passes, sums


@pytest.mark.parametrize("a", [1.0, 1.3])
@pytest.mark.parametrize("route, s, tol", [
    ("direct", 2.0, 1e-10), ("direct", 3.0, 1e-10),
    ("derivative", 2.0, 1e-8), ("zeta_star", 3.0, 1e-11)])
def test_shell_radius_is_minimal(monkeypatch, a, route, s, tol):
    # the radius is solved from the route's own bound: one lattice pass
    # meets tol, and 1% less radius would not
    form = RectangularForm(a)
    passes, sums = shell_passes(monkeypatch)
    if route == "direct":
        err = epstein_direct(form, s, tol=tol).certified_error
    elif route == "zeta_star":
        err = _zeta_star(form, 0.0, s, tol)[1]
    else:
        epstein._deriv_cached.cache_clear()
        zeta_Q_derivative(form, s, tol=tol)
        err = None
    assert len(passes) == 1 and len(sums) == 1
    (r,), ((finish, got_tol),) = passes, sums
    assert got_tol == tol
    bound = finish(0.0, 0.0, r)[1]
    assert bound <= tol and (err is None or err == bound)
    assert finish(0.0, 0.0, 0.99 * r)[1] > tol


# -------------------------------------------------------------- continued --

@pytest.mark.parametrize("s", [2.0, 2.7, 4.0, 6.0])
def test_cross_method_absolute(s):
    d = epstein_direct(F1, s, tol=1e-10).value
    c = epstein_continued(F1, s).value
    assert abs(d - c) < 1e-10


@pytest.mark.parametrize("s", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("form", [F1, F12])
def test_cross_method_certified_band(form, s):
    # below s ~ 2 a certified 1e-10 direct evaluation is out of reach (the
    # tail bound scales like R^{1/2-s}); the two routes must still agree
    # within the sum of their certificates
    tol = max(2e-13, 1.2 * 1.5 * s * math.pi * form.cell_diameter
              * (3.0e7) ** (0.5 - s) / (s - 0.5))
    d = epstein_direct(form, s, tol=tol)
    c = epstein_continued(form, s)
    assert abs(d.value - c.value) <= d.certified_error + c.certified_error


@pytest.mark.parametrize("a", [1.0, 1.2, 2.0])
@pytest.mark.parametrize("s", [-0.5, 0.25, 0.75, 1.5])
def test_functional_equation_residual(a, s):
    form = RectangularForm(a)
    lhs = epstein_continued(form, s).value
    rhs = phi_Q(s) * epstein_continued(form, 1.0 - s).value
    assert abs(lhs - rhs) < 1e-10


def test_continued_critical_point_self_consistency():
    # phi_Q(1/2) = 1 makes s = 1/2 a fixed point of the functional equation
    v = epstein_continued(F12, 0.5).value
    assert abs(v - phi_Q(0.5) * v) < 1e-15


def test_continued_poles():
    for s in (0.0, 1.0):
        with pytest.raises(PoleError):
            epstein_continued(F1, s)


def test_continued_negative_on_subcritical_interval():
    # zeta_Q(2q) < 0 throughout 0 < 2q < 1 for these aspect ratios; this is
    # what forces the complex-log route inside symmetry_check
    for a in (1.0, 1.2):
        form = RectangularForm(a)
        for s in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert epstein_continued(form, s).value < 0


def chowla_selberg(a: float, s: float, dps: int = 40) -> float:
    """zeta_Q(s) of a^2 m^2 + a^-2 n^2 by the Chowla-Selberg formula:

      2 a^{2s} zeta(2s) + 2 sqrt(pi) a^{2-2s} Gamma(s-1/2) zeta(2s-1)/Gamma(s)
        + 8 pi^s a^{2s}/Gamma(s) sum_{N>=1} K_{s-1/2}(2 pi N a^2)
                                  sum_{k | N} (k^2/(a^2 N))^{s-1/2}

    valid for real s away from 1, 1/2 and the poles of Gamma(s - 1/2), so on
    both sides of the critical strip.  The Bessel series runs through the
    first N with 2 pi N a^2 > 60, where K_{s-1/2} is below e^-60."""
    a = max(a, 1.0 / a)     # zeta_Q is symmetric under a -> 1/a
    with mp.workdps(dps):
        a, s = mp.mpf(a), mp.mpf(s)
        nu = s - mp.mpf(1) / 2
        val = (2 * a ** (2 * s) * mp.zeta(2 * s) + 2 * mp.sqrt(mp.pi) * a ** (2 - 2 * s)
               * mp.gamma(nu) * mp.zeta(2 * s - 1) * mp.rgamma(s))
        bessel = mp.mpf(0)
        for n in range(1, int(60 / (2 * math.pi * float(a) ** 2)) + 2):
            divisors = sum((mp.mpf(k) ** 2 / (a * a * n)) ** nu
                           for k in range(1, n + 1) if n % k == 0)
            bessel += divisors * mp.besselk(nu, 2 * mp.pi * n * a * a)
        return float(val + 8 * mp.pi ** s * a ** (2 * s) * mp.rgamma(s) * bessel)


def test_continued_within_certificate_at_irrational_aspect():
    # the lattice values a^2 m^2 + n^2/a^2 must be formed at working
    # precision: rounded to float64 they put this value 5 ulp off, outside
    # its certificate
    a = 1.4477750617969067
    v = epstein_continued(RectangularForm(a), 3.0)
    want = chowla_selberg(a, 3.0)
    assert abs(v.value - want) <= v.certified_error + 4 * 2.0 ** -53 * abs(want)


@pytest.mark.parametrize("a", [1.0, 1.2, 1.5, 2.0])
@pytest.mark.parametrize("s", [-0.4, 0.1, 0.3, 0.7, 0.9, 1.4])
def test_continued_matches_chowla_selberg_in_the_strip(a, s):
    # the continuation's bracket is symmetric under s <-> 1-s term by term,
    # so the functional equation cannot see a wrong lattice sum; an
    # independent route can, and it also checks the theta-sum cutoff
    v = epstein_continued(RectangularForm(a), s)
    want = chowla_selberg(a, s)
    assert abs(v.value - want) <= v.certified_error + 4 * 2.0 ** -53 * abs(want)


@pytest.mark.parametrize("a", [1.0, 1.3])
@pytest.mark.parametrize("s", [-2.5, 0.3, 0.7, 2.0, 3.0, 6.0])
@pytest.mark.parametrize("dps", [25, 30])
def test_continued_tail_negligible_against_rounding(a, s, dps):
    # the theta-sum cutoff leaves a tail far below the rounding term, so the
    # certificate is the rounding term alone to 1e-6
    v = epstein_continued(RectangularForm(a), s, dps=dps)
    rounding = 10.0 ** (2 - dps) * (abs(v.value) + 1.0)
    assert abs(v.certified_error - rounding) <= 1e-6 * rounding


@pytest.mark.parametrize("dps", [10, 12, 15])
@pytest.mark.parametrize("a", [0.4, 1.0, 1.3, 2.5])
@pytest.mark.parametrize("s", [-6.5, -0.4, 0.3, 0.5, 1.5, 2.0, 7.5, 0.5 + 3j])
def test_graded_precision_accurate_at_low_dps(dps, a, s):
    # at low dps float64 resolves the rounding of a point whose digits were
    # misjudged: the graded sum must stay within a 25th of the certificate's
    # rounding term of a dps-40 value (a rule with 4 fewer guard digits, or
    # one giving every graded point dps - 6, breaks this bound)
    form = RectangularForm(a)
    v = epstein_continued(form, s, dps=dps).value
    ref = epstein_continued(form, s, dps=40).value
    assert abs(v - ref) <= 4 * 10.0 ** -dps * (abs(ref) + 1)


def test_graded_dps_full_below_the_point_bound_and_never_above_dps():
    for dps in (3, 10, 25, 40):
        for s_abs in (0.0, 0.3, 2.0, 7.5, 16.0):
            for scale in (-3.0, 0.0, 2.5, 12.0):
                for x in np.linspace(0.05, 120.0, 400):
                    w = epstein._graded_dps(float(x), s_abs, dps, scale)
                    assert w <= dps
                    if x < 2.0 * (s_abs + 2.0):
                        assert w == dps
    # and far out the grading does cut digits
    assert epstein._graded_dps(70.0, 0.3, 25, 2.0) < 25


@pytest.fixture
def cold_continued():
    """A cold continuation cache, emptied again after the test."""
    epstein._continued_cached.cache_clear()
    yield
    epstein._continued_cached.cache_clear()


@pytest.mark.parametrize("a", np.arange(-7.5, 8.75, 0.5))
def test_far_tier_within_its_bound(a):
    # x^{1-a} e^x Gamma(a, x) against mpmath at 40 digits, from the far
    # tier's least x, 2(|a| + 2), to 120; at integer a >= 1 the series ends
    # and only rounding is left.  A copy that stops one term early, or
    # leaves the remainder out of the bound, fails here
    x = np.geomspace(2.0 * (abs(a) + 2.0), 120.0, 24)
    k = np.arange(1.0, epstein._FAR_TERMS)
    got, bound = epstein._asymptotic(a - k, max(1, math.ceil(a - 1.0)), x)
    with mp.workdps(40):
        want = [float(mp.gammainc(a, xi) * mp.mpf(xi) ** (1 - a) * mp.exp(xi)) for xi in x]
    assert np.all(np.abs(got - want) <= bound)
    # the bound is of use: float64 rounding alone once x >= 50
    assert np.all(bound[x >= 50.0] <= 1e-13 * np.abs(got[x >= 50.0]))


@pytest.mark.parametrize("s", [-6.5, -2.0, -0.4, 0.3, 0.5, 0.7, 1.4, 2.0, 3.0, 7.5])
def test_far_terms_within_their_bound(s):
    # the point term x^{-s} Gamma(s, x) + x^{s-1} Gamma(1-s, x); the order
    # 1 - s is never rounded, its factors are formed from s
    x = np.geomspace(2.0 * (abs(s) + 2.0), 120.0, 16)
    value, rel = epstein._far_terms(s, x)
    with mp.workdps(40):
        want = [float(mp.mpf(xi) ** -s * mp.gammainc(s, xi)
                      + mp.mpf(xi) ** (s - 1) * mp.gammainc(1 - mp.mpf(s), xi)) for xi in x]
    assert np.all(np.abs(value - want) <= rel * np.exp(-x) / x)


def test_lower_route_adds_digits_when_cancellation_underestimated(monkeypatch):
    # Gamma(a, 30) = Gamma(a) - gamma(a, 30) cancels ~14 digits at a = 0.3;
    # told that nothing cancels, the route must see the loss on its result
    # and redo the point with more digits, until the result holds them
    calls = []
    gammainc = mp.gammainc

    def counted(*args, **kwargs):
        calls.append(args)
        return gammainc(*args, **kwargs)

    monkeypatch.setattr(epstein, "_cancelled_digits", lambda *args: 0)
    monkeypatch.setattr(mp, "gammainc", counted)
    for a in (0.3, -2.7):
        calls.clear()
        with mp.workdps(25):
            order = mp.mpf(a)
            got = epstein._upper_gamma(order)(mp.mpf(30), 12)
        with mp.workdps(40):
            want = gammainc(order, 30)
            assert abs(got - want) <= 10.0 ** -12 * abs(want)
        assert len(calls) >= 2


def test_continued_needs_few_upper_gammas(monkeypatch, cold_continued):
    # a = 1.2, s = 0.3, dps 25 has 24 theta-sum points, 48 upper-gamma calls
    # on the per-point route: the far tier takes the far points in closed
    # form (without it, 48 lower gammas) and the others subtract a lower
    # gamma from one Gamma(a)
    calls = []
    gammainc = mp.gammainc

    def counted(z, a=0, b=mp.inf, **kwargs):
        calls.append(b == mp.inf)
        return gammainc(z, a, b, **kwargs)

    monkeypatch.setattr(mp, "gammainc", counted)
    v = epstein_continued(F12, 0.3)
    assert sum(calls) < 46 and len(calls) < 46    # upper gammas, all gammas
    want = chowla_selberg(1.2, 0.3)
    assert abs(v.value - want) <= v.certified_error + 4 * 2.0 ** -53 * abs(want)


def test_dropped_lattice_point_fails_the_independent_check_only(monkeypatch, cold_continued):
    # drop the points (+-1, +-1) from the theta sum: Chowla-Selberg sees the
    # wrong sum in the strip, while the reflection law, whose bracket is
    # symmetric under s <-> 1 - s term by term, still holds to rounding
    points = epstein._theta_points
    monkeypatch.setattr(epstein, "_theta_points",
                        lambda *args: [p for p in points(*args) if p[:2] != (1, 1)])
    for a in (1.0, 1.2):
        for s in (-0.4, 0.3, 0.7, 1.4):
            v = epstein_continued(RectangularForm(a), s)
            want = chowla_selberg(a, s)
            assert abs(v.value - want) > v.certified_error + 4 * 2.0 ** -53 * abs(want)
        for q in (0.05, 0.15, 0.35, 0.45):
            assert symmetry_check(RectangularForm(a), q) < 1e-8


@pytest.mark.parametrize("dps", [0, -3])
def test_non_positive_dps_rejected(dps):
    with pytest.raises(ValueError, match="dps must be a positive integer"):
        epstein_continued(F12, 0.3, dps=dps)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_non_positive_tol_rejected(tol):
    # an input error, not a computation that failed to converge
    with pytest.raises(ValueError, match="tol must be positive"):
        epstein_direct(F1, 2.0, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        zeta_Q_derivative(F1, 2.0, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        _zeta_star(F1, 0.0, 2.0, tol)


# -------------------------------------------------------------------- phi --

def test_phi_basics():
    assert abs(phi_Q(0.5) - 1.0) < 1e-15
    assert abs(phi_Q(0.3) * phi_Q(0.7) - 1.0) < 1e-14
    for s in (2.0, 1.0, 0.0, -3.0):
        with pytest.raises(PoleError):
            phi_Q(s)


# -------------------------------------------------- ground exponents, D*_q --

def test_ground_exponents_q2_oracle():
    _, D2 = ground_exponents(F1, 2.0)
    z4 = scalar_oracle(4.0)
    z2 = scalar_oracle(2.0)
    assert abs(D2 - (math.log(z4) - 2 * math.log(z2)) / (-1.0)) < 1e-12


def test_shannon_branch_and_continuity():
    d1, D1 = ground_exponents(F1, 1.0)
    assert abs(d1 - math.log(scalar_oracle(2.0))) < 1e-12
    # removable singularity: D*_q continuous through q = 1
    for q in (1.0001, 0.9999):
        _, Dq = ground_exponents(F1, q)
        assert abs(Dq - D1) < 1e-3


@pytest.mark.parametrize("form", [F1, F12])
def test_shannon_series_consistency(form):
    # limit branch (continuation route) against the explicit entropy series
    # -sum mu log mu (direct summation route)
    _, D1 = ground_exponents(form, 1.0)
    assert abs(D1 - shannon_entropy_series(form)) < 1e-8


def test_ground_exponents_domain_errors():
    with pytest.raises(PoleError):
        ground_exponents(F1, 0.5)
    with pytest.raises(PoleError):
        ground_exponents(F1, 0.0)
    with pytest.raises(LogDomainError):
        ground_exponents(F1, 0.3)  # zeta_Q(0.6) < 0


# ----------------------------------------------------------------- symmetry --

@pytest.mark.parametrize("a", [1.0, 1.2])
@pytest.mark.parametrize("q", [0.05, 0.15, 0.25, 0.35, 0.45])
def test_symmetry_residual_grid(a, q):
    assert symmetry_check(RectangularForm(a), q) < 1e-8


def test_symmetry_fixed_point_exact():
    # q = 1/4 compares D*_{1/4} with itself: the residual is exactly zero
    assert symmetry_check(F1, 0.25) == 0.0
    assert symmetry_check(F12, 0.25) == 0.0


def test_symmetry_pole_propagation():
    with pytest.raises(PoleError):
        symmetry_check(F1, 0.0)
    with pytest.raises(PoleError):
        symmetry_check(F1, 0.5)


@pytest.mark.parametrize("q", [0.75, 0.9, 1.25, 2.25])
def test_symmetry_beyond_the_strip(q):
    # outside (0, 1/2) the partner exponent reflects through negative
    # arguments; the branch-quantum reduction must leave a clean residual
    assert symmetry_check(F1, q) < 1e-8
    assert symmetry_check(F12, q) < 1e-8


def test_symmetry_integer_2q_degenerates():
    for q in (1.0, 1.5, 2.0, -0.5):
        with pytest.raises(PoleError):
            symmetry_check(F1, q)


def test_continued_trivial_zeros():
    for s in (-1.0, -2.0, -3.0):
        v = epstein_continued(F12, s)
        assert v.value == 0.0
        assert v.certified_error < 1e-20


# --------------------------------------------------------------- derivative --

def test_derivative_finite_difference_oracle():
    h = 1e-5
    fd = (epstein_direct(F1, 2.0 + h).value
          - epstein_direct(F1, 2.0 - h).value) / (2 * h)
    assert abs(zeta_Q_derivative(F1, 2.0) - fd) < 1e-6


def test_derivative_scalar_product_rule():
    # a = 1: d/ds [4 zeta(s) beta(s)] via mpmath derivatives; each value
    # must lie within its certified tolerance
    with mp.workdps(30):
        f = lambda s: 4 * mp.zeta(s) * mp.mpf(4) ** -s * (
            mp.zeta(s, mp.mpf(1) / 4) - mp.zeta(s, mp.mpf(3) / 4))
        for s, tol in ((2.0, 1e-8), (3.0, 1e-11)):
            oracle = float(mp.diff(f, mp.mpf(s)))
            assert abs(zeta_Q_derivative(F1, s, tol=tol) - oracle) < tol


def test_derivative_aspect_swap_and_domain():
    assert abs(zeta_Q_derivative(RectangularForm(1.3), 2.5)
               - zeta_Q_derivative(RectangularForm(1 / 1.3), 2.5)) < 1e-8
    with pytest.raises(ValueError):
        zeta_Q_derivative(F1, 1.0)


# ----------------------------------------------------------- modified moment --

def test_modified_moment_normalizations():
    assert modified_moment(F1, 0.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    z3 = epstein_continued(F1, 3.0).value
    z2 = epstein_continued(F1, 2.0).value
    assert abs(modified_moment(F1, 0.0, 3.0) - z3 / z2 ** 1.5) < 1e-8
    # zeta*_0(s) = zeta_Q(s): each shell sum meets tol and holds its
    # certificate against the continuation
    for form in (F1, F12):
        for s, tol in ((2.5, 1e-11), (3.0, 1e-9), (3.0, 1e-12)):
            value, err = _zeta_star(form, 0.0, s, tol)
            want = epstein_continued(form, s)
            assert err <= tol
            assert abs(value - want.value) <= (err + want.certified_error
                                               + 4 * 2.0 ** -53 * abs(want.value))


def test_modified_moment_slope_fd():
    # shared lattice set across lambdas so truncation cancels in differences;
    # Richardson step halving removes the O(lambda) bias of the one-sided
    # difference (lambda must stay >= 0)
    lam = 1e-4
    r_cut = 2.0e6
    m0 = modified_moment(F1, 0.0, 3.0, r_cut=r_cut)
    m1 = modified_moment(F1, lam, 3.0, r_cut=r_cut)
    m2 = modified_moment(F1, lam / 2, 3.0, r_cut=r_cut)
    fd = 2 * (2 * (m2 - m0) / lam) - (m1 - m0) / lam
    assert abs(fd - modified_moment_slope(F1, 3.0)) < 1e-6


def test_modified_moment_slope_pinned():
    assert abs(modified_moment_slope(F1, 3.0) - 0.137868065303252) < 1e-9


def test_modified_moment_lambda_domain():
    with pytest.raises(ValueError):
        modified_moment(F1, 1.0, 3.0)   # lambda hits the smallest Q value
    with pytest.raises(ValueError):
        modified_moment(F1, -0.1, 3.0)
    with pytest.raises(ValueError):
        modified_moment(F12, F12.min_nonzero, 3.0)


# ------------------------------------------------------------------- types --

def test_form_validation():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            RectangularForm(bad)
    assert F12.Q(1, 0) == pytest.approx(1.44)
    assert F12.Q(0, 1) == pytest.approx(1 / 1.44)
    assert F12.Q(-2, -3) == F12.Q(2, 3)


@pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
def test_form_rejects_non_finite_aspect(a):
    # at a = inf every q = n^2/a^2 is 0 and the continuation's lattice
    # loop would never end
    with pytest.raises(ValueError, match="a must be a positive finite real, got"):
        RectangularForm(a)


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan,
                               complex(2.0, math.inf)])
def test_non_finite_s_rejected(s):
    with pytest.raises(ValueError, match="s must be finite"):
        epstein_continued(F1, s)
    with pytest.raises(ValueError, match="s must be finite"):
        epstein_direct(F1, s)
    with pytest.raises(ValueError, match="s must be finite"):
        phi_Q(s)
    # the shell routes reject it too, instead of running to their budget
    with pytest.raises(ValueError, match="s must be finite"):
        zeta_Q_derivative(F1, s)
    with pytest.raises(ValueError, match="s must be finite"):
        modified_moment(F1, 0.0, s)


def test_epstein_value_fields():
    v = epstein_continued(F1, 1.5)
    assert isinstance(v, EpsteinValue)
    assert v.method == "continued"
    assert v.s == 1.5 and v.value > 0 and v.certified_error < 1e-12
