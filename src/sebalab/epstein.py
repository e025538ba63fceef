"""Epstein zeta functions of rectangular determinant-one forms.

The form is Q(m, n) = a^2 m^2 + a^{-2} n^2 on Z^2 (covolume 1, self-dual up
to the coordinate swap).  Three evaluation routes live here:

  * epstein_direct  -- lattice summation over growing elliptical shells with
    an exact integral tail correction and a certified geometric error bound,
    valid for Re s > 1 + margin;
  * epstein_continued -- the incomplete-gamma (theta-transform)
    representation

      pi^{-s} Gamma(s) zeta_Q(s) = -1/s - 1/(1-s)
        + sum_{xi != 0} [ (pi Q)^{-s} Gamma(s, pi Q(xi))
                        + (pi Q)^{s-1} Gamma(1-s, pi Q(xi)) ],

    which converges exponentially and is valid on both sides of the critical
    line (poles at s = 0, 1 only).  Each point's two gammas get the digits
    its size needs: dps below x = pi Q(xi) = 2(|s| + 2); beyond, where the
    point adds at most 4 mult |pi^s/Gamma(s)| e^{-x}/x, just enough that
    the graded points together add at most 10^{-dps} (1% of the
    certificate's 10^{2-dps} rounding term), each 1/#points of it.  Each
    point takes the cheaper of two evaluators that meets that share:

      - far points at real s, in float64 and closed form: the term is
        (e^{-x}/x) [A(s, x) + A(1-s, x)] with A(a, x) = sum_{k<n} u_k(a)/x^k,
        u_k(a) = (a-1)(a-2)...(a-k), the asymptotic series of Gamma(a, x).
        For real a, x > 0 and n >= a - 1 its remainder is bounded by the
        first neglected term (DLMF 8.11(i)).  A point takes this tier when
        that remainder plus the float64 rounding (x's own rounding from
        working precision included), computed at run time, is within the
        point's share 10^{-w} of 4 e^{-x}/x;
      - the other points in mpmath at the graded digits w: for real
        non-integer orders a (s and 1 - s) Gamma(a, x) = Gamma(a) -
        gamma(a, x), with Gamma(a) computed once per value and gamma(a, x)
        at w digits plus the ones the subtraction cancels, estimated from
        Gamma(a, x) ~ x^{a-1} e^{-x}, plus 2.  The digits actually lost are
        checked on each result, and a point that lost more is redone with
        more digits.  Integer orders (where Gamma has poles or the
        closed form is cheap) and complex s take mpmath's upper gammainc.
  * the functional equation zeta_Q(s) = phi_Q(s) zeta_Q(1-s) with
    phi_Q(s) = pi^{2s-1} Gamma(1-s)/Gamma(s), used as a consistency check.

On top of these sit the ground-state multifractal exponents
d*_q = log zeta_Q(2q), D*_q = (d*_q - q log zeta_Q(2))/(1 - q), their
Shannon limit at q = 1, and the q <-> 1/2 - q symmetry residual.

A derivation note on the symmetry relation: combining the definition of d*
with the functional equation at s = 2q gives

    d*_{1/2-q} = log zeta_Q(1 - 2q) = d*_q - log phi_Q(2q),

i.e. the reflection picks up *minus* log phi_Q(2q).  The residual computed
by symmetry_check uses this sign (the version with a plus sign is
inconsistent with the functional equation and fails numerically by O(1)).

zeta_Q(2q) is negative on 0 < 2q < 1 for the aspect ratios of interest, so
symmetry_check works with principal complex logarithms internally; the
imaginary parts cancel in the residual.  The public real-valued
ground_exponents refuses (raises LogDomainError) when zeta_Q(2q) <= 0.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple, Union

import mpmath as mp
import numpy as np

Number = Union[float, complex]

_MP_LOCK = threading.Lock()  # mpmath precision state is process-global
DIRECT_MIN_RE_S = 1.05       # the direct shell routes need Re s above this


class PoleError(ValueError):
    """Evaluation requested at a pole of the zeta function or of phi_Q."""


class LogDomainError(ValueError):
    """log zeta_Q requested where zeta_Q <= 0 on the real axis."""


class NonconvergenceError(RuntimeError):
    """The certified error bound cannot reach tol within the shell budget."""


@dataclass(frozen=True)
class RectangularForm:
    """Q(m, n) = a^2 m^2 + a^{-2} n^2 with a > 0; determinant fixed to 1."""

    a: float

    def __post_init__(self):
        if not (isinstance(self.a, (int, float)) and 0 < self.a < math.inf):
            raise ValueError(f"a must be a positive finite real, got {self.a!r}")

    def Q(self, m: float, n: float) -> float:
        return self.a ** 2 * m * m + self.a ** -2 * n * n

    @property
    def cell_diameter(self) -> float:
        """Diameter of the fundamental cell of diag(a, 1/a) Z^2."""
        return math.hypot(self.a, 1.0 / self.a)

    @property
    def min_nonzero(self) -> float:
        """Smallest nonzero value of Q, attained on an axis."""
        return min(self.a ** 2, self.a ** -2)


def _check_finite(s: Number) -> None:
    if not cmath.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")


@dataclass(frozen=True)
class EpsteinValue:
    s: Number
    value: Number
    method: str  # "direct" or "continued"
    certified_error: float


# ---------------------------------------------------------------------------
# direct route: elliptical shells + integral tail
# ---------------------------------------------------------------------------

def _sum_over_lattice(form: RectangularForm, r_cut: float,
                      fn: Callable[[np.ndarray], np.ndarray]) -> Tuple[Number, int]:
    """Sum fn(Q(xi)) over nonzero xi with Q(xi) <= r_cut; also count points.

    Enumerates one quadrant per column of constant m >= 0, n >= 1, plus the
    m axis, and folds in the two-fold (axes) / four-fold (interior)
    multiplicities.  Column sums are combined with compensated summation.
    """
    a2 = form.a * form.a
    inv_a2 = 1.0 / a2
    # columns m = 0..m_max: q0 = a2 m^2 <= r_cut, and n <= top[m] with
    # inv_a2 n^2 <= r_cut - q0; the square roots guess top from above
    marr = np.arange(float(int(math.sqrt(r_cut * inv_a2)) + 2))
    q0 = a2 * marr * marr
    q0 = q0[q0 <= r_cut]
    rem = r_cut - q0
    top = np.floor(np.sqrt(rem * a2)) + 1.0
    while (over := inv_a2 * top * top > rem).any():
        top -= over
    # every column's offsets inv_a2 n^2 are a prefix of column 0's
    narr = np.arange(1.0, top[0] + 1.0)
    offsets = inv_a2 * narr * narr

    sums = [np.sum(fn(q0[1:]))] + [np.sum(fn(q0[m] + offsets[:int(top[m])]))
                                   for m in range(len(q0))]
    # the m axis and column 0 (the n axis) count twice, other columns four times
    weights = np.full(len(sums), 4.0)
    weights[:2] = 2.0
    parts = weights * np.array(sums)
    total: Number = math.fsum(parts.real)
    if np.iscomplexobj(parts):
        total = complex(total, math.fsum(parts.imag))
    return total, int(2 * (len(q0) - 1) + 2 * top[0] + 4 * top[1:].sum())


def _bound_radius(finish, tol: float, r_max: float) -> float:
    """Smallest r >= 1e4, to 0.1%, whose bound finish(., ., r)[1] is <= tol.

    The bound depends on r alone and falls with it: bisect on log r.
    Returns 2 r_max when no radius within the budget meets tol.
    """
    lo, hi = 1.0e4, 1.0e4 if finish(0.0, 0.0, 1.0e4)[1] <= tol else 2.0 * r_max
    while hi > 1.001 * lo:
        mid = math.sqrt(lo * hi)
        lo, hi = (lo, mid) if finish(0.0, 0.0, mid)[1] <= tol else (mid, hi)
    return hi


def _certified_shell_sum(form: RectangularForm, fn, finish, r_cut: float,
                         tol: float, r_max: float):
    """Sum fn(Q(xi)) over Q(xi) <= r_cut, doubling r_cut until certified.

    finish(partial, e_boundary, r_cut) completes the partial sum in closed
    form, given e_boundary = N(r_cut) - pi r_cut from the enumeration, and
    returns (value, certified error).  r_cut = 0 starts at the smallest
    radius whose bound meets tol.  Returns the first pair whose error is
    <= tol; raises NonconvergenceError once r_cut passes the budget r_max,
    and ValueError for a tol that is not positive.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    r_cut = r_cut or _bound_radius(finish, tol, r_max)
    while r_cut <= r_max:
        partial, npoints = _sum_over_lattice(form, r_cut, fn)
        value, err = finish(partial, npoints - math.pi * r_cut, r_cut)
        if err <= tol:
            return value, err
        r_cut *= 2.0
    raise NonconvergenceError(
        f"certified bound cannot reach tol={tol} within shell radius {r_max:.3g}")


def epstein_direct(form: RectangularForm, s: Number, tol: float = 1e-10,
                   r_max: float = 8.0e7) -> EpsteinValue:
    """zeta_Q(s) by shell summation, Re s > 1.05, with certified error.

    The partial sum over Q <= R is completed by the exact area term
    pi R^{1-s}/(s-1) and the exact boundary term -R^{-s} E(R) with
    E(R) = N(R) - pi R known from the enumeration; what remains is
    |s| int_R^inf t^{-s-1} E(t) dt, bounded via |E(t)| <= pi d sqrt(t)
    + pi d^2/4 (fundamental-cell covering argument for a covolume-1
    lattice with cell diameter d).
    """
    _check_finite(s)
    sigma = s.real if isinstance(s, complex) else float(s)
    if sigma <= DIRECT_MIN_RE_S:
        raise ValueError(f"epstein_direct requires Re s > {DIRECT_MIN_RE_S} "
                         "(use epstein_continued below the margin)")
    s_abs = abs(s)
    d = form.cell_diameter

    def finish(partial, e_boundary, r):
        value = (partial + math.pi * r ** (1 - s) / (s - 1)
                 - r ** (-s) * e_boundary)
        tail = s_abs * (math.pi * d * r ** (0.5 - sigma) / (sigma - 0.5)
                        + (math.pi * d * d / 4.0) * r ** (-sigma) / sigma)
        return value, tail + 1e-13

    value, bound = _certified_shell_sum(
        form, lambda q: q ** (-s), finish, 0.0, tol, r_max)
    if not isinstance(s, complex):
        value = float(value.real) if isinstance(value, complex) else float(value)
    return EpsteinValue(s=s, value=value, method="direct", certified_error=bound)


def zeta_Q_derivative(form: RectangularForm, s: float, tol: float = 1e-8,
                      r_max: float = 8.0e7) -> float:
    """zeta_Q'(s) = -sum Q^{-s} log Q for real s > 1.05, certified tail.

    Same shell machinery as epstein_direct applied to g(t) = t^{-s} log t:
    the tail integral pi int_R^inf g dt = pi R^{1-s}(log R/(s-1) + 1/(s-1)^2)
    and boundary term R^{-s} log R * E(R) are exact; the remainder is bounded
    using |g'(t)| <= (1 + s log t) t^{-s-1}.
    """
    _check_finite(s)
    return _deriv_cached(float(form.a), float(s), float(tol), float(r_max))


@lru_cache(maxsize=256)
def _deriv_cached(a: float, s: float, tol: float, r_max: float) -> float:
    form = RectangularForm(a)
    if s <= DIRECT_MIN_RE_S:
        raise ValueError(f"zeta_Q_derivative requires s > {DIRECT_MIN_RE_S}")
    d = form.cell_diameter

    def finish(partial, e_boundary, r):
        log_r = math.log(r)
        value = (-partial
                 - math.pi * r ** (1 - s) * (log_r / (s - 1) + (s - 1) ** -2)
                 + r ** (-s) * log_r * e_boundary)
        return value, (math.pi * d * r ** (0.5 - s) / (s - 0.5)
                       * (1.0 + s * (log_r + 1.0 / (s - 0.5)))
                       + (math.pi * d * d / 4.0) * r ** (-s) / s
                       * (1.0 + s * (log_r + 1.0 / s))) + 1e-13

    value, _ = _certified_shell_sum(
        form, lambda q: q ** (-s) * np.log(q), finish, 0.0, tol, r_max)
    return float(value)


# ---------------------------------------------------------------------------
# continued route: incomplete-gamma representation
# ---------------------------------------------------------------------------

def _continued_cutoff(s_abs: float, dps: int) -> float:
    # per-term gamma bounds need pi*Qc >= 2(|s| + 2); the dps term puts the
    # tail e^{-pi Qc} ~1e-8 below the 10^{2-dps} rounding term; points past
    # 2(|s| + 2) obey that bound too and get graded digits (module docstring)
    return max((2.0 * (s_abs + 2.0) + 4.0) / math.pi + 1.0,
               dps * math.log(10) / math.pi + 6.0)


def _graded_dps(x: float, s_abs: float, dps: int, scale: float) -> int:
    """Digits for one theta-sum point's gammas at x = pi Q(xi): dps, or fewer
    but >= 5; scale = log10(4 mult max(1, |pi^s/Gamma(s)|)) + guard."""
    if x < 2.0 * (s_abs + 2.0):
        return dps
    return min(dps, max(5, math.ceil(dps + scale - math.log10(x) - x / math.log(10))))


def _theta_points(a2, q_cut: float) -> list:
    """(m, n, Q) for m, n >= 0, not both 0, with Q = a2 m^2 + n^2/a2 <= q_cut.

    a2 = a^2 at working precision; each point stands for its 4 (interior) or
    2 (axis) images under sign changes.
    """
    points = []
    m = 0
    while (q0 := a2 * m * m) <= q_cut:
        n = 0 if m > 0 else 1
        while (q := q0 + n * n / a2) <= q_cut:
            points.append((m, n, q))
            n += 1
        m += 1
    return points


_FAR_TERMS = 64          # terms of the asymptotic series the far tier holds
_U = 2.0 ** -53          # unit roundoff of float64


def _asymptotic(factors: np.ndarray, n_min: int, x: np.ndarray):
    """(A, bound) for x^{1-a} e^x Gamma(a, x) ~ A = sum_{k<n} u_k(a)/x^k.

    u_k(a) = (a-1)(a-2)...(a-k), with factors[k-1] = a - k rounded once.  At
    each x the sum stops at the n >= n_min whose first neglected term is
    smallest; for real a, x > 0 and n >= max(1, a - 1) that term bounds the
    remainder (DLMF 8.11(i)).  The bound adds the rounding, to first order:
    4k u on term k (its factors, divisions and products, and x's own
    rounding from working precision) and (n - 1) u on the sum.
    """
    terms = np.ones((len(factors) + 1, len(x)))
    np.cumprod(factors[:, None] / x, axis=0, out=terms[1:])
    size = np.abs(terms)
    n = n_min + np.argmin(size[n_min:], axis=0)
    k = np.arange(len(terms))[:, None]
    kept = k < n
    total = np.where(kept, terms, 0.0).sum(axis=0)
    rounding = _U * np.where(kept, size * (4 * k + n), 0.0).sum(axis=0)
    return total, size[n, np.arange(len(x))] + rounding


def _far_terms(s: float, x: np.ndarray):
    """x^{-s} Gamma(s, x) + x^{s-1} Gamma(1-s, x) at real s, in float64.

    Both terms are e^{-x}/x times the asymptotic sum of their order, so
    the point needs no power and no gammainc call.  Returns the values and
    their error bounds in units of e^{-x}/x: the two sums' bounds plus
    (x + 10) u, for x's rounding in e^{-x} (x u) and in the division, the
    exponential (4 u), the division, the sum, the product and the caller's
    final fsum, padded by 1% for the higher orders.
    """
    k = np.arange(1.0, _FAR_TERMS)
    a_s, bound_s = _asymptotic(s - k, max(1, math.ceil(s - 1.0)), x)
    a_r, bound_r = _asymptotic((1.0 - k) - s, max(1, math.ceil(-s)), x)
    rel = 1.01 * (bound_s + bound_r + (x + 10.0) * _U * (np.abs(a_s) + np.abs(a_r)))
    return np.exp(-x) / x * (a_s + a_r), rel


def _cancelled_digits(log_gamma: float, a: float, x: float) -> int:
    """Digits Gamma(a) - gamma(a, x) cancels, from Gamma(a, x) ~ x^{a-1} e^{-x}."""
    return max(0, math.ceil(log_gamma - (a - 1.0) * math.log10(x) + x / math.log(10)))


def _upper_gamma(a):
    """f(x, w): Gamma(a, x) to w digits.

    For real non-integer a, Gamma(a) - gamma(a, x): Gamma(a) is computed once
    (again only when a point needs more digits) and gamma(a, x) at w digits
    plus the ones the subtraction cancels plus 2.  The cancellation is
    checked on the result, and the point is redone with more digits when it
    lost more than one digit beyond the estimate.  Other orders take
    mpmath's upper gammainc at w digits.
    """
    if not isinstance(a, mp.mpf) or mp.isint(a):
        def upper(x, w):
            with mp.workdps(w):
                return mp.gammainc(a, a=x)
        return upper
    held = [mp.mp.dps, mp.gamma(a)]    # digits, Gamma(a)
    log_gamma = float(mp.log10(abs(held[1])))

    def upper(x, w):
        lost = _cancelled_digits(log_gamma, float(a), float(x))
        while True:
            digits = w + lost + 2
            with mp.workdps(digits):
                if digits > held[0]:
                    held[:] = [digits, mp.gamma(a)]
                g = held[1] - mp.gammainc(a, 0, x)
            seen = (math.ceil((mp.mag(held[1]) - mp.mag(g)) * math.log10(2))
                    if g > 0 else digits)
            if seen <= lost + 1:
                return g
            lost = seen

    return upper


@lru_cache(maxsize=4096)
def _continued_cached(a: float, s_key: complex, dps: int) -> Tuple[complex, float]:
    form = RectangularForm(a)
    s_abs = abs(s_key)
    q_cut = _continued_cutoff(s_abs, dps)
    d = form.cell_diameter
    real = s_key.imag == 0
    with _MP_LOCK, mp.workdps(dps):
        s = mp.mpmathify(s_key.real) if real else mp.mpc(s_key)
        pi = mp.pi
        bracket = -1 / s - 1 / (1 - s)
        # lattice values at working precision, not float64
        points = [(4 if m and n else 2, pi * q)
                  for m, n, q in _theta_points(mp.mpf(a) ** 2, q_cut)]
        mult_f = np.array([p[0] for p in points], dtype=float)
        x_f = np.array([float(p[1]) for p in points])
        # rgamma is entire: at s = -1, -2, ... the reciprocal vanishes and
        # the trivial zeros of zeta_Q come out as exact zeros, no pole
        prefactor = pi ** s * mp.rgamma(s)
        # guard log10(#points): each graded point may add 10^{-dps}/#points
        scale = math.log10(4 * len(points)) + float(mp.log10(max(1, abs(prefactor))))
        w = np.array([_graded_dps(x, s_abs, dps, scale + math.log10(m))
                      for m, x in zip(mult_f, x_f)], dtype=int)
        # far tier: graded points whose float64 bound is within their share,
        # 10^{-w} of the point bound 4 e^{-x}/x
        far = np.zeros(len(points), dtype=bool)
        if real and s_abs < _FAR_TERMS - 1:
            far = x_f >= 2.0 * (s_abs + 2.0)
            value, rel = _far_terms(s_key.real, x_f[far])
            ok = rel <= 4.0 * 10.0 ** -w[far].astype(float)
            bracket += math.fsum(mult_f[far][ok] * value[ok])
            far[far] = ok
        s1 = 1 - s
        upper, upper1 = _upper_gamma(s), _upper_gamma(s1)
        for i in np.flatnonzero(~far):
            mult, x = points[i]
            g = upper(x, int(w[i]))
            g1 = g if s1 == s else upper1(x, int(w[i]))   # shared only where 1 - s == s
            bracket += mult * (x ** (-s) * g + x ** (s - 1) * g1)
        zeta = prefactor * bracket
        # certified truncation tail: per-point bound 4 e^{-pi Q}/(pi Q) and a
        # unit-shell point-count bound pi(1 + 2 d sqrt(t+1) + d^2/2)
        c_shell = 4.0 * ((1.0 + d * d / 2.0) / q_cut + 4.0 * d / math.sqrt(q_cut))
        tail = 1.05 * c_shell * mp.e ** (-pi * q_cut) * abs(prefactor)
        rounding = mp.mpf(10) ** (2 - dps) * (abs(zeta) + 1)
        err = float(tail + rounding)
        z = complex(zeta)
    return z, err


def epstein_continued(form: RectangularForm, s: Number, dps: int = 25) -> EpsteinValue:
    """zeta_Q(s) for any s except the poles s = 0 and s = 1.

    Uses the theta-transform representation (module docstring); convergence
    is exponential, so the lattice cutoff is tiny and the certified error is
    dominated by working-precision rounding.
    """
    _check_finite(s)
    s_c = complex(s)
    if s_c == 0 or s_c == 1:
        raise PoleError(f"zeta_Q has its pole structure at s={s}; not evaluable")
    if int(dps) < 1:
        raise ValueError(f"dps must be a positive integer, got {dps}")
    value, err = _continued_cached(float(form.a), s_c, int(dps))
    out: Number = value
    if not isinstance(s, complex) and abs(value.imag) <= 1e-18 + 1e-12 * abs(value.real):
        out = value.real
    return EpsteinValue(s=s, value=out, method="continued", certified_error=err)


def phi_Q(s: Number) -> Number:
    """Scattering factor phi_Q(s) = pi^{2s-1} Gamma(1-s)/Gamma(s).

    phi_Q(1/2) = 1 and phi_Q(s) phi_Q(1-s) = 1.  Integer s hits a gamma pole
    on one side or the other and raises PoleError.
    """
    _check_finite(s)
    s_c = complex(s)
    if s_c.imag == 0 and s_c.real == int(s_c.real):
        raise PoleError(f"phi_Q pole/zero degeneracy at integer s={s}")
    with _MP_LOCK, mp.workdps(30):
        sm = mp.mpmathify(s_c.real) if s_c.imag == 0 else mp.mpc(s_c)
        val = mp.pi ** (2 * sm - 1) * mp.gamma(1 - sm) / mp.gamma(sm)
        out = complex(val)
    if isinstance(s, complex):
        return out
    return float(out.real)


# ---------------------------------------------------------------------------
# ground-state exponents and the q <-> 1/2 - q symmetry
# ---------------------------------------------------------------------------

def ground_exponents(form: RectangularForm, q: float,
                     dps: int = 25) -> Tuple[float, float]:
    """(d*_q, D*_q) with d*_q = log zeta_Q(2q), D*_q = (d*_q - q d*_1)/(1-q).

    q = 1 returns the Shannon limit branch
    D*_1 = log zeta_Q(2) - 2 zeta_Q'(2)/zeta_Q(2).  Requires zeta_Q(2q) > 0;
    raises LogDomainError otherwise (no real logarithm exists there).
    """
    q = float(q)
    if 2 * q in (0.0, 1.0):
        raise PoleError("2q hits a pole of zeta_Q at 0 or 1")
    z2 = epstein_continued(form, 2.0, dps=dps).value
    if q == 1.0:
        deriv = zeta_Q_derivative(form, 2.0)
        d_star = math.log(z2)
        return d_star, d_star - 2.0 * deriv / z2
    z2q = epstein_continued(form, 2.0 * q, dps=dps).value
    if not isinstance(z2q, float) or z2q <= 0.0:
        raise LogDomainError(
            f"zeta_Q({2 * q}) = {z2q} <= 0: real d*_q undefined; "
            "symmetry_check handles this range internally with complex logs")
    d_star = math.log(z2q)
    return d_star, (d_star - q * math.log(z2)) / (1.0 - q)


def _d_complex(form: RectangularForm, q: float, dps: int) -> complex:
    z = epstein_continued(form, 2.0 * q, dps=dps).value
    return cmath.log(complex(z))


def symmetry_check(form: RectangularForm, q: float, dps: int = 25) -> float:
    """Residual of the reflection law relating D*_q and D*_{1/2-q}.

    residual = | D*_{1/2-q} - ((1-q)/(1/2+q)) * ( D*_q +
                 ( -log phi_Q(2q) + (2q - 1/2) log zeta_Q(2) ) / (1-q) ) |

    (minus sign on log phi_Q(2q); see the module docstring).  Logarithms are
    principal complex logs — zeta_Q(2q) < 0 across 0 < 2q < 1 — and for
    q inside (0, 1/2) the imaginary parts cancel as they stand.  Outside the
    critical strip one of zeta_Q(1-2q), phi_Q(2q) crosses the negative real
    axis and the principal branch jumps; the underlying identity holds
    modulo 2*pi*i in the logs, which enters the residual only through the
    fixed quantum 2*pi/(1/2+q), so the residual is reduced modulo that
    quantum.  Inside the strip the reduction is a no-op.
    q = 1/4 is the fixed point: phi_Q(1/2) = 1 and the zeta_Q(2) term drops,
    giving residual 0 exactly.  Integer 2q is rejected: there either phi_Q
    has a pole/zero or a trivial zero of zeta_Q puts log zeta_Q at -inf.
    """
    q = float(q)
    p = 0.5 - q
    if (2 * q).is_integer():
        raise PoleError(
            f"q={q}: 2q integer degenerates the law (phi_Q pole/zero or a "
            "trivial zero of zeta_Q)")
    if q == 1.0 or p == 1.0:
        raise PoleError("q and 1/2-q must avoid the Shannon point q=1")
    log_z2 = math.log(epstein_continued(form, 2.0, dps=dps).value)
    d_q = _d_complex(form, q, dps)
    d_p = _d_complex(form, p, dps)
    big_d_q = (d_q - q * log_z2) / (1.0 - q)
    big_d_p = (d_p - p * log_z2) / (1.0 - p)
    log_phi = cmath.log(complex(phi_Q(2.0 * q)))
    rhs = ((1.0 - q) / (0.5 + q)) * (
        big_d_q + (-log_phi + (2.0 * q - 0.5) * log_z2) / (1.0 - q))
    gap = big_d_p - rhs
    quantum = 2.0 * math.pi / (0.5 + q)
    branch = gap.imag - quantum * round(gap.imag / quantum)
    return abs(complex(gap.real, branch))


# ---------------------------------------------------------------------------
# modified moment sums and the Shannon entropy series
# ---------------------------------------------------------------------------

def _zeta_star(form: RectangularForm, lam: float, s: float, tol: float,
               r_cut: float = 0.0, r_max: float = 8.0e7) -> Tuple[float, float]:
    """sum_{xi != 0} |Q(xi) - lambda|^{-s} with certified tail, 0 <= lam small.

    Returns (value, certified_error).  Passing r_cut pins the lattice set,
    which lets finite-difference callers reuse one set across lambdas.
    """
    _check_finite(s)
    s = float(s)
    lam = float(lam)
    if s <= DIRECT_MIN_RE_S:
        raise ValueError(f"zeta*_lambda needs s > {DIRECT_MIN_RE_S} for direct summation")
    if lam < 0 or lam >= form.min_nonzero:
        raise ValueError(
            f"lambda={lam} outside [0, {form.min_nonzero}): sign change inside the sum")
    d = form.cell_diameter

    def finish(partial, e_boundary, r):
        shifted = r - lam
        value = (partial + math.pi * shifted ** (1 - s) / (s - 1)
                 - shifted ** (-s) * e_boundary)
        stretch = math.sqrt(r / shifted)
        return value, (s * (math.pi * d * stretch * shifted ** (0.5 - s) / (s - 0.5)
                            + (math.pi * d * d / 4.0) * shifted ** (-s) / s)) + 1e-13

    value, err = _certified_shell_sum(
        form, lambda qv: (qv - lam) ** (-s), finish, r_cut, tol, r_max)
    return float(value), err


def modified_moment(form: RectangularForm, lam: float, s: float,
                    tol: float = 1e-9, r_cut: float = 0.0) -> float:
    """M*_{s/2}(lambda) = zeta*_lambda(s) / zeta*_lambda(2)^{s/2}.

    zeta*_lambda(s) = sum_{xi != 0} |Q(xi) - lambda|^{-s}; at lambda = 0 this
    is zeta_Q(s)/zeta_Q(2)^{s/2}, and M*_1 = 1 identically at s = 2.
    """
    num, _ = _zeta_star(form, lam, s, tol, r_cut=r_cut)
    den, _ = _zeta_star(form, lam, 2.0, tol, r_cut=r_cut)
    return num / den ** (s / 2.0)


def modified_moment_slope(form: RectangularForm, s: float, dps: int = 25) -> float:
    """d/dlambda M*_{s/2}(lambda) at lambda = 0, in closed form.

    Expanding (Q - lambda)^{-s} = Q^{-s} + lambda s Q^{-s-1} + O(lambda^2)
    termwise gives

      slope = s [ zeta_Q(s+1)/zeta_Q(2)^{s/2}
                  - zeta_Q(s) zeta_Q(3) / zeta_Q(2)^{s/2+1} ].
    """
    z2 = epstein_continued(form, 2.0, dps=dps).value
    z3 = epstein_continued(form, 3.0, dps=dps).value
    zs = epstein_continued(form, float(s), dps=dps).value
    zs1 = epstein_continued(form, float(s) + 1.0, dps=dps).value
    return s * (zs1 / z2 ** (s / 2.0) - zs * z3 / z2 ** (s / 2.0 + 1.0))


def shannon_entropy_series(form: RectangularForm, tol: float = 1e-10) -> float:
    """-sum mu log mu for mu(xi) = zeta_Q(2)^{-1} Q(xi)^{-2}, series route.

    Both ingredients (the normalizer and sum Q^{-2} log Q) come from direct
    shell summation with certified tails — deliberately independent of the
    analytic-continuation route used by ground_exponents at q = 1.
    """
    z2 = epstein_direct(form, 2.0, tol=tol).value
    log_weighted = -zeta_Q_derivative(form, 2.0)  # sum Q^{-2} log Q
    return math.log(z2) + 2.0 * log_weighted / z2
