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
    certificate's 10^{2-dps} rounding term), each 1/#points of it;
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

    Enumerates one quadrant per column of constant m and folds in the
    four-fold (interior) / two-fold (axis) multiplicities.  Column sums are
    combined with compensated summation.
    """
    a = form.a
    a2 = a * a
    inv_a2 = 1.0 / a2

    def axis_count(coef: float) -> int:
        k = int(math.sqrt(r_cut / coef)) + 1
        while coef * k * k > r_cut:
            k -= 1
        return k

    m_max = axis_count(a2)
    n_axis = axis_count(inv_a2)

    re_parts, im_parts = [], []
    complex_mode = False

    def push(mult: float, col) -> None:
        nonlocal complex_mode
        x = mult * complex(col)
        if np.iscomplexobj(col):
            complex_mode = True
        re_parts.append(x.real)
        im_parts.append(x.imag)

    count = 0
    if m_max >= 1:
        marr = np.arange(1.0, m_max + 1.0)
        push(2.0, np.sum(fn(a2 * marr * marr)))
        count += 2 * m_max
    if n_axis >= 1:
        narr = np.arange(1.0, n_axis + 1.0)
        push(2.0, np.sum(fn(inv_a2 * narr * narr)))
        count += 2 * n_axis

    for m in range(1, m_max + 1):
        q0 = a2 * m * m
        rem = r_cut - q0
        if rem < inv_a2:
            continue
        n_hi = int(math.sqrt(rem * a2)) + 1
        while inv_a2 * n_hi * n_hi > rem:
            n_hi -= 1
        if n_hi < 1:
            continue
        narr = np.arange(1.0, n_hi + 1.0)
        push(4.0, np.sum(fn(q0 + inv_a2 * narr * narr)))
        count += 4 * n_hi

    total: Number = math.fsum(re_parts)
    if complex_mode:
        total = complex(total, math.fsum(im_parts))
    return total, count


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
    if sigma <= 1.05:
        raise ValueError("epstein_direct requires Re s > 1.05 "
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
    if s <= 1.05:
        raise ValueError("zeta_Q_derivative requires s > 1.05")
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


@lru_cache(maxsize=4096)
def _continued_cached(a: float, s_key: complex, dps: int) -> Tuple[complex, float]:
    form = RectangularForm(a)
    s_abs = abs(s_key)
    q_cut = _continued_cutoff(s_abs, dps)
    d = form.cell_diameter
    with _MP_LOCK, mp.workdps(dps):
        s = mp.mpmathify(s_key.real) if s_key.imag == 0 else mp.mpc(s_key)
        pi = mp.pi
        bracket = -1 / s - 1 / (1 - s)
        a2 = mp.mpf(a) ** 2    # lattice values at working precision, not float64
        points = []            # (mult, x = pi Q) for 0 < Q <= q_cut
        m_max = int(math.sqrt(q_cut) / a) + 1
        for m in range(0, m_max + 1):
            q0 = a2 * m * m
            if q0 > q_cut:
                break
            n = 0 if m > 0 else 1
            while True:
                q = q0 + n * n / a2
                if q > q_cut:
                    break
                points.append((4 if (m > 0 and n > 0) else 2, pi * q))
                n += 1
        # rgamma is entire: at s = -1, -2, ... the reciprocal vanishes and
        # the trivial zeros of zeta_Q come out as exact zeros, no pole
        prefactor = pi ** s * mp.rgamma(s)
        # guard log10(#points): each graded point may add 10^{-dps}/#points
        scale = math.log10(4 * len(points)) + float(mp.log10(max(1, abs(prefactor))))
        s1 = 1 - s
        for mult, x in points:
            with mp.workdps(_graded_dps(float(x), s_abs, dps, scale + math.log10(mult))):
                g = mp.gammainc(s, a=x)     # shared only where 1 - s == s exactly
                g1 = g if s1 == s else mp.gammainc(s1, a=x)
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
    if s <= 1.05:
        raise ValueError("zeta*_lambda needs s > 1.05 for direct summation")
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
