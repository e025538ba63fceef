"""Spectral zeta sums, entropy profiles and fractal-exponent estimators.

Everything here is driven by the zeta function of a perturbed eigenvalue,

    zeta_lam(s) = sum_{n in N} r2(n) |n - lam|^{-s},   s > 1,

whose normalized values make up the moment sums

    m_q   = Delta^{2q} zeta_lam(2q),           Delta = min_n |n - lam|,
    M_q   = zeta_lam(2q) / zeta_lam(2)^q  ==  m_q / m_1^q,

and the Renyi entropies H_q = (h_q - q h_1)/(1 - q) with h_q = log m_q
(Shannon entropy at the removable point q = 1).  Truncated sums are always
accompanied by a rigorous bound on the omitted mass, derived from the
lattice-count estimate |sum_{n<=x} r2(n) - pi*x| <= 10 x^{3/4} by partial
summation:

    sum_{n>X} r2(n) (n-lam)^{-s} <= (pi + eps) (X-lam)^{1-s} s/(s-1),
    eps = 15 X^{-1/4} + 20 X^{3/4} / (X - lam).

Fractal exponents d_q, D_q are growth rates of h_q, H_q against log N,
where N = 2*pi*G counts lattice points in the essential-support annulus of
half-width G = [(2 pi/(2q-1)) <Delta>^{2q}]^{1/(2q-1)}.  Since
log N = alpha (2q/(2q-1)) log log n + O(1) when <Delta> ~ (log n)^alpha,
the windowed estimators normalize by the leading term only; keeping the
additive O(1) constants would bias every block at reachable table sizes.
Infinite limsup/liminf become max/min of dyadic-block means, so estimates
are deterministic and the block structure can be reported alongside.

Every lattice sum here (zeta_lam(s) with or without a cutoff X, the Shannon
sum, the annulus tails tau_q(t, G) and the unweighted sums of the density
predicates) is one query of the block-moment engine in ``lattice``, whose
far field carries a truncation bound computed at run time.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .arithmetic import _HALF_LOG2, ArithmeticTable, _normal_order
from .lattice import _lattice_sums
from .spectrum import EmptyWindowError, SebaSpectrum, _check_pole

_TWO_PI = 2.0 * math.pi


class InsufficientWindowError(ValueError):
    """The table cannot certify the requested truncation tolerance."""


ZetaValue = namedtuple("ZetaValue", ["value", "tail_bound"])
TailValue = namedtuple("TailValue", ["value", "tail_bound"])
MeanTailValue = namedtuple("MeanTailValue", ["value", "remainder_bound"])
BreakdownInterval = namedtuple("BreakdownInterval",
                               ["lower", "upper", "contains_rigid"])


def _circle_tail(span: float, x: float, s: float) -> float:
    # certified bound on sum_{n>x} r2(n) (n - (x - span))^{-s}
    eps = 15.0 * x ** -0.25 + 20.0 * x ** 0.75 / span
    return (math.pi + eps) * span ** (1.0 - s) * s / (s - 1.0)


def _checked_zeta(table, lams, s_list, x_window=None, rel_tol=None,
                  shannon=False):
    """zeta_lam(s) over representable n <= X, for each lambda (rows) and s
    (columns), with certified tail bounds and, when asked, Shannon entropies.

    X is ``x_window`` (default: the whole table) and must lie in
    [2 max lambda, x_max].  tails[k] bounds the omitted n > X mass of
    column k at the largest lambda, so of every row; each must stay within
    ``rel_tol`` of the column's smallest value (None or inf: no check).
    The Shannon entropy -sum mu log mu of the atoms r2(n)|n - lam|^{-2}/Z
    needs 2 in ``s_list``.
    """
    if rel_tol is not None and math.isnan(rel_tol):
        raise ValueError("rel_tol must be a number or inf, got nan")
    lams = np.asarray(lams, dtype=np.float64)
    for lam in lams[lams == np.rint(lams)]:
        _check_pole(float(lam), table)
    x = float(table.x_max if x_window is None else x_window)
    top = float(lams.max())
    if x > table.x_max:
        raise InsufficientWindowError(
            f"window {x} exceeds table bound {table.x_max}")
    if x < 2.0 * top:
        raise InsufficientWindowError(
            f"window {x} below 2*lambda={2.0 * top}")
    kernels = [(s, False) for s in s_list] + [(2.0, True)] * shannon
    sums = _lattice_sums(table, lams, kernels, x)[0][:, :, 0]
    values = sums[:, :len(s_list)]
    tails = [_circle_tail(x - top, x, s) for s in s_list]
    for s, tail, column in zip(s_list, tails, values.T):
        if rel_tol is not None and tail > rel_tol * column.min():
            raise InsufficientWindowError(
                f"certified tail {tail:.3e} exceeds {rel_tol:.1e} relative "
                f"at s={s}; enlarge the table or loosen rel_tol")
    if not shannon:
        return values, tails, None
    z = values[:, s_list.index(2.0)]
    return values, tails, np.array([math.log(zk) + 2.0 * zl / zk
                                    for zk, zl in zip(z, sums[:, -1])])


def zeta_lambda(lam, s, table, x_window=None, rel_tol=1e-8):
    """Truncated spectral zeta value with a certified tail bound.

    Sums r2(n)|n-lam|^{-s} over representable n <= X where X is
    ``x_window`` (default: the whole table).  Raises if the certified
    bound on the omitted n > X mass exceeds ``rel_tol`` relative to the
    computed value; pass ``rel_tol=math.inf`` to disable enforcement on
    contrived tables.
    """
    if not s > 1.0:
        raise ValueError(f"require s > 1, got s={s}")
    values, tails, _ = _checked_zeta(table, [lam], [s], x_window, rel_tol)
    return ZetaValue(float(values[0, 0]), tails[0])


@dataclass(frozen=True)
class MomentProfile:
    """Zeta values, moment sums and entropies of one new eigenvalue."""

    lam: float
    q_grid: Tuple[float, ...]
    zeta2q: Dict[float, float]
    m_q: Dict[float, float]
    h_q: Dict[float, float]
    H_q: Dict[float, float]
    delta: float
    n_tilde: int
    tail_bound: Dict[float, float]

    def moment_ratio(self, q: float) -> float:
        """M_q = m_q / m_1^q, identically zeta(2q)/zeta(2)^q."""
        return self.m_q[q] / self.m_q[1.0] ** q


def moment_profile(lam, delta, n_tilde, q_grid, table,
                   x_window=None, rel_tol=1e-8) -> MomentProfile:
    """Assemble the moment/entropy profile of one eigenvalue.

    ``delta`` and ``n_tilde`` come from the solved spectrum record; the
    q = 1 entry of ``H_q`` holds the Shannon entropy (removable point of
    the Renyi quotient).  zeta(2) is always computed so the Renyi
    entropies and the M_q identity are available even when 1 is not on
    the grid.
    """
    qs = tuple(float(q) for q in q_grid)
    if not qs or not all(b > a for a, b in zip(qs, qs[1:])):
        raise ValueError("q_grid must be ascending and non-empty")
    if not qs[0] > 0.5:
        raise ValueError(f"require q > 1/2, got q={qs[0]}")
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    grid = tuple(dict.fromkeys(qs + (1.0,)))   # grid plus the pivot q = 1
    values, tails, shannon = _checked_zeta(
        table, [lam], [2.0 * q for q in grid], x_window, rel_tol, shannon=True)
    zeta2q = {q: float(z) for q, z in zip(grid, values[0])}
    m_q = {q: delta ** (2.0 * q) * z for q, z in zeta2q.items()}
    h_q = {q: math.log(m) for q, m in m_q.items()}
    big_h = {q: float(shannon[0]) if q == 1.0
             else (h_q[q] - q * h_q[1.0]) / (1.0 - q) for q in grid}
    return MomentProfile(lam=float(lam), q_grid=qs, zeta2q=zeta2q, m_q=m_q,
                         h_q=h_q, H_q=big_h, delta=float(delta),
                         n_tilde=int(n_tilde), tail_bound=dict(zip(grid, tails)))


def tail_tau(t, G, q, table):
    """Zeta tail outside the annulus |m - t| < G, plus a certified bound
    on the part of the tail beyond the table."""
    if not q > 0.5:
        raise ValueError(f"require q > 1/2, got q={q}")
    if not G >= 1.0:
        raise ValueError(f"require G >= 1, got G={G}")
    if table.x_max <= t:
        raise InsufficientWindowError(
            f"table bound {table.x_max} does not reach past t={t}")
    value = float(_lattice_sums(table, [t], [(2.0 * q, False)],
                                gaps=(G,))[0][0, 0, 0])
    return TailValue(value, _circle_tail(table.x_max - t, table.x_max,
                                         2.0 * q))


def mean_tail(T, G, q, table):
    """(1/T) * integral_T^{2T} tau_q(t, G) dt, exactly per lattice term.

    Every m in N up to 3T contributes the closed-form integral of |t-m|^{-2q}
    over the t-range where G <= |t-m| <= T, split at the sign change of
    t - m.  The |t-m| > T remainder is not part of the integral; a bound
    for it is returned separately.
    """
    if not q > 0.5:
        raise ValueError(f"require q > 1/2, got q={q}")
    T = float(T)
    if not T >= 16.0:
        raise ValueError("T too small")
    if not 1.0 <= G <= T ** 0.9:
        raise ValueError(f"require 1 <= G <= T^0.9, got G={G}")
    if 3.0 * T > table.x_max:
        raise InsufficientWindowError(
            f"need table up to 3T={3.0 * T:.0f}, have {table.x_max}")
    rep = table.representable
    n = rep[:int(np.searchsorted(rep, int(3.0 * T), side="right"))]
    w = table.r2[n].astype(np.float64)
    m = n.astype(np.float64)
    lo = T - m            # integration variable u = t - m
    hi = 2.0 * T - m
    p = 1.0 - 2.0 * q
    total = 0.0
    for a, b, sgn in ((G, T, 1.0), (-T, -G, -1.0)):
        aa = np.maximum(lo, a)
        bb = np.minimum(hi, b)
        mask = bb > aa
        if mask.any():
            fb = sgn * np.power(sgn * bb[mask], p) / p
            fa = sgn * np.power(sgn * aa[mask], p) / p
            total += float(np.sum(w[mask] * (fb - fa)))
    # |t-m| > T part: m below t-T contributes at most T^{-2q} each, the
    # m > t+T side is certified by the lattice-count bound
    left = T ** (-2.0 * q) * (math.pi * T + 10.0 * T ** 0.75)
    right = _circle_tail(T, 3.0 * T, 2.0 * q)
    return MeanTailValue(total / T, left + right)


def essential_support_G(mean_delta: float, q: float) -> float:
    """Annulus half-width solving <Delta>^{2q} * (2pi/(2q-1)) G^{1-2q} = 1."""
    if not q > 0.5:
        raise ValueError(f"require q > 1/2, got q={q}")
    if not mean_delta > 0.0:
        raise ValueError("mean_delta must be positive")
    return (_TWO_PI / (2.0 * q - 1.0) * mean_delta ** (2.0 * q)) \
        ** (1.0 / (2.0 * q - 1.0))


# --------------------------------------------------------------------------
# closed-form theory values


def admissible_q_range(alpha: float) -> Tuple[float, float]:
    """Interval ((1-log2)/(2-4a), 1/(2-4a)]; nonempty iff 1/4 < a < 1/2."""
    if not 0.25 < alpha < 0.5:
        raise ValueError(f"require 1/4 < alpha < 1/2, got {alpha}")
    return ((1.0 - math.log(2.0)) / (2.0 - 4.0 * alpha),
            1.0 / (2.0 - 4.0 * alpha))


def theory_exponents(alpha, c, q):
    """Closed-form (d_q, D_q) of the multifractal scaling law."""
    lo, hi = admissible_q_range(alpha)
    if not lo < q <= hi:
        raise ValueError(f"q={q} outside admissible ({lo}, {hi}]")
    if not _HALF_LOG2 - 1e-12 <= c <= 1.0 + 1e-12:
        raise ValueError(f"require c in [log(2)/2, 1], got {c}")
    d = (1.0 / (2.0 * alpha)) * (1.0 - 1.0 / (2.0 * q)) * math.log(2.0)
    if q == 1.0:
        big_d = d if abs(2.0 * c - math.log(2.0)) < 1e-12 else math.nan
    else:
        big_d = (1.0 / (2.0 * alpha)) * (1.0 - 1.0 / (2.0 * q)) \
            * (2.0 * c * q - math.log(2.0)) / (q - 1.0)
    return d, big_d


def rigid_bound_f(q: float) -> float:
    """Improved tail exponent f(q) = (log2/2)(exp{log2/(q-1/2)} - 1)."""
    if not q >= 1.5:
        raise ValueError(f"require q >= 3/2, got {q}")
    return _HALF_LOG2 * (math.exp(math.log(2.0) / (q - 0.5)) - 1.0)


def breakdown_diagnostic(q: float) -> BreakdownInterval:
    """Admissible d_q interval in the rigid regime alpha = 1/2.

    Returns [(1-1/2q) log2, (1-1/2q)(1 + 2log2/(2q-1)) log2] and whether
    the constant-exponent point d_q = log 2 falls inside it.
    """
    if not q >= 1.5:
        raise ValueError(f"require q >= 3/2, got {q}")
    base = (1.0 - 1.0 / (2.0 * q)) * math.log(2.0)
    upper = base * (1.0 + 2.0 * math.log(2.0) / (2.0 * q - 1.0))
    return BreakdownInterval(base, upper,
                             base <= math.log(2.0) <= upper)


# --------------------------------------------------------------------------
# density-condition predicates (numeric stand-ins for the full-density set)


def neighbour_gap_ok(m, table, eps=0.25):
    """Nearest 𝒩-neighbours of m at distance >= (log m)^{1/2-eps}."""
    rep = table.representable
    i = int(np.searchsorted(rep, m))
    if i >= len(rep) or rep[i] != m:
        raise ValueError(f"{m} is not representable")
    need = math.log(m) ** (0.5 - eps)
    left = m - rep[i - 1] if i > 0 else math.inf
    right = rep[i + 1] - m if i + 1 < len(rep) else math.inf
    return min(left, right) >= need


def annulus_decay_ok(m, q, table, eps=0.25, g_values=(2.0, 8.0, 32.0)):
    """Unweighted tail sums obey sum_{|m-n|>=G} |m-n|^{-2q}
    <= (log G)^2 / (G^{2q-1} (log m)^{1/2-eps}) at each probe radius."""
    sums = _lattice_sums(table, [m], [(2.0 * q, False)], gaps=tuple(g_values),
                         unit=True)[0][0, 0]
    el = math.log(m) ** (0.5 - eps)
    return all(float(s) <= math.log(g) ** 2 / (g ** (2.0 * q - 1.0) * el)
               for s, g in zip(sums, g_values))


def density_filter(table, x_lo, x_hi, q_values=(1.5, 2.0), eps=0.25,
                   g_values=(2.0, 8.0, 32.0), stride=1, max_count=None):
    """Scan 𝒩 ∩ [x_lo, x_hi] for elements passing both predicates.

    Deterministic ascending scan (optionally strided); stops after
    ``max_count`` hits when set.  The gap predicate is vectorized over
    the whole window, the annulus predicate only runs on its survivors.
    Returns an int64 array.
    """
    rep = table.representable
    lo = max(1, int(np.searchsorted(rep, max(16, x_lo))))
    hi = min(len(rep) - 1, int(np.searchsorted(rep, x_hi, side="right")))
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    cand = rep[lo:hi:stride]
    nn = np.minimum(rep[lo:hi] - rep[lo - 1:hi - 1],
                    rep[lo + 1:hi + 1] - rep[lo:hi])[::stride]
    cand = cand[nn >= np.log(cand) ** (0.5 - eps)]
    out = []
    for m in cand:
        m = int(m)
        if all(annulus_decay_ok(m, q, table, eps, g_values)
               for q in q_values):
            out.append(m)
            if max_count is not None and len(out) >= max_count:
                break
    return np.asarray(out, dtype=np.int64)


# --------------------------------------------------------------------------
# windowed fractal-exponent estimators


@dataclass(frozen=True)
class FilterConfig:
    """Full-density surrogates: o(1) exponents become fixed slacks."""

    normal_eps: float = 0.25   # |log r2(ñ)/loglog ñ - log2/2| <= normal_eps
    delta_eps: float = 0.25    # Delta_j <= (log ñ_j)^{alpha_hat + delta_eps}
    alpha: Optional[float] = None   # pin alpha_hat instead of estimating

    def __post_init__(self):
        if any(v != v for v in (self.normal_eps, self.delta_eps, self.alpha)):
            raise ValueError(f"slacks and alpha must be numbers, got {self}")


@dataclass(frozen=True)
class ExponentReport:
    window: Tuple[float, float]
    normalization: str
    n_records: int
    block_edges: Tuple[int, ...]
    block_counts: Tuple[int, ...]
    q_grid: Tuple[float, ...]
    alpha_hat: float
    c_hat: float
    G: Dict[float, float]
    N: Dict[float, float]
    d_hat: Dict[float, float]
    D_hat: Dict[float, float]
    D_hat_alt: Dict[float, float]
    d_theory: Dict[float, float]
    D_theory: Dict[float, float]
    q_admissible: Optional[Tuple[float, float]]
    theory_applicable: bool


def _block_means(n_tilde, values):
    """Means of ``values`` over dyadic blocks 2^k <= ñ < 2^{k+1}."""
    k = np.floor(np.log2(n_tilde)).astype(np.int64)
    edges = np.unique(k)
    means = np.array([values[k == e].mean() for e in edges])
    counts = np.array([(k == e).sum() for e in edges])
    return edges, counts, means


def fractal_estimates(spec: SebaSpectrum, table: ArithmeticTable,
                      q_grid: Sequence[float], window: Tuple[float, float],
                      filters: FilterConfig = FilterConfig(),
                      normalization: str = "multifractal",
                      rel_tol: float = 1e-8) -> ExponentReport:
    """Windowed fractal exponents of a solved spectrum.

    The infinite-limit quantities become windowed surrogates: limsups are
    maxima of dyadic-block means, liminfs are minima (that choice is what
    makes the estimate deterministic).  Two normalizations are supported:
    ``"multifractal"`` divides entropies by the leading term of
    log N = alpha (2q/(2q-1)) loglog ñ, ``"simple"`` by the normal-order
    term (log2/2) loglog ñ.  Because limsup (for d_q) and liminf (for c)
    appear inside a single quotient, the combination order is ambiguous;
    ``D_hat`` extremizes numerator and denominator separately while
    ``D_hat_alt`` extremizes the assembled per-record quotient.
    """
    if normalization not in ("multifractal", "simple"):
        raise ValueError(f"unknown normalization {normalization!r}")
    qs = tuple(float(q) for q in q_grid)
    if not qs or not all(b > a for a, b in zip(qs, qs[1:])) or not qs[0] > 0.5:
        raise ValueError("q_grid must be ascending with q > 1/2")
    x_lo, x_hi = window
    keep = (spec.n_tilde >= max(16, x_lo)) & (spec.n_tilde <= x_hi)
    lam = spec.lam[keep]
    n_t = np.rint(spec.n_tilde[keep]).astype(np.int64)
    delta = spec.delta[keep]
    if lam.size == 0:
        raise EmptyWindowError("no records with n_tilde inside the window")

    loglog = np.log(np.log(n_t))
    keep2 = _normal_order(table, n_t, filters.normal_eps)
    if not keep2.any():
        raise EmptyWindowError("normal-order filter removed every record")
    lam, n_t, delta, loglog = (lam[keep2], n_t[keep2], delta[keep2],
                               loglog[keep2])

    if filters.alpha is not None:
        alpha_hat = float(filters.alpha)
    else:
        _, _, am = _block_means(n_t, np.log(delta) / loglog)
        alpha_hat = float(am.max())
    keep3 = delta <= np.log(n_t) ** (alpha_hat + filters.delta_eps)
    if not keep3.any():
        raise EmptyWindowError("Delta-threshold filter removed every record")
    lam, n_t, delta, loglog = (lam[keep3], n_t[keep3], delta[keep3],
                               loglog[keep3])

    q_list = list(qs) + ([] if 1.0 in qs else [1.0])
    zeta, _, shan = _checked_zeta(table, lam, [2.0 * q for q in q_list],
                                  rel_tol=rel_tol, shannon=1.0 in qs)
    h = {q: 2.0 * q * np.log(delta) + np.log(zeta[:, k])
         for k, q in enumerate(q_list)}
    return exponent_chain(n_t, delta, h, qs, window=(x_lo, x_hi),
                          alpha=alpha_hat, normalization=normalization,
                          shannon=shan)


def exponent_chain(n_tilde, delta, h_q, q_grid, window=None, alpha=None,
                   normalization="multifractal", shannon=None):
    """Estimator core: windowed exponents from prescribed moment data.

    ``h_q`` maps each q (and q = 1, the pivot) to the array of log m_q
    values; this is the entry point for synthetic spectra whose moments
    are pinned exactly, bypassing the zeta computation.  ``shannon``
    carries per-record Shannon entropies and is only needed when q = 1
    sits on the grid.
    """
    if normalization not in ("multifractal", "simple"):
        raise ValueError(f"unknown normalization {normalization!r}")
    qs = tuple(float(q) for q in q_grid)
    n_t = np.asarray(n_tilde, dtype=np.int64)
    delta = np.asarray(delta, dtype=np.float64)
    if n_t.size == 0:
        raise EmptyWindowError("no records")
    if n_t.min() < 16:
        raise ValueError("need n_tilde >= 16 for a stable loglog scale")
    if 1.0 not in h_q:
        raise ValueError("h_q must include the pivot entry q=1")
    loglog = np.log(np.log(n_t))
    h1 = np.asarray(h_q[1.0], dtype=np.float64)
    if window is None:
        window = (float(n_t.min()), float(n_t.max()))

    if alpha is None:
        _, _, am = _block_means(n_t, np.log(delta) / loglog)
        alpha = float(am.max())

    edges, counts, _ = _block_means(n_t, h1)
    r_q, sigma_q = {}, {}
    for q in qs:
        hq = np.asarray(h_q[q], dtype=np.float64)
        _, _, bm = _block_means(n_t, hq / loglog)
        r_q[q] = float(bm.max())
        if q == 1.0:
            if shannon is None:
                raise ValueError("q=1 on the grid needs shannon entropies")
            hq_quot = np.asarray(shannon, dtype=np.float64) / loglog
        else:
            hq_quot = (hq - q * h1) / ((1.0 - q) * loglog)
        _, _, bm = _block_means(n_t, hq_quot)
        sigma_q[q] = float(bm.max())
    _, _, bm = _block_means(n_t, h1 / loglog)
    c_hat = float(bm.min())

    mean_delta = float(delta.mean())
    g_map = {q: essential_support_G(mean_delta, q) for q in qs}
    n_map = {q: _TWO_PI * g for q, g in g_map.items()}

    d_hat, big_d, big_d_alt = {}, {}, {}
    for q in qs:
        if normalization == "multifractal":
            scale = (1.0 - 1.0 / (2.0 * q)) / alpha
        else:
            scale = 1.0 / _HALF_LOG2
        d_hat[q] = scale * r_q[q]
        big_d_alt[q] = scale * sigma_q[q]
        big_d[q] = math.nan if q == 1.0 else \
            scale * (r_q[q] - q * c_hat) / (1.0 - q)

    theory_ok = 0.25 < alpha < 0.5
    q_adm = admissible_q_range(alpha) if theory_ok else None
    c_ok = _HALF_LOG2 - 1e-12 <= c_hat <= 1.0 + 1e-12
    d_th = {q: math.nan for q in qs}
    big_d_th = dict(d_th)
    for q in qs:
        if theory_ok and q_adm[0] < q <= q_adm[1]:
            # d_q does not depend on c; D_q needs c_hat in [log(2)/2, 1]
            d_th[q], big_d_th[q] = theory_exponents(
                alpha, c_hat if c_ok else _HALF_LOG2, q)
            if not c_ok:
                big_d_th[q] = math.nan

    return ExponentReport(
        window=(float(window[0]), float(window[1])),
        normalization=normalization,
        n_records=int(n_t.size), block_edges=tuple(int(e) for e in edges),
        block_counts=tuple(int(c) for c in counts), q_grid=qs,
        alpha_hat=float(alpha), c_hat=c_hat, G=g_map, N=n_map, d_hat=d_hat,
        D_hat=big_d, D_hat_alt=big_d_alt, d_theory=d_th, D_theory=big_d_th,
        q_admissible=q_adm, theory_applicable=theory_ok)
