"""Secular equations of the point-scatterer spectrum on the square torus.

Between every pair of consecutive representable integers n_j < n_{j+1} the
perturbed operator has exactly one new eigenvalue lambda_j, the unique root
of a strictly increasing secular function:

  weak coupling:    sum_{n in N, n <= X} r2(n) [ 1/(n - lam) - n/(n^2+1) ]
                      + pi * log( sqrt(X^2+1) / (X - lam) )   =  theta
  strong coupling:  sum_{|n - n_j| <= sqrt(n_j), n in N} r2(n)/(n - lam)
                      =  beta_c * (log lam)^beta_b

The weak series is truncated at X = max(multiplier*lam, lam + min_span) and
completed by the closed-form integral tail (the log term above), which
follows from 1/(t-lam) - t/(t^2+1) having antiderivative
log((t-lam)/sqrt(t^2+1)).  Truncation leaves a fluctuation-driven residual
(the lattice remainder r2 - pi oscillates), so a root is a well-defined
function of table + config; different cutoff policies move roots slightly.
solve_range therefore freezes one cutoff per solver chunk — every interval
in the chunk sees a bound at least as large as its own policy bound — and is
bit-deterministic for a given configuration, threads or not.

Both modes are solved by one routine, _lockstep: a chunk of intervals
(512 by default) forms lanes that iterate together.  Each step is the root
of a model that keeps the secular function's poles at both ends of the
interval, w_L/(n_L - lam) + w_R/(n_R - lam) with the weights the kernel
sums, and replaces the rest by the line through its values at the bracket
ends, as secular-equation solvers do (Bunch, Nielsen & Sorensen 1978;
R.-C. Li, LAPACK Working Note 89, 1994).  The model root comes from a
closed-form quadratic and a few Newton steps.  A lane whose same end moves
twice running is pushed past the model root, and a lane whose bracket has
not halved in three steps bisects.  A per-lane mask stops evaluating a lane
once its bracket is within root_tol, and a lane still wider after the step
budget raises NoConvergenceError, so no root leaves wider than root_tol.
Chunks are fixed by index and may run on threads in either mode.

Weak chunks use a two-level kernel in the manner of the 1D fast multipole
method (Greengard & Rokhlin, J. Comput. Phys. 73, 1987).  Lattice points
outside a window of half-width W = max(4 * half-span, 64) around the chunk
centre c enter through the local expansion sum_k S_k (lam - c)^k with
S_k = sum w (n-c)^{-(k+1)}, translated from the table's block moments
(lattice._local_sums), and the constant sum w n/(n^2+1) is Re S_0 about
the centre i.  Each sub-block of 32 lanes sums directly only the points
within its own such window, clamped to the chunk's, and takes the rest of
the chunk's window from a second local expansion about its own centre,
whose orders are graded by distance.  An evaluation costs
O(sub-block window + K), not O(|N|).  Every expanded point lies at least
4 * max|lam - centre| from its centre, so cutting its series after K = 26
orders errs by at most (4/3) 4^-K, 3e-16, of its own term; the kernel
returns that bound, with the engine's, as g.bound.
Strong chunks evaluate each lane's window, zero-padded to the chunk's
widest, as one matrix.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .arithmetic import ArithmeticTable
from .lattice import _local_sums

_FAR_ORDER = 26            # K, the order of both local expansions
_SUB_BLOCK = 32            # lanes per sub-block of a weak chunk
_MAX_STEPS = 200           # lockstep step budget per lane


class SecularPoleError(ValueError):
    """lambda sits exactly on a representable integer (a pole)."""


class TruncationError(ValueError):
    """Required weak-coupling cutoff exceeds the sieved range."""


class WindowOverflowError(ValueError):
    """Strong-coupling window n_j + sqrt(n_j) sticks out past x_max."""


class EmptyWindowError(ValueError):
    """No spectrum records at or below the requested x."""


class NoRootError(RuntimeError):
    """The secular equation has no sign change on the interval."""


class NoConvergenceError(RuntimeError):
    """Root refinement exhausted its iteration budget."""


@dataclass(frozen=True)
class CutoffPolicy:
    """Weak-coupling truncation rule X = max(multiplier*max(lam,1), lam + min_span)."""

    multiplier: float = 10.0
    min_span: float = 1.0e4

    def __post_init__(self):
        if not 10.0 <= self.multiplier < math.inf:
            raise ValueError(f"cutoff multiplier must be finite and >= 10, got {self.multiplier}")
        if not 0.0 < self.min_span < math.inf:
            raise ValueError(f"min_span must be positive and finite, got {self.min_span}")

    def bound(self, lam: float) -> float:
        return max(self.multiplier * max(lam, 1.0), lam + self.min_span)


@dataclass(frozen=True)
class CouplingConfig:
    mode: str                      # "weak" or "strong"
    theta: float = 0.0             # weak RHS: c0 tan(phi/2), one free parameter
    beta_c: float = 1.0            # strong RHS scale
    beta_b: float = 0.0            # strong RHS exponent, in [0, 1)
    cutoff: CutoffPolicy = field(default_factory=CutoffPolicy)
    root_tol: float = 1.0e-9

    def __post_init__(self):
        if self.mode not in ("weak", "strong"):
            raise ValueError(f"mode must be 'weak' or 'strong', got {self.mode!r}")
        if not 0.0 < self.root_tol < math.inf:
            raise ValueError(f"root_tol must be positive and finite, got {self.root_tol}")
        if not (math.isfinite(self.theta) and math.isfinite(self.beta_c)):
            raise ValueError(f"theta and beta_c must be finite, got {self.theta}, {self.beta_c}")
        if not 0.0 <= self.beta_b < 1.0:
            raise ValueError("beta_b must lie in [0, 1)")

    def rhs(self, lam):
        """Right-hand side at lam, a float or an array of lanes."""
        if self.mode == "weak":
            return self.theta
        if self.beta_b == 0.0:
            return self.beta_c
        if np.any(np.asarray(lam) <= 1.0):
            raise ValueError("strong RHS (log lam)^beta_b needs lam > 1 when beta_b > 0")
        return self.beta_c * np.log(lam) ** self.beta_b


@dataclass(frozen=True)
class SebaSpectrum:
    """Solved records: for each interval index j, n_j < lambda_j < n_{j+1}."""

    j: np.ndarray          # global interval index into table.representable
    n_left: np.ndarray
    n_right: np.ndarray
    lam: np.ndarray
    gap_left: np.ndarray   # lambda_j - n_j
    gap_right: np.ndarray  # n_{j+1} - lambda_j
    delta: np.ndarray      # min of the two gaps
    n_tilde: np.ndarray    # nearest Laplace eigenvalue, ties -> the smaller

    def __len__(self) -> int:
        return len(self.lam)

    @classmethod
    def from_solutions(cls, j: np.ndarray, n_left: np.ndarray,
                       n_right: np.ndarray, lam: np.ndarray) -> "SebaSpectrum":
        gap_left = lam - n_left
        gap_right = n_right - lam
        delta = np.minimum(gap_left, gap_right)
        n_tilde = np.where(gap_left <= gap_right, n_left, n_right)
        return cls(j=np.asarray(j, dtype=np.int64), n_left=np.asarray(n_left),
                   n_right=np.asarray(n_right), lam=np.asarray(lam),
                   gap_left=gap_left, gap_right=gap_right, delta=delta,
                   n_tilde=n_tilde)

    def rows(self) -> Iterable[tuple]:
        for k in range(len(self.lam)):
            yield (int(self.j[k]), float(self.n_left[k]), float(self.n_right[k]),
                   float(self.lam[k]), float(self.gap_left[k]),
                   float(self.gap_right[k]), float(self.delta[k]),
                   float(self.n_tilde[k]))


# ---------------------------------------------------------------------------
# secular functions
# ---------------------------------------------------------------------------

def _check_pole(lam: float, table: ArithmeticTable) -> None:
    r = round(lam)
    if lam == r and 0 <= r <= table.x_max and table.r2[int(r)] > 0:
        raise SecularPoleError(f"lambda={lam} is a representable integer (pole)")


def _tail_term(lam, x_cutoff: float):
    # pi * integral_X^inf [1/(t-lam) - t/(t^2+1)] dt, in closed form
    return math.pi * np.log(math.sqrt(x_cutoff * x_cutoff + 1.0) / (x_cutoff - lam))


def weak_secular(lam: float, table: ArithmeticTable, config: CouplingConfig,
                 x_cutoff: Optional[float] = None) -> float:
    """Left-hand side of the weak-coupling secular equation at lam.

    The cutoff defaults to config.cutoff.bound(lam); passing x_cutoff pins it
    (solvers freeze one cutoff per interval so the iterated function does not
    jump between evaluations).  Raises SecularPoleError on lam in N and
    TruncationError when the bound exceeds the sieved range.
    """
    lam = float(lam)
    _check_pole(lam, table)
    x = float(x_cutoff) if x_cutoff is not None else config.cutoff.bound(lam)
    if x < 10.0 * max(lam, 1.0):
        raise ValueError("truncation bound below 10*max(lambda, 1)")
    if x > table.x_max:
        raise TruncationError(
            f"cutoff {x:.6g} exceeds sieved x_max={table.x_max}; build a larger table")
    rep = table.representable
    hi = int(np.searchsorted(rep, math.floor(x), side="right"))
    n = rep[:hi].astype(np.float64)
    w = table.r2[rep[:hi]].astype(np.float64)
    value = float(np.dot(w, 1.0 / (n - lam) - n / (n * n + 1.0)))
    return value + float(_tail_term(lam, x))


def strong_secular(lam: float, j: int, table: ArithmeticTable) -> float:
    """Window sum  sum_{n in N, |n - n_j| <= sqrt(n_j)} r2(n)/(n - lam)."""
    rep = table.representable
    n_j = int(rep[j])
    half = math.sqrt(n_j)
    if n_j + half > table.x_max:
        raise WindowOverflowError(
            f"window of n_j={n_j} reaches {n_j + half:.1f} > x_max={table.x_max}")
    lo = int(np.searchsorted(rep, math.ceil(n_j - half), side="left"))
    hi = int(np.searchsorted(rep, math.floor(n_j + half), side="right"))
    n = rep[lo:hi].astype(np.float64)
    if np.any(n == lam):
        raise SecularPoleError(f"lambda={lam} hits a pole inside the window")
    w = table.r2[rep[lo:hi]].astype(np.float64)
    return float(np.dot(w, 1.0 / (n - lam)))


# ---------------------------------------------------------------------------
# root finding: one masked lockstep loop over lanes of brackets
# ---------------------------------------------------------------------------

def _model_root(a, b, ga, gb, n_l, n_r, w_l, w_r):
    """Root in [a, b] of the two-pole model of an increasing secular function.

    The model h(a) + slope (x - a) + P(x), with P(x) = w_l/(n_l - x) +
    w_r/(n_r - x) the poles at the interval's ends and h = g - P, equals g at
    a and at b.  Its root starts from the quadratic with h frozen at the
    midpoint and is polished by Newton steps on the model; everything is in
    d = x - n_l.  A zero weight drops its pole (its n stays outside [a, b]).
    """
    alpha, beta, span = a - n_l, b - n_l, n_r - n_l
    h_a = ga + w_l / alpha - w_r / (n_r - a)
    h_b = gb + w_l / beta - w_r / (n_r - b)
    slope = (h_b - h_a) / (beta - alpha)
    h_m = 0.5 * (h_a + h_b)
    # h_m d (span - d) - w_l (span - d) + w_r d = 0 has one root in (0, span)
    q = h_m * span + w_l + w_r
    disc = np.sqrt(np.maximum(q * q - 4.0 * h_m * w_l * span, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(q >= 0.0, 2.0 * w_l * span / (q + disc), (q - disc) / (2.0 * h_m))
        d = np.clip(np.where(np.isfinite(d), d, 0.5 * (alpha + beta)), alpha, beta)
        for _ in range(3):
            m = h_a + slope * (d - alpha) - w_l / d + w_r / (span - d)
            dm = slope + w_l / (d * d) + w_r / ((span - d) * (span - d))
            d = np.clip(np.where(dm > 0.0, d - m / dm, d), alpha, beta)
    return n_l + d


def _check_resolution(lo: np.ndarray, hi: np.ndarray, tol: float,
                      where: Callable[[int], str]) -> None:
    """NoConvergenceError when tol is below 8 ulp of some bracket's ends."""
    floor = 8.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
    if float(floor.max()) > tol:
        k = int(np.argmax(floor))
        raise NoConvergenceError(
            f"{where(k)}: root_tol={tol} is below the floating resolution "
            f"~{floor[k]:.3g} of this interval")


def _lockstep(g: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi, poles,
              tol: float, where: Callable[[int], str]) -> np.ndarray:
    """Roots of increasing functions, one bracket (lo[k], hi[k]) per lane k.

    g(lams, idx) evaluates the functions of lanes idx at lams; poles =
    (n_l, n_r, w_l, w_r) gives, per lane, the poles w/(n - lam) of g at the
    ends of its interval, with the weights g actually sums (0: no pole).
    Every step evaluates g at the root of _model_root, kept at least tol/4
    inside the bracket.  When the same end moved on the last two steps, the
    point is pushed past the model root toward the other end, by the model
    root's distance from the moved end (at least tol/4), four times further
    on each further repeat.  When the last three steps have not halved the
    bracket, the step bisects.  A lane stops being evaluated once
    hi - lo <= tol or g hits 0, and returns its last iterate, which lies in
    that bracket.  where(k) names lane k in error messages.
    """
    lo = np.array(lo, dtype=np.float64)
    hi = np.array(hi, dtype=np.float64)
    n_l, n_r, w_l, w_r = (np.asarray(p, dtype=np.float64) for p in poles)
    lanes = np.arange(len(lo))
    g_lo, g_hi = g(lo, lanes), g(hi, lanes)
    bad = np.flatnonzero(~((g_lo <= 0.0) & (g_hi >= 0.0)))
    if len(bad):
        k = int(bad[0])
        raise NoRootError(
            f"{where(k)}: no sign change on [{lo[k]}, {hi[k]}]: "
            f"g(lo)={g_lo[k]:.3g}, g(hi)={g_hi[k]:.3g}")
    _check_resolution(lo, hi, tol, where)
    hi = np.where(g_lo == 0.0, lo, hi)
    lo = np.where(g_hi == 0.0, hi, lo)
    root = 0.5 * (lo + hi)
    side = np.zeros(len(lo))     # -1 / +1: end moved by the last step
    streak = np.zeros(len(lo))   # steps in a row that moved that end
    width = np.full((3, len(lo)), np.inf)   # widths one, two, three steps back
    inset = 0.25 * tol
    act = np.flatnonzero(hi - lo > tol)
    for _ in range(_MAX_STEPS):
        if not len(act):
            break
        a, b, ga, gb = lo[act], hi[act], g_lo[act], g_hi[act]
        last, run = side[act], streak[act]
        x = _model_root(a, b, ga, gb, n_l[act], n_r[act], w_l[act], w_r[act])
        push = np.maximum(inset, np.abs(x - np.where(last < 0.0, a, b)))
        x = np.where(run >= 2.0, x - last * push * 4.0 ** (run - 2.0), x)
        x = np.clip(x, a + inset, b - inset)
        x = np.where(b - a > 0.5 * width[2, act], 0.5 * (a + b), x)
        gx = g(x, act)
        root[act] = x
        move = np.sign(gx)       # -1: x replaces lo, +1: x replaces hi, 0: root
        lo[act] = np.where(move <= 0.0, x, a)
        hi[act] = np.where(move >= 0.0, x, b)
        g_lo[act] = np.where(move <= 0.0, gx, ga)
        g_hi[act] = np.where(move >= 0.0, gx, gb)
        width[1:, act] = width[:-1, act]
        width[0, act] = b - a
        streak[act] = np.where(move == last, run + 1.0, 1.0)
        side[act] = move
        act = act[hi[act] - lo[act] > tol]
    if len(act):
        k = int(act[0])
        raise NoConvergenceError(
            f"{where(k)}: root_tol={tol} not reached in {_MAX_STEPS} steps; "
            f"bracket [{lo[k]}, {hi[k]}]")
    return root


# ---------------------------------------------------------------------------
# chunk kernels: lane k of a chunk j_lo..j_hi is interval j_lo + k
# ---------------------------------------------------------------------------

def _padded(n: np.ndarray, w: np.ndarray, a: np.ndarray,
            b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rows n[a[r]:b[r]] with their weights, zero-padded to the widest row."""
    cols = a[:, None] + np.arange(int((b - a).max()))
    inside = cols < b[:, None]
    cols = np.minimum(cols, b[:, None] - 1)
    return n[cols], np.where(inside, w[cols], 0.0)


def _local_moments(n: np.ndarray, w: np.ndarray, c: np.ndarray, half: np.ndarray,
                   own: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Local expansions of sum_p w_p/(n_p - lam) about centres c[r], |lam - c[r]| <= half[r].

    Returns m of shape (K, rows) with m[k, r] = sum_p w_p (n_p - c[r])^{-(k+1)},
    so the sum is sum_k m[k, r] (lam - c[r])^k.  n is ascending; row r leaves
    out the points n[own[r][0]:own[r][1]], which its caller sums directly, and
    every other point lies at least 4*half[r] from c[r].  A point enters order
    k only while (half/|n - c|)^k > 4^-K for some row, so the first orders see
    every point and later ones a shrinking index range on each side.
    """
    inv = n[None, :] - c[:, None]
    for r, (a, b) in enumerate(own):
        inv[r, a:b] = np.inf
    np.divide(1.0, inv, out=inv)
    term = w * inv
    m = np.empty((_FAR_ORDER, len(c)))
    a, b = 0, len(n)
    for k in range(_FAR_ORDER):
        if k:
            reach = half * 4.0 ** (_FAR_ORDER / k)
            a = int(np.searchsorted(n, (c - reach).min(), side="right"))
            b = int(np.searchsorted(n, (c + reach).max(), side="left"))
            term[:, a:b] *= inv[:, a:b]
        m[k] = term[:, a:b].sum(axis=1)
    return m


def _weak_cutoff(table: ArithmeticTable, config: CouplingConfig, lam_top: float) -> float:
    """The cutoff of a weak chunk whose intervals end at lam_top, or
    TruncationError when it passes the table."""
    x = config.cutoff.bound(lam_top)
    if x > table.x_max:
        raise TruncationError(
            f"cutoff {x:.6g} for intervals up to n={lam_top:.0f} exceeds x_max")
    return x


def _points(table: ArithmeticTable, i0: int, i1: int) -> Tuple[np.ndarray, np.ndarray]:
    """The elements n[i0:i1] of N and their r2, as floats."""
    n = table.representable[i0:i1]
    return n.astype(np.float64), table.r2[n].astype(np.float64)


def _weak_kernel(table: ArithmeticTable, j_lo: int, j_hi: int, config: CouplingConfig):
    """Two-level far-field kernel at one frozen cutoff.

    The chunk takes the points outside its window, and the constant, from
    local expansions of the table's block moments; each sub-block of
    _SUB_BLOCK lanes sums its own window directly and expands the rest of
    the chunk's window about its own centre.  g.bound bounds |g - exact| at
    every lane from the expansions' truncation and the engine's errors,
    the rounding in g itself aside.
    """
    rep = table.representable
    n = rep[j_lo:j_hi + 2].astype(np.float64)
    x = _weak_cutoff(table, config, n[-1])

    def window(left, right):
        # centre, half-span and direct-sum reach of lanes spanning [left, right]
        half = 0.5 * (right - left)
        return 0.5 * (left + right), half, np.maximum(4.0 * half, 64.0)

    c, half, reach = window(n[0], n[-1])
    # integer keys: a float key would make numpy cast all of rep per call
    i0 = int(np.searchsorted(rep, math.ceil(c - reach), side="left"))
    i1 = int(np.searchsorted(rep, math.floor(min(c + reach, x)), side="right"))
    far, far_err, size = _local_sums(table, c, _FAR_ORDER, x, (i0, i1))
    const, const_err, _ = _local_sums(table, 1j, 1, x)
    const = -float(const[0].real)

    # sub-blocks: direct sums over their own windows, clamped to the chunk's,
    # zero-padded to the widest; the rest of the chunk's window is a ring
    starts = np.arange(0, len(n) - 1, _SUB_BLOCK)
    stops = np.minimum(starts + _SUB_BLOCK, len(n) - 1)
    c_sub, half_sub, reach_sub = window(n[starts], n[stops])
    win_n, win_w = _points(table, i0, i1)
    a = np.searchsorted(win_n, c_sub - reach_sub, side="left")
    b = np.searchsorted(win_n, c_sub + reach_sub, side="right")
    ring = _local_moments(win_n, win_w, c_sub, half_sub, list(zip(a, b)))
    near_n, near_w = _padded(win_n, win_w, a, b)

    def g(lams: np.ndarray, idx: np.ndarray) -> np.ndarray:
        sub = idx // _SUB_BLOCK
        xs, xb, coef = lams - c, lams - c_sub[sub], ring[:, sub]
        outer, inner = np.full_like(xs, far[-1]), coef[-1]
        for k in range(_FAR_ORDER - 2, -1, -1):
            outer = outer * xs + far[k]
            inner = inner * xb + coef[k]
        near = (near_w[sub] / (near_n[sub] - lams[:, None])).sum(axis=1)
        return near + inner + outer + const + _tail_term(lams, x) - config.theta
    # an expanded point at distance d > reach from its centre errs by at
    # most (4/3) (half/d)^K of its term, a ring point by (4/3) 4^-K of it
    g.bound = float(far_err @ half ** np.arange(_FAR_ORDER) + const_err[0]
                    + 4.0 / 3.0 * ((half / reach) ** _FAR_ORDER * size[0]
                                   + 4.0 ** -_FAR_ORDER * win_w.sum() / reach_sub.min()))
    return g


def _window_keys(n_j: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Integer bounds ceil(n_j - sqrt(n_j)), floor(n_j + sqrt(n_j)) of strong windows."""
    half = np.sqrt(n_j)
    return np.ceil(n_j - half).astype(np.int64), np.floor(n_j + half).astype(np.int64)


def _strong_kernel(table: ArithmeticTable, j_lo: int, j_hi: int, config: CouplingConfig):
    """Each lane's window |n - n_j| <= sqrt(n_j), zero-padded to the widest."""
    rep = table.representable
    n_j = rep[j_lo:j_hi + 1]
    if n_j[-1] + math.sqrt(n_j[-1]) > table.x_max:
        raise WindowOverflowError(
            f"window of n_j={int(n_j[-1])} exceeds x_max={table.x_max}")
    key_lo, key_hi = _window_keys(n_j)
    # integer keys: a float key would make numpy cast all of rep per call
    a = np.searchsorted(rep, key_lo, side="left")
    b = np.searchsorted(rep, key_hi, side="right")
    near_n, near_w = _padded(*_points(table, a[0], b[-1]), a - a[0], b - a[0])

    def g(lams: np.ndarray, idx: np.ndarray) -> np.ndarray:
        near = (near_w[idx] / (near_n[idx] - lams[:, None])).sum(axis=1)
        return near - config.rhs(lams)
    return g


def _solve_chunk(table: ArithmeticTable, j_lo: int, j_hi: int,
                 config: CouplingConfig) -> np.ndarray:
    """Roots of intervals j_lo..j_hi (inclusive), solved in lockstep."""
    kernel = _weak_kernel if config.mode == "weak" else _strong_kernel
    g = kernel(table, j_lo, j_hi, config)
    n, w = _points(table, j_lo, j_hi + 2)
    left, right, w_left, w_right = n[:-1], n[1:], w[:-1], w[1:]
    if config.mode == "strong":
        # a strong window may stop short of n_{j+1}; g then has no pole there
        w_right = np.where(right <= _window_keys(left)[1], w_right, 0.0)
    lo, hi, where = _brackets(left, right, j_lo)
    return _lockstep(g, lo, hi, (left, right, w_left, w_right), config.root_tol, where)


def _brackets(left: np.ndarray, right: np.ndarray, j_lo: int):
    """(lo, hi, where): the lanes' first brackets, just inside (n_j, n_{j+1}),
    and their names for error messages."""
    return (left + 1e-12 * np.maximum(left, 1.0), right - 1e-12 * np.maximum(right, 1.0),
            lambda k: f"interval j={j_lo + k} ({left[k]:.0f}, {right[k]:.0f})")


def _check_chunk(table: ArithmeticTable, block: Tuple[int, int],
                 config: CouplingConfig) -> None:
    """Raise what solving block = (j_lo, j_hi) raises before its kernel sums:
    TruncationError for a weak cutoff past the table, NoConvergenceError
    for a root_tol below the float resolution."""
    j_lo, j_hi = block
    n = table.representable[j_lo:j_hi + 2].astype(np.float64)
    if config.mode == "weak":
        _weak_cutoff(table, config, n[-1])
    lo, hi, where = _brackets(n[:-1], n[1:], j_lo)
    _check_resolution(lo, hi, config.root_tol, where)


def solve_interval(j: int, table: ArithmeticTable, config: CouplingConfig) -> float:
    """The unique root of (mode secular)(lam) = RHS on (n_j, n_{j+1}).

    j indexes table.representable; the interval is solved as a chunk of one
    by the same kernels and loop as solve_range.  The weak cutoff is frozen
    at the value the policy assigns to the right endpoint, which dominates
    every lam in the interval.
    """
    rep = table.representable
    if not 0 <= j < len(rep) - 1:
        raise IndexError(f"interval index {j} out of range")
    return float(_solve_chunk(table, j, j, config)[0])


def solve_ground(table: ArithmeticTable, config: CouplingConfig) -> float:
    """Root on the ground interval (-inf, n_0): bracket expands leftward.

    Skipped by solve_range (the asymptotics of interest are lam -> +inf);
    provided for completeness.  In strong mode the window is {0} and the
    equation -1/lam = beta has a root only for positive RHS.
    """
    if config.mode == "weak":
        def g1(lam: float) -> float:
            return weak_secular(lam, table, config) - config.rhs(lam)
    else:
        if config.beta_b != 0.0:
            raise ValueError("ground interval needs beta_b = 0 (log lam undefined)")

        def g1(lam: float) -> float:
            return strong_secular(lam, 0, table) - config.rhs(lam)

    lo = -2.0
    for _ in range(60):
        if g1(lo) < 0.0:
            break
        lo *= 2.0
    else:
        raise NoRootError("ground-interval bracket did not capture a sign change")

    def g(lams: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return np.array([g1(float(lam)) for lam in lams])
    # only the pole r2(0)/(0 - lam) at the right end; the left one is a dummy
    poles = ([2.0 * lo], [0.0], [0.0], [float(table.r2[0])])
    return float(_lockstep(g, [lo], [-2e-12], poles, config.root_tol,
                           lambda k: "ground interval")[0])


# ---------------------------------------------------------------------------
# ranged solving: chunks of intervals, optionally on threads
# ---------------------------------------------------------------------------

def solve_range(x_min: int, x_max_solve: int, table: ArithmeticTable,
                config: CouplingConfig, threads: Optional[int] = None,
                chunk: int = 512) -> SebaSpectrum:
    """Solve every interval of N inside [x_min, x_max_solve].

    One record per consecutive pair; records are sorted by interval index and
    the output is identical for any thread count (chunks are fixed by index,
    each chunk is solved independently, and results are reassembled in
    order).  Both modes run the same lockstep loop per chunk: weak mode with
    the two-level kernel, strong mode with padded local windows.  Chunks of
    chunk >= 1 intervals run on `threads` threads (None means one).
    """
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1 interval, got {chunk}")
    rep = table.representable
    if x_max_solve + math.sqrt(max(x_max_solve, 0)) > table.x_max:
        raise WindowOverflowError(
            f"x_max_solve={x_max_solve} needs sieved range past x_max={table.x_max}")
    i_lo = int(np.searchsorted(rep, x_min, side="left"))
    i_hi = int(np.searchsorted(rep, x_max_solve, side="right")) - 1
    if i_hi - i_lo < 1:
        raise EmptyWindowError(f"fewer than two elements of N in [{x_min}, {x_max_solve}]")
    js = np.arange(i_lo, i_hi, dtype=np.int64)
    blocks: List[Tuple[int, int]] = [
        (int(a), int(min(a + chunk - 1, i_hi - 1))) for a in range(i_lo, i_hi, chunk)]
    # both checks grow with n: if the top chunk passes, every chunk does;
    # else the first chunk that fails raises, before any work is done
    try:
        _check_chunk(table, blocks[-1], config)
    except (TruncationError, NoConvergenceError):
        for block in blocks:
            _check_chunk(table, block, config)
        raise
    if config.mode == "weak":    # the moments every chunk reads, before threads
        table.moments.upto(config.cutoff.bound(float(rep[i_hi])))

    def run(block: Tuple[int, int]) -> np.ndarray:
        return _solve_chunk(table, block[0], block[1], config)

    n_workers = 1 if threads is None else max(1, int(threads))
    if n_workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(run, blocks))
    else:
        parts = [run(b) for b in blocks]
    return SebaSpectrum.from_solutions(
        js, rep[i_lo:i_hi].astype(np.float64), rep[i_lo + 1:i_hi + 1].astype(np.float64),
        np.concatenate(parts))


# ---------------------------------------------------------------------------
# spacing statistics
# ---------------------------------------------------------------------------

def spacing_stats(spec: SebaSpectrum, x: float) -> Tuple[float, float, int]:
    """(mean Delta, mean gap_left, count) over records with lambda_k <= x."""
    mask = spec.lam <= x
    count = int(mask.sum())
    if count == 0:
        raise EmptyWindowError(f"no records with lambda <= {x}")
    return (float(spec.delta[mask].mean()),
            float(spec.gap_left[mask].mean()), count)


def alpha_estimate(spec: SebaSpectrum,
                   x_grid: Sequence[float]) -> List[Tuple[float, float]]:
    """Per-x exponent estimates (x, log mean_Delta(x) / log log x).

    Models mean Delta ~ (log x)^alpha.  The estimate reflects the scales
    actually present below x: a spectrum concentrated near x recovers a
    synthetic exponent sharply, while records spread over many decades mix
    scales (the cumulative mean is dominated by small lambda), so no limit
    is asserted here — the sequence itself is the deliverable.
    """
    out: List[Tuple[float, float]] = []
    for x in x_grid:
        if x <= math.e:
            raise ValueError(f"x={x} too small: log log x must be positive")
        mean_delta, _, _ = spacing_stats(spec, x)
        out.append((float(x), math.log(mean_delta) / math.log(math.log(x))))
    return out
