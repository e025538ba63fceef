"""Lattice sums over N from the table's block moments.

One engine serves both layers, the zeta sums of multifractal and the weak
secular kernel of spectrum: the one-level 1D fast multipole method
(Greengard & Rokhlin, J. Comput. Phys. 73, 1987; Dutt, Gu & Rokhlin, SIAM
J. Numer. Anal. 33, 1996).  The table keeps the moments
M_i(j) = sum_{n in block j} w(n) ((n - c_j)/h)^i, i < 32, of w = r2 and
w = 1 over flat blocks of h = 4096 integers, built on demand up to the
blocks a query reaches (BlockMoments.upto).  With D_j = c_j - lam, a block
away from lam enters through its binomial series,

    |n - lam|^{-s} = |D_j|^{-s} sum_i a_i (-h/D_j)^i ((n - c_j)/h)^i,
    a_i = (s)_i / i!,

and the rest is summed directly, so a query costs O(h) direct terms plus
O(blocks x order) series terms, not O(|N|).  _lattice_sums gives the zeta,
Shannon (coefficients a_i log|D| - sum_{1<=m<=i} a_{i-m}/m), annulus and
unweighted sums, each block keeping the terms its ratio (h/2)/|D| needs for
an error of 2^-56 of its value (_reach).  _local_sums gives the signed
local coefficients S_k = sum r2(n) (n - c)^{-(k+1)} about a centre c, real
or complex, by multipole-to-local translation, one (K x 31) @ (31 x blocks)
product after the exact i = 0 term:

    S_k = sum_j D_j^{-(k+1)} sum_i C(k+i, i) (-h/D_j)^i M_i(j),  D_j = c_j - c.

Both return bounds on their errors computed at run time.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np

_BLOCK_WIDTH = 4096    # integers per block of the moment tables
_BLOCK_ORDER = 32      # moments kept per block: orders 0 .. 31
_BLOCK_CHUNK = 64      # blocks per product: 12 MB of temporaries at 11M
_TRUNCATION = 2.0 ** -56   # series error allowed per expanded block, relative
_NEAR_BLOCKS = 2           # blocks each side of lambda's own, summed directly
_FAR_CELLS = 1 << 16       # lambda rows x blocks per far-field pass
_BINOM = np.array([[math.comb(k + i, i) for i in range(_BLOCK_ORDER)]
                   for k in range(_BLOCK_ORDER)], dtype=np.float64)


class BlockMoments:
    """Moments of N over the flat blocks [j h, (j + 1) h) of [0, x_max]:

        M_k(j) = sum_{n in N, j h <= n < (j + 1) h} w(n) ((n - c_j) / h)^k,
        c_j = j h + (h - 1) / 2,

    for k < _BLOCK_ORDER, with w = r2 in ``r2`` and w = 1 in ``unit`` (both
    of shape (order, blocks)).  N in block j is
    representable[start[j]:start[j + 1]].  Only the blocks below ``built``
    hold their moments; upto(x) builds the rest up to x.  Callers must not
    write to the arrays.
    """

    def __init__(self, representable: np.ndarray, r2: np.ndarray, x_max: int):
        h = self.width = _BLOCK_WIDTH
        blocks = x_max // h + 1
        self.start = np.searchsorted(
            representable, np.arange(blocks + 1, dtype=np.int64) * h)
        self.r2 = np.zeros((_BLOCK_ORDER, blocks))
        self.unit = np.zeros((_BLOCK_ORDER, blocks))
        self.built = 0
        self._rep, self._w = representable, r2   # not the table: no cycle
        self._lock = threading.Lock()

    def centre(self, j):
        return j * self.width + (self.width - 1) / 2.0

    def upto(self, x: float) -> "BlockMoments":
        """Builds, once, the moments of every block that starts at or below
        x, _BLOCK_CHUNK blocks at a time; safe from several threads."""
        end = min(self.r2.shape[1], math.floor(x) // self.width + 1)
        if self.built < end:
            with self._lock:
                u = (np.arange(self.width) - (self.width - 1) / 2.0) / self.width
                vander = u[:, None] ** np.arange(_BLOCK_ORDER)
                for j0 in range(self.built, end, _BLOCK_CHUNK):
                    j1 = min(j0 + _BLOCK_CHUNK, self.r2.shape[1])
                    _build_blocks(self, j0, j1, vander)
                    self.built = j1
        return self


def _build_blocks(mom: BlockMoments, j0: int, j1: int, vander: np.ndarray) -> None:
    """Both moment tables of blocks j0 <= j < j1, one product with the block
    Vandermonde matrix."""
    h = mom.width
    n = mom._rep[mom.start[j0]:mom.start[j1]]
    dense = np.zeros((2, (j1 - j0) * h))
    dense[0, n - j0 * h] = mom._w[n]
    dense[1, n - j0 * h] = 1.0
    m = dense.reshape(2 * (j1 - j0), h) @ vander
    mom.r2[:, j0:j1] = m[:j1 - j0].T
    mom.unit[:, j0:j1] = m[j1 - j0:].T


def _local_sums(table, centre, order, x, skip=(0, 0)):
    """Local expansion about ``centre`` of sum r2(n)/(n - lam) over the n in
    N, n <= x, outside representable[skip[0]:skip[1]]: (coef, bound, size),
    coef[k] = sum r2(n) (n - centre)^{-(k+1)} for k < order <= 26, bound[k]
    >= |coef[k] - exact| and size[k] >= sum r2(n) |n - centre|^{-(k+1)}.

    Blocks below x other than the centre's own, its neighbours and those
    holding a skipped point, so of ratio r = ((h - 1)/2)/|D| < 1/3, enter
    through 32 moments, cut with an error of at most
    W |D|^{-(k+1)} C(k+32, 32) r^32 / (1 - (k+33) r/33), W = M_0; the rest
    is summed directly.  To first order in u, the i = 0 and direct terms
    carry 3k + 6 roundings each and the i >= 1 terms 187 more (their
    powers, the product, and the moments' own error, within 64 u of
    sum |w| |u|^i); the sums run in long double.  A complex operation errs
    by at most three times a real one.
    """
    mom = table.moments.upto(x)
    h, rep, start = mom.width, table.representable, mom.start
    end = min(mom.r2.shape[1], (math.floor(x) + 1) // h)   # blocks wholly <= x
    i_x = int(np.searchsorted(rep, math.floor(x), side="right"))
    own = math.floor(centre.real / h)
    lo, hi = max(own - 1, 0), min(own + 1, mom.r2.shape[1] - 1)
    if skip[1] > skip[0]:
        lo, hi = min(lo, rep[skip[0]] // h), max(hi, rep[skip[1] - 1] // h)
    a, e = int(start[lo]), min(int(start[hi + 1]), i_x)
    s0, s1 = min(max(skip[0], a), e), min(max(skip[1], a), e)
    n = rep[np.r_[a:s0, s1:e, max(int(start[end]), int(start[hi + 1])):i_x]]
    cols = np.r_[0:min(lo, end), hi + 1:end]

    def powers(v, k):    # v, v^2, .., v^k as rows
        return np.cumprod(np.broadcast_to(v, (k, len(v))), axis=0)
    y = 1.0 / (mom.centre(cols) - centre)
    m, xp, yp = mom.r2[:, cols], powers(-h * y, _BLOCK_ORDER - 1), powers(y, order)
    binom = _BINOM[:order, 1:]
    direct = powers(1.0 / (n - centre), order) * table.r2[n]
    ext = np.promote_types(y.dtype, np.longdouble)
    coef = ((yp * (m[0] + binom @ (xp * m[1:]))).sum(axis=1, dtype=ext)
            + direct.sum(axis=1, dtype=ext)).astype(y.dtype)

    k, i = np.arange(order), _BLOCK_ORDER
    r = 0.5 * (h - 1) * np.abs(y)
    w0 = m[0] * np.abs(yp)
    trunc = (w0 * (_BINOM[:order, -1] * (k + i) / i)[:, None] * r ** i
             / (1.0 - (k[:, None] + i + 1) / (i + 1) * r)).sum(axis=1)
    rp = np.abs(xp) * ((h - 1) / (2.0 * h)) ** np.arange(1, i)[:, None]
    mag1 = (w0 * (binom @ rp)).sum(axis=1)
    size = w0.sum(axis=1) + mag1 + trunc + np.abs(direct).sum(axis=1)
    u = np.finfo(np.float64).eps / 2 * (3.0 if y.dtype.kind == "c" else 1.0)
    depth = float(np.finfo(ext).eps) * (math.log2(len(cols) + len(n) + 2) + 24)
    bound = trunc + u * ((3 * k + 6) * size + 187 * mag1) + depth * size
    return coef, bound, size


def _coefficients(s, order):
    """a_k = (s)_k/k! and c_k = da_k/ds = a_k psi_k for k < order: the
    series of (1 + y)^{-s} and of -(1 + y)^{-s} log(1 + y) in powers of -y."""
    k = np.arange(order - 1, dtype=np.float64)
    a = np.concatenate(([1.0], np.cumprod((s + k) / (k + 1.0))))
    return a, a * np.concatenate(([0.0], np.cumsum(1.0 / (s + k))))


@lru_cache(maxsize=64)
def _reach(s, log, width, order):
    """reach[k] for k <= order: a block centred closer than reach[k] to
    lambda needs its term of order k; one closer than reach[order] is summed
    directly.

    Write r = ((width - 1)/2) / |lam - c| for a block of centre c.  Its
    series cut after K terms is within rel(K, r) of the block's exact value,

        rel = gamma_K r^K (1 + r)^s / ((1 - rho_K r) low(r)),

    where gamma_k bounds the k-th coefficient, rho_K >= gamma_{k+1}/gamma_k
    for every k >= K, and low(r) <= (1 + r)^s times a point's exact term
    over |lam - c|^{-s}.  For the power kernel gamma_k = a_k = (s)_k/k!,
    rho_K = (s + K)/(K + 1) and low = 1; for the log kernel
    gamma_k = a_k (L + psi_k) with psi_k = sum_{i<k} 1/(s + i),
    L = log(width) <= log|lam - c|, one more 1/((K + 1)(L + psi_K)) in rho_K
    and low = L + log(1 - r).  reach[K] is the radius where rel(K, r) meets
    _TRUNCATION, found by bisection on r below 1/(2 _NEAR_BLOCKS + 1), the
    largest ratio of a block outside lambda's direct ones.
    """
    k = np.arange(order + 1, dtype=np.float64)
    gamma, c = _coefficients(s, order + 1)
    rho = np.maximum((s + k) / (k + 1.0), 1.0)
    lead = math.log(width)
    if log:
        rho = rho + gamma / ((k + 1.0) * (lead * gamma + c))
        gamma = lead * gamma + c

    def rel(r):
        low = lead + np.log1p(-r) if log else 1.0
        return gamma * r ** k * (1.0 + r) ** s / ((1.0 - rho * r) * low)

    lo = np.zeros(order + 1)
    hi = np.minimum(1.0 / rho, 1.0 / (2 * _NEAR_BLOCKS + 1))
    with np.errstate(over="ignore", divide="ignore"):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            ok = rel(mid) <= _TRUNCATION
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
        reach = 0.5 * (width - 1) / lo
    reach.setflags(write=False)
    return reach


def _far_field(mom, lams, lo, hi, end, kernels, reaches, unit):
    """Sum over the blocks j < end outside [lo, hi] of each row's series."""
    h = mom.width
    m = mom.unit if unit else mom.r2
    order = m.shape[0]
    cols = np.arange(end)
    d = mom.centre(cols)[None, :] - lams[:, None]
    far = (cols < lo[:, None]) | (cols > hi[:, None])
    d = np.where(far, d, np.inf)
    absd = np.abs(d)
    x = -h / d                       # -0.0 off the far field
    logd = None
    if any(log for _, log in kernels):
        logd = np.log(absd, out=np.zeros_like(absd), where=far)
    nearest = float(absd.min()) if absd.size else math.inf
    c0 = 0.5 * (h - 1)
    out = np.zeros((len(lams), len(kernels)))
    for i, ((s, log), reach) in enumerate(zip(kernels, reaches)):
        stop = int(np.count_nonzero(reach[:order] > nearest))
        # term k runs over the hull of every row's columns nearer than reach[k]
        first = np.clip(np.floor((lams[0] - reach - c0) / h), 0, end)
        last = np.clip(np.ceil((lams[-1] + reach - c0) / h) + 1, 0, end)
        a_k, c_k = _coefficients(s, order)
        pw = absd ** -s
        acc = np.zeros_like(pw)
        accl = np.zeros_like(pw) if log else None
        tmp = np.empty_like(pw)
        for k in range(stop):
            j0, j1 = int(first[k]), int(last[k])
            p, t = pw[:, j0:j1], tmp[:, j0:j1]
            acc[:, j0:j1] += np.multiply(p, a_k[k] * m[k, j0:j1], out=t)
            if log:
                accl[:, j0:j1] += np.multiply(p, c_k[k] * m[k, j0:j1], out=t)
            p *= x[:, j0:j1]
        out[:, i] = (logd * acc - accl if log else acc).sum(axis=1)
    return out


def _lattice_sums(table, lams, kernels, x=None, gaps=(0.0,), unit=False):
    """Sums over n in N, n <= x, |n - lam| >= g of w(n) |n - lam|^{-s},
    times log|n - lam| for a log kernel, with w = r2 (w = 1 when ``unit``).

    ``kernels`` lists (s, log) pairs, ``gaps`` the excluded radii g (0 for
    none); x defaults to the table bound.  Returns the sums, shape
    (lams, kernels, gaps), and the truncation bound of their far fields,
    shape (lams, kernels), which every gap shares.
    """
    x = float(table.x_max if x is None else x)
    mom = table.moments.upto(x)
    h = mom.width
    order, blocks = mom.r2.shape
    rep = table.representable
    lams = np.asarray(lams, dtype=np.float64)
    reaches = [_reach(float(s), bool(log), h, order) for s, log in kernels]
    near = max(r[order] for r in reaches)
    g_lo, g_hi = min(gaps), max(gaps)
    c0 = 0.5 * (h - 1)
    # direct blocks: lambda's own and _NEAR_BLOCKS on each side, those a
    # series of `order` terms cannot reach, and those within 1 of the
    # excluded annulus
    own = np.floor(lams / h)
    lo = np.minimum.reduce([own - _NEAR_BLOCKS,
                            np.floor((lams - near - c0) / h),
                            np.floor((lams - g_hi - 1.0) / h)])
    hi = np.maximum.reduce([own + _NEAR_BLOCKS,
                            np.ceil((lams + near - c0) / h),
                            np.floor((lams + g_hi + 1.0) / h)])
    lo = np.clip(lo, 0, blocks - 1).astype(np.int64)
    hi = np.clip(hi, 0, blocks - 1).astype(np.int64)
    end = min(blocks, (math.floor(x) + 1) // h)   # blocks wholly <= x
    i_x = int(np.searchsorted(rep, math.floor(x), side="right"))

    values = np.empty((len(lams), len(kernels), len(gaps)))
    far = np.empty((len(lams), len(kernels)))
    sort = np.argsort(lams, kind="stable")
    rows = max(1, _FAR_CELLS // max(end, 1))
    for r0 in range(0, len(lams), rows):
        idx = sort[r0:r0 + rows]
        far[idx] = _far_field(mom, lams[idx], lo[idx], hi[idx], end,
                              kernels, reaches, unit)
    start = mom.start
    for i, lam in enumerate(lams):
        a = int(start[lo[i]])
        e = min(int(start[hi[i] + 1]), i_x)
        s0 = s1 = e
        if g_lo >= 2.0:      # integers this near lam are excluded for sure
            s0 = max(a, min(e, int(np.searchsorted(
                rep, math.floor(lam - g_lo) + 2))))
            s1 = max(s0, min(e, int(np.searchsorted(
                rep, math.ceil(lam + g_lo) - 2, side="right"))))
        cut = max(int(start[end]), int(start[hi[i] + 1]))
        n = np.concatenate((rep[a:s0], rep[s1:e], rep[cut:i_x]))
        d = np.abs(n.astype(np.float64) - lam)
        if g_lo > 0.0:
            n, d = n[d >= g_lo], d[d >= g_lo]
        w = 1.0 if unit else table.r2[n]
        keep = [None if g == g_lo else d >= g for g in gaps]
        for k, (s, log) in enumerate(kernels):
            t = w * d ** -s
            if log:
                t *= np.log(d)
            for j, mask in enumerate(keep):
                values[i, k, j] = np.sum(t if mask is None else t[mask]) \
                    + far[i, k]
    bound = _TRUNCATION / (1.0 - _TRUNCATION) * np.abs(far)
    return values, bound
