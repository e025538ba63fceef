"""Output checks computed apart from the program.

Each check recomputes what it tests from first principles (lattice walks,
trial division, direct sums, mpmath closed forms) or from a property the
method must have (interlacing, identities, reflection laws).  None compares
against a saved copy of earlier output.  A failed check raises CheckFailed;
the weak-root check instead reports roots without a sign change, because the
weak solver is known to return some of those (see README.md).

Sums of positive terms are compared with an exactly rounded reference:
`exact_sum` adds in 80-bit extended precision, an error far below one double
ulp for every sum checked here (the lattice-sums workload confirms a seeded
sample of them against math.fsum).
"""

from __future__ import annotations

import json
import math

import mpmath as mp
import numpy as np

U = 2.0 ** -53          # unit roundoff of float64


class CheckFailed(AssertionError):
    """An output of the program failed an independent check."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def exact_sum(terms):
    """Sum of positive float64 terms, exactly rounded in practice."""
    return float(np.asarray(terms, dtype=np.longdouble).sum())


def sum_tolerance(terms_abs_total, count):
    """Rounding allowance of the program's pairwise float64 sum."""
    return (math.log2(max(count, 2)) + 16.0) * U * terms_abs_total


def require_sum(value, terms, what):
    ref = exact_sum(terms)
    tol = sum_tolerance(ref, len(terms))
    require(abs(value - ref) <= tol,
            f"{what}: program {value!r} vs exact sum {ref!r} (tol {tol:.2e})")
    return ref


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def lattice_r2(limit):
    """r2(n) for 0 <= n <= limit by walking the disc x^2 + y^2 <= limit."""
    r = math.isqrt(limit)
    xs = np.arange(-r, r + 1, dtype=np.int64)
    out = np.zeros(limit + 1, dtype=np.int64)
    for x in xs:
        ys = xs[np.abs(xs) <= math.isqrt(limit - int(x) * int(x))]
        np.add.at(out, int(x) * int(x) + ys * ys, 1)
    return out


def direct_r2(n):
    """r2(n) from the pairs (x, y) with x^2 + y^2 = n."""
    if n == 0:
        return 1
    xs = np.arange(0, math.isqrt(n) + 1, dtype=np.int64)
    rem = n - xs * xs
    ys = np.sqrt(rem.astype(np.float64)).astype(np.int64)
    ys += (ys + 1) * (ys + 1) <= rem
    ys -= ys * ys > rem
    hit = ys * ys == rem
    mult = np.where(xs[hit] > 0, 2, 1) * np.where(ys[hit] > 0, 2, 1)
    return int(mult.sum())


def small_primes(limit):
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return [int(p) for p in np.flatnonzero(sieve)]


def direct_omega1(n, primes):
    """Distinct primes p = 1 mod 4 dividing n, by trial division."""
    count = 0
    for p in primes:
        if p * p > n:
            break
        if n % p == 0:
            count += p % 4 == 1
            while n % p == 0:
                n //= p
    if n > 1:
        count += n % 4 == 1
    return count


def check_sieve(table, rng, samples=200, walk_limit=10_000, always=()):
    """r2 against a lattice walk, seeded direct r2 and omega1 counts (plus
    those at `always`), the representable set, and the circle law at
    x = 10^3 .. 10^6."""
    r2 = table.r2
    require(np.array_equal(r2[:walk_limit + 1], lattice_r2(walk_limit)),
            f"r2 differs from the lattice walk below {walk_limit}")
    require(np.array_equal(table.representable, np.flatnonzero(r2)),
            "representable set is not {n : r2(n) > 0}")
    rep = table.representable
    ns = np.concatenate((rng.integers(0, table.x_max + 1, samples // 2),
                         rep[rng.integers(0, len(rep), samples - samples // 2)],
                         np.asarray(always, dtype=np.int64)))
    primes = small_primes(math.isqrt(table.x_max) + 1)
    for n in ns.tolist():
        require(int(r2[n]) == direct_r2(n), f"r2({n}) = {int(r2[n])}, direct count {direct_r2(n)}")
        if n >= 1:
            want = direct_omega1(n, primes)
            require(int(table.omega1[n]) == want,
                    f"omega1({n}) = {int(table.omega1[n])}, trial division {want}")
    for x in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        if x <= table.x_max:
            total = int(r2[:x + 1].sum(dtype=np.int64))
            require(abs(total - math.pi * x) <= 10.0 * x ** 0.75,
                    f"circle law fails at x={x}: sum r2 = {total}")
    return len(ns)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def check_records(rep, j, n_left, n_right, lam, x_min, x_max):
    """One record per interval of N in [x_min, x_max], strictly interlaced."""
    i_lo = int(np.searchsorted(rep, x_min, side="left"))
    i_hi = int(np.searchsorted(rep, x_max, side="right")) - 1
    want = np.arange(i_lo, i_hi, dtype=np.int64)
    require(len(j) == len(want) and np.array_equal(np.asarray(j), want),
            f"records are not one per interval of [{x_min}, {x_max}]")
    require(np.array_equal(np.asarray(n_left), rep[i_lo:i_hi])
            and np.array_equal(np.asarray(n_right), rep[i_lo + 1:i_hi + 1]),
            "record endpoints are not consecutive elements of N")
    lam = np.asarray(lam)
    require(bool(np.all(lam > n_left)) and bool(np.all(lam < n_right)),
            "a root is not strictly inside its interval")


def _probes(lam, tol):
    lo, hi = lam - tol, lam + tol
    if lam - lo < tol:
        lo = math.nextafter(lo, -math.inf)
    if hi - lam < tol:
        hi = math.nextafter(hi, math.inf)
    return lo, hi


class WeakSecular:
    """The weak secular function, summed directly at a frozen cutoff X:

        g(lam) = sum_{n in N, n <= X} r2(n) [1/(n - lam) - n/(n^2 + 1)]
                 + pi log(sqrt(X^2 + 1)/(X - lam)) - theta.
    """

    def __init__(self, rep, r2_rep):
        self.n = np.asarray(rep, dtype=np.float64)
        self.w = np.asarray(r2_rep, dtype=np.float64)
        self.rep = rep
        self._const = {}

    def _constant(self, cut):
        if cut not in self._const:
            n, w = self.n[:cut], self.w[:cut]
            self._const[cut] = math.fsum((w * n / (n * n + 1.0)).tolist())
        return self._const[cut]

    def value(self, lam, x_cut, theta):
        """g(lam), summed again exactly when float64 cannot decide its sign."""
        cut = int(np.searchsorted(self.rep, math.floor(x_cut), side="right"))
        terms = self.w[:cut] / (self.n[:cut] - lam)
        mag = float(np.abs(terms).sum())
        const = self._constant(cut)
        tail = math.pi * math.log(math.sqrt(x_cut * x_cut + 1.0) / (x_cut - lam))
        rest = tail - const - theta
        g = float(terms.sum()) + rest
        err = sum_tolerance(mag, cut) + 8.0 * U * (mag + const + abs(tail) + abs(theta))
        if abs(g) <= err:   # too close to call in float64: sum exactly
            g = math.fsum(terms.tolist()) + rest
            err = 4.0 * U * (mag + const + abs(tail) + abs(theta))
            require(abs(g) > err, f"weak secular sign at lambda={lam!r} is undecidable")
        return g

    def sign_change(self, lam, x_cut, theta, tol):
        lo, hi = _probes(lam, tol)
        return self.value(lo, x_cut, theta) <= 0.0 <= self.value(hi, x_cut, theta)


def cutoff_bound(multiplier=10.0, min_span=1.0e4):
    """The weak truncation rule X = max(multiplier*max(lam, 1), lam + min_span)."""
    return lambda lam: max(multiplier * max(lam, 1.0), lam + min_span)


def chunk_cutoffs(rep, x_min, x_max, bound, chunk=512):
    """Per-record cutoff that solve_range documents: one frozen bound per
    chunk of `chunk` intervals, taken at the chunk's right end."""
    i_lo = int(np.searchsorted(rep, x_min, side="left"))
    i_hi = int(np.searchsorted(rep, x_max, side="right")) - 1
    out = np.empty(i_hi - i_lo)
    for a in range(i_lo, i_hi, chunk):
        b = min(a + chunk - 1, i_hi - 1)
        out[a - i_lo:b - i_lo + 1] = bound(float(rep[b + 1]))
    return out


def weak_roots_missing_tol(secular, lam, cutoffs, theta, tol, picks):
    """Indices in picks whose root has no sign change within tol."""
    return [int(k) for k in picks
            if not secular.sign_change(float(lam[k]), float(cutoffs[k]), theta, tol)]


def strong_window_sum(rep, r2, n_j, lam):
    half = math.sqrt(n_j)
    lo = int(np.searchsorted(rep, math.ceil(n_j - half), side="left"))
    hi = int(np.searchsorted(rep, math.floor(n_j + half), side="right"))
    n = rep[lo:hi]
    n = n[(n >= n_j - half) & (n <= n_j + half)]
    return math.fsum((r2[n] / (n.astype(np.float64) - lam)).tolist())


def strong_roots_missing_tol(rep, r2, n_left, lam, beta_c, tol, picks):
    missing = []
    for k in picks:
        lo, hi = _probes(float(lam[k]), tol)
        n_j = int(n_left[k])
        if not (strong_window_sum(rep, r2, n_j, lo) - beta_c <= 0.0
                <= strong_window_sum(rep, r2, n_j, hi) - beta_c):
            missing.append(int(k))
    return missing


# ---------------------------------------------------------------------------
# multifractal sums
# ---------------------------------------------------------------------------

class TableSums:
    """Direct sums over a table's representable set, in the modules'
    documented definitions."""

    def __init__(self, table):
        self.table = table
        self.rep = table.representable
        self.n = self.rep.astype(np.float64)
        self.w = table.r2[self.rep].astype(np.float64)

    def upto(self, x):
        return int(np.searchsorted(self.rep, math.floor(x), side="right"))

    def zeta_terms(self, lam, s, x=None):
        cut = len(self.rep) if x is None else self.upto(x)
        return self.w[:cut] * np.abs(self.n[:cut] - lam) ** -s

    def shannon(self, lam, x=None):
        cut = len(self.rep) if x is None else self.upto(x)
        d = np.abs(self.n[:cut] - lam)
        w = self.w[:cut] * d ** -2.0
        z = exact_sum(w)
        return math.log(z) + 2.0 * math.fsum((w * np.log(d)).tolist()) / z

    def tail_tau_terms(self, t, G, q):
        d = np.abs(self.n - t)
        keep = d >= G
        return self.w[keep] * d[keep] ** (-2.0 * q)

    def mean_tail_terms(self, T, G, q):
        """Per-lattice-term integrals of |t-m|^{-2q} over t in [T, 2T] with
        G <= |t-m| <= T, from the antiderivative u^{1-2q}/(1-2q)."""
        m_hi = int(3.0 * T)
        r2 = self.table.r2[:m_hi + 1].astype(np.float64)
        m = np.arange(m_hi + 1, dtype=np.float64)
        p = 1.0 - 2.0 * q
        total = np.zeros(m_hi + 1)
        # t - m = u > 0 with G <= u <= T, and m - t = v > 0 with G <= v <= T
        for a, b in ((np.maximum(T - m, G), np.minimum(2.0 * T - m, T)),
                     (np.maximum(m - 2.0 * T, G), np.minimum(m - T, T))):
            ok = b > a
            total[ok] += (np.power(b[ok], p) - np.power(a[ok], p)) / p
        return r2 * total

    def annulus_sum(self, m, q, g):
        d = np.abs(self.n - float(m))
        return exact_sum(d[d >= g] ** (-2.0 * q))


def check_zeta(sums, value, tail_bound, lam, s, x=None):
    terms = sums.zeta_terms(lam, s, x)
    ref = require_sum(value, terms, f"zeta_lambda({lam!r}, {s}, X={x})")
    if x is not None:
        full = exact_sum(sums.zeta_terms(lam, s))
        require(0.0 <= full - ref <= tail_bound + sum_tolerance(full, len(sums.rep)),
                f"truncated zeta at X={x} is {full - ref:.3e} below the full "
                f"table value, certified tail {tail_bound:.3e}")
    return ref


def check_profile(sums, prof, x=None):
    for q in prof.zeta2q:
        z = check_zeta(sums, prof.zeta2q[q], prof.tail_bound[q], prof.lam, 2.0 * q, x)
        m = prof.delta ** (2.0 * q) * z
        require(abs(prof.m_q[q] - m) <= 1e-12 * m, f"m_q at q={q} is not Delta^2q zeta")
        ratio = prof.zeta2q[q] / prof.zeta2q[1.0] ** q
        require(abs(prof.moment_ratio(q) - ratio) <= 1e-12 * ratio,
                f"M_q = m_q/m_1^q fails at q={q}")
    h1 = math.log(prof.m_q[1.0])
    for q, big_h in prof.H_q.items():
        if q == 1.0:
            want = sums.shannon(prof.lam, x)
        else:
            want = (math.log(prof.m_q[q]) - q * h1) / (1.0 - q)
        require(abs(big_h - want) <= 1e-10 * max(1.0, abs(want)),
                f"H_q at q={q}: {big_h!r} vs {want!r}")


def check_mean_tail(sums, got, T, G, q):
    terms = sums.mean_tail_terms(T, G, q)
    ref = exact_sum(terms)
    require(abs(got.value * T - ref) <= 1e-11 * ref,
            f"mean_tail q={q}: {got.value * T!r} vs {ref!r}")
    pred = 2.0 * math.pi / (2.0 * q - 1.0) * G ** (1.0 - 2.0 * q)
    require(0.95 <= got.value / pred <= 1.05,
            f"mean_tail q={q}: ratio {got.value / pred:.4f} outside [0.95, 1.05]")


def gap_survivors(rep, x_lo, x_hi, eps, stride):
    """Stride-grid elements of N in [x_lo, x_hi] passing the gap predicate,
    as density_filter's docstring defines them."""
    lo = max(1, int(np.searchsorted(rep, max(16, x_lo))))
    hi = min(len(rep) - 1, int(np.searchsorted(rep, x_hi, side="right")))
    idx = np.arange(lo, hi, stride)
    m = rep[idx]
    gap = np.minimum(m - rep[idx - 1], rep[idx + 1] - m)
    return m[gap >= np.log(m.astype(np.float64)) ** (0.5 - eps)], lo


def check_density_hits(sums, hits, x_lo, x_hi, q_values, eps, g_values,
                       stride, max_count, rng, sample=3):
    rep = sums.rep
    hits = np.asarray(hits)
    require(len(hits) <= max_count, "density_filter returned more than max_count")
    require(bool(np.all(np.diff(hits) > 0)), "density_filter hits do not ascend")
    survivors, lo = gap_survivors(rep, x_lo, x_hi, eps, stride)
    require(bool(np.all(np.isin(hits, survivors))),
            "a density_filter hit is off the stride grid or fails the gap predicate")
    require(len(hits) == 0 or (hits[0] >= max(16, x_lo) and hits[-1] <= x_hi),
            "density_filter hit outside the range")
    picks = rng.choice(len(hits), size=min(sample, len(hits)), replace=False) \
        if len(hits) else []
    for k in sorted(int(p) for p in picks):
        m = int(hits[k])
        el = math.log(m) ** (0.5 - eps)
        for q in q_values:
            for g in g_values:
                s = sums.annulus_sum(m, q, g)
                bound = math.log(g) ** 2 / (g ** (2.0 * q - 1.0) * el)
                require(s <= bound * (1.0 + 1e-12),
                        f"hit {m} fails the annulus predicate at q={q}, G={g}")
    return len(picks)


def block_extreme(n_t, values, pick):
    k = np.floor(np.log2(n_t)).astype(np.int64)
    means = [float(np.mean(values[k == e])) for e in np.unique(k)]
    return pick(means)


def check_fractal(spec, table, rep_out, q_grid, window, normal_eps=0.25,
                  delta_eps=0.25):
    """Recompute d_hat (simple normalization) and c_hat from the estimator
    definitions in multifractal's docstrings, with this module's sums."""
    x_lo, x_hi = window
    keep = (spec.n_tilde >= max(16, x_lo)) & (spec.n_tilde <= x_hi)
    lam, delta = spec.lam[keep], spec.delta[keep]
    n_t = np.rint(spec.n_tilde[keep]).astype(np.int64)
    loglog = np.log(np.log(n_t))
    ok = np.abs(np.log(table.r2[n_t]) / loglog - 0.5 * math.log(2.0)) <= normal_eps
    lam, delta, n_t, loglog = lam[ok], delta[ok], n_t[ok], loglog[ok]
    alpha = block_extreme(n_t, np.log(delta) / loglog, max)
    ok = delta <= np.log(n_t) ** (alpha + delta_eps)
    lam, delta, n_t, loglog = lam[ok], delta[ok], n_t[ok], loglog[ok]
    require(rep_out.n_records == len(lam),
            f"fractal_estimates kept {rep_out.n_records} records, definitions give {len(lam)}")
    require(abs(rep_out.alpha_hat - alpha) <= 1e-12, "alpha_hat differs from its definition")
    sums = TableSums(table)
    h = {}
    for q in sorted(set(q_grid) | {1.0}):
        z = np.array([exact_sum(sums.zeta_terms(float(x), 2.0 * q)) for x in lam])
        h[q] = 2.0 * q * np.log(delta) + np.log(z)
    scale = 1.0 / (0.5 * math.log(2.0))
    for q in q_grid:
        want = scale * block_extreme(n_t, h[q] / loglog, max)
        require(abs(rep_out.d_hat[q] - want) <= 1e-9 * max(1.0, abs(want)),
                f"d_hat[{q}] = {rep_out.d_hat[q]!r}, definition gives {want!r}")
    c_hat = block_extreme(n_t, h[1.0] / loglog, min)
    require(abs(rep_out.c_hat - c_hat) <= 1e-9 * max(1.0, abs(c_hat)),
            f"c_hat = {rep_out.c_hat!r}, definition gives {c_hat!r}")
    return len(q_grid) + 1


# ---------------------------------------------------------------------------
# Epstein zeta
# ---------------------------------------------------------------------------

def square_lattice_zeta(s, dps=30):
    """4 zeta(s) beta(s), the Epstein zeta of m^2 + n^2."""
    with mp.workdps(dps):
        s = mp.mpf(s)
        beta = 4 ** -s * (mp.zeta(s, mp.mpf(1) / 4) - mp.zeta(s, mp.mpf(3) / 4))
        return float(4 * mp.zeta(s) * beta)


def chowla_selberg(a, s, dps=20):
    """zeta_Q(s) for Q = a^2 m^2 + a^-2 n^2 by the Chowla-Selberg formula:

      2 a^{2s} zeta(2s) + 2 sqrt(pi) a^{2-2s} Gamma(s-1/2) zeta(2s-1)/Gamma(s)
        + 8 pi^s a^{2s}/Gamma(s) sum_{N>=1} K_{s-1/2}(2 pi N a^2)
                                  sum_{k | N} (k^2/(a^2 N))^{s-1/2}

    valid for real s away from 1, 1/2 and the poles of Gamma(s - 1/2).  The
    Bessel series stops where K is below e^-50 of its scale."""
    a = max(a, 1.0 / a)     # zeta_Q is symmetric under a -> 1/a
    with mp.workdps(dps):
        a, s = mp.mpf(a), mp.mpf(s)
        nu = s - mp.mpf(1) / 2
        val = (2 * a ** (2 * s) * mp.zeta(2 * s)
               + 2 * mp.sqrt(mp.pi) * a ** (2 - 2 * s) * mp.gamma(nu)
               * mp.zeta(2 * s - 1) * mp.rgamma(s))
        acc = mp.mpf(0)
        n = 1
        while 2 * mp.pi * n * a * a <= 50:
            divisors = sum((k * k / (a * a * n)) ** nu for k in range(1, n + 1) if n % k == 0)
            acc += divisors * mp.besselk(nu, 2 * mp.pi * n * a * a)
            n += 1
        val += 8 * mp.pi ** s * a ** (2 * s) * mp.rgamma(s) * acc
        return float(val)


def phi(s, dps=30):
    with mp.workdps(dps):
        s = mp.mpf(s)
        return float(mp.pi ** (2 * s - 1) * mp.gamma(1 - s) / mp.gamma(s))


def check_epstein_value(got, want, what, rel=4.0 * U):
    tol = got.certified_error + rel * abs(want)
    require(abs(got.value - want) <= tol,
            f"{what}: {got.value!r} vs independent {want!r} (tol {tol:.2e})")


def check_epstein(a, out):
    """out: dict with 'direct', 'continued' (s -> EpsteinValue), 'derivative',
    'fd' (central difference), 'ground' (q -> (d, D)), 'symmetry' (q -> r)."""
    n = 0
    is_square = a == 1.0
    # The continued route rounds the lattice values a^2 m^2 + n^2/a^2 to
    # float64, which its certified_error leaves out: at a != 1 it misses its
    # certificate by up to ~5 ulp on a few aspect ratios in a thousand.  There
    # it is held to 1e-12 relative, the tolerance of the d*_q check below; at
    # a = 1, where those values are exact, to its certificate.
    cont_rel = 4.0 * U if is_square else 1e-12
    for s, got in out["direct"].items():
        want = square_lattice_zeta(s) if is_square else chowla_selberg(a, s)
        check_epstein_value(got, want, f"epstein_direct(a={a}, s={s})")
        n += 1
    for s, got in out["continued"].items():
        want = square_lattice_zeta(s) if is_square else chowla_selberg(a, s)
        check_epstein_value(got, want, f"epstein_continued(a={a}, s={s})", cont_rel)
        n += 1
        if s in out["direct"]:
            d = out["direct"][s]
            require(abs(d.value - got.value) <= d.certified_error + got.certified_error
                    + 4.0 * U * abs(got.value),
                    f"direct and continued disagree at a={a}, s={s}")
        if 1.0 - s in out["continued"] and s < 0.5:
            other = out["continued"][1.0 - s]
            f = phi(s)
            tol = (got.certified_error + abs(f) * other.certified_error
                   + 8.0 * U * (abs(got.value) + abs(f * other.value)))
            require(abs(got.value - f * other.value) <= tol,
                    f"functional equation fails at a={a}, s={s}")
    deriv, fd = out["derivative"], out["fd"]
    require(abs(deriv - fd) <= 1e-8 + 1e-9,
            f"zeta_Q'(2) = {deriv!r} vs central difference {fd!r} at a={a}")
    n += 1
    qs = sorted(out["ground"])
    for q in qs:
        d_star, big_d = out["ground"][q]
        want = math.log(chowla_selberg(a, 2.0 * q))
        require(abs(d_star - want) <= 1e-12 * max(1.0, abs(want)),
                f"d*_{q} = {d_star!r} vs log zeta_Q(2q) = {want!r}")
        n += 1
    big_ds = [out["ground"][q][1] for q in qs]
    require(all(b <= a_ + 1e-12 for a_, b in zip(big_ds, big_ds[1:])),
            f"D*_q increases with q at a={a}: {big_ds}")
    for q, resid in out["symmetry"].items():
        require(resid < 1e-8, f"symmetry residual {resid!r} at a={a}, q={q}")
        if q == 0.25:
            require(resid == 0.0, f"symmetry residual at q=1/4 is {resid!r}, not 0")
        n += 1
    return n

# ---------------------------------------------------------------------------
# command-line reports
# ---------------------------------------------------------------------------

def parse_report(data, version):
    """(config, columns, rows) for a CSV report; (config, report) for JSON."""
    text = data.decode()
    if text.startswith("#"):
        lines = text.splitlines()
        require(lines[0] == f"# sebalab {version}", "CSV report lacks its version line")
        require(lines[1].startswith("# config: "), "CSV report lacks its config line")
        cfg = json.loads(lines[1][len("# config: "):])
        columns = lines[2].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[3:]]
        require(all(len(r) == len(columns) for r in rows), "ragged CSV report")
        return cfg, columns, rows
    doc = json.loads(text)
    require(doc["version"] == version, "JSON report has another version")
    return doc["config"], doc["report"]


def check_config(cfg, line, rerun_of=None):
    """Every argument on the command line appears in the embedded config;
    a rerun embeds the config of the report it re-executed."""
    argv = line.split()
    if argv[0] == "rerun":
        require(cfg == rerun_of, "rerun embedded another config than its source")
        return
    require(cfg["command"] == argv[0], f"config command {cfg['command']} for `{line}`")
    for flag, text in zip(argv[1::2], argv[2::2]):
        if flag == "--out":
            continue
        key = flag[2:].replace("-", "_")
        got = cfg[key]
        if key == "q_grid":
            want = [float(v) for v in text.split(",")]
        elif isinstance(got, str):
            want = text
        else:
            want = type(got)(float(text))
        require(got == want, f"config {key}={got!r} but the command passed {text}")


class WalkTable:
    """r2 and the representable set from a lattice walk, shaped like a table."""

    def __init__(self, r2_walk, x_max):
        self.x_max = x_max
        self.r2 = r2_walk[:x_max + 1]
        self.representable = np.flatnonzero(self.r2)


def check_sieve_rows(report):
    cfg, cols, rows = report
    r2 = lattice_r2(cfg["x_max"])
    want = [(n, int(r2[n])) for n in range(cfg["x_max"] + 1) if r2[n]]
    require([(int(r[0]), int(r[1])) for r in rows] == want,
            "sieve rows differ from the lattice walk")
    primes = small_primes(math.isqrt(cfg["x_max"]) + 1)
    require(all(int(r[2]) == direct_omega1(int(r[0]), primes) for r in rows if r[0] >= 1),
            "sieve omega1 differs from trial division")


def check_spectrum_rows(report, walk, rng, picks=64):
    """Records, gaps and seeded sign changes of a `spectrum` report."""
    cfg, cols, rows = report
    arr = np.array(rows)
    j, n_left, n_right, lam = (arr[:, 0].astype(np.int64), arr[:, 1], arr[:, 2], arr[:, 3])
    rep = walk.representable
    check_records(rep, j, n_left, n_right, lam, cfg["x_min"], cfg["x_max"])
    require(np.array_equal(arr[:, 6], np.minimum(lam - n_left, n_right - lam)),
            "spectrum: delta is not the smaller gap")
    picks = np.sort(rng.choice(len(lam), min(picks, len(lam)), replace=False))
    if cfg["mode"] == "weak":
        bound = cutoff_bound(cfg["multiplier"], cfg["min_span"])
        cut = chunk_cutoffs(rep, cfg["x_min"], cfg["x_max"], bound)
        bad = weak_roots_missing_tol(WeakSecular(rep, walk.r2[rep]), lam, cut,
                                     cfg["theta"], cfg["root_tol"], picks)
    else:
        bad = strong_roots_missing_tol(rep, walk.r2, n_left, lam, cfg["beta_c"],
                                       cfg["root_tol"], picks)
    require(not bad, "spectrum: roots without a sign change within root_tol")


def check_moments_rows(report, walk):
    cfg, cols, rows = report
    sums = TableSums(WalkTable(walk.r2, cfg["table_max"]))
    for row in rows:
        lam, delta = row[0], row[1]
        values = dict(zip(cols, row))
        for q in cfg["q_grid"]:
            z = exact_sum(sums.zeta_terms(lam, 2.0 * q))
            m = values[f"m[{q:g}]"]
            require(abs(m - delta ** (2.0 * q) * z) <= 1e-12 * m,
                    f"moments: m[{q:g}] at lambda={lam}")
            ratio = m / values["m[1]"] ** q
            require(abs(values[f"M[{q:g}]"] - ratio) <= 1e-12 * ratio,
                    "moments: M_q != m_q/m_1^q")


def check_exponents_report(report):
    cfg, rep = report
    require(rep["n_records"] == sum(rep["block_counts"]) > 0, "exponents: block counts")
    for q, g in rep["G"].items():
        require(abs(rep["N"][q] - 2.0 * math.pi * g) <= 1e-12 * rep["N"][q],
                "exponents: N != 2 pi G")
        require(math.isfinite(rep["d_hat"][q]), "exponents: d_hat not finite")
    if rep["theory_applicable"]:
        alpha = rep["alpha_hat"]
        lo, hi = rep["q_admissible"]
        require(abs(lo - (1.0 - math.log(2.0)) / (2.0 - 4.0 * alpha)) <= 1e-12
                and abs(hi - 1.0 / (2.0 - 4.0 * alpha)) <= 1e-12, "exponents: q_admissible")


def check_tail_rows(report):
    cfg, cols, rows = report
    for t, g, q, value, _, pred, ratio in rows:
        require(abs(g - t ** cfg["g_exponent"]) <= 1e-12 * g, "tail: G != T^g")
        want = 2.0 * math.pi / (2.0 * q - 1.0) * g ** (1.0 - 2.0 * q)
        require(abs(pred - want) <= 1e-12 * want, "tail: prediction formula")
        require(abs(ratio - value / pred) <= 1e-12 and 0.95 <= ratio <= 1.05,
                f"tail: ratio {ratio} at q={q}")


def check_epstein_report(report):
    cfg, rep = report
    a, s = cfg["a"], rep["s"]
    want = square_lattice_zeta(s) if a == 1.0 else chowla_selberg(a, s)
    require(abs(rep["value"] - want) <= rep["certified_error"] + 4 * U * abs(want),
            f"epstein a={a} s={s}: {rep['value']!r} vs independent {want!r}")


def check_symmetry_rows(report):
    cfg, cols, rows = report
    for a, q, d_star, big_d, resid in rows:
        if 2.0 * q > 1.0:
            want = math.log(chowla_selberg(a, 2.0 * q))
            require(abs(d_star - want) <= 1e-12 * max(1.0, abs(want)),
                    f"symmetry a={a}: d*_{q} vs log zeta_Q(2q)")
        if 0.0 < q < 0.5:
            require(resid < 1e-8 and (q != 0.25 or resid == 0.0),
                    f"symmetry a={a}: residual {resid} at q={q}")


def check_cli_reports(reports, rng):
    """Row checks of every report of the session; one operation each."""
    walk = WalkTable(lattice_r2(500_000), 500_000)
    for name, report in reports.items():
        command = report[0]["command"]
        if command == "sieve":
            check_sieve_rows(report)
        elif command == "spectrum":
            check_spectrum_rows(report, walk, rng)
        elif command == "moments":
            check_moments_rows(report, walk)
        elif command == "exponents":
            check_exponents_report(report)
        elif command == "tail":
            check_tail_rows(report)
        elif command == "epstein":
            check_epstein_report(report)
        elif command == "symmetry":
            check_symmetry_rows(report)
    return len(reports)
