import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sebalab import lattice, spectrum
from sebalab.arithmetic import ArithmeticTable, build_table
from sebalab.spectrum import (CouplingConfig, CutoffPolicy, EmptyWindowError,
                              NoConvergenceError, NoRootError, SebaSpectrum,
                              SecularPoleError, TruncationError,
                              WindowOverflowError, alpha_estimate,
                              solve_ground, solve_interval, solve_range,
                              spacing_stats, strong_secular, weak_secular)

WEAK = CouplingConfig(mode="weak", theta=0.0)
STRONG = CouplingConfig(mode="strong", beta_c=1.0, beta_b=0.0)

_SMALL_TABLE = build_table(60_000)


@pytest.fixture(scope="module")
def table():
    return build_table(1_000_000)


@pytest.fixture(scope="module")
def big_table():
    # the acceptance gate's sieve, where lambda ~ 10^6 roots have full cutoffs
    return build_table(11_000_000)


def toy_table(reps, r2_values, x_max):
    """Hand-built arithmetic table for contrived secular configurations."""
    r2 = np.zeros(x_max + 1, dtype=np.int32)
    for n, v in zip(reps, r2_values):
        r2[n] = v
    return ArithmeticTable(x_max=x_max, r2=r2,
                           omega1=np.zeros(x_max + 1, dtype=np.int8),
                           representable=np.array(reps, dtype=np.int64))


# ------------------------------------------------------------- secular fns --

def test_weak_pole_signs(table):
    # simple poles: value -> +inf from the left of n in N, -inf from the right
    assert weak_secular(5.0 - 1e-9, table, WEAK) > 1e7
    assert weak_secular(5.0 + 1e-9, table, WEAK) < -1e7


def test_weak_pole_error_and_regular_point(table):
    with pytest.raises(SecularPoleError):
        weak_secular(13.0, table, WEAK)
    weak_secular(3.0, table, WEAK)  # 3 is not representable: fine


def test_weak_derivative_positive(table):
    h = 1e-6
    for lam in (0.5, 7.3, 123.4):
        d = (weak_secular(lam + h, table, WEAK) - weak_secular(lam - h, table, WEAK))
        assert d > 0


def test_weak_cutoff_doubling_stability(table):
    # the tail-corrected value moves by far less than 1e-6 when the
    # truncation bound doubles
    v1 = weak_secular(0.5, table, WEAK, x_cutoff=1.0e4)
    v2 = weak_secular(0.5, table, WEAK, x_cutoff=2.0e4)
    assert abs(v1 - v2) < 1e-6


def test_weak_truncation_error():
    small = build_table(10_000)
    with pytest.raises(TruncationError):
        weak_secular(5000.5, small, WEAK)
    with pytest.raises(ValueError):
        weak_secular(100.5, small, WEAK, x_cutoff=500.0)  # bound < 10*lam


def test_cutoff_policy_validation():
    with pytest.raises(ValueError):
        CutoffPolicy(multiplier=5.0)
    with pytest.raises(ValueError):
        CutoffPolicy(min_span=0.0)
    assert CutoffPolicy().bound(50.0) == 10_050.0
    assert CutoffPolicy().bound(5000.0) == 50_000.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_config_rejected(bad):
    for kwargs in ({"multiplier": bad}, {"min_span": bad}):
        with pytest.raises(ValueError, match="finite"):
            CutoffPolicy(**kwargs)
    for kwargs in ({"theta": bad}, {"beta_c": bad}, {"root_tol": bad}):
        with pytest.raises(ValueError, match="finite"):
            CouplingConfig(mode="weak", **kwargs)


def test_config_validation():
    with pytest.raises(ValueError):
        CouplingConfig(mode="medium")
    with pytest.raises(ValueError):
        CouplingConfig(mode="weak", root_tol=0.0)
    with pytest.raises(ValueError):
        CouplingConfig(mode="strong", beta_b=1.0)
    cfg = CouplingConfig(mode="strong", beta_c=2.5, beta_b=0.0)
    assert cfg.rhs(123.0) == 2.5  # beta_b = 0 means constant beta


def test_strong_window_and_resummation(table):
    j = 1200
    n_j = int(table.representable[j])
    lam = n_j + 0.5
    got = strong_secular(lam, j, table)
    # independent re-summation in reversed order, straight from the table
    half = math.sqrt(n_j)
    acc = 0.0
    for n in range(int(n_j + half), int(math.ceil(n_j - half)) - 1, -1):
        if 0 <= n <= table.x_max and table.r2[n] > 0:
            acc += float(table.r2[n]) / (n - lam)
    assert got == pytest.approx(acc, rel=1e-12)


def test_strong_window_overflow():
    small = build_table(1000)
    j = len(small.representable) - 2
    with pytest.raises(WindowOverflowError):
        strong_secular(float(small.representable[j]) + 0.5, j, small)


def test_strong_pole_signs(table):
    j = 900
    n_j, n_j1 = (int(table.representable[j]), int(table.representable[j + 1]))
    assert strong_secular(n_j + 1e-9, j, table) < -1e7
    assert strong_secular(n_j1 - 1e-9, j, table) > 1e7


# -------------------------------------------------------------- monotonicity --

@settings(max_examples=40, deadline=None)
@given(st.integers(2, 800), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_secular_monotone_property(j, f1, f2):
    # strictly increasing between consecutive poles, both modes
    t = _SMALL_TABLE
    n_lo = float(t.representable[j])
    n_hi = float(t.representable[j + 1])
    a, b = sorted((n_lo + f1 * (n_hi - n_lo), n_lo + f2 * (n_hi - n_lo)))
    if b - a < 1e-9:
        return
    assert weak_secular(a, t, WEAK) < weak_secular(b, t, WEAK)
    assert strong_secular(a, j, t) < strong_secular(b, j, t)


# ------------------------------------------------------------ interval solve --

def test_solve_interval_against_bisection_oracle(table):
    cfg = CouplingConfig(mode="weak", theta=0.0, root_tol=1e-12)
    lam = solve_interval(1, table, cfg)
    x = cfg.cutoff.bound(2.0)
    lo, hi = 1 + 1e-12, 2 - 1e-12
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if weak_secular(mid, table, cfg, x_cutoff=x) < 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(lam - 0.5 * (lo + hi)) < 1e-10
    assert 1.0 < lam < 2.0


def test_two_point_window_midpoint():
    # window of n_j = 40 is [33.7, 46.3], catching exactly {40, 44} with
    # equal multiplicities: antisymmetry puts the beta=0 root at the midpoint
    t = toy_table([0, 40, 44, 100], [1, 4, 4, 4], 160)
    lam = solve_interval(1, t, CouplingConfig(mode="strong", beta_c=0.0))
    assert lam == pytest.approx(42.0, abs=1e-9)


def test_rhs_limits_push_root_to_endpoints():
    t = toy_table([0, 40, 44, 100], [1, 4, 4, 4], 160)
    near_right = solve_interval(1, t, CouplingConfig(mode="strong", beta_c=1e7))
    near_left = solve_interval(1, t, CouplingConfig(mode="strong", beta_c=-1e7))
    assert 44.0 - near_right < 1e-4
    assert near_left - 40.0 < 1e-4


def test_no_root_when_window_excludes_neighbour(table):
    # n_j = 2: the window [2-sqrt(2), 2+sqrt(2)] misses n_{j+1} = 4, so the
    # window sum stays negative on the whole interval
    with pytest.raises(NoRootError):
        solve_interval(2, table, STRONG)


def test_root_residual_shrinks_with_tolerance(table):
    js = [7, 300]
    for j in js:
        resid = []
        for tol in (1e-5, 1e-11):
            cfg = CouplingConfig(mode="weak", theta=0.0, root_tol=tol)
            lam = solve_interval(j, table, cfg)
            x = cfg.cutoff.bound(float(table.representable[j + 1]))
            resid.append(abs(weak_secular(lam, table, cfg, x_cutoff=x)))
        assert resid[1] < resid[0]


def test_theta_moves_roots_right(table):
    for j in (1, 5, 44):
        lams = [solve_interval(j, table, CouplingConfig(mode="weak", theta=th))
                for th in (-4.0, 0.0, 4.0)]
        assert lams[0] <= lams[1] <= lams[2]


def test_root_tol_below_float_resolution_raises(table):
    # near n ~ 9e4 the spacing of float64 is ~1.5e-11, so a 1e-16 tolerance
    # is unachievable and must be reported, not silently rounded up
    j = int(np.searchsorted(table.representable, 90_000)) - 2
    with pytest.raises(NoConvergenceError):
        solve_interval(j, table, CouplingConfig(mode="weak", root_tol=1e-16))


def test_solve_range_fails_before_building_moments():
    # a cutoff past the table and a root_tol below the float resolution are
    # known from the chunk bounds alone: solve_range raises them, with the
    # message of the first chunk that would fail, before any block is built
    fresh = build_table(1_000_000)
    with pytest.raises(TruncationError,
                       match=r"cutoff 1.01722e\+06 for intervals up to n=101722 exceeds x_max"):
        solve_range(95_000, 120_000, fresh, WEAK)
    assert fresh.moments.built == 0
    j = int(np.searchsorted(fresh.representable, 2048))
    with pytest.raises(NoConvergenceError,
                       match=rf"interval j={j} \(2048, 2050\): root_tol=1e-13 is below"):
        solve_range(1000, 90_000, fresh, CouplingConfig(mode="weak", root_tol=1e-13))
    assert fresh.moments.built == 0


def test_solve_ground_weak_and_strong(table):
    lam = solve_ground(table, WEAK)
    assert lam < 0.0
    assert abs(weak_secular(lam, table, WEAK)) < 1e-5
    # strong ground window is {0}: -1/lam = beta_c gives lam = -1/beta_c
    lam_s = solve_ground(table, CouplingConfig(mode="strong", beta_c=2.0))
    assert lam_s == pytest.approx(-0.5, abs=1e-9)


# -------------------------------------------------------------- range solve --

def test_solve_range_record_count_and_interlacing(table):
    spec = solve_range(1000, 20_000, table, WEAK)
    rep = table.representable
    inside = rep[(rep >= 1000) & (rep <= 20_000)]
    assert len(spec) == len(inside) - 1
    assert np.all(spec.lam > spec.n_left)
    assert np.all(spec.lam < spec.n_right)
    assert np.all(np.diff(spec.j) == 1)


def test_spectrum_record_fields(table):
    spec = solve_range(1000, 5000, table, WEAK)
    assert np.allclose(spec.gap_left, spec.lam - spec.n_left)
    assert np.allclose(spec.gap_right, spec.n_right - spec.lam)
    assert np.array_equal(spec.delta, np.minimum(spec.gap_left, spec.gap_right))
    assert np.array_equal(spec.delta, np.abs(spec.n_tilde - spec.lam))
    half_gap = (spec.n_right - spec.n_left) / 2.0
    assert np.all(spec.delta <= half_gap + WEAK.root_tol)
    # tie rule: nearest eigenvalue, preferring the smaller on exact ties
    closer_left = spec.gap_left < spec.gap_right
    assert np.all(spec.n_tilde[closer_left] == spec.n_left[closer_left])


def test_solve_range_matches_interval_solver_at_small_lambda(table):
    # chunked solving freezes one truncation bound per chunk, the scalar
    # path freezes it per interval; at small lambda the two policies agree
    # to well below the spacing scale
    spec = solve_range(1000, 3000, table, WEAK)
    for k in range(0, len(spec), 37):
        lam_scalar = solve_interval(int(spec.j[k]), table, WEAK)
        assert abs(lam_scalar - float(spec.lam[k])) < 1e-4


def test_solve_range_deterministic_and_thread_invariant(table):
    a = solve_range(1000, 30_000, table, WEAK)
    b = solve_range(1000, 30_000, table, WEAK)
    c = solve_range(1000, 30_000, table, WEAK, threads=4)
    assert np.array_equal(a.lam, b.lam)
    assert np.array_equal(a.lam, c.lam)


def test_solve_range_strong(table):
    spec = solve_range(2500, 20_000, table, STRONG)
    assert np.all(spec.lam > spec.n_left) and np.all(spec.lam < spec.n_right)
    # residual of the quantization condition at the solved points
    j = int(spec.j[len(spec) // 2])
    lam = float(spec.lam[len(spec) // 2])
    assert abs(strong_secular(lam, j, table) - STRONG.beta_c) < 1e-3


def _probes(lam, tol):
    # lam -/+ tol, pushed out one ulp where rounding left them closer
    lo, hi = lam - tol, lam + tol
    if lam - lo < tol:
        lo = math.nextafter(lo, -math.inf)
    if hi - lam < tol:
        hi = math.nextafter(hi, math.inf)
    return lo, hi


def test_weak_far_chunk_roots_within_root_tol(big_table):
    # one 512-interval chunk at theta = -20 near 9.1e5: every root must have
    # a sign change of the directly summed secular function within root_tol,
    # at the cutoff the chunk froze (the policy bound at its right end)
    rep = big_table.representable
    cfg = CouplingConfig(mode="weak", theta=-20.0)
    i0 = int(np.searchsorted(rep, 910_000))
    spec = solve_range(int(rep[i0]), int(rep[i0 + 512]), big_table, cfg)
    assert len(spec) == 512
    x = cfg.cutoff.bound(float(rep[i0 + 512]))
    # weak_secular's sum, with the table columns and the constant hoisted out
    # of the loop (weak_secular gathers ~2M table entries on every call)
    cut = rep[:int(np.searchsorted(rep, math.floor(x), side="right"))]
    n = cut.astype(np.float64)
    w = big_table.r2[cut].astype(np.float64)
    rest = -float(np.dot(w, n / (n * n + 1.0))) - cfg.theta

    def g(lam):
        return (float(np.dot(w, 1.0 / (n - lam))) + rest
                + math.pi * math.log(math.sqrt(x * x + 1.0) / (x - lam)))

    lam0 = float(spec.lam[0]) + 0.25
    assert g(lam0) == pytest.approx(
        weak_secular(lam0, big_table, cfg, x_cutoff=x) - cfg.theta, abs=1e-9)
    for lam in spec.lam:
        lo, hi = _probes(float(lam), cfg.root_tol)
        assert g(lo) <= 0.0 <= g(hi), f"no sign change within root_tol of {lam!r}"


def test_strong_roots_within_root_tol_near_900k(big_table):
    rep = big_table.representable
    i0 = int(np.searchsorted(rep, 900_000))
    spec = solve_range(int(rep[i0]), int(rep[i0 + 256]), big_table, STRONG)
    assert len(spec) == 256
    for j, lam in zip(spec.j, spec.lam):
        lo, hi = _probes(float(lam), STRONG.root_tol)
        assert strong_secular(lo, int(j), big_table) - STRONG.beta_c <= 0.0
        assert strong_secular(hi, int(j), big_table) - STRONG.beta_c >= 0.0


@pytest.fixture
def lane_evals(monkeypatch):
    """Counts the lane evaluations of every g the chunk kernels return."""
    evals = [0]

    def counted(kernel):
        def make(*args):
            g = kernel(*args)

            def g_counted(lams, idx):
                evals[0] += len(lams)
                return g(lams, idx)
            return g_counted
        return make

    monkeypatch.setattr(spectrum, "_weak_kernel", counted(spectrum._weak_kernel))
    monkeypatch.setattr(spectrum, "_strong_kernel", counted(spectrum._strong_kernel))
    return evals


def test_strong_roots_where_window_excludes_right_neighbour(lane_evals):
    # n_j = 2, 5, 20: n_{j+1} = 4, 8, 25 lies outside |n - n_j| <= sqrt(n_j),
    # so g has no pole at the right end; beta_c = -8 puts a root inside.  A
    # model that puts a pole there still converges through its bisection
    # steps, but needs 16 evaluations per root
    t = _SMALL_TABLE
    cfg = CouplingConfig(mode="strong", beta_c=-8.0)
    for j in (2, 4, 12):
        n_j, n_next = int(t.representable[j]), int(t.representable[j + 1])
        assert n_next - n_j > math.sqrt(n_j)
        lane_evals[0] = 0
        lam = solve_interval(j, t, cfg)
        assert n_j < lam < n_next
        assert lane_evals[0] <= 12
        lo, hi = _probes(lam, cfg.root_tol)
        assert strong_secular(lo, j, t) - cfg.beta_c <= 0.0
        assert strong_secular(hi, j, t) - cfg.beta_c >= 0.0


def test_lane_evaluations_per_root(table, big_table, lane_evals):
    # the pole-aware step needs about 7-8 evaluations of each lane's g per
    # root (two of them at the interval ends); bisecting to a narrow bracket
    # first needs 18-20
    rep = big_table.representable
    i0 = int(np.searchsorted(rep, 910_000))
    cases = [(1000, 30_000, table, WEAK), (2500, 30_000, table, STRONG),
             (int(rep[i0]), int(rep[i0 + 512]), big_table,
              CouplingConfig(mode="weak", theta=-20.0))]
    for x_lo, x_hi, t, cfg in cases:
        lane_evals[0] = 0
        spec = solve_range(x_lo, x_hi, t, cfg)
        assert lane_evals[0] / len(spec) <= 10.0, (cfg, lane_evals[0] / len(spec))


@pytest.fixture
def weak_kernels(monkeypatch):
    """(g, j_lo, j_hi, config) of every weak chunk kernel the solvers build."""
    built = []
    kernel = spectrum._weak_kernel

    def capture(table, j_lo, j_hi, config):
        g = kernel(table, j_lo, j_hi, config)
        built.append((g, j_lo, j_hi, config))
        return g
    monkeypatch.setattr(spectrum, "_weak_kernel", capture)
    return built


@pytest.mark.parametrize("big, theta, x0, count, chunk", [
    (True, -20.0, 910_000, 512, 512),   # the far-field chunk at acceptance scale
    (False, 0.0, 30_000, 512, 512),
    (False, -3.0, 20_000, 250, 100),    # chunks of 100, 100, 50: partial sub-blocks
    (False, 0.0, 40_000, 1, None),      # solve_interval, a chunk of one
])
def test_weak_kernel_matches_direct_sum(big, theta, x0, count, chunk, table, big_table,
                                        weak_kernels):
    # every lane's g, at the midpoint of its interval, against the directly
    # summed weak secular function at the chunk's frozen cutoff.  Bound per
    # lane: g.bound, the kernel's computed bound on its expansions'
    # truncation and the block-moment engine's errors; each side adds up to
    # ~2M terms pairwise (numpy sums 128-element leaves in 8 lanes:
    # 19 + log2(N/128) roundings deep, one more forming a term), so each
    # errs by at most (13 + log2 N) u sum|terms|.  At midpoints no pole is
    # nearer than half a gap, so sum|terms| < 350 and the bound stays below
    # 3e-12; the differences seen are below 1e-13.
    t = big_table if big else table
    rep = t.representable
    cfg = CouplingConfig(mode="weak", theta=theta)
    i0 = int(np.searchsorted(rep, x0))
    if chunk is None:
        solve_interval(i0, t, cfg)
    else:
        solve_range(int(rep[i0]), int(rep[i0 + count]), t, cfg, chunk=chunk)
    sizes = [hi - lo + 1 for _, lo, hi, _ in weak_kernels]
    assert sizes == [min(chunk or 1, count - k) for k in range(0, count, chunk or 1)]
    u = np.finfo(np.float64).eps / 2
    for g, j_lo, j_hi, c in weak_kernels:
        x = c.cutoff.bound(float(rep[j_hi + 1]))
        cut = rep[:int(np.searchsorted(rep, math.floor(x), side="right"))]
        n = cut.astype(np.float64)
        w = t.r2[cut].astype(np.float64)
        const = w * n / (n * n + 1.0)
        lams = 0.5 * (rep[j_lo:j_hi + 1] + rep[j_lo + 1:j_hi + 2]).astype(np.float64)
        fast = g(lams, np.arange(len(lams)))
        const_sum, poles = const.sum(), np.empty_like(n)
        for lam, got in zip(lams, fast):
            np.divide(w, np.subtract(n, lam, out=poles), out=poles)
            k = int(np.searchsorted(n, lam))
            below, above = poles[:k].sum(), poles[k:].sum()
            want = (below + above - const_sum - cfg.theta
                    + math.pi * math.log(math.sqrt(x * x + 1.0) / (x - lam)))
            size = above - below + const_sum
            bound = g.bound + 2 * (13 + math.log2(len(n))) * u * size
            assert bound < 3e-12
            assert abs(got - want) <= bound, (lam, got - want, bound)


def test_local_sums_match_exact_sums_at_far_chunk(big_table):
    # the far chunk of 512 intervals at 9.1e5 (theta = -20) expands every
    # point outside its window and the constant sum r2(n) n/(n^2+1) from the
    # block moments: each S_k about the chunk centre, and S_0 about i, is
    # within its returned bound of the sum over the same points in long
    # double, whose own error (a few long-double ulps per term) is far below
    rep = big_table.representable
    cfg = CouplingConfig(mode="weak", theta=-20.0)
    i0 = int(np.searchsorted(rep, 910_000))
    left, right = float(rep[i0]), float(rep[i0 + 512])
    x = cfg.cutoff.bound(right)
    c, half = 0.5 * (left + right), 0.5 * (right - left)
    reach = max(4.0 * half, 64.0)
    s0 = int(np.searchsorted(rep, math.ceil(c - reach)))
    s1 = int(np.searchsorted(rep, math.floor(min(c + reach, x)), side="right"))
    order = spectrum._FAR_ORDER
    coef, bound, size = lattice._local_sums(big_table, c, order, x, (s0, s1))
    n = rep[:int(np.searchsorted(rep, math.floor(x), side="right"))]
    n = np.concatenate((n[:s0], n[s1:]))
    w = big_table.r2[n].astype(np.longdouble)
    inv = 1.0 / (n.astype(np.longdouble) - np.longdouble(c))
    term = w * inv
    slack = 64 * np.finfo(np.longdouble).eps
    for k in range(order):
        want = term.sum()
        mag = np.abs(term).sum()
        assert mag <= size[k]
        assert abs(np.longdouble(coef[k]) - want) <= bound[k] + slack * mag, k
        term *= inv
    # the evaluated series at |lam - c| <= half: the error budget of g
    assert float(bound @ half ** np.arange(order)) < 1e-13
    assert bound[0] < 4e-15 * size[0]

    (const,), (err,), _ = lattice._local_sums(big_table, 1j, 1, x)
    n = rep[:int(np.searchsorted(rep, math.floor(x), side="right"))]
    m = n.astype(np.longdouble)
    want = (big_table.r2[n] * (m / (m * m + 1))).sum()
    assert abs(np.longdouble(const.real) - want) <= err + slack * want
    assert err < 5e-15 * want


def test_solve_range_builds_moments_once_before_threads(monkeypatch):
    # a fresh table: the weak solve builds the moment ranges its chunks read,
    # each once, before any chunk kernel runs, and no more blocks than it
    # needs; threads do not change the records
    events = []
    build, kernel = lattice._build_blocks, spectrum._weak_kernel
    monkeypatch.setattr(lattice, "_build_blocks", lambda mom, j0, j1, v: (
        events.append(("build", j0, j1)), build(mom, j0, j1, v))[1])
    monkeypatch.setattr(spectrum, "_weak_kernel", lambda *args: (
        events.append(("kernel",)), kernel(*args))[1])
    t = build_table(1_000_000)
    two = solve_range(1000, 40_000, t, WEAK, threads=2)
    builds = [e[1:] for e in events if e[0] == "build"]
    assert events[:len(builds)] == [("build",) + b for b in builds]
    assert len(events) > len(builds) + 2           # several chunks ran
    assert [b[0] for b in builds] == [0] + [b[1] for b in builds[:-1]]
    needed = math.floor(WEAK.cutoff.bound(40_000.0)) // 4096 + 1
    assert needed <= builds[-1][1] < t.moments.start.size - 1
    del events[:]
    one = solve_range(1000, 40_000, t, WEAK, threads=1)
    assert not [e for e in events if e[0] == "build"]
    for f in ("j", "n_left", "n_right", "lam"):
        assert np.array_equal(getattr(one, f), getattr(two, f))


def test_weak_far_solve_thread_invariant(big_table):
    rep = big_table.representable
    i0 = int(np.searchsorted(rep, 910_000))
    cfg = CouplingConfig(mode="weak", theta=-20.0)
    one = solve_range(int(rep[i0]), int(rep[i0 + 3 * 512 + 100]), big_table, cfg, threads=1)
    two = solve_range(int(rep[i0]), int(rep[i0 + 3 * 512 + 100]), big_table, cfg, threads=2)
    assert np.array_equal(one.lam, two.lam)


def test_solve_range_rejects_bad_chunk(table):
    for chunk in (0, -1):
        with pytest.raises(ValueError, match="chunk"):
            solve_range(1000, 5000, table, WEAK, chunk=chunk)


def test_solve_range_strong_names_interval_without_root(table):
    with pytest.raises(NoRootError, match=r"interval j=2 "):
        solve_range(2, 10, table, STRONG)


def test_solve_range_strong_thread_invariant(table):
    one = solve_range(2500, 50_000, table, STRONG, threads=1)
    four = solve_range(2500, 50_000, table, STRONG, threads=4)
    assert len(one) > 4 * 512
    assert np.array_equal(one.lam, four.lam)


def test_solve_range_window_precondition(table):
    with pytest.raises(WindowOverflowError):
        solve_range(900_000, 999_999, table, STRONG)
    with pytest.raises(EmptyWindowError):
        solve_range(1000, 1001, table, WEAK)


# ------------------------------------------------------------ spacing stats --

def synthetic_spectrum(lams, deltas):
    lams = np.asarray(lams, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    j = np.arange(len(lams))
    # gap_left = delta (the minimum); right gap comfortably larger
    return SebaSpectrum.from_solutions(j, lams - deltas, lams + 3 * deltas, lams)


def test_spacing_stats_basics():
    one = synthetic_spectrum([100.0], [0.25])
    m, gl, c = spacing_stats(one, 200.0)
    assert (m, gl, c) == (0.25, 0.25, 1)
    many = synthetic_spectrum([10.0, 20.0, 30.0], [0.5, 0.5, 0.5])
    assert spacing_stats(many, 25.0) == (0.5, 0.5, 2)
    with pytest.raises(EmptyWindowError):
        spacing_stats(many, 5.0)


def test_weak_mean_delta_bounded_and_theta_trend(table):
    # theta = 0: mean Delta * sqrt(log x) stays bounded by a small constant
    spec = solve_range(1000, 90_000, table, WEAK)
    consts = []
    for x in (8000, 16_000, 32_000, 64_000, 90_000):
        m, _, _ = spacing_stats(spec, x)
        consts.append(m * math.sqrt(math.log(x)))
    assert max(consts) < 2.0
    # a decreasing trend of the same normalized mean emerges at negative
    # theta (roots forced toward the left eigenvalue at growing rate)
    spec_neg = solve_range(1000, 90_000, table,
                           CouplingConfig(mode="weak", theta=-20.0))
    trend = []
    for x in (8000, 16_000, 32_000, 64_000, 90_000):
        m, _, _ = spacing_stats(spec_neg, x)
        trend.append(m * math.sqrt(math.log(x)))
    assert all(a > b for a, b in zip(trend, trend[1:]))


def test_alpha_estimate_synthetic_exact():
    x = 1.0e6
    lams = x - np.arange(1000.0)
    # Delta == (log lam)^0.4 exactly
    spec = synthetic_spectrum(lams, np.log(lams) ** 0.4)
    (_, alpha), = alpha_estimate(spec, [x])
    assert abs(alpha - 0.4) < 1e-3
    # Delta == 1 -> alpha == 0
    spec1 = synthetic_spectrum(lams, np.ones_like(lams))
    (_, a0), = alpha_estimate(spec1, [x])
    assert a0 == 0.0
    # Delta == sqrt(log lam) with all records at x -> exactly 1/2
    spec2 = synthetic_spectrum(np.full(100, x), np.sqrt(np.log(np.full(100, x))))
    (_, ah), = alpha_estimate(spec2, [x])
    assert abs(ah - 0.5) < 1e-11


def test_alpha_estimate_validation():
    spec = synthetic_spectrum([10.0, 20.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        alpha_estimate(spec, [2.0])
    with pytest.raises(EmptyWindowError):
        alpha_estimate(spec, [5.0])
