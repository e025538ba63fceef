"""The three workloads: seeded inputs, set-up, one round of calls, checks.

Every round of a run makes the same calls on the same inputs, so round
times are comparable and outputs must repeat.  A workload object offers

  setup()               -> state       (timed, repeated setup_repeats times;
                                        setup_s is the median times setup_scale)
  prepare(state)                       (seeded inputs; needs the set-up)
  round(state, k, tracer) -> outputs   (round k; k = 0 is the reference)
  check(state, outputs) -> (ops, failed, missing)
  same(ref, outputs)    -> None or raises CheckFailed

Library calls go through module attributes (``spectrum.solve_range``), so a
Tracer installed on the package sees them.
"""

from __future__ import annotations

import contextlib
import math
import os
import subprocess
import sys
import time

import numpy as np

import sebalab
from sebalab import arithmetic, epstein, multifractal, spectrum

import checks
from checks import require

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

BIG_TABLE = 11_000_000          # the acceptance gate's sieve
CHUNK = 512                     # solve_range's default chunk


def _stage(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _window(rep, i0, count):
    """(x_min, x_max) whose solve_range covers intervals i0 .. i0+count-1."""
    return int(rep[i0]), int(rep[i0 + count])


def _perturbed(a, k):
    # a new aspect ratio per round, so epstein's lru_caches miss as in a
    # fresh process; the change is far below every tolerance checked
    return a * (1.0 + k * 2.0 ** -40)


# ---------------------------------------------------------------------------
# spectrum-sweep
# ---------------------------------------------------------------------------

class SpectrumSweep:
    """Secular roots on the 11M table in three regimes."""

    name = "spectrum-sweep"
    setup_repeats, setup_scale = 3, 1
    warmup = True

    # weak far field: fixed windows, so the roots the solver leaves wider
    # than root_tol (a known fault) are the same in every run and seed
    FAR_STARTS = (910_000, 960_000)
    FAR_THETA = -20.0
    FAR_PICK_STEP = 8
    NEAR_WINDOWS, NEAR_INTERVALS, NEAR_PICKS = 1, 4096, 64
    STRONG_INTERVALS = 256

    def __init__(self, rng, outdir):
        self.rng = rng

    def setup(self):
        return arithmetic.build_table(BIG_TABLE)

    def prepare(self, table):
        rep = table.representable
        idx = lambda x: int(np.searchsorted(rep, x))
        self.far = [_window(rep, idx(x), CHUNK) for x in self.FAR_STARTS]
        lo, hi = idx(1000), idx(50_000) - self.NEAR_INTERVALS
        self.near = [_window(rep, int(i), self.NEAR_INTERVALS)
                     for i in self.rng.integers(lo, hi, self.NEAR_WINDOWS)]
        lo, hi = idx(2500), idx(50_000) - self.STRONG_INTERVALS
        self.strong = [_window(rep, int(self.rng.integers(lo, hi)),
                               self.STRONG_INTERVALS)]
        self.near_picks = [np.sort(self.rng.choice(self.NEAR_INTERVALS, self.NEAR_PICKS,
                                                   replace=False))
                           for _ in self.near]
        self.weak_far = spectrum.CouplingConfig(mode="weak", theta=self.FAR_THETA)
        self.weak_near = spectrum.CouplingConfig(mode="weak", theta=0.0)
        self.strong_cfg = spectrum.CouplingConfig(mode="strong", beta_c=1.0)

    def round(self, table, k, tracer):
        out = {}
        for stage, windows, cfg in (("weak_far", self.far, self.weak_far),
                                    ("weak_near", self.near, self.weak_near),
                                    ("strong", self.strong, self.strong_cfg)):
            with _stage(tracer, stage):
                out[stage] = [spectrum.solve_range(a, b, table, cfg) for a, b in windows]
        return out

    def check(self, table, out):
        checks.check_sieve(table, self.rng)
        rep = table.representable
        secular = checks.WeakSecular(rep, table.r2[rep])
        ops = failed = 0
        missing = []
        for stage, windows, cfg in (("weak_far", self.far, self.weak_far),
                                    ("weak_near", self.near, self.weak_near),
                                    ("strong", self.strong, self.strong_cfg)):
            for w, ((a, b), spec) in enumerate(zip(windows, out[stage])):
                checks.check_records(rep, spec.j, spec.n_left, spec.n_right,
                                     spec.lam, a, b)
                if stage == "strong":
                    picks = range(len(spec))
                    bad = checks.strong_roots_missing_tol(
                        rep, table.r2, spec.n_left, spec.lam, cfg.beta_c,
                        cfg.root_tol, picks)
                else:
                    picks = (range(0, len(spec), self.FAR_PICK_STEP)
                             if stage == "weak_far" else self.near_picks[w])
                    cut = checks.chunk_cutoffs(rep, a, b, checks.cutoff_bound())
                    bad = checks.weak_roots_missing_tol(
                        secular, spec.lam, cut, cfg.theta, cfg.root_tol, picks)
                ops += len(picks)
                if stage != "weak_far":
                    require(not bad, f"{stage} roots without a sign change within "
                                     f"root_tol: {[float(spec.lam[i]) for i in bad]}")
                failed += len(bad)
                missing += [(stage, float(spec.lam[i])) for i in bad]
        a, b = self.near[0]
        again = spectrum.solve_range(a, b, table, self.weak_near, threads=2)
        require(_spectra_equal(again, out["weak_near"][0]),
                "a window re-solved with 2 threads differs")
        return ops, failed, missing

    @staticmethod
    def same(ref, out):
        for stage in ref:
            for x, y in zip(ref[stage], out[stage]):
                require(_spectra_equal(x, y), f"{stage} roots differ between rounds")


def _spectra_equal(x, y):
    return all(np.array_equal(getattr(x, f), getattr(y, f))
               for f in ("j", "n_left", "n_right", "lam"))


# ---------------------------------------------------------------------------
# lattice-sums
# ---------------------------------------------------------------------------

class LatticeSums:
    """Certified O(|N|) sums of multifractal, then the Epstein routes."""

    name = "lattice-sums"
    setup_repeats, setup_scale = 3, 1
    warmup = True

    EXP_WINDOW = (1000, 90_000)             # README's `exponents` command
    EXP_TABLE = 900_000                     # its default table
    EXP_Q = (1.25, 1.5, 2.0)
    ZETA_RECORDS, ZETA_S = 3, (2.0, 3.0)
    PROFILE_RECORDS, PROFILE_Q = 1, (1.0, 1.5, 2.0)
    TAIL_POINTS, TAIL_Q = 2, (1.5, 2.0)
    DENSITY = dict(q_values=(1.5, 2.0), eps=-0.25, g_values=(2.0, 8.0, 32.0),
                   stride=97, max_count=100)   # test_a10's arguments
    DENSITY_SURVIVORS = 6
    MEAN_T, MEAN_Q = 1.0e6, (1.0, 1.5, 2.0)
    DIRECT_S = (2.0, 3.0)
    CONTINUED_S = (-0.4, 0.3, 0.7, 1.4, 2.0, 3.0)
    GROUND_Q = (0.75, 1.0, 1.5, 2.0)
    SYMMETRY_Q = (0.05, 0.25, 0.45)

    def __init__(self, rng, outdir):
        self.rng = rng

    def setup(self):
        big = arithmetic.build_table(BIG_TABLE)
        small = arithmetic.build_table(self.EXP_TABLE)
        spec = spectrum.solve_range(*self.EXP_WINDOW, big,
                                    spectrum.CouplingConfig(mode="weak", theta=0.0))
        return big, small, spec

    def prepare(self, state):
        big, _, spec = state
        rng = self.rng
        self.zeta_recs = [int(i) for i in rng.choice(len(spec), self.ZETA_RECORDS, replace=False)]
        self.profile_recs = [int(i) for i in rng.choice(len(spec), self.PROFILE_RECORDS,
                                                        replace=False)]
        self.tail_ts = [float(t) for t in rng.uniform(1e4, 1e6, self.TAIL_POINTS)]
        rep = big.representable
        while True:   # a seeded range holding a fixed number of gap survivors
            x_lo = int(rng.integers(10_000, 800_000))
            surv, _ = checks.gap_survivors(rep, x_lo, 1_000_000,
                                           self.DENSITY["eps"], self.DENSITY["stride"])
            if len(surv) >= self.DENSITY_SURVIVORS:
                self.density_range = (x_lo, int(surv[self.DENSITY_SURVIVORS - 1]))
                break
        self.aspects = (1.0, float(rng.uniform(1.05, 1.6)))

    def round(self, state, k, tracer):
        big, small, spec = state
        out = {}
        with _stage(tracer, "multifractal"):
            for i in self.zeta_recs:
                lam = float(spec.lam[i])
                for s in self.ZETA_S:
                    out[("zeta", i, s)] = multifractal.zeta_lambda(lam, s, big, rel_tol=1e-5)
                x = max(2.5 * lam, lam + 2e4)
                out[("zeta_cut", i)] = multifractal.zeta_lambda(lam, 3.0, big, x, math.inf)
            for i in self.profile_recs:
                out[("profile", i)] = multifractal.moment_profile(
                    float(spec.lam[i]), float(spec.delta[i]),
                    int(round(float(spec.n_tilde[i]))), self.PROFILE_Q, big, rel_tol=1e-5)
            for t in self.tail_ts:
                for q in self.TAIL_Q:
                    out[("tail", t, q)] = multifractal.tail_tau(t, t ** 0.3, q, big)
            out["density"] = multifractal.density_filter(big, *self.density_range,
                                                         **self.DENSITY)
            for q in self.MEAN_Q:
                out[("mean_tail", q)] = multifractal.mean_tail(
                    self.MEAN_T, self.MEAN_T ** 0.3, q, big)
            out["fractal"] = multifractal.fractal_estimates(
                spec, small, self.EXP_Q, self.EXP_WINDOW, normalization="simple",
                rel_tol=1e-6)
        with _stage(tracer, "epstein"):
            for a in self.aspects:
                form = epstein.RectangularForm(_perturbed(a, k))
                out[("epstein", a)] = {
                    "direct": {s: epstein.epstein_direct(form, s) for s in self.DIRECT_S},
                    "continued": {s: epstein.epstein_continued(form, s)
                                  for s in self.CONTINUED_S},
                    "derivative": epstein.zeta_Q_derivative(form, 2.0),
                    "ground": {q: epstein.ground_exponents(form, q) for q in self.GROUND_Q},
                    "symmetry": {q: epstein.symmetry_check(form, q)
                                 for q in self.SYMMETRY_Q},
                }
        return out

    def check(self, state, out):
        big, small, spec = state
        checks.check_sieve(big, self.rng)
        require(np.array_equal(small.r2, big.r2[:self.EXP_TABLE + 1]),
                "the 900k table is not a prefix of the 11M table")
        rep = big.representable
        checks.check_records(rep, spec.j, spec.n_left, spec.n_right, spec.lam,
                             *self.EXP_WINDOW)
        cfg = spectrum.CouplingConfig(mode="weak", theta=0.0)
        cut = checks.chunk_cutoffs(rep, *self.EXP_WINDOW, checks.cutoff_bound())
        picks = sorted(set(self.zeta_recs) | set(self.profile_recs))
        bad = checks.weak_roots_missing_tol(checks.WeakSecular(rep, big.r2[rep]),
                                            spec.lam, cut, 0.0, cfg.root_tol, picks)
        require(not bad, f"set-up roots without a sign change: {bad}")

        sums = checks.TableSums(big)
        ops = 0
        sampled = []
        for i in self.zeta_recs:
            lam = float(spec.lam[i])
            for s in self.ZETA_S:
                z = out[("zeta", i, s)]
                checks.check_zeta(sums, z.value, z.tail_bound, lam, s)
                sampled.append((lam, s, z.value))
            x = max(2.5 * lam, lam + 2e4)
            z = out[("zeta_cut", i)]
            checks.check_zeta(sums, z.value, z.tail_bound, lam, 3.0, x)
            ops += len(self.ZETA_S) + 1
        for i in self.profile_recs:
            prof = out[("profile", i)]
            checks.check_profile(sums, prof)
            ops += len(prof.zeta2q)
        for t in self.tail_ts:
            for q in self.TAIL_Q:
                got = out[("tail", t, q)]
                checks.require_sum(got.value, sums.tail_tau_terms(t, t ** 0.3, q),
                                   f"tail_tau(t={t!r}, q={q})")
                ops += 1
        ops += checks.check_density_hits(sums, out["density"], *self.density_range,
                                         rng=self.rng, **self.DENSITY)
        for q in self.MEAN_Q:
            checks.check_mean_tail(sums, out[("mean_tail", q)], self.MEAN_T,
                                   self.MEAN_T ** 0.3, q)
            ops += 1
        ops += checks.check_fractal(spec, small, out["fractal"], self.EXP_Q,
                                    self.EXP_WINDOW)
        # the exactly rounded reference against math.fsum, on a seeded sample
        for j in self.rng.choice(len(sampled), 2, replace=False):
            lam, s, value = sampled[int(j)]
            terms = sums.zeta_terms(lam, s)
            ref = checks.exact_sum(terms)
            require(abs(math.fsum(terms) - ref) <= math.ulp(ref),
                    f"extended-precision reference differs from math.fsum at lambda={lam}")
        for a in self.aspects:
            res = dict(out[("epstein", a)])
            form = epstein.RectangularForm(a)
            h = 1e-5
            res["fd"] = (epstein.epstein_continued(form, 2.0 + h, dps=30).value
                         - epstein.epstein_continued(form, 2.0 - h, dps=30).value) / (2 * h)
            ops += checks.check_epstein(a, res)
        return ops, 0, []

    def same(self, ref, out):
        require(ref.keys() == out.keys(), "rounds returned different outputs")
        for key, x in ref.items():
            y = out[key]
            if isinstance(key, tuple) and key[0] == "epstein":
                _epstein_close(x, y)
            elif isinstance(x, np.ndarray):
                require(np.array_equal(x, y), f"{key} differs between rounds")
            else:
                require(x == y, f"{key} differs between rounds")


def _epstein_close(x, y):
    """Values at aspect ratios 2^-40-close agree far inside 1e-9."""
    def close(u, v):
        return abs(u - v) <= 1e-9 * max(1.0, abs(u))
    for part in ("direct", "continued"):
        for s, v in x[part].items():
            require(close(v.value, y[part][s].value), f"epstein {part} s={s} moved between rounds")
    require(close(x["derivative"], y["derivative"]), "zeta_Q' moved between rounds")
    for q, (d, big_d) in x["ground"].items():
        require(close(d, y["ground"][q][0]) and close(big_d, y["ground"][q][1]),
                f"ground exponents at q={q} moved between rounds")
    for q, r in y["symmetry"].items():
        require(r < 1e-8 and (q != 0.25 or r == 0.0), f"symmetry residual {r} at q={q}")


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

def child_env():
    env = {k: v for k, v in os.environ.items() if k != "SEBALAB_THREADS"}
    env["PYTHONPATH"] = SRC
    return env


class CliSession:
    """The README's command session, one fresh `sebalab` process per command."""

    name = "cli-session"
    warmup = False     # the set-up's start-ups warm the file cache; round 0 is timed

    def __init__(self, rng, outdir):
        self.rng = rng
        self.dir = os.path.join(outdir, "cli")
        os.makedirs(self.dir, exist_ok=True)
        a_sym = round(float(rng.uniform(1.05, 1.6)), 6)
        a_eps = round(float(rng.uniform(1.05, 1.6)), 6)
        self.commands = [
            ("sieve", "sieve --x-max 1000 --out sieve.csv"),
            ("spec", "spectrum --x-min 1000 --x-max 50000 --mode weak --theta -2.0 --out spec.csv"),
            ("strong", "spectrum --x-min 2500 --x-max 50000 --mode strong --beta-c 1.0 "
                       "--out strong.csv"),
            ("moments", "moments --x-min 1000 --x-max 3000 --q-grid 1,1.5,2 --limit 16 "
                        "--out moments.csv"),
            ("exp", "exponents --x-min 1000 --x-max 90000 --normalization simple --out exp.json"),
            ("tail", "tail --t 1000000 --g-exponent 0.3 --out tail.csv"),
            ("epstein", "epstein --a 1 --s 2 --out epstein.json"),
            ("sym", "symmetry --a 1.2 --q-grid 0.05,0.25,0.45,0.75 --out sym.csv"),
            ("spec_again", "rerun --config spec.csv --out spec_again.csv"),
            ("sym_seeded", f"symmetry --a {a_sym!r} --q-grid 0.05,0.15,0.25,0.35,0.45 "
                           "--out sym_seeded.csv"),
            ("epstein_seeded", f"epstein --a {a_eps!r} --s 2 --out epstein_seeded.json"),
        ]
        self.setup_repeats = 2 * len(self.commands)
        self.setup_scale = len(self.commands)

    def setup(self):
        """One interpreter start-up importing sebalab.cli, as every command pays."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sebalab.cli"], env=child_env(),
                       cwd=self.dir, check=True, timeout=60)
        return time.perf_counter() - t0

    def prepare(self, state):
        pass

    def round(self, state, k, tracer):
        out = {}
        for name, line in self.commands:
            path = os.path.join(self.dir, line.split("--out ")[1])
            if os.path.exists(path):
                os.unlink(path)
            argv = line.split()
            if tracer is None:
                cmd = [sys.executable, "-m", "sebalab.cli", *argv]
            else:
                spans_path = os.path.join(self.dir, f"{name}.spans.jsonl")
                cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"),
                       spans_path, repr(time.time()), *argv]
            proc = subprocess.run(cmd, env=child_env(), cwd=self.dir, capture_output=True,
                                  text=True, timeout=170)
            if tracer is not None and os.path.exists(spans_path):
                tracer.adopt_jsonl(spans_path, command=name)
            data = None
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
            out[name] = (proc.returncode, data, proc.stderr)
        return out

    def check(self, state, out):
        for name, (rc, data, err) in out.items():
            require(rc == 0, f"`sebalab {dict(self.commands)[name]}` exited {rc}: {err.strip()}")
            require(data is not None, f"{name}: no report written")
        require(out["spec"][1] == out["spec_again"][1],
                "rerun did not reproduce spec.csv byte for byte")
        reports = {name: checks.parse_report(out[name][1], sebalab.__version__)
                   for name in out}
        for name, line in self.commands:
            want = reports["spec"][0] if name == "spec_again" else None
            checks.check_config(reports[name][0], line, want)
        return checks.check_cli_reports(reports, self.rng), 0, []

    @staticmethod
    def same(ref, out):
        for name in ref:
            require(ref[name][:2] == out[name][:2], f"{name}: report bytes differ between rounds")


WORKLOADS = {w.name: w for w in (SpectrumSweep, LatticeSums, CliSession)}
