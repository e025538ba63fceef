"""Self-test: each check accepts the program's output and rejects it corrupted.

Runs on small inputs (300k and 1M sieves, short windows, a short CLI session) in
about half a minute.  Prints one line per case and exits 0 only if every
genuine output passes and every corrupted one is rejected.  It also confirms
that run.py's metric names and units are those in BENCHMARK.json.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

import sebalab
from sebalab import arithmetic, epstein, multifractal, spectrum

import checks
import run
import workloads
from checks import CheckFailed


class Cases:
    def __init__(self):
        self.bad = 0

    def _run(self, name, fn, want_reject):
        try:
            result = fn()
            rejected = result is False or (isinstance(result, list) and bool(result))
        except CheckFailed as exc:
            rejected, result = True, exc
        ok = rejected == want_reject
        self.bad += not ok
        verdict = "rejected" if rejected else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {verdict:8s} {name}"
              + ("" if ok or not rejected else f": {result}"))

    def accept(self, name, fn):
        self._run(name, fn, want_reject=False)

    def reject(self, name, fn):
        self._run(name, fn, want_reject=True)


def _table_copy(table, r2=None, omega1=None, representable=None):
    return arithmetic.ArithmeticTable(
        table.x_max, (table.r2 if r2 is None else r2).copy(),
        (table.omega1 if omega1 is None else omega1).copy(),
        (table.representable if representable is None else representable).copy())


def sieve_cases(c, table):
    rng = lambda: np.random.default_rng(7)
    c.accept("sieve", lambda: checks.check_sieve(table, rng()))
    r2 = table.r2.copy()
    r2[5000] += 4
    c.reject("sieve: one wrong r2", lambda: checks.check_sieve(_table_copy(table, r2=r2), rng()))
    n = int(table.representable[-7])
    om = table.omega1.copy()
    om[n] += 1
    c.reject("sieve: one wrong omega1",
             lambda: checks.check_sieve(_table_copy(table, omega1=om), rng(), always=[n]))
    rep = np.delete(table.representable, 1234)
    c.reject("sieve: representable set misses an element",
             lambda: checks.check_sieve(_table_copy(table, representable=rep), rng()))


def spectrum_cases(c, table):
    rep = table.representable
    weak = spectrum.CouplingConfig(mode="weak", theta=0.0)
    spec = spectrum.solve_range(1000, 5000, table, weak)
    secular = checks.WeakSecular(rep, table.r2[rep])
    cut = checks.chunk_cutoffs(rep, 1000, 5000, checks.cutoff_bound())
    picks = range(0, len(spec), 7)
    c.accept("weak roots: records", lambda: checks.check_records(
        rep, spec.j, spec.n_left, spec.n_right, spec.lam, 1000, 5000))
    c.accept("weak roots: sign change within root_tol", lambda: checks.weak_roots_missing_tol(
        secular, spec.lam, cut, 0.0, weak.root_tol, picks))
    shifted = spec.lam.copy()
    shifted[14] += 1e-6
    c.reject("weak roots: one root shifted by 1e-6", lambda: checks.weak_roots_missing_tol(
        secular, shifted, cut, 0.0, weak.root_tol, picks))
    c.reject("weak roots: a record missing", lambda: checks.check_records(
        rep, spec.j[1:], spec.n_left[1:], spec.n_right[1:], spec.lam[1:], 1000, 5000))
    outside = spec.lam.copy()
    outside[3] = spec.n_right[3]
    c.reject("weak roots: a root on its interval's end", lambda: checks.check_records(
        rep, spec.j, spec.n_left, spec.n_right, outside, 1000, 5000))

    strong = spectrum.CouplingConfig(mode="strong", beta_c=1.0)
    sspec = spectrum.solve_range(2500, 4000, table, strong)
    every = range(len(sspec))
    c.accept("strong roots: sign change within root_tol", lambda: checks.strong_roots_missing_tol(
        rep, table.r2, sspec.n_left, sspec.lam, 1.0, strong.root_tol, every))
    shifted = sspec.lam.copy()
    shifted[9] -= 1e-6
    c.reject("strong roots: one root shifted by 1e-6", lambda: checks.strong_roots_missing_tol(
        rep, table.r2, sspec.n_left, shifted, 1.0, strong.root_tol, every))
    return spec


def multifractal_cases(c, table, spec):
    sums = checks.TableSums(table)
    lam = float(spec.lam[40])
    z = multifractal.zeta_lambda(lam, 3.0, table, rel_tol=math.inf)
    c.accept("zeta_lambda", lambda: checks.check_zeta(sums, z.value, z.tail_bound, lam, 3.0))
    c.reject("zeta_lambda scaled by 1 + 1e-9", lambda: checks.check_zeta(
        sums, z.value * (1 + 1e-9), z.tail_bound, lam, 3.0))
    x = 3.0 * lam
    zc = multifractal.zeta_lambda(lam, 2.0, table, x, math.inf)
    c.accept("truncated zeta within its tail", lambda: checks.check_zeta(
        sums, zc.value, zc.tail_bound, lam, 2.0, x))
    c.reject("truncated zeta with a tail bound too small", lambda: checks.check_zeta(
        sums, zc.value, zc.tail_bound * 1e-4, lam, 2.0, x))

    prof = multifractal.moment_profile(lam, float(spec.delta[40]),
                                       int(round(float(spec.n_tilde[40]))),
                                       (1.0, 1.5, 2.0), table, rel_tol=math.inf)
    c.accept("moment_profile", lambda: checks.check_profile(sums, prof))
    bent = dataclasses.replace(prof, m_q={**prof.m_q, 1.5: prof.m_q[1.5] * (1 + 1e-9)})
    c.reject("moment_profile: m_q scaled by 1 + 1e-9", lambda: checks.check_profile(sums, bent))
    bent = dataclasses.replace(prof, H_q={**prof.H_q, 1.0: prof.H_q[1.0] + 1e-6})
    c.reject("moment_profile: Shannon entropy moved", lambda: checks.check_profile(sums, bent))

    t = 54321.5
    tau = multifractal.tail_tau(t, t ** 0.3, 2.0, table)
    terms = sums.tail_tau_terms(t, t ** 0.3, 2.0)
    c.accept("tail_tau", lambda: checks.require_sum(tau.value, terms, "tail_tau"))
    c.reject("tail_tau scaled by 1 + 1e-9", lambda: checks.require_sum(
        tau.value * (1 + 1e-9), terms, "tail_tau"))

    T = 1.0e5
    mt = multifractal.mean_tail(T, T ** 0.3, 1.5, table)
    c.accept("mean_tail", lambda: checks.check_mean_tail(sums, mt, T, T ** 0.3, 1.5))
    c.reject("mean_tail scaled by 1 + 1e-9", lambda: checks.check_mean_tail(
        sums, mt._replace(value=mt.value * (1 + 1e-9)), T, T ** 0.3, 1.5))

    args = dict(q_values=(1.5, 2.0), eps=-0.25, g_values=(2.0, 8.0, 32.0), stride=97,
                max_count=6)
    hits = multifractal.density_filter(table, 10_000, 150_000, **args)
    rng = lambda: np.random.default_rng(3)
    c.accept("density_filter hits", lambda: checks.check_density_hits(
        sums, hits, 10_000, 150_000, rng=rng(), **args))
    rep = table.representable
    moved = hits.copy()
    moved[1] = rep[np.searchsorted(rep, moved[1]) + 1]
    c.reject("density_filter: a hit off the stride grid", lambda: checks.check_density_hits(
        sums, moved, 10_000, 150_000, rng=rng(), **args))
    c.reject("density_filter: hits out of order", lambda: checks.check_density_hits(
        sums, hits[::-1], 10_000, 150_000, rng=rng(), **args))
    # with q = 0.75 added the hits fail the annulus predicate they were not
    # filtered for: the re-evaluated sums must say so
    c.reject("density_filter: hits that fail the annulus predicate",
             lambda: checks.check_density_hits(sums, hits, 10_000, 150_000, rng=rng(),
                                               **dict(args, q_values=(0.75, 1.5, 2.0))))

    big = arithmetic.build_table(1_000_000)
    window = (40_000, 60_000)
    wide = spectrum.solve_range(*window, big, spectrum.CouplingConfig(mode="weak"))
    rep_out = multifractal.fractal_estimates(wide, big, (1.25, 2.0), window,
                                             normalization="simple", rel_tol=1e-6)
    c.accept("fractal_estimates", lambda: checks.check_fractal(
        wide, big, rep_out, (1.25, 2.0), window))
    bent = dataclasses.replace(rep_out, d_hat={**rep_out.d_hat, 2.0: rep_out.d_hat[2.0] + 1e-6})
    c.reject("fractal_estimates: d_hat moved by 1e-6", lambda: checks.check_fractal(
        wide, big, bent, (1.25, 2.0), window))
    bent = dataclasses.replace(rep_out, c_hat=rep_out.c_hat * (1 + 1e-8))
    c.reject("fractal_estimates: c_hat moved", lambda: checks.check_fractal(
        wide, big, bent, (1.25, 2.0), window))


def epstein_cases(c):
    # at a = 1.4477750617969067 epstein_continued(s=3) is ~5 ulp off, outside
    # its certificate (the float64 rounding of a^2 m^2 + n^2/a^2)
    for a in (1.0, 1.3, 1.4477750617969067):
        form = epstein.RectangularForm(a)
        out = {"direct": {3.0: epstein.epstein_direct(form, 3.0)},
               "continued": {s: epstein.epstein_continued(form, s) for s in (0.3, 0.7, 3.0)},
               "derivative": epstein.zeta_Q_derivative(form, 2.0),
               "ground": {q: epstein.ground_exponents(form, q) for q in (0.75, 1.25, 2.0)},
               "symmetry": {q: epstein.symmetry_check(form, q) for q in (0.15, 0.25, 0.45)}}
        h = 1e-5
        out["fd"] = (epstein.epstein_continued(form, 2.0 + h, dps=30).value
                     - epstein.epstein_continued(form, 2.0 - h, dps=30).value) / (2 * h)
        c.accept(f"epstein a={a}", lambda: checks.check_epstein(a, out))
        for what, change in (
                ("direct value + 1e-8", lambda o: o["direct"].update(
                    {3.0: dataclasses.replace(o["direct"][3.0],
                                              value=o["direct"][3.0].value + 1e-8)})),
                ("continued value at s=0.3 scaled by 1 + 1e-9", lambda o: o["continued"].update(
                    {0.3: dataclasses.replace(o["continued"][0.3],
                                              value=o["continued"][0.3].value * (1 + 1e-9))})),
                ("derivative + 1e-6", lambda o: o.update(derivative=o["derivative"] + 1e-6)),
                ("residual at q=1/4 not exactly 0", lambda o: o["symmetry"].update({0.25: 1e-300})),
                ("D*_q increasing in q", lambda o: o["ground"].update(
                    {2.0: (o["ground"][2.0][0], o["ground"][0.75][1] + 1.0)}))):
            bent = {k: dict(v) if isinstance(v, dict) else v for k, v in out.items()}
            change(bent)
            c.reject(f"epstein a={a}: {what}", lambda: checks.check_epstein(a, bent))


def cli_cases(c, tmp):
    env = workloads.child_env()
    session = [("sieve", "sieve --x-max 1000 --out sieve.csv"),
               ("spec", "spectrum --x-min 1000 --x-max 3000 --mode weak --theta -2.0 "
                        "--out spec.csv"),
               ("spec_again", "rerun --config spec.csv --out spec_again.csv"),
               ("tail", "tail --t 100000 --g-exponent 0.3 --out tail.csv"),
               ("epstein", "epstein --a 1 --s 3 --out epstein.json"),
               ("sym", "symmetry --a 1.2 --q-grid 0.05,0.25,0.45,0.75 --out sym.csv")]
    data = {}
    for name, line in session:
        proc = subprocess.run([sys.executable, "-m", "sebalab.cli", *line.split()], env=env,
                              cwd=tmp, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"`sebalab {line}` exited {proc.returncode}: {proc.stderr}")
        with open(os.path.join(tmp, line.split("--out ")[1]), "rb") as fh:
            data[name] = (0, fh.read(), "")
    version = sebalab.__version__
    reports = {n: checks.parse_report(d[1], version) for n, d in data.items()}
    c.accept("cli reports", lambda: checks.check_cli_reports(reports, np.random.default_rng(1)))
    def configs():
        for name, line in session:
            rerun_of = reports["spec"][0] if name == "spec_again" else None
            checks.check_config(reports[name][0], line, rerun_of)
    c.accept("cli configs", configs)
    c.accept("cli rerun bytes",
             lambda: checks.require(data["spec"][1] == data["spec_again"][1], "rerun"))

    raw = bytearray(data["spec"][1])
    at = len(raw) // 2
    while not chr(raw[at]).isdigit():
        at += 1
    raw[at] = ord("7") if raw[at] != ord("7") else ord("3")
    changed = dict(data, spec=(0, bytes(raw), ""))
    c.reject("cli: one changed report byte against the first round",
             lambda: workloads.CliSession.same(data, changed))
    c.reject("cli: one changed report byte against its rerun",
             lambda: checks.require(changed["spec"][1] == changed["spec_again"][1], "rerun"))
    sieve = reports["sieve"]
    rows = [list(r) for r in sieve[2]]
    rows[10][1] += 4
    c.reject("cli: one wrong r2 row", lambda: checks.check_sieve_rows((sieve[0], sieve[1], rows)))
    cfg = dict(reports["spec"][0], theta=-2.5)
    c.reject("cli: embedded config differs from the arguments", lambda: checks.check_config(
        cfg, session[1][1]))
    cfg, rep = reports["epstein"]
    c.reject("cli: epstein value + 1e-9", lambda: checks.check_epstein_report(
        (cfg, dict(rep, value=rep["value"] + 1e-9))))
    cfg, cols, rows = reports["tail"]
    c.reject("cli: tail ratio out of [0.95, 1.05]", lambda: checks.check_tail_rows(
        (cfg, cols, [r[:6] + [r[6] * 1.2] for r in rows])))


def benchmark_json_case(c):
    path = os.path.join(run.ROOT, "BENCHMARK.json")

    def same_metrics():
        with open(path) as fh:
            spec = json.load(fh)
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        checks.require(declared == run.END_TO_END, f"end_to_end {declared} != run.py")
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        checks.require(declared == run.PER_LAYER, "per_layer differs from run.py")
        checks.require({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
                       "workloads differ from workloads.py")
    c.accept("BENCHMARK.json names the metrics and workloads run.py reports", same_metrics)


def main():
    c = Cases()
    table = arithmetic.build_table(300_000)
    sieve_cases(c, table)
    spec = spectrum_cases(c, table)
    multifractal_cases(c, table, spec)
    epstein_cases(c)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        cli_cases(c, tmp)
    benchmark_json_case(c)
    print(f"self-test: {'passed' if c.bad == 0 else f'{c.bad} case(s) failed'}")
    return 0 if c.bad == 0 else 1
