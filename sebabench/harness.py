"""Set-up, rounds, checks and metrics of one benchmark run."""

import gc
import os
import resource
import statistics
import sys
import time

import numpy as np

import sebalab
from checks import CheckFailed
from spans import Tracer, descendants, self_times
import workloads


def _timed_rounds(wl, state, budget, first_k, ref, tracer=None):
    """Play rounds until the next one would end well past budget seconds.

    Returns (round times, reference outputs, next round index)."""
    times, k, start = [], first_k, time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        if tracer is None:
            out = wl.round(state, k, None)
        else:
            with tracer.span("bench.round", k=k):
                out = wl.round(state, k, tracer)
        times.append(time.perf_counter() - t0)
        if ref is None:
            ref = out
        else:
            wl.same(ref, out)
        k += 1
        if time.perf_counter() - start + 0.5 * statistics.median(times) >= budget:
            return times, ref, k


def run(name, seed, seconds, trace, out_dir, end_to_end, per_layer):
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    wl = workloads.WORKLOADS[name](rng, out_dir)
    tracer = Tracer() if trace else None

    setup_times, state = [], None
    for _ in range(wl.setup_repeats):
        state = None
        gc.collect()
        if tracer:
            tracer.install(sebalab)
            with tracer.span("bench.setup"):
                t0 = time.perf_counter()
                state = wl.setup()
                setup_times.append(time.perf_counter() - t0)
            tracer.uninstall()
        else:
            t0 = time.perf_counter()
            state = wl.setup()
            setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(setup_times) * wl.setup_scale
    wl.prepare(state)

    correct, detail = True, None
    ref, k, times, traced = None, 0, [0.0], [0.0]
    try:
        if wl.warmup:
            ref, k = wl.round(state, 0, None), 1
        budget = seconds / 2.0 if trace else seconds
        times, ref, k = _timed_rounds(wl, state, budget, k, ref)
        rounds = k
        if trace:
            tracer.install(sebalab)
            try:
                traced, ref, k2 = _timed_rounds(wl, state, budget, k, ref, tracer)
            finally:
                tracer.uninstall()
            rounds = k2
        ops, failed, missing = wl.check(state, ref)
    except CheckFailed as exc:
        correct, detail = False, str(exc)
        ops, failed, missing, rounds = 1, 0, [], max(k, 1)

    result = {"correct": correct, "attempted": ops * rounds, "failed": failed * rounds}
    if detail:
        result["detail"] = detail
    if trace:
        spans_path = os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl")
        tracer.write_jsonl(spans_path)
        values = layer_metrics(tracer.spans, failed)
        values["trace.overhead_s"] = (statistics.median(traced)
                                      - statistics.median(times)) if correct else 0.0
        units = per_layer
    else:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli-session"
                                   else resource.RUSAGE_SELF)
        values = {"setup_s": setup_s,
                  "round_s": statistics.median(times) if correct else 0.0,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0}
        units = end_to_end
    result["metrics"] = {m: {"value": float(values[m]), "unit": u} for m, u in units.items()}
    ordered = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(f"set-up times: {setup_times}; round times: {times}", file=sys.stderr)
    if missing:
        print(f"roots without a sign change within root_tol (per round): {missing}",
              file=sys.stderr)
    if detail:
        print(f"check failed: {detail}", file=sys.stderr)
    return ordered


def layer_metrics(spans, roots_outside_tol):
    """Per-layer figures from the spans: times and counts per traced round."""
    by_id = {rec["id"]: rec for rec in spans}
    rounds = [rec for rec in spans if rec["name"] == "bench.round"]
    setups = [rec for rec in spans if rec["name"] == "bench.setup"]
    n_rounds = max(len(rounds), 1)
    inside = descendants(spans, [r["id"] for r in rounds])
    in_setup = descendants(spans, [s["id"] for s in setups])

    def dur(rec):
        return rec["t1"] - rec["t0"]

    def named(recs, name):
        return [r for r in recs if r["name"] == name]

    def per_round(recs, key=None):
        return sum(dur(r) if key is None else r.get(key, 0) for r in recs) / n_rounds

    def parent_layer(rec):
        return by_id.get(rec["parent"], {}).get("layer")

    def rate(recs, count):
        total = sum(dur(r) for r in recs)
        return count / total if total > 0 else 0.0

    v = {}
    builds_setup = named(in_setup, "arithmetic.build_table")
    builds_round = named(inside, "arithmetic.build_table")
    builds = builds_setup + builds_round
    v["arithmetic.build_s"] = (sum(map(dur, builds_setup)) / max(len(setups), 1)
                               + per_round(builds_round))
    v["arithmetic.n_per_s"] = rate(builds, sum(r["items"] for r in builds))
    v["arithmetic.table_mb"] = max((r["bytes"] for r in builds), default=0) / 1e6

    solves = named(inside, "spectrum.solve_range")
    v["spectrum.weak_s"] = per_round([r for r in solves if r["mode"] == "weak"])
    v["spectrum.strong_s"] = per_round([r for r in solves if r["mode"] == "strong"])
    v["spectrum.roots"] = per_round(solves, "items")
    v["spectrum.chunks"] = per_round(solves, "chunks")
    v["spectrum.solve_interval_calls"] = len(named(inside, "spectrum.solve_interval")) / n_rounds
    v["spectrum.roots_outside_tol"] = roots_outside_tol
    for stage in ("weak_far", "weak_near", "strong"):
        stages = named(inside, stage)
        roots = named(descendants(spans, [s["id"] for s in stages]), "spectrum.solve_range")
        v[f"spectrum.{stage}_roots_per_s"] = rate(stages, sum(r["items"] for r in roots))

    zetas = named(inside, "multifractal.zeta_lambda")
    annulus = named(inside, "multifractal.annulus_decay_ok")
    v["multifractal.zeta_s"] = per_round(zetas)
    v["multifractal.zeta_calls"] = len(zetas) / n_rounds
    for fn in ("tail_tau", "density_filter", "mean_tail", "fractal_estimates"):
        v[f"multifractal.{fn}_s"] = per_round(named(inside, f"multifractal.{fn}"))
    v["multifractal.annulus_tests"] = len(annulus) / n_rounds
    hits = sum(r["items"] for r in named(inside, "multifractal.density_filter"))
    v["multifractal.density_hit_ratio"] = hits / len(annulus) if annulus else 0.0
    mf = [r for r in inside if r["layer"] == "multifractal"]
    v["multifractal.terms_summed"] = per_round(mf, "terms")
    top = [r for r in mf if parent_layer(r) != "multifractal"]
    sums = sum(r["items"] for r in mf if r["name"] in (
        "multifractal.moment_profile", "multifractal.tail_tau", "multifractal.annulus_decay_ok",
        "multifractal.mean_tail", "multifractal.fractal_estimates")
        or (r["name"] == "multifractal.zeta_lambda"
            and by_id[r["parent"]]["name"] != "multifractal.moment_profile"))
    v["multifractal.lattice_sums_per_s"] = rate(top, sums)

    ep = [r for r in inside if r["layer"] == "epstein"]
    v["epstein.direct_s"] = per_round(named(ep, "epstein.epstein_direct"))
    v["epstein.continued_s"] = per_round(named(ep, "epstein.epstein_continued"))
    v["epstein.derivative_s"] = per_round(named(ep, "epstein.zeta_Q_derivative"))
    v["epstein.symmetry_s"] = per_round(named(ep, "epstein.symmetry_check"))
    v["epstein.continued_calls"] = len(named(ep, "epstein.epstein_continued")) / n_rounds
    seen, repeats, keyed = set(), 0, 0
    for r in sorted((r for r in spans if "key" in r), key=lambda r: r["t0"]):
        key = (r.get("command"), r["name"], r["key"])
        repeats += key in seen
        keyed += 1
        seen.add(key)
    v["epstein.repeat_ratio"] = repeats / keyed if keyed else 0.0
    ep_top = [r for r in ep if parent_layer(r) != "epstein"]
    v["epstein.values_per_s"] = rate(ep_top, len(ep_top))

    v["cli.startup_s"] = per_round(named(inside, "cli.startup"))
    v["cli.execute_s"] = per_round(named(inside, "cli.execute"))
    v["cli.render_s"] = per_round(named(inside, "cli.render"))
    v["cli.report_bytes"] = per_round(named(inside, "cli.execute"), "items")
    v["cli.commands"] = len(named(inside, "cli.main")) / n_rounds

    own = self_times(inside)
    for layer in ("arithmetic", "spectrum", "multifractal", "epstein", "cli"):
        v[f"{layer}.self_s"] = own.get(layer, 0.0) / n_rounds
    return v
