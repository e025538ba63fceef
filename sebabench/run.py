"""sebalab benchmark: one workload per process, results as one JSON line.

    python3 sebabench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 sebabench/run.py --selftest

Run from the root of a checkout; the program is imported from ./src.  The
run pins one BLAS thread and unsets SEBALAB_THREADS, sets up the workload
several times (setup_s is the median), plays an untimed reference round
(cli-session: its first timed round is the reference), then repeats identical
rounds for S seconds.  Every round must return what the reference round
returned; the reference round's outputs are checked apart from the program
(checks.py).  With --trace 1 the rounds are played untraced and then traced,
and the last line reports per-layer metrics from the traced spans.  Exit
code 2 means there is no program under ./src to measure.
"""

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".sebabench_out")

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "arithmetic.build_s": "s", "arithmetic.n_per_s": "1/s", "arithmetic.table_mb": "MB",
    "arithmetic.self_s": "s",
    "spectrum.weak_s": "s", "spectrum.strong_s": "s", "spectrum.roots": "count",
    "spectrum.chunks": "count", "spectrum.solve_interval_calls": "count",
    "spectrum.roots_outside_tol": "count", "spectrum.weak_far_roots_per_s": "roots/s",
    "spectrum.weak_near_roots_per_s": "roots/s", "spectrum.strong_roots_per_s": "roots/s",
    "spectrum.self_s": "s",
    "multifractal.zeta_s": "s", "multifractal.zeta_calls": "count",
    "multifractal.tail_tau_s": "s", "multifractal.density_filter_s": "s",
    "multifractal.annulus_tests": "count", "multifractal.density_hit_ratio": "ratio",
    "multifractal.mean_tail_s": "s", "multifractal.fractal_estimates_s": "s",
    "multifractal.terms_summed": "count", "multifractal.lattice_sums_per_s": "sums/s",
    "multifractal.self_s": "s",
    "epstein.direct_s": "s", "epstein.continued_s": "s", "epstein.derivative_s": "s",
    "epstein.symmetry_s": "s", "epstein.continued_calls": "count",
    "epstein.repeat_ratio": "ratio", "epstein.values_per_s": "values/s",
    "epstein.self_s": "s",
    "cli.startup_s": "s", "cli.execute_s": "s", "cli.render_s": "s",
    "cli.report_bytes": "bytes", "cli.commands": "count", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="show that every check rejects a corrupted output")
    args = p.parse_args(argv)
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    return args


def pin_environment():
    """One BLAS thread, no solver threads; must run before numpy is imported."""
    os.environ.update(PINNED_ENV)
    os.environ.pop("SEBALAB_THREADS", None)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sebalab", "__init__.py")):
        print(f"sebabench: no sebalab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)


def main(argv=None):
    args = parse_args(argv)
    pin_environment()
    if args.selftest:
        import selftest
        return selftest.main()
    import harness
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         OUT_DIR, END_TO_END, PER_LAYER)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
