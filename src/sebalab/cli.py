"""Command line front end: one subcommand per pipeline stage.

Reports are reproducible by construction.  Every report embeds the fully
resolved configuration and the package version; ``sebalab rerun --config
<report>`` re-executes the embedded configuration and reproduces the report
byte for byte (thread count and output destination are deliberately not part
of the configuration — they cannot change the bytes).

Tabular commands (sieve, spectrum, moments, tail, symmetry) default to CSV
with the config echoed on ``#`` comment lines; nested reports (epstein,
exponents) default to JSON.  Floats are printed with ``repr`` so every value
round-trips through text exactly.

Exit codes: 0 success, 1 computation failure (root finding, continuation),
2 validation failure (bad flags or ranges, unwritable output path).
"""

import argparse
import io
import json
import math
import os
import sys
import tempfile

from . import __version__
from .arithmetic import CapacityError, build_table
from .epstein import (DIRECT_MIN_RE_S, LogDomainError, NonconvergenceError,
                      PoleError, RectangularForm, epstein_continued,
                      epstein_direct, ground_exponents, symmetry_check)
from .multifractal import (FilterConfig, fractal_estimates, mean_tail,
                           moment_profile)
from .spectrum import CouplingConfig, CutoffPolicy, solve_range

_CONFIG_PREFIX = "# config: "


def _q_grid(text):
    try:
        vals = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad q grid {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty q grid")
    return vals


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_output(p, default_format):
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output file (stdout if omitted)")
    p.add_argument("--format", choices=("csv", "json"),
                   default=default_format)


def _add_coupling(p):
    p.add_argument("--mode", choices=("weak", "strong"), default="weak")
    p.add_argument("--theta", type=float, default=0.0,
                   help="weak-coupling right-hand side")
    p.add_argument("--beta-c", type=float, default=1.0)
    p.add_argument("--beta-b", type=float, default=0.0)
    p.add_argument("--multiplier", type=float, default=10.0,
                   help="weak truncation multiplier (>= 10)")
    p.add_argument("--min-span", type=float, default=1.0e4)
    p.add_argument("--root-tol", type=float, default=1.0e-9)
    p.add_argument("--table-max", type=int, default=None,
                   help="sieve size (default: large enough for the cutoff)")
    p.add_argument("--threads", type=int, default=None,
                   help="solver threads (default: 1)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sebalab",
        description="Arithmetic point-scatterer laboratory on the square "
                    "torus: sieve, spectra, moment profiles, exponent "
                    "estimates, lattice zeta functions.")
    parser.add_argument("--version", action="version",
                        version=f"sebalab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="two-squares arithmetic table")
    p.add_argument("--x-max", type=int, required=True)
    _add_output(p, "csv")

    p = sub.add_parser("spectrum", help="secular roots on [x_min, x_max]")
    p.add_argument("--x-min", type=int, required=True)
    p.add_argument("--x-max", type=int, required=True)
    _add_coupling(p)
    _add_output(p, "csv")

    p = sub.add_parser("moments", help="zeta moment profiles along a window")
    p.add_argument("--x-min", type=int, required=True)
    p.add_argument("--x-max", type=int, required=True)
    _add_coupling(p)
    p.add_argument("--q-grid", type=_q_grid, default=(1.0, 1.5, 2.0))
    p.add_argument("--limit", type=int, default=32,
                   help="max records profiled (evenly strided)")
    p.add_argument("--rel-tol", type=float, default=1.0e-3,
                   help="certified relative tail budget per zeta value "
                        "(q near 1/2 needs a much larger --table-max)")
    _add_output(p, "csv")

    p = sub.add_parser("exponents",
                       help="fractal-exponent estimator chain (nested report)")
    p.add_argument("--x-min", type=int, required=True)
    p.add_argument("--x-max", type=int, required=True)
    _add_coupling(p)
    p.add_argument("--q-grid", type=_q_grid, default=(1.25, 1.5, 2.0))
    p.add_argument("--normalization", choices=("multifractal", "simple"),
                   default="multifractal")
    p.add_argument("--normal-eps", type=float, default=0.25)
    p.add_argument("--delta-eps", type=float, default=0.25)
    p.add_argument("--alpha", type=float, default=None,
                   help="pin the gap exponent instead of estimating it")
    p.add_argument("--rel-tol", type=float, default=1.0e-6)
    _add_output(p, "json")

    p = sub.add_parser("tail", help="windowed mean of annulus tail sums")
    p.add_argument("--t", type=float, required=True, metavar="T",
                   help="window centre scale (averages over [T, 2T])")
    p.add_argument("--g-exponent", type=float, default=0.3,
                   help="inner radius G = T**g")
    p.add_argument("--q-grid", type=_q_grid, default=(1.0, 1.5, 2.0))
    p.add_argument("--table-max", type=int, default=None,
                   help="sieve size (default: 3T, the minimum)")
    _add_output(p, "csv")

    p = sub.add_parser("epstein", help="lattice zeta value at one point")
    p.add_argument("--a", type=float, required=True,
                   help="aspect parameter of the form a^2 m^2 + n^2/a^2")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--tol", type=float, default=1.0e-10,
                   help="certified error budget for the direct route")
    p.add_argument("--dps", type=int, default=25,
                   help="working precision for the continued route")
    _add_output(p, "json")

    p = sub.add_parser("symmetry",
                       help="ground-state exponents and the q <-> 1/2-q law")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--q-grid", type=_q_grid,
                   default=(0.05, 0.25, 0.35, 0.45, 0.75, 1.25))
    p.add_argument("--dps", type=int, default=25)
    _add_output(p, "csv")

    p = sub.add_parser("rerun", help="re-execute a report's embedded config")
    p.add_argument("--config", required=True, metavar="PATH",
                   help="previous report (csv or json) or bare config json")
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument("--threads", type=int, default=None,
                   help="solver threads (default: 1)")

    return parser


def resolve_config(args):
    """Freeze a Namespace into the dict every report will embed: every
    parsed option but the output path and the thread count."""
    cfg = {key: list(val) if isinstance(val, tuple) else val
           for key, val in vars(args).items() if key not in ("out", "threads")}
    if "table_max" in cfg and cfg["table_max"] is None:
        cfg["table_max"] = _default_table_max(cfg)
    return cfg


def _default_table_max(cfg):
    if cfg["command"] == "tail":
        return int(math.ceil(3.0 * cfg["t"]))
    if cfg["mode"] == "weak":
        # the truncation bound at the largest root must fit in the table
        return int(math.ceil(_coupling_from(cfg).cutoff.bound(cfg["x_max"])))
    window = cfg["x_max"] + 2 * int(math.sqrt(cfg["x_max"])) + 8
    if cfg["command"] == "moments":
        # zeta sums need the table to reach 2*lambda; every root lies below
        # the next element of N after x_max, which is <= (isqrt(x_max) + 1)^2
        return max(window, 2 * (math.isqrt(cfg["x_max"]) + 1) ** 2)
    return window


# ---------------------------------------------------------------------------
# handlers: config dict in, (columns, rows) or nested dict out
# ---------------------------------------------------------------------------

def _coupling_from(cfg):
    return CouplingConfig(
        mode=cfg["mode"], theta=cfg["theta"], beta_c=cfg["beta_c"],
        beta_b=cfg["beta_b"], root_tol=cfg["root_tol"],
        cutoff=CutoffPolicy(multiplier=cfg["multiplier"],
                            min_span=cfg["min_span"]))


def _solve_window(cfg, threads):
    table = build_table(cfg["table_max"])
    spec = solve_range(cfg["x_min"], cfg["x_max"], table,
                       _coupling_from(cfg), threads=threads)
    return table, spec


def _run_sieve(cfg, threads):
    table = build_table(cfg["x_max"])
    rows = [(int(n), int(table.r2[n]), int(table.omega1[n]))
            for n in table.representable]
    return ("n", "r2", "omega1"), rows


def _run_spectrum(cfg, threads):
    _, spec = _solve_window(cfg, threads)
    columns = ("j", "n_left", "n_right", "lambda", "gap_left", "gap_right",
               "delta", "n_tilde")
    return columns, list(spec.rows())


def _run_moments(cfg, threads):
    table, spec = _solve_window(cfg, threads)
    qs = tuple(cfg["q_grid"])
    stride = max(1, len(spec) // cfg["limit"])
    columns = ["lambda", "delta", "n_tilde"]
    for q in qs:
        columns += [f"m[{q:g}]", f"M[{q:g}]", f"H[{q:g}]", f"tail[{q:g}]"]
    rows = []
    for k in list(range(0, len(spec), stride))[:cfg["limit"]]:
        prof = moment_profile(float(spec.lam[k]), float(spec.delta[k]),
                              int(round(float(spec.n_tilde[k]))), qs, table,
                              rel_tol=cfg["rel_tol"])
        row = [prof.lam, prof.delta, prof.n_tilde]
        for q in qs:
            row += [prof.m_q[q], prof.moment_ratio(q), prof.H_q[q],
                    prof.tail_bound[q]]
        rows.append(tuple(row))
    return tuple(columns), rows


def _run_tail(cfg, threads):
    table = build_table(cfg["table_max"])
    t = cfg["t"]
    g = t ** cfg["g_exponent"]
    rows = []
    for q in cfg["q_grid"]:
        got = mean_tail(t, g, q, table)
        pred = 2.0 * math.pi / (2.0 * q - 1.0) * g ** (1.0 - 2.0 * q)
        rows.append((t, g, q, got.value, got.remainder_bound, pred,
                     got.value / pred))
    return ("T", "G", "q", "mean_tail", "remainder_bound",
            "prediction", "ratio"), rows


def _run_symmetry(cfg, threads):
    form = RectangularForm(a=cfg["a"])
    rows = []
    for q in cfg["q_grid"]:
        try:
            d_star, big_d = ground_exponents(form, q, dps=cfg["dps"])
        except LogDomainError:
            d_star, big_d = math.nan, math.nan
        try:
            resid = symmetry_check(form, q, dps=cfg["dps"])
        except PoleError:
            resid = math.nan     # q = 1 or a reflection onto a pole
        rows.append((cfg["a"], q, d_star, big_d, resid))
    return ("a", "q", "d_star", "D_star", "residual_symmetry"), rows


def _run_epstein(cfg, threads):
    form = RectangularForm(a=cfg["a"])
    s = cfg["s"]
    got = None
    if s > DIRECT_MIN_RE_S:
        try:
            got = epstein_direct(form, s, tol=cfg["tol"])
        except NonconvergenceError:
            pass    # tol needs more shells than the budget allows
    if got is None:
        got = epstein_continued(form, s, dps=cfg["dps"])
    return {"a": cfg["a"], "s": s, "value": got.value,
            "certified_error": got.certified_error, "method": got.method}


def _run_exponents(cfg, threads):
    table, spec = _solve_window(cfg, threads)
    filters = FilterConfig(normal_eps=cfg["normal_eps"],
                           delta_eps=cfg["delta_eps"], alpha=cfg["alpha"])
    rep = fractal_estimates(spec, table, tuple(cfg["q_grid"]),
                            (cfg["x_min"], cfg["x_max"]), filters=filters,
                            normalization=cfg["normalization"],
                            rel_tol=cfg["rel_tol"])

    # every field of the report, per-q maps keyed by f"{q:g}"
    out = {}
    for key, val in vars(rep).items():
        if isinstance(val, dict):
            val = {f"{q:g}": val[q] for q in rep.q_grid}
        out[key] = list(val) if isinstance(val, tuple) else val
    return out


_HANDLERS = {"sieve": _run_sieve, "spectrum": _run_spectrum,
             "moments": _run_moments, "tail": _run_tail,
             "symmetry": _run_symmetry, "epstein": _run_epstein,
             "exponents": _run_exponents}


# ---------------------------------------------------------------------------
# rendering and delivery
# ---------------------------------------------------------------------------

def _sanitize(obj):
    """NaN and infinities have no JSON spelling; map them to null."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def render(cfg, payload):
    """Serialize a handler result under the echoed config."""
    config_line = json.dumps(cfg, sort_keys=True)
    if isinstance(payload, dict):     # nested report
        doc = {"version": __version__, "config": cfg,
               "report": _sanitize(payload)}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    columns, rows = payload
    if cfg["format"] == "json":
        doc = {"version": __version__, "config": cfg,
               "columns": list(columns),
               "rows": [_sanitize(list(r)) for r in rows]}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    out = io.StringIO()
    out.write(f"# sebalab {__version__}\n")
    out.write(_CONFIG_PREFIX + config_line + "\n")
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(map(str, row)) + "\n")
    return out.getvalue()


def _conforms(action, value):
    """Whether a config value is one its option's parser can produce."""
    if value is None:
        return action.default is None and not action.required
    if action.choices:
        return value in action.choices
    if action.type is _q_grid:
        return type(value) in (list, tuple) and len(value) > 0 and all(
            type(v) in (int, float) for v in value)
    return type(value) in {int: (int,), float: (int, float)}.get(action.type, (str,))


def execute(cfg, threads=None):
    """Validate and resolve a config, run its handler and render the report."""
    cmd = cfg.get("command")
    if cmd not in _HANDLERS:
        raise ValueError(f"unknown command in config: {cmd!r}")
    # every key resolve_config writes: the subparser's dests but these three
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[cmd]
    missing = sorted({a.dest for a in sub._actions} - {"help", "out", "threads"} - cfg.keys())
    if missing:
        raise ValueError(f"{cmd} config lacks {', '.join(missing)}")
    bad = sorted(f"{a.dest}={cfg[a.dest]!r}" for a in sub._actions
                 if a.dest in cfg and not _conforms(a, cfg[a.dest]))
    if bad:
        raise ValueError(f"{cmd} config has invalid {', '.join(bad)}")
    if "mode" in cfg:    # the coupling's own checks, before the cutoff sizes a table
        _coupling_from(cfg)
    if cmd == "tail" and not math.isfinite(cfg["t"]):
        raise ValueError(f"t must be finite, got {cfg['t']}")
    cfg = resolve_config(argparse.Namespace(**cfg))
    if cmd in ("epstein", "exponents") and cfg["format"] == "csv":
        raise ValueError(f"{cmd} produces a nested report; use json")
    if cmd == "moments" and cfg["limit"] < 1:
        raise ValueError("limit must be >= 1")
    if cfg.get("dps", 1) < 1:
        raise ValueError("dps must be >= 1")
    if not cfg.get("tol", 1.0) > 0:
        raise ValueError(f"tol must be positive, got {cfg['tol']}")
    # NaN fails no comparison, so the checks above and the library's let it by
    nan = sorted(f"{key}={val!r}" for key, val in cfg.items()
                 if any(v != v for v in (val if isinstance(val, list) else [val])))
    if nan:
        raise ValueError(f"{cmd} config has NaN, not a finite number, in {', '.join(nan)}")
    return render(cfg, _HANDLERS[cmd](cfg, threads))


def _check_writable(path):
    if path is None:
        return
    parent = os.path.dirname(os.path.abspath(path)) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"output directory does not exist: {parent}")
    if not os.access(parent, os.W_OK):
        raise ValueError(f"output directory not writable: {parent}")


def _deliver(text, path):
    """Write whole-file-or-nothing: temp file in place, then rename."""
    if path is None:
        sys.stdout.write(text)
        return
    parent = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".sebalab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_config(path):
    """Pull the embedded config back out of a csv or json report."""
    with open(path) as handle:
        head = handle.read(1)
        handle.seek(0)
        if head == "#":
            for line in handle:
                if line.startswith(_CONFIG_PREFIX):
                    return json.loads(line[len(_CONFIG_PREFIX):])
            raise ValueError(f"no config line in {path}")
        doc = json.load(handle)
    if isinstance(doc, dict) and "config" in doc:
        return doc["config"]
    if isinstance(doc, dict) and "command" in doc:
        return doc
    raise ValueError(f"{path} carries no recognizable config")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.command == "rerun" else vars(args)
        _check_writable(args.out)
        text = execute(cfg, threads=getattr(args, "threads", None))
        _deliver(text, args.out)
    except (ValueError, CapacityError) as err:
        print(f"sebalab: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as err:
        print(f"sebalab: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
