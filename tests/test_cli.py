import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sebalab import __version__, arithmetic
from sebalab.cli import build_parser, load_config, main, resolve_config


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args):
    # the child imports this checkout's package, never an installed copy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-m", "sebalab.cli", *args],
                          capture_output=True, text=True, env=env)


def read_csv(path):
    header, rows, meta = None, [], []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                meta.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


def brute_r2(n):
    # independent of the sieve: walk the full disc
    count = 0
    r = int(math.isqrt(n))
    for x in range(-r, r + 1):
        y2 = n - x * x
        y = int(math.isqrt(y2)) if y2 >= 0 else -1
        if y >= 0 and y * y == y2:
            count += 2 if y else 1
    return count


def test_sieve_matches_bruteforce(tmp_path):
    out = tmp_path / "sieve.csv"
    assert main(["sieve", "--x-max", "200", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert meta[0] == f"# sebalab {__version__}"
    assert header == ["n", "r2", "omega1"]
    assert [int(r[0]) for r in rows[:5]] == [0, 1, 2, 4, 5]
    seen = {int(r[0]): int(r[1]) for r in rows}
    for n in range(0, 201):
        want = brute_r2(n)
        if want:
            assert seen[n] == want
        else:
            assert n not in seen


def test_epstein_value_and_certificate(tmp_path):
    out = tmp_path / "e.json"
    assert main(["epstein", "--a", "1", "--s", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["version"] == __version__
    assert doc["config"]["command"] == "epstein"
    rep = doc["report"]
    assert rep["method"] == "direct"
    assert rep["certified_error"] < 1e-10
    assert abs(rep["value"] - 6.0268120396919401235) < 1e-10


def test_epstein_falls_back_to_continuation_below_direct_budget(tmp_path):
    # at s = 1.5 the direct route would need shells out to radius ~2e11
    mpmath = pytest.importorskip("mpmath")
    out = tmp_path / "e.json"
    assert main(["epstein", "--a", "1", "--s", "1.5", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["method"] == "continued"
    with mpmath.workdps(30):
        s = mpmath.mpf(1.5)
        beta = 4 ** -s * (mpmath.zeta(s, 0.25) - mpmath.zeta(s, 0.75))
        want = float(4 * mpmath.zeta(s) * beta)
    # the certificate plus the rounding of the value to a float
    assert abs(rep["value"] - want) <= (rep["certified_error"]
                                        + 2.0 ** -52 * abs(want))
    assert abs(want - 9.03362168310095) < 1e-13


def test_unknown_flag_exits_2_without_partial_file(tmp_path):
    out = tmp_path / "never.csv"
    got = run_cli("sieve", "--x-max", "100", "--bogus", "--out", str(out))
    assert got.returncode == 2
    assert not out.exists()
    assert not list(tmp_path.iterdir())   # no temp droppings either


def test_validation_vs_computation_exit_codes():
    # empty window: a range problem, caught before any solving
    got = run_cli("spectrum", "--x-min", "9", "--x-max", "5")
    assert got.returncode == 2
    assert "fewer than two elements" in got.stderr
    # strong coupling on (2, 4): secular function has no sign change
    got = run_cli("spectrum", "--mode", "strong", "--x-min", "2",
                  "--x-max", "4")
    assert got.returncode == 1
    assert "no sign change" in got.stderr


@pytest.mark.parametrize("argv, msg", [
    (["epstein", "--a", "1.2", "--s", "0.3", "--dps", "0"], "dps must be >= 1"),
    (["epstein", "--a", "1.2", "--s", "0.3", "--dps=-3"], "dps must be >= 1"),
    (["epstein", "--a", "1", "--s", "2", "--dps", "0"], "dps must be >= 1"),
    (["symmetry", "--a", "1.2", "--dps", "0"], "dps must be >= 1"),
    (["epstein", "--a", "1", "--s", "2", "--tol=-1"], "tol must be positive, got -1.0"),
    (["epstein", "--a", "1", "--s", "2", "--tol", "0"], "tol must be positive, got 0.0"),
    (["epstein", "--a", "1", "--s", "2", "--tol", "nan"], "tol must be positive, got nan"),
    (["epstein", "--a", "1.2", "--s", "0.3", "--tol", "0"], "tol must be positive"),
])
def test_non_positive_dps_or_tol_is_validation(tmp_path, capsys, argv, msg):
    # refused whichever route would run, also under rerun; no report written
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert msg in capsys.readouterr().err
    saved = tmp_path / "cfg.json"
    saved.write_text(json.dumps(resolve_config(build_parser().parse_args(argv))))
    assert main(["rerun", "--config", str(saved), "--out", str(out)]) == 2
    assert msg in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, msg", [
    (["--multiplier", "inf"], "cutoff multiplier must be finite and >= 10, got inf"),
    (["--min-span", "inf"], "min_span must be positive and finite, got inf"),
    (["--min-span", "nan"], "min_span must be positive and finite, got nan"),
    (["--root-tol", "inf"], "root_tol must be positive and finite, got inf"),
    (["--theta", "nan"], "theta and beta_c must be finite, got nan, 1.0"),
    (["--beta-c", "nan", "--mode", "strong"], "theta and beta_c must be finite, got 0.0, nan"),
])
def test_non_finite_spectrum_config_is_validation(tmp_path, capsys, flags, msg):
    # refused before a table is sized or sieved, also under rerun, where a
    # config file can spell NaN and Infinity; no report written
    argv = ["spectrum", "--x-min", "2500", "--x-max", "2700"] + flags
    out = tmp_path / "r.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert msg in capsys.readouterr().err
    cfg = {k: v for k, v in vars(build_parser().parse_args(argv)).items()
           if k not in ("out", "threads")}
    saved = tmp_path / "cfg.json"
    saved.write_text(json.dumps(cfg))
    assert main(["rerun", "--config", str(saved), "--out", str(out)]) == 2
    assert msg in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_rejected(tmp_path):
    missing = tmp_path / "nodir" / "x.csv"
    assert main(["sieve", "--x-max", "50", "--out", str(missing)]) == 2
    assert not missing.exists()


def test_rerun_reproduces_csv_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["moments", "--x-min", "1000", "--x-max", "2500",
            "--limit", "3", "--out"]
    assert main(args + [str(a)]) == 0
    assert main(["rerun", "--config", str(a), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    cfg = load_config(str(a))
    assert cfg["command"] == "moments" and cfg["table_max"] == 25000


def test_rerun_reproduces_json_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["epstein", "--a", "1.2", "--s", "3", "--out", str(a)]) == 0
    assert main(["rerun", "--config", str(a), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_thread_count_does_not_change_bytes(tmp_path):
    one, four = tmp_path / "t1.csv", tmp_path / "t4.csv"
    base = ("spectrum", "--x-min", "10", "--x-max", "2000",
            "--theta", "-2.0")
    assert run_cli(*base, "--threads", "1", "--out", str(one)).returncode == 0
    assert run_cli(*base, "--threads", "4", "--out", str(four)).returncode == 0
    assert one.read_bytes() == four.read_bytes()


def test_tail_report_tracks_prediction(tmp_path):
    out = tmp_path / "tail.csv"
    assert main(["tail", "--t", "100000", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header[:3] == ["T", "G", "q"]
    assert len(rows) == 3
    for row in rows:
        assert 0.95 < float(row[header.index("ratio")]) < 1.05


def test_symmetry_report(tmp_path):
    out = tmp_path / "sym.csv"
    assert main(["symmetry", "--a", "1.2", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["a", "q", "d_star", "D_star", "residual_symmetry"]
    for row in rows:
        q = float(row[1])
        d_star = float(row[2])
        assert float(row[4]) < 1e-8
        # inside the strip zeta_Q(2q) < 0: no real exponent to report
        assert math.isnan(d_star) if q < 0.5 else d_star > 0


def test_tabular_json_format(tmp_path):
    out = tmp_path / "sieve.json"
    assert main(["sieve", "--x-max", "30", "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["columns"] == ["n", "r2", "omega1"]
    assert doc["rows"][0] == [0, 1, 0]
    assert doc["config"]["format"] == "json"


def test_exponents_nested_report(tmp_path):
    # the normal-order filter needs loglog room: below ~27000 no record
    # has r2 within the band, so the window must reach past that
    out = tmp_path / "exp.json"
    rc = main(["exponents", "--x-min", "1000", "--x-max", "30000",
               "--normalization", "simple", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["n_records"] >= 5
    assert set(rep["d_hat"]) == {"1.25", "1.5", "2"}
    assert rep["theory_applicable"] is False
    for v in rep["d_hat"].values():
        assert 0.0 < v < 3.0
    # nested reports have no csv rendering
    assert main(["exponents", "--x-min", "1000", "--x-max", "30000",
                 "--format", "csv", "--out", str(out)]) == 2


def test_invalid_config_rejected_before_the_sieve(tmp_path, monkeypatch,
                                                  capsys):
    # a nested report asked for as csv and a zero record limit are config
    # errors: exit 2 before any table is built, also through rerun
    def no_sieve(*args, **kwargs):
        raise RuntimeError("the sieve ran before validation")

    monkeypatch.setattr(arithmetic, "build_table", no_sieve)
    nested_csv = ["exponents", "--x-min", "1000", "--x-max", "30000",
                  "--format", "csv"]
    assert main(nested_csv) == 2
    assert "produces a nested report; use json" in capsys.readouterr().err
    assert main(["moments", "--x-min", "1000", "--x-max", "2500",
                 "--limit", "0"]) == 2
    assert "limit must be >= 1" in capsys.readouterr().err
    saved = tmp_path / "cfg.json"
    saved.write_text(json.dumps(
        resolve_config(build_parser().parse_args(nested_csv))))
    assert main(["rerun", "--config", str(saved)]) == 2
    assert "produces a nested report; use json" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, missing", [
    ({"command": "spectrum"}, "beta_b, beta_c, format, min_span, mode, "
     "multiplier, root_tol, table_max, theta, x_max, x_min"),
    ({"command": "sieve", "x_max": 10}, "format"),
])
def test_rerun_of_incomplete_config_is_validation(tmp_path, cfg, missing):
    saved = tmp_path / "cfg.json"
    saved.write_text(json.dumps(cfg))
    got = run_cli("rerun", "--config", str(saved))
    assert got.returncode == 2
    assert got.stderr == f"sebalab: {cfg['command']} config lacks {missing}\n"
    assert got.stdout == ""


@pytest.mark.parametrize("cfg, bad", [
    ({"command": "sieve", "x_max": "10", "format": "csv"}, "x_max='10'"),
    ({"command": "sieve", "x_max": 10.0, "format": "csv"}, "x_max=10.0"),
    ({"command": "sieve", "x_max": True, "format": "csv"}, "x_max=True"),
    ({"command": "sieve", "x_max": None, "format": "xml"}, "format='xml', x_max=None"),
    ({"command": "tail", "t": 1000.0, "g_exponent": 0.3, "q_grid": ["1"],
      "table_max": None, "format": "csv"}, "q_grid=['1']"),
    ({"command": "tail", "t": 1000.0, "g_exponent": 0.3, "q_grid": [],
      "table_max": None, "format": "csv"}, "q_grid=[]"),
])
def test_rerun_of_ill_typed_config_is_validation(tmp_path, cfg, bad):
    # each value must be one its option's parser can produce: the type,
    # element-wise for the q grid, and the choices
    saved = tmp_path / "cfg.json"
    saved.write_text(json.dumps(cfg))
    got = run_cli("rerun", "--config", str(saved))
    assert got.returncode == 2
    assert got.stderr == f"sebalab: {cfg['command']} config has invalid {bad}\n"
    assert got.stdout == ""


def test_rerun_resolves_a_null_table_max(tmp_path):
    # null is the option's default, so it resolves as on the command line
    direct, saved, again = tmp_path / "t.csv", tmp_path / "cfg.json", tmp_path / "r.csv"
    assert main(["tail", "--t", "1000", "--q-grid", "1", "--out", str(direct)]) == 0
    saved.write_text(json.dumps({"command": "tail", "t": 1000.0, "g_exponent": 0.3,
                                 "q_grid": [1.0], "table_max": None, "format": "csv"}))
    assert main(["rerun", "--config", str(saved), "--out", str(again)]) == 0
    assert again.read_bytes() == direct.read_bytes()


WINDOW = ["--x-min", "1000", "--x-max", "90000"]


@pytest.mark.parametrize("argv, msg", [
    (["tail", "--t", "inf"], "t must be finite, got inf"),
    (["tail", "--t", "nan"], "t must be finite, got nan"),
    (["tail", "--t", "1000", "--q-grid", "nan"], "NaN, not a finite number, in q_grid=[nan]"),
    (["tail", "--t", "1000", "--g-exponent", "nan"], "in g_exponent=nan"),
    (["moments", "--x-min", "1000", "--x-max", "1200", "--q-grid", "1,nan"],
     "moments config has NaN, not a finite number, in q_grid=[1.0, nan]"),
    (["moments", "--x-min", "1000", "--x-max", "1200", "--rel-tol", "nan"], "in rel_tol=nan"),
    (["exponents"] + WINDOW + ["--q-grid", "1.25,nan"], "in q_grid=[1.25, nan]"),
    (["exponents"] + WINDOW + ["--rel-tol", "nan"], "in rel_tol=nan"),
    (["exponents"] + WINDOW + ["--alpha", "nan"], "in alpha=nan"),
    (["exponents"] + WINDOW + ["--normal-eps", "nan"], "in normal_eps=nan"),
    (["exponents"] + WINDOW + ["--delta-eps", "nan"], "in delta_eps=nan"),
    (["symmetry", "--a", "nan"], "in a=nan"),
    (["epstein", "--a", "1", "--s", "2", "--dps", "25", "--a", "nan"], "in a=nan"),
])
def test_nan_option_is_validation(tmp_path, monkeypatch, capsys, argv, msg):
    # NaN passes every comparison; it is refused by name before any table is
    # sieved, also under rerun, where json spells it NaN.  A non-finite T is
    # refused before it sizes the table
    def no_sieve(*args, **kwargs):
        raise RuntimeError("the sieve ran before validation")

    monkeypatch.setattr(arithmetic, "build_table", no_sieve)
    out = tmp_path / "r.txt"
    assert main(argv + ["--out", str(out)]) == 2
    assert msg in capsys.readouterr().err
    cfg = {k: v for k, v in vars(build_parser().parse_args(argv)).items()
           if k not in ("out", "threads")}
    saved = tmp_path / "cfg.json"
    saved.write_text(json.dumps(cfg))
    assert main(["rerun", "--config", str(saved), "--out", str(out)]) == 2
    assert msg in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag, value", [
    (["tail", "--t", "1000"], "--q-grid", "inf"),
    (["moments", "--x-min", "1000", "--x-max", "1200"], "--q-grid", "1,inf"),
    (["exponents"] + WINDOW, "--alpha", "inf"),
    (["exponents"] + WINDOW, "--q-grid", "1.25,-inf"),
])
def test_infinite_q_or_alpha_is_validation(tmp_path, monkeypatch, capsys,
                                           argv, flag, value):
    # the option's type refuses an infinity before any table is sieved; under
    # rerun, where json spells it Infinity, the same type refuses it by name
    def no_sieve(*args, **kwargs):
        raise RuntimeError("the sieve ran before validation")

    monkeypatch.setattr(arithmetic, "build_table", no_sieve)
    out = tmp_path / "r.txt"
    with pytest.raises(SystemExit) as refused:
        main(argv + [flag, value, "--out", str(out)])
    assert refused.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    dest = flag[2:].replace("-", "_")
    cfg = {k: v for k, v in vars(build_parser().parse_args(argv)).items()
           if k not in ("out", "threads")}
    cfg[dest] = float(value) if dest == "alpha" else [float(v) for v in value.split(",")]
    saved = tmp_path / "cfg.json"
    saved.write_text(json.dumps(cfg))
    assert main(["rerun", "--config", str(saved), "--out", str(out)]) == 2
    assert f"config has invalid {dest}=" in capsys.readouterr().err
    assert not out.exists()


def test_infinite_q_exits_2_from_the_command_line():
    got = run_cli("tail", "--t", "1000", "--q-grid", "inf")
    assert got.returncode == 2
    assert got.stderr.endswith(
        "error: argument --q-grid: q entries must be finite, got 'inf'\n")
    assert got.stdout == ""


@pytest.mark.parametrize("s", ["inf", "-inf", "nan"])
def test_epstein_rejects_non_finite_s(s, capsys):
    assert main(["epstein", "--a", "1", f"--s={s}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sebalab: ") and "finite" in err


def test_stdout_delivery(capsys):
    assert main(["sieve", "--x-max", "10"]) == 0
    got = capsys.readouterr().out
    assert got.startswith(f"# sebalab {__version__}\n")
    assert got.rstrip().endswith("10,8,1")


def test_insufficient_zeta_window_is_validation():
    rc = main(["moments", "--x-min", "1000", "--x-max", "2000",
               "--q-grid", "0.6", "--table-max", "5000"])
    assert rc == 2


def test_strong_moments_default_table_reaches_twice_lambda(tmp_path):
    out = tmp_path / "m.csv"
    got = run_cli("moments", "--x-min", "2500", "--x-max", "5000",
                  "--mode", "strong", "--limit", "4", "--out", str(out))
    assert got.returncode == 0, got.stderr
    meta, header, rows = read_csv(out)
    cfg = load_config(str(out))
    assert header[:3] == ["lambda", "delta", "n_tilde"]
    assert len(rows) == 4
    lams = [float(r[0]) for r in rows]
    assert all(2500 < lam < 5000 for lam in lams)
    assert cfg["table_max"] >= 2 * max(lams)


def test_console_entry_point_registered():
    # the declaration in pyproject.toml is checked always; the installed
    # metadata only exists after `pip install`, so it is checked when present
    from importlib import metadata
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    value = project.get("scripts", {}).get("sebalab")
    assert value == "sebalab.cli:main"
    assert metadata.EntryPoint("sebalab", value,
                               "console_scripts").load() is main
    try:
        dist = metadata.distribution(project["name"])
    except metadata.PackageNotFoundError:
        return
    installed = [ep.value for ep in dist.entry_points
                 if ep.group == "console_scripts" and ep.name == "sebalab"]
    assert installed == [value]
