"""What `import sebalab` and each `sebalab` command load.

Every command starts a fresh interpreter, so a module it does not need costs
its start-up.  The package and the CLI import their layers on first use.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sebalab

SRC = Path(__file__).resolve().parent.parent / "src"

# after the statement or command, print the names of every loaded module
PROBE = ("import sys\n"
         "{statement}\n"
         "print(*sorted(sys.modules))\n")


def loaded_after(statement, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    got = subprocess.run([sys.executable, "-c", PROBE.format(statement=statement)],
                         capture_output=True, text=True, env=env, cwd=cwd)
    assert got.returncode == 0, got.stderr
    return set(got.stdout.split())


def loaded_by_command(argv, cwd):
    # the report goes to a file, so stdout holds only the module names
    return loaded_after(
        f"import sebalab.cli\n"
        f"assert sebalab.cli.main({argv.split() + ['--out', 'report']!r}) == 0", cwd)


@pytest.mark.parametrize("statement", ["import sebalab", "import sebalab.cli"])
def test_import_loads_neither_numpy_nor_mpmath(tmp_path, statement):
    mods = loaded_after(statement, tmp_path)
    assert "numpy" not in mods and "mpmath" not in mods
    assert not {m for m in mods if m.startswith("sebalab.")} - {"sebalab.cli"}


def test_epstein_command_loads_no_sieve_layer(tmp_path):
    # s = 2 takes the direct shell route, which needs no mpmath either
    mods = loaded_by_command("epstein --a 1 --s 2", tmp_path)
    assert "sebalab.epstein" in mods
    assert not mods & {"sebalab.arithmetic", "sebalab.lattice", "sebalab.spectrum",
                       "sebalab.multifractal", "mpmath"}


def test_symmetry_command_loads_no_sieve_layer(tmp_path):
    mods = loaded_by_command("symmetry --a 1.2 --q-grid 0.25,0.75", tmp_path)
    assert "sebalab.epstein" in mods and "mpmath" in mods
    assert not mods & {"sebalab.arithmetic", "sebalab.lattice",
                       "sebalab.spectrum", "sebalab.multifractal"}


@pytest.mark.parametrize("argv", [
    "spectrum --x-min 1000 --x-max 5000",
    "tail --t 1000",
    "sieve --x-max 100",
])
def test_sieve_commands_load_no_mpmath(tmp_path, argv):
    mods = loaded_by_command(argv, tmp_path)
    assert "sebalab.arithmetic" in mods
    assert "mpmath" not in mods and "sebalab.epstein" not in mods


def test_every_export_is_its_home_modules_object():
    for name in sebalab.__all__:
        got = getattr(sebalab, name)
        if name != "__version__":
            home = sys.modules[got.__module__]
            assert home.__name__.startswith("sebalab.")
            assert getattr(home, name) is got
    namespace = {}
    exec("from sebalab import *", namespace)
    assert set(sebalab.__all__) <= namespace.keys()


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sebalab.no_such_name
    with pytest.raises(ImportError):
        from sebalab import no_such_name  # noqa: F401
