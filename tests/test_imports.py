"""Each command loads only the scipy submodules its work calls, the CLI
loads no ``numpy.polynomial`` until fold calibration calls it, and the data
layer loads none of the model layer.

``scipy.special`` and ``scipy.optimize`` are slow and large to import, so
the package imports ``scipy.special`` inside the functions that need it
and does not use ``scipy.optimize``.  Every case runs in a fresh
interpreter on input files written here, and reads which scipy modules the
command left in ``sys.modules``.
"""

import subprocess
import sys

import numpy as np
import pytest

from helpers import child_env
from evtboost import dataset as D
from evtboost.synth import synth_dataset

_PROBE = """
import sys
from evtboost import cli
if len(sys.argv) > 1:
    print(cli.main(["--runlog", "runs.log", *sys.argv[1:]]))
print(" ".join(m for m in sorted(sys.modules) if m.split(".")[0] == "scipy"))
"""


def run_child(workdir, code, *argv) -> subprocess.CompletedProcess:
    """``python -c code *argv`` in ``workdir``, importing this package."""
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=workdir, env=child_env(),
                          capture_output=True, text=True, timeout=300)


def scipy_modules_after(workdir, *argv) -> set[str]:
    """scipy modules loaded by ``import evtboost.cli`` and, given ``argv``,
    one run of that command in ``workdir``; the command must exit 0."""
    proc = run_child(workdir, _PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split("\n")
    if argv:
        assert lines[-3] == "0", proc.stdout + proc.stderr
    return set(lines[-2].split())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Counts and sizes grids, a config, and a prediction export for score."""
    path = tmp_path_factory.mktemp("imports")
    D.save_csv(synth_dataset("counts", n_years=1, nx=4, ny=4, seed=1, mask_rate=0.2),
               path / "counts.csv")
    sizes = synth_dataset("sizes", n_years=1, nx=4, ny=4, seed=2)
    D.save_csv(sizes, path / "sizes.csv")
    (path / "run.ini").write_text("[data]\ntrain = counts.csv\n\n"
                                  "[train]\nn_trees = 3\nmax_leaves = 4\n", encoding="utf-8")
    (path / "sizes.ini").write_text("[data]\ntrain = sizes.csv\n\n"
                                    "[train]\nn_trees = 3\nmax_leaves = 4\n", encoding="utf-8")
    columns = [sizes.cell_index, sizes.year, sizes.month, np.full(sizes.n_rows, 0.5)]
    D.write_csv(path / "pred.csv", ["cell", "year", "month", "p_le_0.0"], sizes.n_rows,
                lambda rows: [D.reprs(c[rows]) for c in columns])
    return path


def test_cli_import_loads_no_scipy(workdir):
    assert scipy_modules_after(workdir) == set()


def test_cli_import_loads_no_numpy_polynomial(workdir):
    proc = run_child(workdir, "import sys, evtboost.cli; print(' '.join(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert not any(m.startswith("numpy.polynomial") for m in proc.stdout.split())


def test_dataset_import_loads_no_model_layer(workdir):
    proc = run_child(workdir, "import sys, evtboost.dataset; print(' '.join(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "evtboost.dataset" in loaded
    assert not loaded & {"evtboost.booster", "evtboost.tree", "evtboost.losses"}


@pytest.mark.parametrize("argv", [
    ("score", "--pred", "pred.csv", "--data", "sizes.csv", "--response", "ba"),
    ("train", "--config", "sizes.ini", "--loss", "cross_entropy", "--out", "ce.json"),
    ("train", "--config", "run.ini", "--loss", "poisson", "--out", "poisson.json"),
], ids=["score", "train_cross_entropy", "train_poisson"])
def test_command_skips_scipy_special(workdir, argv):
    assert "scipy.special" not in scipy_modules_after(workdir, *argv)


def test_cvfolds_skips_scipy_optimize(workdir):
    loaded = scipy_modules_after(workdir, "cvfolds", "--config", "run.ini",
                                 "--n-folds", "2", "--out", "folds.csv")
    assert "scipy.special" in loaded
    assert not any(m.startswith("scipy.optimize") for m in loaded)
