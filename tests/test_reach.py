"""What the commands reach: the golden CLI sequence, plus the commands it
lacks (``train``, ``predict`` and ``cv`` of the poisson and squared_log
losses, ``predict`` of each single mixture component, ``score`` of both
responses and ``importance --metric coverage``), runs in-process under
``sys.setprofile``.  The package functions it never calls must be exactly
:data:`UNREACHED`, so a new function that no command reaches fails here,
and so does a listed one that a command starts to reach.  A change to the
set is recorded in CHANGES.md.  The package also writes CSV rows in one
place: ``csv.writer`` appears once in its source, for the header line of
``dataset.write_csv``.  And it opens a file for writing only in
``errors.publish``, which publishes each output whole; the run log's
append is the one other write."""

import ast
import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
from pathlib import Path

import evtboost
from evtboost import cli
from test_golden import run_golden_cli

UNREACHED = {
    # the CSV reader's fault messages, and its split of blocks that hold a quote
    "dataset._loadtxt_fault", "dataset._records",
    # the benchmark's set-up and traced run use these
    "dataset.GridDataset.subset", "mixture.cdf",
    # the library size mixture, not yet on the command line
    "mixture.fit_mixture", "mixture.save", "recipes.MixtureRecipe.fit",
    "recipes.MixtureRecipe.score",
    # the Matérn field draw, for checking spatial against naive folds
    "spatialcv.simulate_field",
}


def package_functions() -> dict:
    """Code object -> "module.qualname" of every function and method
    written in the package's modules (properties and static and class
    methods included, generated dataclass methods not)."""
    out = {}
    for info in pkgutil.iter_modules(evtboost.__path__):
        module = importlib.import_module(f"evtboost.{info.name}")
        for obj in vars(module).values():
            for f in vars(obj).values() if inspect.isclass(obj) else [obj]:
                f = getattr(f, "fget", None) or getattr(f, "__func__", f)
                code = getattr(f, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    out[code] = f"{info.name}.{f.__qualname__}"
    return out


def called_during(work) -> set:
    """The code objects of the Python functions called while ``work()`` runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(previous)
    return seen


def every_command(tmp):
    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--runlog", str(tmp / "runs.log"), *argv]) == 0, argv

    run_golden_cli(tmp)
    run("cvfolds", "--config", str(tmp / "sizes.ini"), "--n-folds", "2",
        "--out", str(tmp / "size_folds.csv"))
    for kind, grid, folds in (("poisson", "counts", "folds.csv"),
                              ("squared_log", "sizes", "size_folds.csv")):
        run("train", "--config", str(tmp / f"{grid}.ini"), "--loss", kind,
            "--out", str(tmp / f"{kind}.json"))
        run("predict", "--model", str(tmp / f"{kind}.json"), "--data", str(tmp / f"{grid}.csv"),
            "--out", str(tmp / f"{kind}.csv"))
        run("cv", "--config", str(tmp / f"{grid}.ini"), "--loss", kind, "--folds",
            str(tmp / folds), "--checkpoints", "1,3", "--out", str(tmp / f"{kind}_cv.csv"))
    for part in ("classifier", "bulk", "tail"):   # the mixture's components, one at a time
        run("predict", "--model", str(tmp / f"{part}.json"), "--data", str(tmp / "sizes.csv"),
            "--out", str(tmp / f"{part}.csv"))
    run("score", "--pred", str(tmp / "mix.csv"), "--data", str(tmp / "sizes.csv"),
        "--response", "ba")
    run("score", "--pred", str(tmp / "dgpd_t.csv"), "--data", str(tmp / "counts.csv"),
        "--response", "cnt")
    run("importance", "--model", str(tmp / "dgpd.json"), "--metric", "coverage",
        "--out", str(tmp / "coverage.csv"))


def test_unreached_functions_are_the_listed_ones(tmp_path):
    functions = package_functions()
    called = called_during(lambda: every_command(tmp_path))
    unreached = {name for code, name in functions.items() if code not in called}
    assert unreached == UNREACHED


def test_one_csv_writer():
    sources = Path(evtboost.__file__).parent.glob("*.py")
    assert sum(p.read_text(encoding="utf-8").count("csv.writer") for p in sources) == 1


def opens_for_writing(node, where):
    """(function, mode) of each ``open`` call under ``node`` whose mode
    writes ("w", "x", "a" or "+"), each mode string of a conditional mode
    counted; ``where`` names the innermost enclosing function or class."""
    for child in ast.iter_child_nodes(node):
        inner = (f"{where}.{child.name}" if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else where)
        func = getattr(child, "func", None)
        if isinstance(child, ast.Call) and getattr(func, "id", getattr(func, "attr", "")) in (
                "open", "fdopen"):
            modes = child.args[1:2] + [k.value for k in child.keywords if k.arg == "mode"]
            yield from ((where, c.value) for mode in modes for c in ast.walk(mode)
                        if isinstance(c, ast.Constant) and set(str(c.value)) & set("wxa+"))
        yield from opens_for_writing(child, inner)


def test_files_are_written_only_through_publish():
    writes = set()
    for path in Path(evtboost.__file__).parent.glob("*.py"):
        writes |= set(opens_for_writing(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    assert writes == {("errors.publish", "w"), ("errors.publish", "x"),
                      ("cli._append_runlog", "a")}
