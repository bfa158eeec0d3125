"""The traced benchmark run wraps package functions by module attribute
name (``perfbench/spans.py``).  These tests load that file by path, install
no wrapper, and check that every target still resolves and that the span
sizes read what the package returns and passes.  They also load the
benchmark's ``perfbench/workloads.py`` by path and run the dataset calls
it makes."""

import importlib
import importlib.util
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from evtboost import booster, dataset, losses, recipes, tree
from evtboost.synth import synth_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


def _size_of(spans, span_name, attribute):
    return next(size for _, path, name, size in spans.TARGETS
                if name == span_name and path == attribute)


def test_every_target_resolves(spans):
    for module_name, path, name, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{module_name}.{path} ({name}) does not resolve"
        assert callable(owner), f"{module_name}.{path} ({name}) is not callable"


@pytest.mark.parametrize("kind, trees_per_round", [("dgpd", 1), ("cross_entropy", 3)])
def test_recipe_fit_size_is_the_tree_count(spans, kind, trees_per_round):
    ds = synth_dataset("sizes", n_years=1, nx=4, ny=4, seed=3)
    recipe = recipes.BoosterRecipe(loss=losses.LossSpec(kind=kind, alpha=5.0),
                                   params=booster.TrainParams(n_trees=3, max_leaves=2))
    X, names = ds.feature_matrix()
    y = getattr(ds, recipe.response)
    fitted = recipe.fit(X, y, names)
    size = _size_of(spans, "recipes.fit", "BoosterRecipe.fit")
    assert size((recipe, X, y, names), {}, fitted) == len(fitted.model.trees) == 3 * trees_per_round


def test_grow_cells_follow_the_feature_subset(spans, rng):
    X = rng.normal(size=(40, 5))
    y = rng.integers(0, 4, size=40).astype(float)
    params = booster.TrainParams(n_trees=2, max_leaves=2, colsample=0.6)
    with mock.patch.object(booster, "grow", wraps=tree.grow) as grow:
        booster.fit(X, y, losses.LossSpec(kind="poisson"), params)
    size = _size_of(spans, "tree.grow", "grow")
    assert grow.call_count == 2
    for call in grow.call_args_list:
        assert size(call.args, call.kwargs, None) == 40 * 3


def test_benchmark_inputs_are_written(tmp_path):
    """The wide grid is a synth dataset with its ``covariates`` field
    replaced; its row subsets are written with ``save_csv``."""
    ds = _load("workloads").wide_dataset(1)
    sub = ds.subset(np.arange(0, ds.n_rows, 97))
    dataset.save_csv(sub, tmp_path / "sub.csv")
    back = dataset.load_csv(tmp_path / "sub.csv")
    assert back.covariate_names == ds.covariate_names
    np.testing.assert_array_equal(back.covariates, ds.covariates[::97])
