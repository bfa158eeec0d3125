import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import evtboost
from evtboost.dataset import GridDataset

# the absolute directory holding the package this process imported
_PACKAGE_ROOT = str(Path(evtboost.__file__).resolve().parent.parent)


def child_env() -> dict:
    """This process's environment with the package root first on PYTHONPATH,
    so a child ``python`` in any working directory runs the same code (a
    relative entry such as ``src``, or pytest's own ``pythonpath``, would not
    reach it)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_PACKAGE_ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def traced_peak(fn, *args, **kwargs):
    """(result, peak): what ``fn(*args, **kwargs)`` returns, and the most
    bytes tracemalloc saw allocated during the call (the result included,
    what was alive before the call not)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def block_boundary_cases(block_sizes=(1, 5, 64)):
    """(block, n) pairs: for each patched row-block size B, the row counts
    0, 1, B - 1, B, B + 1 and 3B + 7 around its block boundaries."""
    return [(b, n) for b in block_sizes
            for n in sorted({0, 1, b - 1, b, b + 1, 3 * b + 7})]


def fd_grad(f, theta: float, h: float = 1e-5) -> float:
    """Central finite-difference first derivative."""
    return (f(theta + h) - f(theta - h)) / (2.0 * h)


def fd_hess(f, theta: float, h: float = 1e-4) -> float:
    """Central finite-difference second derivative of the value."""
    return (f(theta + h) - 2.0 * f(theta) + f(theta - h)) / (h * h)


def rel_err(analytic: float, numeric: float) -> float:
    """Relative error with a unit floor so near-zero derivatives compare
    on an absolute scale."""
    return abs(analytic - numeric) / max(1.0, abs(analytic))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@st.composite
def sparse_grids(draw, max_side=5):
    """Datasets on a regular grid of up to ``max_side`` x ``max_side`` cells
    over one to three months, with some (cell, month) rows absent, rows in
    random order and NaNs among cnt, ba and the covariate ``v``."""
    nx, ny = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    spacing = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))  # 0.1: inexact offsets
    months = draw(st.lists(st.tuples(st.integers(2000, 2002), st.integers(3, 9)),
                           min_size=1, max_size=3, unique=True))
    cells = np.array(sorted((-110.25 + i * spacing, 35.25 + j * spacing)
                            for i in range(nx) for j in range(ny)))
    keys = [(c, y, m) for y, m in months for c in range(len(cells))]
    keep = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    keys = draw(st.permutations([k for k, kept in zip(keys, keep) if kept]))
    n = len(keys)

    def column(values):
        return np.array(draw(st.lists(st.one_of(st.just(np.nan), values),
                                      min_size=n, max_size=n)), dtype=float)

    cell, year, month = (np.array([k[i] for k in keys], dtype=int) for i in range(3))
    return GridDataset(cells=cells, cell_index=cell, year=year, month=month,
                       cnt=column(st.integers(0, 5).map(float)),
                       ba=column(st.floats(0.0, 1e3)),
                       covariates=column(st.floats(-1e6, 1e6)).reshape(n, 1),
                       covariate_names=["v"])
