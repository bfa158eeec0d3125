"""Reference functions that only tests call: Monte Carlo draws from a size
mixture, its component probabilities, the dGPD pmf, a tree's leaf count,
and a CSV writer that turns every value into a Python object, with the
dataset and fold writers built on it.  The criteria that use them check
the package's closed forms (mixture CDFs, dGPD survival, leaf caps) and
its block writer against these."""

import csv
import math

import numpy as np

from evtboost import booster as B
from evtboost import losses as L
from evtboost import synth
from evtboost.dataset import GridDataset, align_features, row_blocks
from evtboost.errors import DataError
from evtboost.mixture import MixtureModel, tail_sigma
from evtboost.spatialcv import FOLD_HEADER, RESPONSES, FoldSet, _check_rows


def component_probs(m: MixtureModel, X, names=None) -> np.ndarray:
    """Softmax class probabilities (n, 3) of (zero, bulk, tail)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    raw = B.predict_raw(m.classifier, align_features(X, names, m.classifier.feature_names))
    return L.softmax(raw)


def sample(m: MixtureModel, x, n_draws: int, seed: int, names=None) -> np.ndarray:
    """Monte Carlo draws of BA at a single covariate vector.

    Components are drawn by inverse transform with :mod:`synth`'s samplers:
    the bulk through the inverse regularized incomplete gamma on the
    truncated range, the tail through the GPD quantile function.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] != 1:
        raise DataError("sample draws at a single covariate vector")
    rng = np.random.default_rng(seed)
    p = component_probs(m, x, names)[0]
    comp = rng.choice(3, size=n_draws, p=p)
    out = np.zeros(n_draws)

    n_bulk = int((comp == 1).sum())
    if n_bulk:
        theta = float(B.predict_raw(m.bulk, align_features(x, names, m.bulk.feature_names))[0])
        out[comp == 1] = np.expm1(synth.sample_trgamma(theta, m.k_shape, np.log1p(m.u),
                                                       n_bulk, rng))

    n_tail = int((comp == 2).sum())
    if n_tail:
        theta = B.predict_raw(m.tail, align_features(x, names, m.tail.feature_names))
        sigma = float(tail_sigma(m, theta)[0])
        out[comp == 2] = m.u + synth.sample_gpd(sigma, m.xi, n_tail, rng)
    return out


def dgpd_pmf(y, theta, alpha):
    """Probability mass (1 + e^theta y)^(-alpha) - (1 + e^theta (y+1))^(-alpha)."""
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    log_s_y, _, _, _, D = L._dgpd_pieces(y, theta, alpha)
    return np.exp(log_s_y) * D


def n_leaves(t) -> int:
    """Leaves of a :class:`~evtboost.tree.Tree`."""
    return sum(1 for n in t.nodes if n.is_leaf)


def write_csv(path, header, columns) -> None:
    """Write ``header``, then one row per index of the equal-length
    ``columns`` (lists or 1-d numpy arrays).  ``csv`` writes a float
    (``np.float64`` too) by ``float.__repr__``, the shortest text that reads
    back to it.  Array columns become Python numbers one block of rows (of
    :func:`row_blocks` at the column count) at a time, so only a block's
    objects are alive at once.  Rows of numeric arrays are written as their
    fields' ``repr`` joined by commas: ``csv``'s bytes without its dispatch."""
    n_rows = len(columns[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if all(isinstance(c, np.ndarray) and c.dtype.kind in "fiu" for c in columns):
            def write_rows(block):
                fh.writelines(",".join(map(repr, row)) + "\r\n" for row in block)
        else:
            write_rows = writer.writerows
        for rows in row_blocks(n_rows, len(columns)):
            # no name holds a block, so the last one is freed before the next is made
            write_rows(zip(*(c[rows].tolist() if isinstance(c, np.ndarray) else c[rows]
                             for c in columns)))


def save_csv(ds: GridDataset, path) -> None:
    """Write the dataset back out in the same CSV dialect, NaN as "NA"."""
    def column(values: np.ndarray) -> list:
        return ["NA" if math.isnan(v) else int(v) if v.is_integer() else v
                for v in values.tolist()]

    lon, lat = ds.cells[ds.cell_index].T.tolist()
    write_csv(path, ["lon", "lat", "year", "month", "cnt", "ba"] + ds.covariate_names,
              [lon, lat, ds.year.tolist(), ds.month.tolist(), column(ds.cnt), column(ds.ba),
               *map(column, ds.covariates.T)])


def save_folds(folds: FoldSet, ds: GridDataset, path) -> None:
    """Export as fold,response,lon,lat,year,month rows, each fold's rows
    sorted by (cell, year, month), with a header."""
    _check_rows(folds, ds)
    order = np.lexsort((ds.month, ds.year, ds.cell_index))
    fold, resp, k = np.nonzero(folds.masks[:, :, order])
    rows = order[k]
    lon, lat = ds.cells[ds.cell_index[rows]].T.tolist()
    write_csv(path, FOLD_HEADER, [fold.tolist(), np.asarray(RESPONSES)[resp].tolist(), lon, lat,
                                  ds.year[rows].tolist(), ds.month[rows].tolist()])
