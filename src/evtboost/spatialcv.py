"""Spatially and inter-variably correlated validation folds.

Folds are produced by forward-simulating a hierarchical masking model: one
shared zero-mean Gaussian field per month with Matern covariance, month
level Gaussian noise, and Bernoulli masking through the inverse logit.
The CNT and BA masks share the latent field up to a scaling ``beta``, which
induces the inter-variable mask correlation.  Rows whose response is
already masked in the input dataset never enter a validation set.

No posterior inference happens here; parameters are user-supplied, with
intercepts optionally calibrated so the expected masking rate matches the
dataset's observed rate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .dataset import GridDataset, distinct_texts, match_rows, reprs, write_csv
from .errors import DataError, NumericalError, open_text

RESPONSES = ("cnt", "ba")
JITTER = 1e-8
# Largest Matern smoothness accepted: up to it, the correlation is 1 or 0
# to within 5e-12 wherever a factor of ``matern_corr``'s product overflows;
# from about 108 on, factors overflow where it is neither.
NU_MAX = 50.0


@dataclass
class MaskModelParams:
    """Masking-process parameters.

    ``beta`` scales the shared latent field in the BA predictor, ``r`` is
    the Matern empirical range in degrees (correlation ~0.1 at distance r),
    ``sigma_gp`` the field standard deviation, ``nu`` the smoothness and
    ``phi`` the variance of the month-level noise.
    """

    beta0_cnt: float = 0.0
    beta0_ba: float = 0.0
    beta: float = 0.42
    r: float = 2.0
    sigma_gp: float = 1.0
    nu: float = 1.0
    phi: float = 0.25

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not all(-np.inf < v < np.inf for v in (self.beta0_cnt, self.beta0_ba, self.beta)):
            raise DataError("mask model requires finite beta0_cnt, beta0_ba and beta")
        if not (0.0 < self.r < np.inf and 0.0 < self.nu <= NU_MAX
                and 0.0 <= self.sigma_gp < np.inf and 0.0 <= self.phi < np.inf):
            raise DataError(f"mask model requires finite r > 0, 0 < nu <= {NU_MAX:g}, "
                            f"sigma_gp >= 0, phi >= 0")


@dataclass
class FoldSet:
    """Validation rows of every fold and response.

    ``masks[f, r]`` is the boolean row mask, over the dataset that made or
    loaded the folds, of the rows held out for response ``RESPONSES[r]`` in
    fold ``f``; the array has shape (n_folds, 2, n_rows).
    """

    masks: np.ndarray

    @property
    def n_folds(self) -> int:
        return self.masks.shape[0]

    def validation_rows(self, ds: GridDataset, fold: int, response: str) -> np.ndarray:
        """Boolean row mask of the validation set for one fold/response."""
        if response not in RESPONSES:
            raise DataError(f"unknown response {response!r}")
        _check_rows(self, ds)
        return self.masks[fold, RESPONSES.index(response)].copy()


def _check_rows(folds: FoldSet, ds: GridDataset) -> None:
    if folds.masks.shape[2] != ds.n_rows:
        raise DataError(f"folds cover {folds.masks.shape[2]} rows but the dataset "
                        f"has {ds.n_rows}")


def matern_corr(d, r: float, nu: float = 1.0):
    """Matern correlation at distance d with empirical range r.

    2^(1-nu) (kappa d)^nu K_nu(kappa d) / Gamma(nu) with
    kappa = sqrt(8 nu) / r, continuously extended to 1 at d = 0.

    Where this product is not a number, a factor has overflowed: K_nu near
    d = 0, where for nu <= NU_MAX (kappa d < 3e-5) the correlation is 1
    to within 5e-12, or (kappa d)^nu far away, where K_nu has underflowed
    and so has the correlation.  It is taken as 1 below kappa d = 1 and 0
    above.  Rounding can put the product a few ulps above 1 near d = 0;
    it is capped there.
    """
    from scipy import special
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise DataError("distance must be >= 0")
    kappa = np.sqrt(8.0 * nu) / r
    scaled = kappa * d
    with np.errstate(invalid="ignore", over="ignore"):
        corr = (2.0 ** (1.0 - nu) / special.gamma(nu)
                * scaled ** nu * special.kv(nu, scaled))
    corr = np.minimum(np.where(np.isfinite(corr), corr, scaled < 1.0), 1.0)
    return float(corr) if np.isscalar(d) or d.ndim == 0 else corr


# The correlation matrix is filled in blocks of rows holding about this many
# cell pairs, so the distance temporaries stay near 1 MB beside the n x n
# matrix and its factor.
_FACTOR_BLOCK_CELLS = 1 << 15


def field_factor(cells, params: MaskModelParams) -> np.ndarray:
    """Cholesky factor of the unit-variance Matern correlation (+ jitter)
    between the (lon, lat) rows of ``cells``.

    The matrix is filled a block of rows at a time, with the correlation
    evaluated once per distinct distance of the block (a lattice has few);
    ``matern_corr`` is elementwise, so the blocks do not change a bit."""
    coords = np.asarray(cells, dtype=float)
    n = len(coords)
    corr = np.empty((n, n))
    step = max(1, _FACTOR_BLOCK_CELLS // max(n, 1))
    for lo in range(0, n, step):
        diff = coords[lo:lo + step, None, :] - coords[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=-1))
        distinct, where = np.unique(dist, return_inverse=True)
        block = matern_corr(distinct, params.r, params.nu)[where]
        corr[lo:lo + step] = block.reshape(dist.shape)
    corr[np.diag_indices_from(corr)] += JITTER
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance factorization failed after jitter: {exc}") from exc


def simulate_field(cells, params: MaskModelParams, seed: int, n_draws: int = 1) -> np.ndarray:
    """(n_draws, n_cells) zero-mean Gaussian field draws, deterministic in seed."""
    L_chol = field_factor(cells, params)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_draws, len(cells)))
    return params.sigma_gp * (z @ L_chol.T)


def generate_folds(ds: GridDataset, params: MaskModelParams, n_folds: int = 5,
                   seed: int = 0) -> FoldSet:
    """Simulate the masking model once per (fold, month) and mask rows.

    Per month: one shared field draw g, month-level noise eps per response,
    then each (cell, response) is selected with probability
    expit(beta0 + [beta *] g + eps).  Rows whose response is already masked
    in ``ds`` are dropped.
    """
    from scipy import special
    if n_folds < 1:
        raise DataError("n_folds must be >= 1")
    _predictor_variances(params)
    months, month_of_row = np.unique(np.column_stack([ds.year, ds.month]), axis=0,
                                     return_inverse=True)
    month_of_row = month_of_row.reshape(-1)
    n_cells = len(ds.cells)
    L_chol = field_factor(ds.cells, params)
    observed = ~np.isnan(np.stack([ds.cnt, ds.ba]))
    picks = np.empty((2, len(months), n_cells), dtype=bool)
    masks = np.empty((n_folds, 2, ds.n_rows), dtype=bool)
    for f in range(n_folds):
        for mi in range(len(months)):
            rng = np.random.default_rng([seed, f, mi])
            g = params.sigma_gp * (L_chol @ rng.standard_normal(n_cells))
            eps_cnt, eps_ba = rng.normal(scale=np.sqrt(params.phi), size=2)
            mu_cnt = params.beta0_cnt + g + eps_cnt
            mu_ba = params.beta0_ba + params.beta * g + eps_ba
            picks[0, mi] = rng.uniform(size=n_cells) < special.expit(mu_cnt)
            picks[1, mi] = rng.uniform(size=n_cells) < special.expit(mu_ba)
        masks[f] = picks[:, month_of_row, ds.cell_index] & observed
    return FoldSet(masks)


# ---------------------------------------------------------------------------
# Intercept calibration
# ---------------------------------------------------------------------------

@cache
def _hermgauss(deg: int):
    """Gauss-Hermite nodes and weights; numpy.polynomial loads on first use."""
    from numpy.polynomial.hermite import hermgauss
    return hermgauss(deg)


def mean_expit_gaussian(mu: float, var: float) -> float:
    """E[expit(mu + Z)], Z ~ N(0, var), by 64-point Gauss-Hermite quadrature."""
    from scipy import special
    if var == 0.0:
        return float(special.expit(mu))
    x, w = _hermgauss(64)
    return float((w * special.expit(mu + np.sqrt(2.0 * var) * x)).sum() / np.sqrt(np.pi))


# scipy's ``brentq`` defaults: absolute and relative x tolerance, step cap
_BRENT_XTOL, _BRENT_RTOL, _BRENT_MAX_ITER = 2e-12, 4 * math.ulp(1.0), 100


def _brent_root(f, xa: float, xb: float):
    """Root of ``f`` bracketed by [xa, xb] by Brent's method (Brent 1973,
    ch. 4), step for step as scipy's ``brentq`` at its default tolerances;
    None when f(xa) and f(xb) have the same sign or the method has not
    converged after ``_BRENT_MAX_ITER`` steps."""
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if math.copysign(1, fpre) == math.copysign(1, fcur):
        return None
    for _ in range(_BRENT_MAX_ITER):
        if fpre != 0 and fcur != 0 and math.copysign(1, fpre) != math.copysign(1, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    return None


def _predictor_variances(params: MaskModelParams) -> tuple[float, float]:
    """Variances of the CNT and BA masking predictors around their
    intercepts, sigma_gp^2 + phi and beta^2 sigma_gp^2 + phi; a
    :class:`NumericalError` when either overflows."""
    try:
        var = params.sigma_gp ** 2 + params.phi
        var_ba = params.beta ** 2 * params.sigma_gp ** 2 + params.phi
    except OverflowError:
        var = var_ba = math.inf
    if not math.isfinite(var + var_ba):
        raise NumericalError(f"the masking predictor's variance overflows at sigma_gp "
                             f"{params.sigma_gp:g}, beta {params.beta:g}, phi {params.phi:g}")
    return var, var_ba


def calibrate_intercepts(ds: GridDataset, params: MaskModelParams) -> MaskModelParams:
    """Set the intercepts so the expected masking rate matches the observed
    masked fraction of each response in ``ds``."""
    out = params
    for resp, v in zip(RESPONSES, _predictor_variances(params)):
        vals = ds.cnt if resp == "cnt" else ds.ba
        rate = float(np.isnan(vals).mean()) if vals.size else 0.5
        rate = min(max(rate, 1e-6), 1.0 - 1e-6)
        b0 = _brent_root(lambda b: mean_expit_gaussian(b, v) - rate, -40.0, 40.0)
        if b0 is None:
            raise NumericalError(f"no {resp} intercept in [-40, 40] gives the masking rate "
                                 f"{rate:g} at variance {v:g}")
        out = replace(out, **{f"beta0_{resp}": float(b0)})
    return out


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

FOLD_HEADER = ["fold", "response", "lon", "lat", "year", "month"]


def save_folds(folds: FoldSet, ds: GridDataset, path) -> None:
    """Export as fold,response,lon,lat,year,month rows, each fold's rows
    sorted by (cell, year, month), with a header."""
    _check_rows(folds, ds)
    order = np.lexsort((ds.month, ds.year, ds.cell_index))
    fold, resp, k = np.nonzero(folds.masks[:, :, order])
    rows, names = order[k], np.array(RESPONSES, dtype=object)

    def fields(b):
        r = rows[b]
        return [distinct_texts(fold[b], reprs), names[resp[b]],
                distinct_texts(ds.cells[ds.cell_index[r]], reprs),
                distinct_texts(ds.year[r], reprs), distinct_texts(ds.month[r], reprs)]

    write_csv(path, FOLD_HEADER, rows.size, fields)


def load_folds(path, ds: GridDataset) -> FoldSet:
    """Read a :func:`save_folds` export as row masks over ``ds``.

    One pass counts the fold rows and a second parses them as they are
    read, so no Python object outlives its row.  Each pass skips a UTF-8
    byte-order mark at the start (as spreadsheets save "CSV UTF-8")."""
    with open_text(path, newline="") as fh:
        def records():
            fh.seek(0)
            if fh.read(1) != "\ufeff":
                fh.seek(0)
            return csv.reader(fh)

        reader = records()
        try:   # the count reads every record, so the parse below meets no csv.Error
            if next(reader, None) != FOLD_HEADER:
                raise DataError(f"{path}: not a fold export")
            n = sum(1 for _ in reader)
        except csv.Error as exc:   # a field beyond csv's size limit
            raise DataError(f"{path}:{reader.line_num}: malformed fold row ({exc})") from None
        reader = records()
        next(reader)
        fold, resp, lon, lat, year, month = (np.empty(n, dtype=t)
                                             for t in (int, int, float, float, int, int))
        for i, row in enumerate(reader):
            lineno = i + 2
            if len(row) != len(FOLD_HEADER):
                raise DataError(f"{path}:{lineno}: expected {len(FOLD_HEADER)} fields, "
                                f"got {len(row)}")
            try:
                f, name = int(row[0]), row[1]
                lon[i], lat[i] = float(row[2]), float(row[3])
                year[i], month[i] = int(row[4]), int(row[5])
            except (ValueError, OverflowError) as exc:
                raise DataError(f"{path}:{lineno}: malformed fold row ({exc})") from None
            if name not in RESPONSES:
                raise DataError(f"{path}:{lineno}: unknown response {name!r}")
            if not 0 <= f < n:
                raise DataError(f"{path}:{lineno}: fold index {f} must lie in "
                                f"[0, {n}), the number of fold rows")
            fold[i], resp[i] = f, RESPONSES.index(name)
    if not n:
        raise DataError(f"{path}: no folds found")
    cell = match_rows(ds.cells.T, (lon, lat))
    rows = ds.rows_of(cell, year, month)
    if (rows < 0).any():
        i = int(np.argmax(rows < 0))
        raise DataError(f"{path}:{i + 2}: no row for ({lon[i]:g}, {lat[i]:g}, "
                        f"{year[i]}, {month[i]}) in the dataset")
    masks = np.zeros((fold.max() + 1, 2, ds.n_rows), dtype=bool)
    masks[fold, resp, rows] = True
    return FoldSet(masks)
