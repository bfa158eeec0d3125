"""Spatially and inter-variably correlated validation folds.

Folds are produced by forward-simulating a hierarchical masking model: one
shared zero-mean Gaussian field per month with Matern covariance, month
level Gaussian noise, and Bernoulli masking through the inverse logit.
The CNT and BA masks share the latent field up to a scaling ``beta``, which
induces the inter-variable mask correlation.  Keys that are already masked
in the input dataset never enter a validation set.

No posterior inference happens here; parameters are user-supplied, with
intercepts optionally calibrated so the expected masking rate matches the
dataset's observed rate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special

from .dataset import GridDataset
from .errors import DataError, NumericalError

RESPONSES = ("cnt", "ba")
JITTER = 1e-8


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
        if self.r <= 0 or self.sigma_gp < 0 or self.nu <= 0 or self.phi < 0:
            raise DataError("mask model requires r > 0, nu > 0, sigma_gp >= 0, phi >= 0")


@dataclass
class FoldSet:
    """Per-fold validation keys, one set per response.

    ``masks[f][response]`` is a set of (cell id, year, month) triples chosen
    for validation in fold ``f``.
    """

    n_folds: int
    masks: list[dict[str, set[tuple[int, int, int]]]] = field(default_factory=list)

    def validation_rows(self, ds: GridDataset, fold: int, response: str) -> np.ndarray:
        """Boolean row mask of the validation set for one fold/response."""
        if response not in RESPONSES:
            raise DataError(f"unknown response {response!r}")
        keys = self.masks[fold][response]
        return np.fromiter(
            (k in keys for k in ds.keys()), dtype=bool, count=ds.n_rows
        )


def matern_cov(d, r: float, sigma_gp: float, nu: float = 1.0):
    """Matern covariance at distance d with empirical range r.

    sigma^2 * 2^(1-nu) (kappa d)^nu K_nu(kappa d) / Gamma(nu) with
    kappa = sqrt(8 nu) / r, continuously extended to sigma^2 at d = 0.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise DataError("distance must be >= 0")
    kappa = np.sqrt(8.0 * nu) / r
    scaled = kappa * d
    with np.errstate(invalid="ignore", over="ignore"):
        corr = (2.0 ** (1.0 - nu) / special.gamma(nu)
                * scaled ** nu * special.kv(nu, scaled))
    corr = np.where(scaled == 0.0, 1.0, corr)
    corr = np.nan_to_num(corr, nan=0.0)  # kv underflow at huge distances
    out = sigma_gp ** 2 * corr
    return float(out) if np.isscalar(d) or d.ndim == 0 else out


def _cell_coords(cells) -> np.ndarray:
    return np.array([[c.lon, c.lat] for c in cells], dtype=float)


def field_factor(cells, params: MaskModelParams) -> np.ndarray:
    """Cholesky factor of the unit-variance Matern correlation (+ jitter)."""
    coords = _cell_coords(cells)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=-1))
    corr = matern_cov(dist, params.r, 1.0, params.nu)
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
    """Simulate the masking model once per (fold, month) and collect keys.

    Per month: one shared field draw g, month-level noise eps per response,
    then each (cell, response) is selected with probability
    expit(beta0 + [beta *] g + eps).  Keys whose response is already masked
    in ``ds`` are dropped.
    """
    if n_folds < 1:
        raise DataError("n_folds must be >= 1")
    months = sorted(set(zip(ds.year.tolist(), ds.month.tolist())))
    L_chol = field_factor(ds.cells, params) if ds.cells else None
    n_cells = len(ds.cells)

    # rows grouped by month for key collection
    rows_of_month: dict[tuple[int, int], list[int]] = {}
    for i in range(ds.n_rows):
        rows_of_month.setdefault((int(ds.year[i]), int(ds.month[i])), []).append(i)

    folds = FoldSet(n_folds=n_folds, masks=[])
    for f in range(n_folds):
        fold_masks = {resp: set() for resp in RESPONSES}
        for mi, (y, mo) in enumerate(months):
            rng = np.random.default_rng([seed, f, mi])
            g = params.sigma_gp * (L_chol @ rng.standard_normal(n_cells))
            eps_cnt, eps_ba = rng.normal(scale=np.sqrt(params.phi), size=2)
            mu_cnt = params.beta0_cnt + g + eps_cnt
            mu_ba = params.beta0_ba + params.beta * g + eps_ba
            pick_cnt = rng.uniform(size=n_cells) < special.expit(mu_cnt)
            pick_ba = rng.uniform(size=n_cells) < special.expit(mu_ba)
            for i in rows_of_month.get((y, mo), ()):
                c = int(ds.cell_index[i])
                key = (ds.cells[c].id, y, mo)
                if pick_cnt[c] and not np.isnan(ds.cnt[i]):
                    fold_masks["cnt"].add(key)
                if pick_ba[c] and not np.isnan(ds.ba[i]):
                    fold_masks["ba"].add(key)
        folds.masks.append(fold_masks)
    return folds


# ---------------------------------------------------------------------------
# Intercept calibration
# ---------------------------------------------------------------------------

def mean_expit_gaussian(mu: float, var: float, n_quad: int = 64) -> float:
    """E[expit(mu + Z)], Z ~ N(0, var), by Gauss-Hermite quadrature."""
    if var == 0.0:
        return float(special.expit(mu))
    x, w = np.polynomial.hermite.hermgauss(n_quad)
    return float((w * special.expit(mu + np.sqrt(2.0 * var) * x)).sum() / np.sqrt(np.pi))


def calibrate_intercepts(ds: GridDataset, params: MaskModelParams) -> MaskModelParams:
    """Set the intercepts so the expected masking rate matches the observed
    masked fraction of each response in ``ds``."""
    from scipy.optimize import brentq  # slow to import; only cvfolds needs it

    var = params.sigma_gp ** 2 + params.phi
    var_ba = params.beta ** 2 * params.sigma_gp ** 2 + params.phi
    out = params
    for resp, v in (("cnt", var), ("ba", var_ba)):
        vals = ds.cnt if resp == "cnt" else ds.ba
        rate = float(np.isnan(vals).mean()) if vals.size else 0.5
        rate = min(max(rate, 1e-6), 1.0 - 1e-6)
        b0 = brentq(lambda b: mean_expit_gaussian(b, v) - rate, -40.0, 40.0)
        out = replace(out, **{f"beta0_{resp}": float(b0)})
    return out


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def save_folds(folds: FoldSet, ds: GridDataset, path) -> None:
    """Export as fold,response,lon,lat,year,month rows (sorted, with header)."""
    cell_of = {c.id: c for c in ds.cells}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold", "response", "lon", "lat", "year", "month"])
        for f in range(folds.n_folds):
            for resp in RESPONSES:
                for cid, y, mo in sorted(folds.masks[f][resp]):
                    cell = cell_of[cid]
                    writer.writerow([f, resp, repr(cell.lon), repr(cell.lat), y, mo])


def load_folds(path, ds: GridDataset) -> FoldSet:
    id_of = {(c.lon, c.lat): c.id for c in ds.cells}
    masks: dict[int, dict[str, set]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["fold", "response", "lon", "lat", "year", "month"]:
            raise DataError(f"{path}: not a fold export")
        for lineno, row in enumerate(reader, start=2):
            try:
                f, resp = int(row[0]), row[1]
                lon, lat = float(row[2]), float(row[3])
                y, mo = int(row[4]), int(row[5])
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}:{lineno}: malformed fold row ({exc})") from None
            if resp not in RESPONSES:
                raise DataError(f"{path}:{lineno}: unknown response {resp!r}")
            if (lon, lat) not in id_of:
                raise DataError(f"{path}:{lineno}: cell ({lon:g}, {lat:g}) not in dataset")
            masks.setdefault(f, {r: set() for r in RESPONSES})
            masks[f][resp].add((id_of[(lon, lat)], y, mo))
    if not masks:
        raise DataError(f"{path}: no folds found")
    n_folds = max(masks) + 1
    return FoldSet(
        n_folds=n_folds,
        masks=[masks.get(f, {r: set() for r in RESPONSES}) for f in range(n_folds)],
    )
