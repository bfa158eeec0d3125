"""Seeded synthetic gridded datasets with known covariate effects.

Counts follow the discrete generalized Pareto with a linear score in two
covariates; burned areas follow the three-component composition (zero when
the count is zero, otherwise truncated gamma below the threshold or
generalized Pareto excesses above it, with covariate-dependent component
probabilities).  Optional masking withholds a random fraction of each
response, mimicking the train/test gaps of real exports.
"""

from __future__ import annotations

import numpy as np

from . import losses as L
from .dataset import GridDataset
from .errors import ConfigError, NumericalError

SEASON = tuple(range(3, 10))
# the size model: threshold U between bulk and tail, tail GPD shape XI at
# quantile level KAPPA, and bulk truncated-gamma shape K_SHAPE
U, XI, KAPPA, K_SHAPE = 200.0, 0.8, 0.5, 1.2


def _grid(nx: int, ny: int, lon0=-110.25, lat0=35.25, spacing=0.5):
    """Sorted (lon, lat) centres of an nx x ny grid from (lon0, lat0).  A
    grid whose cells would leave the globe (lon above 180, lat above 90) is
    a :class:`ConfigError`, raised before any cell is built."""
    nx_max, ny_max = int((180 - lon0) // spacing) + 1, int((90 - lat0) // spacing) + 1
    if nx > nx_max or ny > ny_max:
        raise ConfigError(f"a {nx} x {ny} grid from ({lon0}, {lat0}) at spacing {spacing} "
                          f"leaves the globe: nx must be at most {nx_max} and ny at most "
                          f"{ny_max}")
    cells = []
    for j in range(ny):
        for i in range(nx):
            cells.append((lon0 + i * spacing, lat0 + j * spacing))
    return np.array(sorted(cells))


def sample_dgpd(theta, alpha: float, rng) -> np.ndarray:
    """Draw counts with survival P(Y >= k) = (1 + e^theta k)^(-alpha)."""
    theta = np.asarray(theta, dtype=float)
    u = rng.uniform(size=theta.shape)
    x = np.expm1(-np.log1p(-u) / alpha) * np.exp(-theta)
    return np.floor(x)


def sample_trgamma(theta, k: float, u_trunc: float, n: int, rng) -> np.ndarray:
    """Inverse-CDF draws from the right-truncated gamma with log-scale theta."""
    from scipy import special
    s_trunc = k * u_trunc * np.exp(-np.asarray(theta, dtype=float))
    urand = rng.uniform(size=n)
    return special.gammaincinv(k, urand * special.gammainc(k, s_trunc)) * np.exp(theta) / k


def sample_gpd(sigma, xi: float, n: int, rng) -> np.ndarray:
    urand = rng.uniform(size=n)
    return sigma * np.expm1(-xi * np.log1p(-urand)) / xi


@np.errstate(over="ignore", invalid="ignore")   # an overflowed draw is rejected below
def synth_dataset(
    kind: str,
    n_years: int = 2,
    nx: int = 6,
    ny: int = 6,
    seed: int = 0,
    alpha: float = 5.0,
    mask_rate: float = 0.0,
) -> GridDataset:
    """Synthetic dataset of the requested kind ("counts" or "sizes").

    Both kinds carry covariates x1, x2 and coherent CNT; "sizes" adds BA
    composed from the count-zero indicator, a bulk and a tail component.
    ``mask_rate`` independently masks that fraction of each response.
    Draws that are not finite (a tiny ``alpha`` overflows the counts) raise
    :class:`NumericalError`, and a row count whose arrays cannot be
    allocated raises :class:`ConfigError`.
    """
    from scipy import special
    if kind not in ("counts", "sizes"):
        raise ValueError(f"unknown synthetic kind {kind!r}")
    rng = np.random.default_rng(seed)
    cells = _grid(nx, ny)
    n_cells = len(cells)
    rows = n_cells * n_years * len(SEASON)

    try:   # the first allocations sized by the row count
        cell_index = np.tile(np.arange(n_cells), n_years * len(SEASON))
        year = np.repeat(np.arange(2001, 2001 + n_years), n_cells * len(SEASON))
        month = np.tile(np.repeat(np.asarray(SEASON), n_cells), n_years)
    except (MemoryError, OverflowError, ValueError):
        raise ConfigError(f"--years {n_years} over {n_cells} cells makes {rows} rows, "
                          f"more than memory holds") from None

    x1 = rng.uniform(-1.0, 1.0, size=rows)
    x2 = rng.uniform(-1.0, 1.0, size=rows)
    covariates = np.column_stack([x1, x2])

    # counts: higher theta means faster survival decay, so fewer fires
    theta_cnt = 0.2 - 1.1 * x1 + 0.8 * x2
    cnt = sample_dgpd(theta_cnt, alpha, rng)

    if kind == "counts":
        ba = np.where(cnt == 0, 0.0, np.nan)
    else:
        ba = np.zeros(rows)
        positive = cnt > 0
        n_pos = int(positive.sum())
        # tail membership among positives
        q_tail = special.expit(-1.2 + 1.5 * x1[positive])
        is_tail = rng.uniform(size=n_pos) < q_tail
        theta_bulk = 0.6 + 0.7 * x1[positive] - 0.4 * x2[positive]
        z = sample_trgamma(theta_bulk[~is_tail], K_SHAPE, np.log1p(U),
                           int((~is_tail).sum()), rng)
        sigma = XI * np.exp(4.2 + 0.9 * x2[positive][is_tail]) / L.gpd_scale_factor(XI, KAPPA)
        exc = sample_gpd(sigma, XI, int(is_tail.sum()), rng)
        vals = np.empty(n_pos)
        vals[~is_tail] = np.expm1(z)
        vals[is_tail] = U + exc
        ba[positive] = vals

    if not (np.isfinite(cnt).all() and (kind == "counts" or np.isfinite(ba).all())):
        raise NumericalError(f"synthetic {kind} draws are not all finite (alpha={alpha!r}, "
                             f"u={U!r}, xi={XI!r}, kappa={KAPPA!r}, k_shape={K_SHAPE!r})")

    if mask_rate > 0.0:
        cnt = np.where(rng.uniform(size=rows) < mask_rate, np.nan, cnt)
        ba = np.where(rng.uniform(size=rows) < mask_rate, np.nan, ba)

    return GridDataset(
        cells=cells,
        cell_index=cell_index,
        year=year.astype(int),
        month=month.astype(int),
        cnt=cnt.astype(float),
        ba=np.asarray(ba, dtype=float),
        covariates=covariates,
        covariate_names=["x1", "x2"],
    )
