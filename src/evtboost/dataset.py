"""Gridded spatio-temporal observations: loading, validation, enrichment.

A dataset holds monthly rows of (cell, year, month, covariates, CNT, BA)
on a regular lon/lat grid.  Cells are rows of a sorted (lon, lat) array and
an observation is identified by its row index; :func:`match_rows` maps key
columns such as (cell, year, month) back to rows.  Masked responses and
missing covariates are NaN internally and a configurable marker (default
``"NA"``) on disk.  Enrichment operations (neighbour averaging, zero
cross-filling, model imputation) return new datasets; nothing mutates in
place.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import booster as B
from . import losses as L
from .errors import DataError

DEFAULT_SCHEMA = {"lon": "lon", "lat": "lat", "year": "year", "month": "month",
                  "cnt": "cnt", "ba": "ba"}
DEFAULT_SEASON = tuple(range(3, 10))  # March .. September
GRID_TOL = 1e-6


@dataclass
class GridDataset:
    """Columnar store of observations over a regular grid.

    ``cnt``/``ba``/``covariates`` use NaN for masked or missing entries.
    Instances are read-only by convention; enrichment returns copies.
    """

    cells: np.ndarray               # (n_cells, 2) float (lon, lat), sorted
    cell_index: np.ndarray          # (n,) int row of cells
    year: np.ndarray                # (n,) int
    month: np.ndarray               # (n,) int
    cnt: np.ndarray                 # (n,) float
    ba: np.ndarray                  # (n,) float
    covariates: np.ndarray          # (n, p) float
    covariate_names: list[str]
    spacing: float = 0.5

    @property
    def n_rows(self) -> int:
        return self.year.size

    def copy(self) -> "GridDataset":
        return self.subset(slice(None))

    def subset(self, rows: np.ndarray) -> "GridDataset":
        """Row subset (copied arrays); every cell is kept."""
        return GridDataset(
            cells=self.cells.copy(),
            cell_index=self.cell_index[rows].copy(),
            year=self.year[rows].copy(),
            month=self.month[rows].copy(),
            cnt=self.cnt[rows].copy(),
            ba=self.ba[rows].copy(),
            covariates=self.covariates[rows].copy(),
            covariate_names=list(self.covariate_names),
            spacing=self.spacing,
        )

    def rows_of(self, cell, year, month) -> np.ndarray:
        """Row of each (cell, year, month) key (arrays broadcast together),
        or -1 where the dataset has no such row."""
        return match_rows((self.cell_index, self.year, self.month), (cell, year, month))

    # -- features ----------------------------------------------------------

    def feature_matrix(self, include_position: bool = True):
        """(X, names): covariates, optionally preceded by lon/lat/year/month."""
        cols, names = [self.covariates], list(self.covariate_names)
        if include_position:
            lons, lats = self.cells[self.cell_index].T
            cols = [lons, lats, self.year.astype(float), self.month.astype(float)] + cols
            names = ["lon", "lat", "year", "month"] + names
        return np.column_stack(cols), names

    def with_covariate(self, name: str, values: np.ndarray) -> "GridDataset":
        if name in self.covariate_names:
            raise DataError(f"covariate {name!r} already exists")
        out = self.copy()
        out.covariates = np.column_stack([out.covariates, np.asarray(values, dtype=float)])
        out.covariate_names.append(name)
        return out


def match_rows(keys, queries) -> np.ndarray:
    """Index of the first row of the key columns ``keys`` equal to each
    query row, or -1 where there is none.

    ``queries`` holds one array per key column; they broadcast together and
    the result has their shape.  Each column is ranked among its distinct
    key values and the ranks are packed into one int64 per row, so the
    lookup is one sort of the keys and one ``searchsorted`` of the queries,
    sized by the rows and not by the key space.
    """
    queries = np.broadcast_arrays(*queries)
    if len(keys[0]) == 0:
        return np.full(queries[0].shape, -1)
    key = np.zeros(len(keys[0]), dtype=np.int64)
    query = np.zeros(queries[0].shape, dtype=np.int64)
    found = np.ones(queries[0].shape, dtype=bool)
    for k, q in zip(keys, queries):
        vals, rank = np.unique(k, return_inverse=True)
        pos = np.searchsorted(vals, q).clip(max=vals.size - 1)
        found &= vals[pos] == q
        key = key * vals.size + rank
        query = query * vals.size + pos
    order = np.argsort(key, kind="stable")
    pos = np.searchsorted(key[order], query).clip(max=key.size - 1)
    found &= key[order][pos] == query
    return np.where(found, order[pos], -1)


def _parse_number(token: str, missing_marker: str | None = None) -> float:
    if token == missing_marker:
        return np.nan
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


def load_csv(path, schema: dict | None = None, missing_marker: str = "NA",
             season=DEFAULT_SEASON, spacing: float = 0.5,
             covariate_columns: list[str] | None = None) -> GridDataset:
    """Read a headered CSV into a validated GridDataset.

    ``schema`` maps the roles lon/lat/year/month/cnt/ba to column names
    (defaults to those exact names); every other column is a covariate
    unless ``covariate_columns`` restricts the list.  Malformed rows,
    duplicate (cell, year, month) keys, off-season months and off-grid
    coordinates are reported with their line number.
    """
    schema = dict(DEFAULT_SCHEMA if schema is None else schema)
    missing_roles = set(DEFAULT_SCHEMA) - set(schema)
    if missing_roles:
        raise DataError(f"schema missing roles: {sorted(missing_roles)}")
    season = set(int(m) for m in season)

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        col_of = {name: i for i, name in enumerate(header)}
        for role, col in schema.items():
            if col not in col_of:
                raise DataError(f"{path}: schema column {col!r} (role {role}) not in header")
        role_idx = {role: col_of[schema[role]] for role in schema}
        if covariate_columns is None:
            covariate_columns = [c for c in header if c not in set(schema.values())]
        for c in covariate_columns:
            if c not in col_of:
                raise DataError(f"{path}: covariate column {c!r} not in header")
        cov_idx = [col_of[c] for c in covariate_columns]

        lons, lats, years, months, cnts, bas, covs = [], [], [], [], [], [], []
        for lineno, rowvals in enumerate(reader, start=2):
            if len(rowvals) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, "
                                f"got {len(rowvals)}")
            try:
                lon = _parse_number(rowvals[role_idx["lon"]])
                lat = _parse_number(rowvals[role_idx["lat"]])
                year = int(rowvals[role_idx["year"]])
                month = int(rowvals[role_idx["month"]])
                cnt = _parse_number(rowvals[role_idx["cnt"]], missing_marker)
                ba = _parse_number(rowvals[role_idx["ba"]], missing_marker)
                cov = [_parse_number(rowvals[i], missing_marker) for i in cov_idx]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed row ({exc})") from None
            if month not in season:
                raise DataError(f"{path}:{lineno}: month {month} outside configured "
                                f"season {sorted(season)}")
            if not np.isnan(cnt) and (cnt < 0 or cnt != int(cnt)):
                raise DataError(f"{path}:{lineno}: cnt must be a nonnegative integer")
            if not np.isnan(ba) and ba < 0:
                raise DataError(f"{path}:{lineno}: ba must be nonnegative")
            if not np.isnan(cnt) and not np.isnan(ba) and cnt == 0 and ba != 0:
                raise DataError(f"{path}:{lineno}: ba must be 0 when cnt is 0")
            lons.append(lon); lats.append(lat); years.append(year)
            months.append(month); cnts.append(cnt); bas.append(ba); covs.append(cov)

    coords = np.column_stack([lons, lats])
    for j, name in enumerate(("lon", "lat")):
        offsets = (coords[:, j] - coords[:, j].min(initial=np.inf)) / spacing
        bad = np.abs(offsets - np.round(offsets)) > GRID_TOL
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(f"{path}: {name}={coords[i, j]:g} does not lie on a regular "
                            f"grid with spacing {spacing:g}")

    cells, cell_index = np.unique(coords, axis=0, return_inverse=True)
    ds = GridDataset(
        cells=cells,
        cell_index=cell_index.reshape(-1),
        year=np.asarray(years, dtype=int),
        month=np.asarray(months, dtype=int),
        cnt=np.asarray(cnts, dtype=float),
        ba=np.asarray(bas, dtype=float),
        covariates=np.asarray(covs, dtype=float).reshape(len(years), len(covariate_columns)),
        covariate_names=list(covariate_columns),
        spacing=spacing,
    )
    repeated = np.flatnonzero(ds.rows_of(ds.cell_index, ds.year, ds.month)
                              != np.arange(ds.n_rows))
    if repeated.size:
        i = int(repeated[0])
        cell = tuple(cells[ds.cell_index[i]].tolist())
        raise DataError(f"{path}:{i + 2}: duplicate (cell, year, month) = "
                        f"({cell}, {years[i]}, {months[i]})")
    return ds


def save_csv(ds: GridDataset, path, missing_marker: str = "NA") -> None:
    """Write the dataset back out in the same CSV dialect."""
    def fmt(v: float) -> str:
        if math.isnan(v):
            return missing_marker
        if v.is_integer():
            return str(int(v))
        return repr(v)

    lon, lat = ds.cells[ds.cell_index].T.tolist()
    columns = (lon, lat, ds.year.tolist(), ds.month.tolist(), ds.cnt.tolist(),
               ds.ba.tolist(), ds.covariates.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lon", "lat", "year", "month", "cnt", "ba"] + ds.covariate_names)
        for lo, la, y, m, cnt, ba, cov in zip(*columns):
            writer.writerow([repr(lo), repr(la), y, m, fmt(cnt), fmt(ba)]
                            + [fmt(v) for v in cov])


# ---------------------------------------------------------------------------
# Enrichment
# ---------------------------------------------------------------------------

def neighbor_average(ds: GridDataset, covariate: str) -> GridDataset:
    """Append ``<covariate>_nbr``: the mean of the covariate over the 8
    neighbouring cells for the same (year, month), excluding the centre
    cell; cells with no present neighbour value fall back to their own."""
    if covariate not in ds.covariate_names:
        raise DataError(f"unknown covariate {covariate!r}")
    j = ds.covariate_names.index(covariate)
    values = ds.covariates[:, j]
    # integer lattice coordinates of each cell; any cell is a lattice origin
    # and offsets are integral by the load-time grid check
    lattice = np.rint((ds.cells - ds.cells[:1]) / ds.spacing)
    offsets = np.array([(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj])
    nbr_cell = match_rows(lattice.T, (lattice[:, None, :] + offsets).transpose(2, 0, 1))
    nbr_rows = ds.rows_of(nbr_cell[ds.cell_index].T, ds.year, ds.month)   # (8, n)

    acc, cnt = np.zeros(ds.n_rows), np.zeros(ds.n_rows, dtype=int)
    for rows in nbr_rows:  # one offset at a time, adding in (di, dj) order
        vals = np.where(rows >= 0, values[rows], np.nan)
        present = ~np.isnan(vals)
        acc[present] += vals[present]
        cnt += present
    out_vals = np.where(cnt > 0, acc / np.maximum(cnt, 1), values)
    return ds.with_covariate(f"{covariate}_nbr", out_vals)


def cross_fill_zeros(ds: GridDataset) -> GridDataset:
    """Set masked CNT to 0 where BA is observed 0, and masked BA to 0 where
    CNT is observed 0; every other entry is untouched."""
    out = ds.copy()
    fill_cnt = np.isnan(out.cnt) & (out.ba == 0)
    fill_ba = np.isnan(out.ba) & (out.cnt == 0)
    out.cnt[fill_cnt] = 0.0
    out.ba[fill_ba] = 0.0
    return out


def impute_cnt_covariate(ds: GridDataset, aux: B.BoostedModel,
                         include_position: bool = True) -> GridDataset:
    """Append ``cnt_cov``: the observed count where present, else the
    predicted mean count from a dGPD model ``aux`` (requires alpha > 1).

    ``aux`` must not use burned-area-derived covariates, or the imputed
    column would leak the other response."""
    if aux.loss.kind != "dgpd":
        raise DataError("imputation model must use the dgpd loss")
    if aux.loss.alpha <= 1.0:
        raise DataError("mean does not exist for dgpd with alpha <= 1")
    leaky = {"p_zero", "p_med", "p_large"} & set(aux.feature_names)
    if leaky:
        raise DataError(f"count imputation model uses burned-area-derived "
                        f"covariates: {sorted(leaky)}")
    X, names = ds.feature_matrix(include_position=include_position)
    X = align_features(X, names, aux.feature_names)
    masked = np.isnan(ds.cnt)
    vals = ds.cnt.copy()
    if masked.any():
        theta = B.predict_raw(aux, X[masked])
        vals[masked] = L.dgpd_mean(theta, aux.loss.alpha)
    return ds.with_covariate("cnt_cov", vals)


def ba_class_labels(ba: np.ndarray, u: float) -> np.ndarray:
    """Size-component labels: 0 for no fire, 1 for (0, u], 2 for > u."""
    return np.where(ba == 0, 0, np.where(ba <= u, 1, 2)).astype(int)


def impute_ba_class_covariates(ds: GridDataset, aux: B.BoostedModel, u: float = 200.0,
                               include_position: bool = True) -> GridDataset:
    """Append p_zero/p_med/p_large: the observed one-hot size-component
    indicators where BA is observed, else softmax probabilities from the
    3-class classifier ``aux`` (which must not use count-derived covariates)."""
    if aux.loss.kind != "cross_entropy":
        raise DataError("imputation model must use the cross_entropy loss")
    if aux.loss.n_classes != 3:
        raise DataError("size-component classifier must have 3 classes")
    if "cnt_cov" in aux.feature_names:
        raise DataError("size classifier for imputation uses a count-derived covariate")
    X, names = ds.feature_matrix(include_position=include_position)
    X = align_features(X, names, aux.feature_names)
    probs = np.zeros((ds.n_rows, 3))
    observed = ~np.isnan(ds.ba)
    labels = ba_class_labels(ds.ba[observed], u)
    probs[np.flatnonzero(observed), labels] = 1.0
    if (~observed).any():
        raw = B.predict_raw(aux, X[~observed])
        probs[~observed] = L.softmax(raw)
    out = ds
    for name, col in zip(("p_zero", "p_med", "p_large"), probs.T):
        out = out.with_covariate(name, col)
    return out


def align_features(X: np.ndarray, names: list[str] | None,
                   wanted: list[str]) -> np.ndarray:
    """The columns of ``X`` (named ``names``) that a model wants, in its
    order; without names, ``X`` must already have the model's columns."""
    if names is None:
        if X.shape[1] != len(wanted):
            raise DataError("feature count mismatch; pass feature names to align")
        return X
    missing = [w for w in wanted if w not in names]
    if missing:
        raise DataError(f"dataset lacks features required by the model: {missing}")
    return X[:, [names.index(w) for w in wanted]]
