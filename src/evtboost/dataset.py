"""Gridded spatio-temporal observations: loading, validation, enrichment.

A dataset holds monthly rows of (cell, year, month, covariates, CNT, BA)
on a regular lon/lat grid.  Masked responses and missing covariates are
NaN internally and a configurable marker (default ``"NA"``) on disk.
Enrichment operations (neighbour averaging, zero cross-filling, model
imputation) return new datasets; nothing mutates in place.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import booster as B
from . import losses as L
from .errors import DataError

DEFAULT_SCHEMA = {"lon": "lon", "lat": "lat", "year": "year", "month": "month",
                  "cnt": "cnt", "ba": "ba"}
DEFAULT_SEASON = tuple(range(3, 10))  # March .. September
GRID_TOL = 1e-6


@dataclass(frozen=True)
class GridCell:
    id: int
    lon: float
    lat: float


@dataclass
class GridDataset:
    """Columnar store of observations over a regular grid.

    ``cnt``/``ba``/``covariates`` use NaN for masked or missing entries.
    Instances are read-only by convention; enrichment returns copies.
    """

    cells: list[GridCell]
    cell_index: np.ndarray          # (n,) int index into cells
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
        return GridDataset(
            cells=list(self.cells),
            cell_index=self.cell_index.copy(),
            year=self.year.copy(),
            month=self.month.copy(),
            cnt=self.cnt.copy(),
            ba=self.ba.copy(),
            covariates=self.covariates.copy(),
            covariate_names=list(self.covariate_names),
            spacing=self.spacing,
        )

    def subset(self, rows: np.ndarray) -> "GridDataset":
        """Row-subset view (copied arrays); the cell list is shared layout."""
        return GridDataset(
            cells=list(self.cells),
            cell_index=self.cell_index[rows].copy(),
            year=self.year[rows].copy(),
            month=self.month[rows].copy(),
            cnt=self.cnt[rows].copy(),
            ba=self.ba[rows].copy(),
            covariates=self.covariates[rows].copy(),
            covariate_names=list(self.covariate_names),
            spacing=self.spacing,
        )

    def keys(self) -> list[tuple[int, int, int]]:
        """(cell id, year, month) per row."""
        return [
            (self.cells[c].id, int(y), int(m))
            for c, y, m in zip(self.cell_index, self.year, self.month)
        ]

    # -- features ----------------------------------------------------------

    def feature_matrix(self, include_position: bool = True):
        """(X, names): covariates, optionally preceded by lon/lat/year/month."""
        cols, names = [], []
        if include_position:
            lons = np.array([self.cells[c].lon for c in self.cell_index])
            lats = np.array([self.cells[c].lat for c in self.cell_index])
            cols += [lons, lats, self.year.astype(float), self.month.astype(float)]
            names += ["lon", "lat", "year", "month"]
        if self.covariate_names:
            cols.append(self.covariates)
            names += list(self.covariate_names)
        if not cols:
            return np.empty((self.n_rows, 0)), names
        X = np.column_stack(cols) if len(cols) > 1 else np.asarray(cols[0], dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        return X, names

    def with_covariate(self, name: str, values: np.ndarray) -> "GridDataset":
        if name in self.covariate_names:
            raise DataError(f"covariate {name!r} already exists")
        out = self.copy()
        values = np.asarray(values, dtype=float)
        if out.covariate_names:
            out.covariates = np.column_stack([out.covariates, values])
        else:
            out.covariates = values[:, None]
        out.covariate_names.append(name)
        return out


def _parse_number(token: str, missing_marker: str) -> float:
    if token == missing_marker:
        return np.nan
    return float(token)


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
                lon = float(rowvals[role_idx["lon"]])
                lat = float(rowvals[role_idx["lat"]])
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
            if not np.isnan(cnt) and (not np.isfinite(cnt) or cnt < 0 or cnt != int(cnt)):
                raise DataError(f"{path}:{lineno}: cnt must be a nonnegative integer")
            if not np.isnan(ba) and (not np.isfinite(ba) or ba < 0):
                raise DataError(f"{path}:{lineno}: ba must be nonnegative")
            if not np.isnan(cnt) and not np.isnan(ba) and cnt == 0 and ba != 0:
                raise DataError(f"{path}:{lineno}: ba must be 0 when cnt is 0")
            lons.append(lon); lats.append(lat); years.append(year)
            months.append(month); cnts.append(cnt); bas.append(ba); covs.append(cov)

    lons = np.asarray(lons); lats = np.asarray(lats)
    if lons.size == 0:
        return GridDataset([], np.empty(0, int), np.empty(0, int), np.empty(0, int),
                           np.empty(0), np.empty(0), np.empty((0, len(covariate_columns))),
                           list(covariate_columns), spacing)

    for name, vals in (("lon", lons), ("lat", lats)):
        offsets = (vals - vals.min()) / spacing
        bad = np.abs(offsets - np.round(offsets)) > GRID_TOL
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(f"{path}: {name}={vals[i]:g} does not lie on a regular "
                            f"grid with spacing {spacing:g}")

    coords = sorted(set(zip(lons.tolist(), lats.tolist())))
    cell_id = {c: i for i, c in enumerate(coords)}
    cells = [GridCell(i, lo, la) for i, (lo, la) in enumerate(coords)]
    cell_index = np.array([cell_id[(lo, la)] for lo, la in zip(lons, lats)], dtype=int)

    keys = set()
    for i, key in enumerate(zip(cell_index.tolist(), years, months)):
        if key in keys:
            raise DataError(f"{path}:{i + 2}: duplicate (cell, year, month) = "
                            f"({coords[key[0]]}, {key[1]}, {key[2]})")
        keys.add(key)

    return GridDataset(
        cells=cells,
        cell_index=cell_index,
        year=np.asarray(years, dtype=int),
        month=np.asarray(months, dtype=int),
        cnt=np.asarray(cnts, dtype=float),
        ba=np.asarray(bas, dtype=float),
        covariates=np.asarray(covs, dtype=float).reshape(len(years), len(covariate_columns)),
        covariate_names=list(covariate_columns),
        spacing=spacing,
    )


def save_csv(ds: GridDataset, path, missing_marker: str = "NA") -> None:
    """Write the dataset back out in the same CSV dialect."""
    def fmt(v: float) -> str:
        if np.isnan(v):
            return missing_marker
        if float(v).is_integer():
            return str(int(v))
        return repr(float(v))

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lon", "lat", "year", "month", "cnt", "ba"] + ds.covariate_names)
        for i in range(ds.n_rows):
            cell = ds.cells[ds.cell_index[i]]
            writer.writerow(
                [repr(cell.lon), repr(cell.lat), int(ds.year[i]), int(ds.month[i]),
                 fmt(ds.cnt[i]), fmt(ds.ba[i])]
                + [fmt(v) for v in ds.covariates[i]]
            )


# ---------------------------------------------------------------------------
# Enrichment
# ---------------------------------------------------------------------------

def _neighbor_lists(ds: GridDataset) -> list[np.ndarray]:
    """8-neighbourhood (queen) cell ids for each cell on the regular grid."""
    if not ds.cells:
        return []
    # integer lattice coordinates relative to the grid origin (offsets are
    # integral by the load-time grid check, so round() is exact here)
    lon0 = min(c.lon for c in ds.cells)
    lat0 = min(c.lat for c in ds.cells)

    def key(c: GridCell) -> tuple[int, int]:
        return (round((c.lon - lon0) / ds.spacing), round((c.lat - lat0) / ds.spacing))

    index = {key(c): c.id for c in ds.cells}
    out = []
    for c in ds.cells:
        ci, cj = key(c)
        nbrs = [index[(ci + di, cj + dj)]
                for di in (-1, 0, 1) for dj in (-1, 0, 1)
                if (di, dj) != (0, 0) and (ci + di, cj + dj) in index]
        out.append(np.asarray(nbrs, dtype=int))
    return out


def neighbor_average(ds: GridDataset, covariate: str) -> GridDataset:
    """Append ``<covariate>_nbr``: the mean of the covariate over the 8
    neighbouring cells for the same (year, month), excluding the centre
    cell; cells with no present neighbour value fall back to their own."""
    if covariate not in ds.covariate_names:
        raise DataError(f"unknown covariate {covariate!r}")
    j = ds.covariate_names.index(covariate)
    values = ds.covariates[:, j]
    nbrs = _neighbor_lists(ds)

    # (cell, year, month) -> row lookup
    row_of = {}
    for i in range(ds.n_rows):
        row_of[(int(ds.cell_index[i]), int(ds.year[i]), int(ds.month[i]))] = i

    out_vals = np.empty(ds.n_rows)
    for i in range(ds.n_rows):
        c, y, m = int(ds.cell_index[i]), int(ds.year[i]), int(ds.month[i])
        acc, cnt = 0.0, 0
        for nb in nbrs[c]:
            r = row_of.get((int(nb), y, m))
            if r is not None and not np.isnan(values[r]):
                acc += values[r]
                cnt += 1
        out_vals[i] = acc / cnt if cnt else values[i]
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
    X = _align_features(X, names, aux.feature_names)
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
    X = _align_features(X, names, aux.feature_names)
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


def _align_features(X: np.ndarray, names: list[str], wanted: list[str]) -> np.ndarray:
    missing = [w for w in wanted if w not in names]
    if missing:
        raise DataError(f"dataset lacks features required by the model: {missing}")
    idx = [names.index(w) for w in wanted]
    return X[:, idx]
