"""Gridded spatio-temporal observations: loading, validation, enrichment.

A dataset holds monthly rows of (cell, year, month, covariates, CNT, BA)
on a regular lon/lat grid.  Cells are rows of a sorted (lon, lat) array and
an observation is identified by its row index; :func:`match_rows` maps key
columns such as (cell, year, month) back to rows.  Masked responses and
missing covariates are NaN internally and a configurable marker (default
``"NA"``) on disk.  Enrichment (zero cross-filling between the two
responses) returns a new dataset; nothing mutates in place.  The module
sits below the model layer: it imports no booster, tree or loss code, and
the rows each loss trains on are picked in :func:`losses.training_rows`.
"""

from __future__ import annotations

import csv
import io
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DataError, open_text

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

    @property
    def n_rows(self) -> int:
        return self.year.size

    def copy(self) -> "GridDataset":
        return self.subset(np.arange(self.n_rows))

    def subset(self, rows: np.ndarray) -> "GridDataset":
        """Row subset at an index array (numpy copies every array it indexes
        with one, so nothing is copied twice); every cell is kept."""
        return GridDataset(
            cells=self.cells.copy(),
            cell_index=self.cell_index[rows],
            year=self.year[rows],
            month=self.month[rows],
            cnt=self.cnt[rows],
            ba=self.ba[rows],
            covariates=self.covariates[rows],
            covariate_names=list(self.covariate_names),
        )

    def rows_of(self, cell, year, month) -> np.ndarray:
        """Row of each (cell, year, month) key (arrays broadcast together),
        or -1 where the dataset has no such row."""
        return match_rows((self.cell_index, self.year, self.month), (cell, year, month))

    # -- features ----------------------------------------------------------

    def feature_matrix(self):
        """(X, names): lon, lat, year and month, then the covariates."""
        lons, lats = self.cells[self.cell_index].T
        X = np.column_stack([lons, lats, self.year.astype(float), self.month.astype(float),
                             self.covariates])
        return X, ["lon", "lat", "year", "month"] + self.covariate_names


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


# A data block is the whole lines in about this many bytes, parsed with one
# np.loadtxt call: the text in flight (held as UCS-4 by io.StringIO) and the
# parsed values stay a few MB whatever the file size and line width.
_BLOCK_BYTES = 1 << 19
_MAX_INT = 2.0 ** 53   # every integer up to this magnitude is exact in float64


class _BadLine(Exception):
    """``(k, message)``: a fault at line ``k`` (0-based) of the block parsed."""


def count_lines(path) -> int:
    """Lines in the file as a universal-newline reader splits them: "\\n",
    "\\r\\n" and a lone "\\r" each end one, and so does the end of file
    after a final unterminated line."""
    n, last = 0, b"\n"
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            n += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
            n -= last == b"\r" and block[:1] == b"\n"   # "\r\n" split between reads
            last = block[-1:]
    return n + (last not in (b"\n", b"\r"))


def first_fault(checks) -> tuple[int, str] | None:
    """(row, message) for the first row that any ``(mask, message)`` check
    flags, the message being that of the first check flagging the row;
    ``message`` is called with the row.  None when no row is flagged."""
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return i, next(message(i) for mask, message in checks if mask[i])


def not_integer(values: np.ndarray) -> np.ndarray:
    """True where a value is not an integer of magnitude at most 2^53 (NaN
    and inf included), so it converts to int64 without loss."""
    return ~(np.abs(values) <= _MAX_INT) | (values != np.trunc(values))


@contextmanager
def open_table(path):
    """Open a headered CSV for parsing in blocks.

    Yields ``(header, n_rows, blocks)``: the header fields (None for an
    empty file), the number of data lines, and ``blocks(check,
    missing_marker=None, used=None)``, which parses the data lines in
    blocks of about ``_BLOCK_BYTES`` with one ``np.loadtxt`` pass each.
    ``blocks`` yields ``(offset, values)``: the block's first data row and
    its float values, one column per header field.  A field that equals
    ``missing_marker`` (bare or quoted) is NaN; any other field that is not
    a finite number is a fault, in the columns ``used`` (default: all; the
    others read as 0).  ``check(values, missing)`` sees each parsed block
    with its marker mask, may fill in values, and returns the first faulty
    ``(row, message)`` or None.  A fault raises :class:`DataError` naming
    the path and line; the earliest faulty line is named, as a line-by-line
    reader would.
    """
    n_lines = count_lines(path)
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)

        def blocks(check, missing_marker=None, used=None):
            used = range(len(header)) if used is None else sorted(set(used))
            ignored = {j: _zero for j in range(len(header)) if j not in used}
            offset = 0
            while lines := fh.readlines(_BLOCK_BYTES):
                try:
                    values = _parse_block(lines, header, used, ignored, missing_marker, check)
                except _BadLine as bad:
                    k, message = bad.args
                    raise DataError(f"{path}:{reader.line_num + 1 + offset + k}: "
                                    f"{message}") from None
                yield offset, values
                offset += len(lines)

        yield header, n_lines - reader.line_num, blocks


def _zero(token: str) -> float:
    return 0.0


def _parse_block(lines, header, used, ignored, marker, check) -> np.ndarray:
    n_fields = len(header)
    text = "\n" + "".join(lines)   # the leading newline gives line 0 a boundary
    if not text.endswith("\n"):
        text += "\n"
    faults = []
    if marker is not None:
        # Marker fields become "-nan", which parses to NaN with its sign bit
        # set; every other NaN is a literal token, a fault.  A literal "-nan"
        # would pass for a marker, so lines that may hold one are checked
        # token by token first.
        if "-n" in text or "-N" in text:
            faults += _negative_nan(lines, n_fields, used, marker)
        text = _mark_missing(text, marker)
    if not faults:
        k = message = None
        if all(line == "\n" for line in lines):   # np.loadtxt would find no data
            k = 0
        else:
            try:
                values = np.loadtxt(io.StringIO(text), delimiter=",", quotechar='"',
                                    comments=None, ndmin=2, converters=ignored)
            except ValueError as exc:
                k, message = _loadtxt_fault(str(exc), header)
            else:
                if values.shape[1] != n_fields:
                    k = 0
                elif values.shape[0] != len(lines):   # a blank line, or a quoted line break
                    k = next((k for k, line in enumerate(lines) if line.count('"') % 2),
                             len(lines) - 1)
                    message = "malformed row (line break inside a quoted field)"
        if k is not None:
            # np.loadtxt skips blank lines and leaves them out of its row count
            k = min(k, next((b for b, line in enumerate(lines) if line == "\n"), k))
            got = len(next(csv.reader([lines[k]]), []))
            faults.append((k, message if got == n_fields and message
                           else f"expected {n_fields} fields, got {got}"))
    if not faults:
        missing = np.isnan(values) & np.signbit(values) if marker is not None \
            else np.zeros(values.shape, dtype=bool)   # "-nan" stands for the marker
        np.abs(values, out=values, where=missing)   # NaN as np.nan has it
        bad_token = ~np.isfinite(values) & ~missing   # the ignored columns hold 0
        fault = first_fault([
            (bad_token.any(axis=1),
             lambda i: f"malformed row (column {header[int(np.argmax(bad_token[i]))]!r}"
                       f" is not a finite number)"),
        ]) or check(values, missing)
        if fault is None:
            return values
        faults.append(fault)
    k, message = min(faults)
    if k:  # a fault on an earlier line of the block is named first
        _parse_block(lines[:k], header, used, ignored, marker, check)
    raise _BadLine(k, message)


def _mark_missing(text: str, marker: str) -> str:
    """``text`` with every field equal to ``marker``, bare or quoted,
    replaced by "-nan"; ``text`` starts and ends with a newline."""
    for token in (marker, f'"{marker}"') if '"' in text else (marker,):
        # a run ",M,M," needs two passes: the first takes every other field
        for left, right in ((",", ","), (",", ","), ("\n", ","), (",", "\n")):
            text = text.replace(f"{left}{token}{right}", f"{left}-nan{right}")
    return text


def _negative_nan(lines, n_fields, used, marker) -> list[tuple[int, str]]:
    """The first line with a field other than the marker that reads as NaN,
    and so could pass for a marker, as a one-item fault list, or []."""
    for k, line in enumerate(lines):
        fields = next(csv.reader([line]), []) if "-n" in line.lower() else []
        if len(fields) != n_fields:   # none, or a field-count fault for np.loadtxt
            continue
        for j in used:
            if fields[j] != marker and _reads_as_nan(fields[j]):
                return [(k, f"malformed row (field {fields[j]!r} is not a finite number)")]
    return []


def _reads_as_nan(token: str) -> bool:
    try:
        return math.isnan(float(token))
    except ValueError:
        return False


def _loadtxt_fault(message: str, header) -> tuple[int, str]:
    """(line, message) from an ``np.loadtxt`` error, in this module's terms;
    a wrong field count is reported from the line itself."""
    m = re.search(r"columns changed from \d+ to \d+ at row (\d+)", message)
    if m:  # rows counted from 1
        return int(m[1]) - 1, ""
    m = re.search(r"(could not convert string .*) to float64 at row (\d+), column (\d+)",
                  message, re.DOTALL)
    if m:  # rows counted from 0, columns from 1
        j = int(m[3]) - 1
        column = repr(header[j]) if j < len(header) else j + 1
        return int(m[2]), f"malformed row ({m[1]} in column {column})"
    return 0, f"malformed row ({message})"


def load_csv(path, schema: dict | None = None, missing_marker: str = "NA",
             season=DEFAULT_SEASON, spacing: float = 0.5,
             covariate_columns: list[str] | None = None) -> GridDataset:
    """Read a headered CSV into a validated GridDataset.

    ``schema`` maps the roles lon/lat/year/month/cnt/ba to column names
    (defaults to those exact names); every other column is a covariate
    unless ``covariate_columns`` restricts the list.  Fields are decimal
    numbers as ``np.loadtxt`` reads them, optionally quoted; ``cnt``, ``ba``
    and covariate fields may instead equal ``missing_marker`` (NaN).
    Malformed rows, duplicate (cell, year, month) keys, off-season months
    and off-grid coordinates are reported with their line number.
    """
    if not 0.0 < spacing < np.inf:
        raise DataError(f"grid spacing must be finite and > 0, got {spacing!r}")
    schema = dict(DEFAULT_SCHEMA if schema is None else schema)
    missing_roles = set(DEFAULT_SCHEMA) - set(schema)
    if missing_roles:
        raise DataError(f"schema missing roles: {sorted(missing_roles)}")
    if any(c in missing_marker for c in ',"\r\n'):
        raise DataError(f"missing marker {missing_marker!r} holds a comma, quote or "
                        f"line break")
    season = sorted(set(int(m) for m in season))
    try:  # a numeric marker in lon/lat/year/month is that number, as before
        marker_value = float(missing_marker)
    except ValueError:
        marker_value = np.nan

    with open_table(path) as (header, n, blocks):
        if header is None:
            raise DataError(f"{path}: empty file")
        col_of = {name: i for i, name in enumerate(header)}
        for role, col in schema.items():
            if col not in col_of:
                raise DataError(f"{path}: schema column {col!r} (role {role}) not in header")
        lon, lat, year, month, cnt, ba = (col_of[schema[role]] for role in DEFAULT_SCHEMA)
        if covariate_columns is None:
            covariate_columns = [c for c in header if c not in set(schema.values())]
        for c in covariate_columns:
            if c not in col_of:
                raise DataError(f"{path}: covariate column {c!r} not in header")
        cov_idx = [col_of[c] for c in covariate_columns]
        keys = [lon, lat, year, month]

        def check(v, missing):
            for j in keys:
                v[missing[:, j], j] = marker_value
            bad_key = ~np.isfinite(v[:, keys])
            fires, burnt = v[:, cnt], v[:, ba]
            return first_fault([
                (bad_key.any(axis=1),
                 lambda i: f"malformed row (column {header[keys[int(np.argmax(bad_key[i]))]]!r}"
                           f" is not a finite number)"),
                (not_integer(v[:, year]),
                 lambda i: f"malformed row (year {v[i, year]:g} is not an integer "
                           f"within 2^53)"),
                (not_integer(v[:, month]),
                 lambda i: f"malformed row (month {v[i, month]:g} is not an integer "
                           f"within 2^53)"),
                (~np.isin(v[:, month], season),
                 lambda i: f"month {int(v[i, month])} outside configured season {season}"),
                ((fires < 0) | (fires != np.trunc(fires)) & ~np.isnan(fires),
                 lambda i: "cnt must be a nonnegative integer"),
                (burnt < 0, lambda i: "ba must be nonnegative"),
                ((fires == 0) & (burnt > 0), lambda i: "ba must be 0 when cnt is 0"),
            ])

        coords, covariates = np.empty((n, 2)), np.empty((n, len(cov_idx)))
        years, months = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        counts, areas = np.empty(n), np.empty(n)
        for o, v in blocks(check, missing_marker, used=keys + [cnt, ba] + cov_idx):
            rows = slice(o, o + v.shape[0])
            coords[rows], covariates[rows] = v[:, [lon, lat]], v[:, cov_idx]
            years[rows], months[rows] = v[:, year], v[:, month]
            counts[rows], areas[rows] = v[:, cnt], v[:, ba]

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
        year=years,
        month=months,
        cnt=counts,
        ba=areas,
        covariates=covariates,
        covariate_names=list(covariate_columns),
    )
    repeated = np.flatnonzero(ds.rows_of(ds.cell_index, ds.year, ds.month)
                              != np.arange(ds.n_rows))
    if repeated.size:
        i = int(repeated[0])
        cell = tuple(cells[ds.cell_index[i]].tolist())
        raise DataError(f"{path}:{i + 2}: duplicate (cell, year, month) = "
                        f"({cell}, {ds.year[i]}, {ds.month[i]})")
    return ds


# Work that runs row by row over a wide array -- writing numpy columns as
# CSV, and the (rows x thresholds) grids of the threshold CDFs and scores --
# is done a block of rows at a time.  A block holds about this many cells
# (rows x width), so its temporaries and Python row objects stay the same
# size whatever the array's width.
_BLOCK_CELLS = 1 << 14


def row_blocks(n: int, width: int) -> list[slice]:
    """Slices of consecutive rows covering rows 0..n-1, each of
    ``_BLOCK_CELLS // width`` rows (at least one) of a ``width``-wide array."""
    step = max(1, _BLOCK_CELLS // max(1, width))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def write_csv(path, header, columns) -> None:
    """Write ``header``, then one row per index of the equal-length
    ``columns`` (lists or 1-d numpy arrays).  ``csv`` writes a float
    (``np.float64`` too) by ``float.__repr__``, the shortest text that reads
    back to it.  Array columns become Python numbers one block of rows (of
    :func:`row_blocks` at the column count) at a time, so only a block's
    objects are alive at once."""
    n_rows = len(columns[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rows in row_blocks(n_rows, len(columns)):
            block = (c[rows] for c in columns)
            writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                                   for c in block)))


def save_csv(ds: GridDataset, path, missing_marker: str = "NA") -> None:
    """Write the dataset back out in the same CSV dialect."""
    def column(values: np.ndarray) -> list:
        return [missing_marker if math.isnan(v) else int(v) if v.is_integer() else v
                for v in values.tolist()]

    lon, lat = ds.cells[ds.cell_index].T.tolist()
    write_csv(path, ["lon", "lat", "year", "month", "cnt", "ba"] + ds.covariate_names,
              [lon, lat, ds.year.tolist(), ds.month.tolist(), column(ds.cnt), column(ds.ba),
               *map(column, ds.covariates.T)])


# ---------------------------------------------------------------------------
# Enrichment
# ---------------------------------------------------------------------------

def cross_fill_zeros(ds: GridDataset) -> GridDataset:
    """Set masked CNT to 0 where BA is observed 0, and masked BA to 0 where
    CNT is observed 0; every other entry is untouched."""
    out = ds.copy()
    fill_cnt = np.isnan(out.cnt) & (out.ba == 0)
    fill_ba = np.isnan(out.ba) & (out.cnt == 0)
    out.cnt[fill_cnt] = 0.0
    out.ba[fill_ba] = 0.0
    return out


def align_features(X: np.ndarray, names: list[str] | None,
                   wanted: list[str]) -> np.ndarray:
    """The columns of ``X`` (named ``names``) that a model wants, in its
    order; without names, ``X`` must already have the model's columns.
    ``X`` itself is returned, not a copy, when its columns are already the
    model's."""
    if names is None:
        if X.shape[1] != len(wanted):
            raise DataError("feature count mismatch; pass feature names to align")
        return X
    if names == wanted and X.shape[1] == len(wanted):
        return X
    missing = [w for w in wanted if w not in names]
    if missing:
        raise DataError(f"dataset lacks features required by the model: {missing}")
    return X[:, [names.index(w) for w in wanted]]
