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
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, open_text

DEFAULT_SCHEMA = {"lon": "lon", "lat": "lat", "year": "year", "month": "month",
                  "cnt": "cnt", "ba": "ba"}
DEFAULT_SEASON = tuple(range(3, 10))  # March .. September
GRID_TOL = 1e-6
KEY_FEATURES = ["lon", "lat", "year", "month"]  # the features before the covariates


@dataclass
class GridDataset:
    """Columnar store of observations over a regular grid.

    ``cnt``/``ba``/``covariates`` use NaN for masked or missing entries.
    Instances are read-only by convention; enrichment returns a new
    dataset, which shares the arrays it leaves unchanged.
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
        return X, KEY_FEATURES + self.covariate_names


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
    the values of the columns ``used`` (default: all; in file order), the
    others unparsed, though a record must hold one field per header field.
    A field equal to ``missing_marker`` (bare or quoted) is NaN; any other
    used field that is not a finite number is a fault.  ``check(values,
    missing)`` gets a block and its marker mask, may fill in values, and
    returns the first faulty ``(row, message)`` or None.  A fault raises
    :class:`DataError` naming the path and the earliest faulty line.
    """
    n_lines = count_lines(path)
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)

        def blocks(check, missing_marker=None, used=None):
            used = range(len(header)) if used is None else used
            offset = 0
            while lines := fh.readlines(_BLOCK_BYTES):
                try:
                    values = _parse_block(lines, header, used, missing_marker, check)
                except _BadLine as bad:
                    k, message = bad.args
                    raise DataError(f"{path}:{reader.line_num + 1 + offset + k}: "
                                    f"{message}") from None
                yield offset, values
                offset += len(lines)

        yield header, n_lines - reader.line_num, blocks


def _parse_block(lines, header, used, marker, check) -> np.ndarray:
    n_fields = len(header)
    text = "\n" + "".join(lines)   # the leading newline gives line 0 a boundary
    if not text.endswith("\n"):
        text += "\n"
    faults = []
    # np.loadtxt counts fields itself when it reads every column of a non-blank block
    full, quoted = len(used) == n_fields and not text.isspace(), '"' in text
    k, message = None if full else _first_wrong_count(lines, n_fields, quoted), None
    if marker is not None:
        # Marker fields become "-nan", which parses to NaN with its sign bit
        # set; every other NaN is a literal token, a fault.  A literal "-nan"
        # would pass for a marker, so lines that may hold one are checked
        # token by token first.
        if "-n" in text or "-N" in text:
            faults += _negative_nan(lines, n_fields, used, marker)
        text = _mark_missing(text, marker)
    if k is None and not faults:
        try:
            values = np.loadtxt(io.StringIO(text), delimiter=",", quotechar='"', comments=None,
                                ndmin=2, usecols=None if full else used)
        except ValueError as exc:
            k, message = _loadtxt_fault(str(exc), header, lines)
        if k is None and values.shape != (len(lines), len(used)):   # lines joined or miscounted
            k = next((k for k, line in enumerate(lines) if line.count('"') % 2), len(lines) - 1)
            message = "malformed row (line break inside a quoted field)"
        if full and k is not None:   # any wrong count is named; lines[:k] are parsed again
            c = _first_wrong_count(lines, n_fields, quoted)
            k, message = (k, message) if c is None else (c, None)
    if k is not None:   # a wrong count, or a fault on a line that is no whole record
        got = len(next(csv.reader(lines[k:]), []))   # the record that starts at line k
        faults.append((k, message if got == n_fields and message
                       else f"expected {n_fields} fields, got {got}"))
    if not faults:
        missing = np.isnan(values) & np.signbit(values) if marker is not None \
            else np.zeros(values.shape, dtype=bool)   # "-nan" stands for the marker
        np.abs(values, out=values, where=missing)   # NaN as np.nan has it
        bad_token = ~np.isfinite(values) & ~missing
        fault = first_fault([
            (bad_token.any(axis=1),
             lambda i: f"malformed row (column {header[used[int(np.argmax(bad_token[i]))]]!r}"
                       f" is not a finite number)"),
        ]) or check(values, missing)
        if fault is None:
            return values
        faults.append(fault)
    k, message = min(faults)
    if k:  # a fault on an earlier line of the block is named first
        _parse_block(lines[:k], header, used, marker, check)
    raise _BadLine(k, message)


def _first_wrong_count(lines, n_fields, quoted) -> int | None:
    """First line of the first record without ``n_fields`` fields, or None: by
    commas, or by csv records (split as np.loadtxt splits them) if ``quoted``."""
    if not quoted:
        return next((k for k, line in enumerate(lines) if line.count(",") != n_fields - 1), None)
    reader, k = csv.reader(lines), 0
    for fields in reader:   # k is the first line of the record
        if len(fields) != n_fields:
            return k
        k = reader.line_num
    return None


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


def _loadtxt_fault(message: str, header, lines) -> tuple[int, str]:
    """(line, message) from an ``np.loadtxt`` error on ``lines``, in this
    module's terms.  np.loadtxt numbers records, and a record spans lines
    where a quoted field holds a line break, so the record's first line is
    found by reading ``lines`` as csv records."""
    m = re.search(r"(could not convert string .*) to float64 at row (\d+), column (\d+)",
                  message, re.DOTALL)
    if m:  # rows counted from 0, columns from 1
        j = int(m[3]) - 1
        column = repr(header[j]) if j < len(header) else j + 1
        reader = csv.reader(lines)
        for _ in zip(range(int(m[2])), reader):   # the records before it
            pass
        return reader.line_num, f"malformed row ({m[1]} in column {column})"
    return 0, f"malformed row ({message})"


def load_csv(path, schema: dict | None = None, missing_marker: str = "NA",
             season=DEFAULT_SEASON, spacing: float = 0.5,
             covariate_columns: list[str] | None = None) -> GridDataset:
    """Read a headered CSV into a validated GridDataset.

    ``schema`` maps the roles lon/lat/year/month/cnt/ba to column names
    (defaults to those exact names); every other column is a covariate
    unless ``covariate_columns`` restricts the list.  Header names are
    distinct, each role has its own column, and a covariate is listed once,
    is no role's column and is not named lon, lat, year or month (the
    feature names of the keys).  Fields are decimal
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
        col_of = {}
        for i, name in enumerate(header):
            if name in col_of:
                raise DataError(f"{path}: header repeats column {name!r}")
            col_of[name] = i
        role_of = {}
        for role, col in schema.items():
            if col not in col_of:
                raise DataError(f"{path}: schema column {col!r} (role {role}) not in header")
            if col in role_of:
                raise DataError(f"{path}: column {col!r} has two roles, "
                                f"{role_of[col]} and {role}")
            role_of[col] = role
        if covariate_columns is None:
            covariate_columns = [c for c in header if c not in role_of]
        features = set(KEY_FEATURES)
        for c in covariate_columns:
            if c not in col_of:
                raise DataError(f"{path}: covariate column {c!r} not in header")
            if c in role_of:
                raise DataError(f"{path}: covariate column {c!r} is the {role_of[c]} column")
            if c in features:
                raise DataError(f"{path}: covariate column {c!r} repeats a feature name")
            features.add(c)
        cols = [col_of[c] for c in [schema[r] for r in DEFAULT_SCHEMA] + list(covariate_columns)]
        used = sorted(cols)   # in file order, so a row's leftmost bad field is named
        lon, lat, year, month, cnt, ba, *cov_idx = map(used.index, cols)
        keys = [lon, lat, year, month]

        def check(v, missing):
            for j in keys:
                v[missing[:, j], j] = marker_value
            bad_key = ~np.isfinite(v[:, keys])
            fires, burnt = v[:, cnt], v[:, ba]
            return first_fault([
                (bad_key.any(axis=1),
                 lambda i: f"malformed row (column "
                           f"{header[used[keys[int(np.argmax(bad_key[i]))]]]!r}"
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
        for o, v in blocks(check, missing_marker, used=used):
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
_DISTINCT_PROBE = 256


def row_blocks(n: int, width: int) -> list[slice]:
    """Slices of consecutive rows covering rows 0..n-1, each of
    ``_BLOCK_CELLS // width`` rows (at least one) of a ``width``-wide array."""
    step = max(1, _BLOCK_CELLS // max(1, width))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def distinct_blocks(x: np.ndarray, width: int):
    """``(rows, values, inverse)`` over :func:`row_blocks` (at ``width``) of
    the sort order of the 1-d float64 ``x``: ``values`` are a block's
    distinct bit patterns (-0.0 is not 0.0, nor one NaN payload another),
    so a function of them indexed by ``inverse`` has its bits on ``x[rows]``.
    Scores with no repeat among the first ``_DISTINCT_PROBE`` (a large
    model's) take plain row blocks, where sorting would not pay for itself."""
    bits = x.view(np.uint64)
    if np.diff(np.sort(bits[:_DISTINCT_PROBE])).all():   # no repeat
        yield from ((rows, x[rows], slice(None)) for rows in row_blocks(x.size, width))
        return
    order = np.argsort(bits)
    for block in row_blocks(x.size, width):
        rows = order[block]
        b = bits[rows]
        new = np.concatenate([[True], b[1:] != b[:-1]])
        yield rows, b[new].view(np.float64), np.cumsum(new) - 1


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


def reprs(values: np.ndarray) -> list[str]:
    """``repr`` of each value as a Python number: ``csv``'s text for an int
    or a float (``-110.0`` stays ``-110.0``)."""
    return list(map(repr, values.tolist()))


def value_texts(values: np.ndarray) -> np.ndarray:
    """Texts of response and covariate values: "NA" for NaN, the exact
    integer for a finite integral value (beyond 2^63 too) and ``repr``
    otherwise, "inf" and "-inf" included."""
    texts = np.full(values.size, "NA", dtype=object)
    with np.errstate(invalid="ignore"):   # np.trunc of a signalling NaN
        integral = np.isfinite(values) & (values == np.trunc(values))
    other = ~integral & ~np.isnan(values)
    texts[integral] = list(map(str, map(int, values[integral].tolist())))
    texts[other] = reprs(values[other])
    return texts


def distinct_texts(values: np.ndarray, rule) -> np.ndarray:
    """The texts of ``values`` as an object array of their shape.  ``rule``
    maps a 1-d array of distinct values (floats distinct by bit pattern, so
    -0.0 is not 0.0) to their texts, so each distinct value is formatted once."""
    keys = values.view(f"u{values.itemsize}") if values.dtype.kind == "f" else values
    distinct, inverse = np.unique(keys, return_inverse=True)
    texts = np.asarray(rule(distinct.view(values.dtype)), dtype=object)
    return texts[inverse.reshape(values.shape)]


def write_texts(path, header, n_rows: int, fields) -> None:
    """Write ``header`` through ``csv``, then rows 0..n_rows-1 a
    :func:`row_blocks` block (at the header's width) at a time:
    ``fields(rows)`` gives the block's texts as object arrays, each
    ``(len(rows),)`` or ``(len(rows), k)``, in column order.  Lines end in
    "\\r\\n", as ``csv`` ends them."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for rows in row_blocks(n_rows, len(header)):
            # no name holds a block, so the last one is freed before the next is made
            fh.write("\r\n".join(map(",".join, np.column_stack(fields(rows)).tolist())) + "\r\n")


def save_csv(ds: GridDataset, path) -> None:
    """Write the dataset in the CSV dialect :func:`load_csv` reads: lon and
    lat by ``repr``, year and month as integers, and cnt, ba and the
    covariates by :func:`value_texts`, NaN as "NA"."""
    def fields(rows):
        return [distinct_texts(ds.cells[ds.cell_index[rows]], reprs),
                distinct_texts(ds.year[rows], reprs), distinct_texts(ds.month[rows], reprs),
                distinct_texts(np.column_stack([ds.cnt[rows], ds.ba[rows], ds.covariates[rows]]),
                               value_texts)]

    write_texts(path, ["lon", "lat", "year", "month", "cnt", "ba"] + ds.covariate_names,
                ds.n_rows, fields)


# ---------------------------------------------------------------------------
# Enrichment
# ---------------------------------------------------------------------------

def cross_fill_zeros(ds: GridDataset) -> GridDataset:
    """A dataset with masked CNT set to 0 where BA is observed 0, and masked
    BA set to 0 where CNT is observed 0; every other entry is untouched.
    Its ``cnt`` and ``ba`` are new arrays, and it shares every other array
    with ``ds``."""
    return replace(ds, cnt=np.where(np.isnan(ds.cnt) & (ds.ba == 0), 0.0, ds.cnt),
                   ba=np.where(np.isnan(ds.ba) & (ds.cnt == 0), 0.0, ds.ba))


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
