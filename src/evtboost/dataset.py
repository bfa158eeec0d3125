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
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, open_text, publish

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
# np.loadtxt call: its bytes, their field positions and the parsed values
# stay a few MB whatever the file size and line width.
_BLOCK_BYTES = 1 << 19
_MAX_INT = 2.0 ** 53   # every integer up to this magnitude is exact in float64


# count_lines reads this many bytes at a time: its few numpy temporaries of
# this size stay in cache, which made it twice as fast as 1 MiB reads.
_COUNT_BYTES = 1 << 16


class _BadLine(Exception):
    """``(k, message)``: a fault at line ``k`` (0-based) of the block parsed."""


def count_lines(path) -> int:
    """Lines in the file as a universal-newline reader splits them: "\\n",
    "\\r\\n" and a lone "\\r" each end one, and so does the end of file
    after a final unterminated line."""
    n, last = 0, b"\n"
    with open(path, "rb") as fh:
        while block := fh.read(_COUNT_BYTES):
            b = np.frombuffer(block, dtype=np.uint8)
            lf = b == ord("\n")
            n += np.count_nonzero(lf)
            # a "\r" ends a line unless a "\n" follows it
            n += np.count_nonzero((b[:-1] == ord("\r")) > lf[1:]) + (block[-1:] == b"\r")
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
    A used field equal to ``missing_marker`` (bare or quoted) is NaN; any
    other used field that is not a finite number is a fault.  ``check(values,
    missing)`` gets a block and its marker mask, may fill in values, and
    returns the first faulty ``(row, message)`` or None.  A fault raises
    :class:`DataError` naming the path and the earliest faulty line.  A
    UTF-8 byte-order mark at the start of the file (as spreadsheets save
    "CSV UTF-8") is skipped.
    """
    n_lines = count_lines(path)
    with open_text(path) as fh:
        if fh.read(1) != "\ufeff":
            fh.seek(0)
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:   # a field beyond csv's size limit
            raise DataError(f"{path}:1: malformed header ({exc})") from None

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
    """The values of the ``used`` columns of the data lines ``lines``, as
    :func:`open_table` describes them, or :class:`_BadLine` at the earliest
    faulty line.

    Both kinds of block give np.loadtxt UTF-8 bytes in which every field
    equal to ``marker`` holds a numeric placeholder, and give the marker
    mask from where those fields are.  A block without a double quote is
    split by :func:`_scan`, one numpy pass over its bytes; a block with one
    by :func:`_records`, as ``csv`` records, since a quote is special only
    at the start of a field.
    """
    n_fields = len(header)
    data = "".join(lines).encode()
    if not data.endswith(b"\n"):
        data += b"\n"
    k, data, starts, missing = _records(lines, n_fields, used, marker) if b'"' in data \
        else _scan(data, n_fields, used, marker)
    message = None
    if k is None:
        try:   # bytes are read as latin-1 unless told, and a fault would quote that text
            values = np.loadtxt(io.BytesIO(data), delimiter=",", quotechar='"', comments=None,
                                ndmin=2, encoding="utf-8",
                                usecols=None if len(used) == n_fields else used)
        except ValueError as exc:
            k, message = _loadtxt_fault(str(exc), header, starts)
    if k is None and len(values) != len(lines):   # a quoted line break joined lines
        k = next((k for k, line in enumerate(lines) if line.count('"') % 2), len(lines) - 1)
        message = "malformed row (line break inside a quoted field)"
    if k is None:
        values[missing] = np.nan
        bad_token = ~np.isfinite(values) & ~missing
        fault = first_fault([
            (bad_token.any(axis=1),
             lambda i: f"malformed row (column {header[used[int(np.argmax(bad_token[i]))]]!r}"
                       f" is not a finite number)"),
        ]) or check(values, missing)
        if fault is None:
            return values
        k, message = fault
    else:   # a wrong count, a csv fault, or a fault on a line that is no whole record
        try:
            got = len(next(csv.reader(lines[k:]), []))   # the record that starts at line k
            if got != n_fields or message is None:
                message = f"expected {n_fields} fields, got {got}"
        except csv.Error as exc:   # a field beyond csv's size limit
            message = f"malformed row ({exc})"
    if k:  # a fault on an earlier line of the block is named first
        _parse_block(lines[:k], header, used, marker, check)
    raise _BadLine(k, message)


def _scan(data, n_fields, used, marker):
    """``(k, data, starts, missing)`` for a block without quotes, from its
    UTF-8 bytes ``data`` (ending in a line break): ``k`` is the first line
    without ``n_fields`` fields or with a field beyond ``csv``'s size limit,
    or None; then ``data`` has each field equal to ``marker`` overwritten by
    zeros of its width (a "0" inserted into an empty one), ``starts`` is the
    first line of each record and ``missing`` the marker mask."""
    b = np.frombuffer(data, dtype=np.uint8)
    ends = b == ord(",")   # a mask made in place and dropped: a block's temporaries stay small
    ends |= b == ord("\n")
    ends = np.flatnonzero(ends)   # the comma or line break after each field
    counts = np.diff(np.flatnonzero(b[ends] == ord("\n")), prepend=-1)   # fields per line
    wrong = np.flatnonzero(counts != n_fields)
    if wrong.size:
        return int(wrong[0]), None, None, None
    limit = csv.field_size_limit()   # in characters; a field has as many bytes or more
    for i in np.flatnonzero(np.diff(ends, prepend=-1) > limit + 1):
        if len(data[ends[i - 1] + 1 if i else 0:ends[i]].decode()) > limit:
            return int(i) // n_fields, None, None, None   # field i is on that line
    missing = np.zeros((counts.size, n_fields), dtype=bool)
    if marker is not None:
        token = marker.encode()
        hit = np.flatnonzero(np.diff(ends, prepend=-1) == len(token) + 1)   # of its width
        for i, byte in enumerate(token):
            hit = hit[b[ends[hit] - len(token) + i] == byte]
        missing.flat[hit] = True   # field hit is line hit // n_fields, column hit % n_fields
        at = ends[hit] - len(token)   # each marker field's first byte
        if token:
            data = b.copy()
            data[at[:, None] + np.arange(len(token))] = ord("0")
        else:
            data = np.insert(b, at, ord("0"))
    return None, data, range(counts.size), missing[:, used]


def _records(lines, n_fields, used, marker):
    """:func:`_scan`'s ``(k, data, starts, missing)`` for a block with
    quotes, split into ``csv`` records: ``data`` writes the records back,
    the marker fields as "0" and any field holding a comma, quote or line
    break quoted, one record to a line.  ``k`` is also set by the first
    record that ``csv`` cannot read (a field beyond its size limit)."""
    reader, rows, starts, k = csv.reader(lines), [], [], 0
    try:
        for fields in reader:   # k is the first line of the record
            if len(fields) != n_fields:
                return k, None, None, None
            rows.append(fields)
            starts.append(k)
            k = reader.line_num
    except csv.Error:   # named by _parse_block's recount of the record at k
        return k, None, None, None
    missing = np.array([[f == marker for f in fields] for fields in rows], dtype=bool)
    data = "".join(",".join(quoted(["0" if f == marker else f for f in fields])) + "\n"
                   for fields in rows)
    return None, data.encode(), starts, missing[:, used]


def _loadtxt_fault(message: str, header, starts) -> tuple[int, str]:
    """(line, message) from an ``np.loadtxt`` error, in this module's terms;
    ``starts`` maps np.loadtxt's record numbers to lines."""
    m = re.search(r"(could not convert string .*) to float64 at row (\d+), column (\d+)",
                  message, re.DOTALL)
    if m:  # rows counted from 0, columns from 1
        j = int(m[3]) - 1
        column = repr(header[j]) if j < len(header) else j + 1
        return starts[int(m[2])], f"malformed row ({m[1]} in column {column})"
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

    # (lon, lat) pairs as complex numbers sort as rows do, in one 1-d unique
    cells, cell_index = np.unique(coords.view(np.complex128).ravel(), return_inverse=True)
    cells = cells.view(np.float64).reshape(-1, 2)
    ds = GridDataset(
        cells=cells,
        cell_index=cell_index,
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


# Work that runs row by row over a wide array -- writing a table as CSV,
# and the (rows x thresholds) grids of the threshold CDFs and scores -- is
# done a block of rows at a time.  A block holds about this many cells
# (rows x width), so its temporaries and Python row objects stay the same
# size whatever the array's width.
_BLOCK_CELLS = 1 << 14


def row_blocks(n: int, width: int) -> list[slice]:
    """Slices of consecutive rows covering rows 0..n-1, each of
    ``_BLOCK_CELLS // width`` rows (at least one) of a ``width``-wide array."""
    step = max(1, _BLOCK_CELLS // max(1, width))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def reprs(values: np.ndarray) -> np.ndarray:
    """``repr`` of each value as a Python number, as an object array of
    ``values``' shape: ``csv``'s text for an int or a float (``-110.0``
    stays ``-110.0``)."""
    return np.array(list(map(repr, values.ravel().tolist())), dtype=object).reshape(values.shape)


def quoted(texts) -> np.ndarray:
    """The strings ``texts`` as ``csv`` writes them in a row of two or more
    fields: one holding a comma, a quote or a line break is quoted, its
    quotes doubled."""
    return np.array(['"' + t.replace('"', '""') + '"' if any(c in t for c in ',"\r\n') else t
                     for t in texts], dtype=object)


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


def write_csv(path, header, n_rows: int, fields) -> None:
    """Write ``header`` through ``csv``, then rows 0..n_rows-1 a
    :func:`row_blocks` block (at the header's width) at a time:
    ``fields(rows)`` gives the block's texts as object arrays, each
    ``(len(rows),)`` or ``(len(rows), k)``, in column order, made by a
    column rule: :func:`reprs` for numbers, :func:`quoted` for strings, or
    a rule applied to distinct values by :func:`distinct_texts`.  Lines end
    in "\\r\\n", as ``csv`` ends them.  The file is published whole by
    :func:`errors.publish`, so a block that fails leaves no file or the
    old one."""
    with publish(path) as fh:
        csv.writer(fh).writerow(header)
        for rows in row_blocks(n_rows, len(header)):
            # no name holds a block, so the last one is freed before the next is made
            fh.write("\r\n".join(map(",".join, np.column_stack(fields(rows)).tolist()))
                     + "\r\n")


def save_csv(ds: GridDataset, path) -> None:
    """Write the dataset in the CSV dialect :func:`load_csv` reads: lon and
    lat by ``repr``, year and month as integers, and cnt, ba and the
    covariates by :func:`value_texts`, NaN as "NA"."""
    def fields(rows):
        return [distinct_texts(ds.cells[ds.cell_index[rows]], reprs),
                distinct_texts(ds.year[rows], reprs), distinct_texts(ds.month[rows], reprs),
                distinct_texts(np.column_stack([ds.cnt[rows], ds.ba[rows], ds.covariates[rows]]),
                               value_texts)]

    write_csv(path, ["lon", "lat", "year", "month", "cnt", "ba"] + ds.covariate_names,
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
