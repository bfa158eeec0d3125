import csv
import inspect
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from evtboost import cli, dataset
from evtboost.errors import DataError


def write_csv(path, text):
    path.write_text(text.strip() + "\n", encoding="utf-8")
    return str(path)


BASIC = """
lon,lat,year,month,cnt,ba,clim1
-100.25,37.75,1993,3,0,0,1.5
-100.25,37.75,1993,4,2,10,2.5
-99.75,37.75,1993,3,NA,0,0.5
-99.75,37.75,1993,4,1,NA,1.0
"""


class TestLoadCsv:
    def test_basic_fields(self, tmp_path):
        ds = dataset.load_csv(write_csv(tmp_path / "d.csv", BASIC))
        assert ds.n_rows == 4
        assert tuple(ds.cells[ds.cell_index[0]]) == (-100.25, 37.75)
        assert ds.cnt[0] == 0 and ds.ba[0] == 0
        assert math.isnan(ds.cnt[2])
        assert math.isnan(ds.ba[3])
        assert ds.covariate_names == ["clim1"]

    def test_missing_marker_configurable(self, tmp_path):
        text = BASIC.replace("NA", "?")
        ds = dataset.load_csv(write_csv(tmp_path / "d.csv", text), missing_marker="?")
        assert math.isnan(ds.cnt[2])

    def test_month_outside_season_rejected(self, tmp_path):
        text = BASIC + "-100.25,37.75,1993,11,0,0,1.0\n"
        with pytest.raises(DataError, match=":6.*month 11"):
            dataset.load_csv(write_csv(tmp_path / "d.csv", text))

    def test_duplicate_key_rejected(self, tmp_path):
        text = BASIC + "-100.25,37.75,1993,3,1,5,1.0\n"
        with pytest.raises(DataError, match="duplicate"):
            dataset.load_csv(write_csv(tmp_path / "d.csv", text))

    def test_off_grid_coordinate_rejected(self, tmp_path):
        text = BASIC + "-100.1,37.75,1993,5,0,0,1.0\n"
        with pytest.raises(DataError, match="regular"):
            dataset.load_csv(write_csv(tmp_path / "d.csv", text))

    def test_malformed_row_reports_line(self, tmp_path):
        text = BASIC + "-100.25,37.75,1993,xx,0,0,1.0\n"
        with pytest.raises(DataError, match=":6"):
            dataset.load_csv(write_csv(tmp_path / "d.csv", text))

    def test_zero_count_nonzero_ba_rejected(self, tmp_path):
        text = BASIC + "-100.25,37.75,1994,3,0,12,1.0\n"
        with pytest.raises(DataError, match="ba must be 0"):
            dataset.load_csv(write_csv(tmp_path / "d.csv", text))

    def test_schema_mapping(self, tmp_path):
        text = BASIC.replace("lon,lat,year,month,cnt,ba,clim1",
                             "x,y,yr,mo,fires,acres,clim1")
        ds = dataset.load_csv(
            write_csv(tmp_path / "d.csv", text),
            schema={"lon": "x", "lat": "y", "year": "yr", "month": "mo",
                    "cnt": "fires", "ba": "acres"})
        assert ds.n_rows == 4

    def test_first_repeated_line_is_named(self, tmp_path):
        text = BASIC + ("-99.75,37.75,1993,5,0,0,1.0\n"
                        "-99.75,37.75,1993,4,1,5,1.0\n"
                        "-100.25,37.75,1993,3,1,5,1.0\n")
        with pytest.raises(DataError, match=r":7: duplicate .*-99\.75, 37\.75\), 1993, 4"):
            dataset.load_csv(write_csv(tmp_path / "d.csv", text))

    def test_round_trip(self, tmp_path):
        p1 = write_csv(tmp_path / "d.csv", BASIC)
        ds = dataset.load_csv(p1)
        p2 = tmp_path / "d2.csv"
        dataset.save_csv(ds, p2)
        ds2 = dataset.load_csv(str(p2))
        np.testing.assert_array_equal(ds.cnt, ds2.cnt)
        np.testing.assert_array_equal(ds.ba, ds2.ba)
        np.testing.assert_array_equal(ds.covariates, ds2.covariates)


def reference_load_csv(path, schema=None, missing_marker="NA",
                       season=dataset.DEFAULT_SEASON, spacing=0.5, covariate_columns=None):
    """The token-by-token loader that ``load_csv`` replaced: ``csv`` fields,
    ``float()``/``int()`` per token and per-row checks."""
    def parse_number(token, marker=None):
        if token == marker:
            return np.nan
        value = float(token)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {token!r}")
        return value

    schema = dict(dataset.DEFAULT_SCHEMA if schema is None else schema)
    season = set(int(m) for m in season)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col_of = {name: i for i, name in enumerate(header)}
        role_idx = {role: col_of[schema[role]] for role in schema}
        if covariate_columns is None:
            covariate_columns = [c for c in header if c not in set(schema.values())]
        cov_idx = [col_of[c] for c in covariate_columns]
        lons, lats, years, months, cnts, bas, covs = [], [], [], [], [], [], []
        for lineno, rowvals in enumerate(reader, start=2):
            if len(rowvals) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, "
                                f"got {len(rowvals)}")
            try:
                lon = parse_number(rowvals[role_idx["lon"]])
                lat = parse_number(rowvals[role_idx["lat"]])
                year = int(rowvals[role_idx["year"]])
                month = int(rowvals[role_idx["month"]])
                cnt = parse_number(rowvals[role_idx["cnt"]], missing_marker)
                ba = parse_number(rowvals[role_idx["ba"]], missing_marker)
                cov = [parse_number(rowvals[i], missing_marker) for i in cov_idx]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed row ({exc})") from None
            if month not in season:
                raise DataError(f"{path}:{lineno}: month {month} outside season")
            if not np.isnan(cnt) and (cnt < 0 or cnt != int(cnt)):
                raise DataError(f"{path}:{lineno}: cnt must be a nonnegative integer")
            if not np.isnan(ba) and ba < 0:
                raise DataError(f"{path}:{lineno}: ba must be nonnegative")
            if not np.isnan(cnt) and not np.isnan(ba) and cnt == 0 and ba != 0:
                raise DataError(f"{path}:{lineno}: ba must be 0 when cnt is 0")
            lons.append(lon); lats.append(lat); years.append(year)
            months.append(month); cnts.append(cnt); bas.append(ba); covs.append(cov)
    coords = np.column_stack([lons, lats])
    for j in range(2):
        offsets = (coords[:, j] - coords[:, j].min(initial=np.inf)) / spacing
        if (np.abs(offsets - np.round(offsets)) > dataset.GRID_TOL).any():
            raise DataError(f"{path}: not on a regular grid")
    cells, cell_index = np.unique(coords, axis=0, return_inverse=True)
    ds = dataset.GridDataset(
        cells=cells, cell_index=cell_index.reshape(-1),
        year=np.asarray(years, dtype=int), month=np.asarray(months, dtype=int),
        cnt=np.asarray(cnts, dtype=float), ba=np.asarray(bas, dtype=float),
        covariates=np.asarray(covs, dtype=float).reshape(len(years), len(covariate_columns)),
        covariate_names=list(covariate_columns))
    repeated = np.flatnonzero(ds.rows_of(ds.cell_index, ds.year, ds.month)
                              != np.arange(ds.n_rows))
    if repeated.size:
        raise DataError(f"{path}:{int(repeated[0]) + 2}: duplicate (cell, year, month)")
    return ds


def assert_same_dataset(got, want):
    for field in ("cells", "cell_index", "year", "month", "cnt", "ba", "covariates"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field
        assert a.tobytes() == b.tobytes(), field
    assert got.covariate_names == want.covariate_names


# Markers as a user may set them: a word, a number (also a value lon takes,
# where it is read as that number), NaN, the empty field and a symbol.
MARKERS = ["NA", "-999", "-100.0", "NaN", "", "?"]


@st.composite
def csv_texts(draw):
    """(text, marker, fields): a valid data CSV written with the syntax both
    loaders accept (markers, quotes, surrounding spaces, CRLF or LF, with or
    without a final line break, masked responses, missing covariates,
    shuffled columns) and its rows as lists of fields."""
    marker = draw(st.sampled_from(MARKERS))
    p = draw(st.integers(0, 3))
    names = ["lon", "lat", "year", "month", "cnt", "ba"] + [f"x{j}" for j in range(p)]
    order = draw(st.permutations(range(len(names))))
    keys = [(i, j, y, m) for i in range(3) for j in range(2)
            for y in (1993, 1994) for m in (3, 4, 9)]
    keys = draw(st.lists(st.sampled_from(keys), unique=True, max_size=14))
    number = st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False).map(repr),
        st.floats(-1e3, 1e3, allow_nan=False).map(lambda v: f"{v:.3f}"),
        st.floats(-1e300, 1e300, allow_nan=False).map(lambda v: f"{v:.6e}"),
        st.sampled_from(["0", "-0", "+.5", "5.", "1e2", "-999", "-999.0"]))
    size = st.one_of(st.floats(0, 1e5).map(repr), st.sampled_from(["0.5", "12", "1E3"]))

    def decorate(token, is_marker=False):
        if not is_marker and draw(st.booleans()):
            token = draw(st.sampled_from([" ", "  ", "\t"])) + token + \
                draw(st.sampled_from(["", " "]))
        return f'"{token}"' if draw(st.integers(0, 4)) == 0 else token

    def value(strategy, masked):
        return decorate(marker, True) if masked else decorate(draw(strategy))

    rows = []
    for i, j, y, m in keys:
        count = draw(st.one_of(st.none(), st.integers(0, 6)))
        masked_ba = draw(st.integers(0, 4)) == 0
        fields = [
            decorate(repr(-100.0 + 0.5 * i)), decorate(f"{37.75 + 0.5 * j:.2f}"),
            decorate(draw(st.sampled_from([str(y), f"+{y}", f"0{y}"]))),
            decorate(str(m)),
            value(st.sampled_from([str(count), f"{count}.0", f"{count}e0"]), count is None),
            value(st.just("0") if count == 0 else size, masked_ba),
        ] + [value(number, draw(st.integers(0, 3)) == 0) for _ in range(p)]
        rows.append([fields[k] for k in order])
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(names[k] for k in order)] + [",".join(r) for r in rows]
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    return text, marker, rows


# Faults both loaders reject, each named by the line it is on.
FAULTS = [
    lambda f, c: "",                                     # blank line
    lambda f, c: "   ",
    lambda f, c: "# comment",
    lambda f, c: ",".join(f[:-1]),                       # a field short
    lambda f, c: ",".join(f + ["1"]),                    # a field over
    lambda f, c: ",".join(f[:c["month"]] + ["11"] + f[c["month"] + 1:]),
    lambda f, c: ",".join(f[:c["month"]] + ["3.5"] + f[c["month"] + 1:]),
    lambda f, c: ",".join(f[:c["year"]] + ["nan"] + f[c["year"] + 1:]),
    lambda f, c: ",".join(f[:c["lon"]] + ["xx"] + f[c["lon"] + 1:]),
    lambda f, c: ",".join(f[:c["cnt"]] + ["-1"] + f[c["cnt"] + 1:]),
    lambda f, c: ",".join(f[:c["cnt"]] + ["1.5"] + f[c["cnt"] + 1:]),
    lambda f, c: ",".join(f[:c["ba"]] + ["-2"] + f[c["ba"] + 1:]),
    lambda f, c: ",".join(f[:c["cnt"]] + ["0"] + f[c["cnt"] + 1:c["ba"]] + ["5"]
                          + f[c["ba"] + 1:]) if c["cnt"] < c["ba"] else "",
    lambda f, c: ",".join(f[:c["ba"]] + ["inf"] + f[c["ba"] + 1:]),
    lambda f, c: ",".join(f[:c["ba"]] + ["-nan"] + f[c["ba"] + 1:]),
    lambda f, c: ",".join(f[:c["ba"]] + ["1e999"] + f[c["ba"] + 1:]),
    lambda f, c: ",".join(f[:c["ba"]] + ['"-Infinity"'] + f[c["ba"] + 1:]),
]


def covariate_subsets(text):
    """The covariate lists a caller may pass for a ``csv_texts`` file: None
    (every covariate), or any of its covariates in any order, [] too."""
    names = [name for name in text.splitlines()[0].split(",") if name.startswith("x")]
    return st.one_of(st.none(), st.lists(st.sampled_from(names), unique=True)
                     if names else st.just([]))


def line_of(exc) -> int:
    return int(re.search(r"\.csv:(\d+):", str(exc))[1])


class TestLoadCsvEquivalence:
    """``load_csv`` against the token loop it replaced, with blocks of one to
    a few lines so that files span block boundaries."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=csv_texts(), block=st.sampled_from([1, 100, 250, 600, 1 << 19]),
           data=st.data())
    def test_arrays_equal_the_token_loop(self, tmp_path, monkeypatch, case, block, data):
        text, marker, _ = case
        covariates = data.draw(covariate_subsets(text))
        monkeypatch.setattr(dataset, "_BLOCK_BYTES", block)
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        assert_same_dataset(
            dataset.load_csv(path, missing_marker=marker, covariate_columns=covariates),
            reference_load_csv(path, missing_marker=marker, covariate_columns=covariates))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=csv_texts(), block=st.sampled_from([1, 100, 250, 600, 1 << 19]),
           faults=st.lists(st.tuples(st.integers(0, 20), st.integers(0, len(FAULTS) - 1)),
                           min_size=1, max_size=2), data=st.data())
    def test_first_faulty_line_is_named(self, tmp_path, monkeypatch, case, block,
                                        faults, data):
        text, marker, rows = case
        if not rows:
            return
        monkeypatch.setattr(dataset, "_BLOCK_BYTES", block)
        lines = text.splitlines()
        clean = list(lines)
        col = {name.strip(): k for k, name in enumerate(lines[0].split(","))}
        for at, which in faults:
            at = 1 + at % len(rows)
            # fault a clean row: "a field over" on a row already "a field
            # short" would give a valid row and a file with no fault in it
            bad = FAULTS[which](next(csv.reader([clean[at]])), col)
            if data.draw(st.booleans()):
                lines.insert(at, bad)
            else:
                lines[at] = bad
        covariates = data.draw(covariate_subsets(text))
        path = tmp_path / "d.csv"
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        with pytest.raises(DataError) as want:
            reference_load_csv(path, missing_marker=marker, covariate_columns=covariates)
        with pytest.raises(DataError) as got:
            dataset.load_csv(path, missing_marker=marker, covariate_columns=covariates)
        assert line_of(got.value) == line_of(want.value)
        # a wrong field count (blank and "#" lines included) is reported as one
        assert ("fields" in str(got.value)) == ("fields" in str(want.value))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=csv_texts(), block=st.sampled_from([1, 100, 600, 1 << 19]), data=st.data())
    def test_unread_column_is_not_parsed(self, tmp_path, monkeypatch, case, block, data):
        """A token no loader accepts as a number, in a column that is not
        read, loads as the token loop loads it."""
        text, marker, rows = case
        lines = text.splitlines()
        names = [name.strip() for name in lines[0].split(",")]
        unread = [name for name in names if name.startswith("x")]
        if not rows or not unread:
            return
        skipped = data.draw(st.sampled_from(unread))
        j = names.index(skipped)
        for at in data.draw(st.lists(st.integers(1, len(rows)), min_size=1, unique=True)):
            fields = next(csv.reader([lines[at]]))
            token = data.draw(st.sampled_from(["xx", "nan", "-nan", "inf", "1_0", '"a,b"']))
            lines[at] = ",".join(fields[:j] + [token] + fields[j + 1:])
        covariates = [name for name in unread if name != skipped]
        monkeypatch.setattr(dataset, "_BLOCK_BYTES", block)
        path = tmp_path / "d.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode())
        assert_same_dataset(
            dataset.load_csv(path, missing_marker=marker, covariate_columns=covariates),
            reference_load_csv(path, missing_marker=marker, covariate_columns=covariates))

    @pytest.mark.parametrize("covariates, message", [
        ([], "malformed row (line break inside a quoted field)"),
        (["x0"], "malformed row (line break inside a quoted field)"),
        (None, "malformed row (could not convert string 'a\\nb' in column 'x1')")])
    def test_quoted_line_break_is_named_where_it_opens(self, tmp_path, covariates, message):
        """A quoted line break joins two lines into one record, read or not:
        it is named at the line it opens on, whose fields are all there."""
        path = tmp_path / "d.csv"
        path.write_text("lon,lat,year,month,cnt,ba,x0,x1\n"
                        "-100.0,37.5,1993,3,1,2.5,0.5,0.5\n"
                        '-100.0,38.0,1993,3,1,2.5,0.5,"a\n'
                        'b"\n', encoding="utf-8")
        with pytest.raises(DataError) as got:
            dataset.load_csv(path, covariate_columns=covariates)
        assert str(got.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("tail, covariates, message", [
        ('b"\n-101.0,38.0,1993,3,xx,2.5,0.5,0.5\n', ["x0"],
         "3: malformed row (line break inside a quoted field)"),
        ('b",9\n', ["x0"], "3: expected 8 fields, got 9"),
        ('b",9\n', None, "3: expected 8 fields, got 9")])
    def test_faults_after_a_quoted_line_break_count_records(self, tmp_path, tail, covariates,
                                                           message):
        """np.loadtxt numbers records, and the record opened at line 3 ends
        at line 4: a bad field on line 5 is record 2, which does not make
        line 4 the faulty one, so line 3's own fault is still named first;
        a field count is that of the whole record."""
        path = tmp_path / "d.csv"
        path.write_text("lon,lat,year,month,cnt,ba,x0,x1\n"
                        "-100.0,37.5,1993,3,1,2.5,0.5,0.5\n"
                        '-100.0,38.0,1993,3,1,2.5,0.5,"a\n' + tail, encoding="utf-8")
        with pytest.raises(DataError) as got:
            dataset.load_csv(path, covariate_columns=covariates)
        assert str(got.value) == f"{path}:{message}"

    def test_values_read_by_both_are_bit_equal(self, tmp_path):
        rng = np.random.default_rng(5)
        scale = 10.0 ** rng.integers(-300, 300, 4000)
        values = np.concatenate([rng.standard_normal(4000) * scale, rng.uniform(-1, 1, 3996),
                                 [0.0, -0.0, 5e-324, 1.7976931348623157e308]]).reshape(-1, 4)
        body = "".join(f"{-100.0 + 0.5 * r!r},37.5,1993,3,NA,NA,"
                       + ",".join(repr(v) for v in row) + "\n"
                       for r, row in enumerate(values.tolist()))
        path = tmp_path / "d.csv"
        path.write_text("lon,lat,year,month,cnt,ba,x0,x1,x2,x3\n" + body, encoding="utf-8")
        assert_same_dataset(dataset.load_csv(path), reference_load_csv(path))


SYNTAX_BASE = "lon,lat,year,month,cnt,ba,x1\n-100.0,37.5,1993,3,1,2.5,0.5\n"


def run_train(tmp_path, text):
    data = tmp_path / "d.csv"
    data.write_text(text, encoding="utf-8")
    ini = tmp_path / "run.ini"
    ini.write_text(f"[data]\ntrain = {data}\n[loss]\nkind = poisson\n[train]\nn_trees = 1\n",
                   encoding="utf-8")
    return cli.main(["--runlog", str(tmp_path / "runs.log"), "train", "--config", str(ini),
                     "--out", str(tmp_path / "m.json")])


class TestAcceptedSyntax:
    """The numeric syntax is ``np.loadtxt``'s: narrower than ``float()``,
    which also took digit separators and non-ASCII digits."""

    @pytest.mark.parametrize("line", [
        "-99.5,37.5,1993,4,1,2.5,1_0",          # digit separator
        "-99.5,37.5,1993,4,1,2.5,١",       # ARABIC-INDIC DIGIT ONE
        "",                                     # blank line
        "# a comment",
        "-99.5,37.5,1993,4,1,2.5,",             # empty field
        "-99.5,37.5,1993,4,1,2.5,nan",
        "-99.5,37.5,1993,4,1,2.5,inf",
        "-99.5,37.5,1993,4,1,2.5,1e999",
        "-99.5,37.5,1993,4,1,2.5,-nan",
        "-99.5,37.5,1993,4,1.5,2.5,0.5",        # and the value checks
        "-99.5,37.5,1993,4,-1,2.5,0.5",
        "-99.5,37.5,1993,4,0,2.5,0.5",
        "-99.5,37.5,1993,4,1,-2.5,0.5",
        "-99.5,37.5,1993,11,1,2.5,0.5",
    ])
    def test_rejected_with_its_line(self, tmp_path, capsys, line):
        text = SYNTAX_BASE + line + "\n-99.0,37.5,1993,4,1,2.5,0.5\n"
        assert run_train(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and ".csv:3:" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("token", ['"0.5"', '" 0.5 "', " 0.5", "\t+.5e0 ", "5e-1"])
    def test_accepted(self, tmp_path, token):
        path = tmp_path / "d.csv"
        path.write_text(SYNTAX_BASE.replace(",0.5\n", f",{token}\n"), encoding="utf-8")
        assert dataset.load_csv(path).covariates[0, 0] == 0.5

    def test_integral_year_in_float_syntax_is_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(SYNTAX_BASE.replace(",1993,3,", ",1.993e3,3.0,"), encoding="utf-8")
        ds = dataset.load_csv(path)
        assert (ds.year[0], ds.month[0]) == (1993, 3) and ds.year.dtype == np.int64

    def test_marker_with_a_delimiter_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(SYNTAX_BASE, encoding="utf-8")
        with pytest.raises(DataError, match="missing marker"):
            dataset.load_csv(path, missing_marker="N,A")

    def test_line_count_follows_line_breaks(self, tmp_path):
        for eol in ("\n", "\r\n", "\r"):
            path = tmp_path / "d.csv"
            path.write_bytes(SYNTAX_BASE.replace("\n", eol).encode())
            assert dataset.count_lines(path) == 2
            assert dataset.load_csv(path).n_rows == 1
            path.write_bytes(SYNTAX_BASE.rstrip("\n").replace("\n", eol).encode())
            assert dataset.count_lines(path) == 2


    @pytest.mark.parametrize("block", [1, 1 << 19])
    def test_blank_lines_are_a_field_count_without_a_warning(self, tmp_path, monkeypatch,
                                                              block):
        """Blank lines, a whole block of them too, are a wrong field count,
        not np.loadtxt's "no data" warning."""
        monkeypatch.setattr(dataset, "_BLOCK_BYTES", block)
        path = tmp_path / "d.csv"
        path.write_text(SYNTAX_BASE + "\n\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"d\.csv:3: expected 7 fields, got 0"):
                dataset.load_csv(path)

def grid_dataset(values, year=1993, month=3):
    """3x3 grid with one row per cell and the covariate 'v' set per cell."""
    cells = np.array(sorted((-100.0 + i * 0.5, 35.0 + j * 0.5)
                            for j in range(3) for i in range(3)))
    vals = np.asarray(values, dtype=float)
    return dataset.GridDataset(
        cells=cells,
        cell_index=np.arange(9),
        year=np.full(9, year),
        month=np.full(9, month),
        cnt=np.zeros(9),
        ba=np.zeros(9),
        covariates=vals[:, None],
        covariate_names=["v"],
    )


class TestMatchRows:
    @given(keys=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=30),
           queries=st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 3)),
                            max_size=30))
    def test_first_equal_row_or_minus_one(self, keys, queries):
        first = {}
        for i, k in enumerate(keys):
            first.setdefault(k, i)
        got = dataset.match_rows(np.array(keys, dtype=int).reshape(-1, 2).T,
                                 np.array(queries, dtype=int).reshape(-1, 2).T)
        assert got.tolist() == [first.get(q, -1) for q in queries]

    def test_queries_broadcast(self):
        keys = (np.array([0, 0, 1]), np.array([5, 6, 5]))
        got = dataset.match_rows(keys, (np.array([[0], [1]]), np.array([5, 6])))
        np.testing.assert_array_equal(got, [[0, 1], [2, -1]])


class TestCrossFillZeros:
    def _ds(self):
        ds = grid_dataset(np.zeros(9))
        ds.cnt = np.array([np.nan, np.nan, 0.0, 1.0, 0.0, 2.0, np.nan, 0.0, 1.0])
        ds.ba = np.array([0.0, 150.0, np.nan, 30.0, 0.0, np.nan, np.nan, np.nan, 12.0])
        return ds

    def test_rules(self):
        out = dataset.cross_fill_zeros(self._ds())
        assert out.cnt[0] == 0.0              # masked cnt, ba = 0
        assert math.isnan(out.cnt[1])         # masked cnt, ba > 0 stays masked
        assert out.ba[2] == 0.0               # cnt = 0, masked ba
        assert math.isnan(out.ba[5])          # cnt > 0, masked ba stays masked
        assert math.isnan(out.cnt[6]) and math.isnan(out.ba[6])

    def test_never_changes_observed(self):
        ds = self._ds()
        out = dataset.cross_fill_zeros(ds)
        obs = ~np.isnan(ds.cnt)
        np.testing.assert_array_equal(out.cnt[obs], ds.cnt[obs])
        obs = ~np.isnan(ds.ba)
        np.testing.assert_array_equal(out.ba[obs], ds.ba[obs])

    def test_input_is_untouched_and_its_other_arrays_shared(self):
        ds = self._ds()
        before = ds.cnt.copy(), ds.ba.copy()
        out = dataset.cross_fill_zeros(ds)
        np.testing.assert_array_equal(ds.cnt, before[0])
        np.testing.assert_array_equal(ds.ba, before[1])
        assert not np.shares_memory(out.cnt, ds.cnt) and not np.shares_memory(out.ba, ds.ba)
        for name in ("cells", "cell_index", "year", "month", "covariates", "covariate_names"):
            assert getattr(out, name) is getattr(ds, name), name


class TestSubset:
    @pytest.mark.parametrize("take", ["rows", "mask"])
    def test_arrays_are_copies(self, take):
        ds = grid_dataset(np.arange(9.0))
        out = {"rows": lambda: ds.subset(np.array([4, 0, 7])),
               "mask": lambda: ds.subset(np.arange(9) % 2 == 0)}[take]()
        for name in ("cells", "cell_index", "year", "month", "cnt", "ba", "covariates"):
            assert not np.shares_memory(getattr(out, name), getattr(ds, name)), name
        np.testing.assert_array_equal(out.covariates[:, 0], ds.covariates[out.cell_index, 0])


class TestAlignFeatures:
    def test_columns_in_the_model_order_are_not_copied(self, rng):
        X = rng.normal(size=(6, 3))
        assert dataset.align_features(X, ["a", "b", "c"], ["a", "b", "c"]) is X

    def test_other_orders_and_subsets_are_gathered(self, rng):
        X = rng.normal(size=(6, 3))
        np.testing.assert_array_equal(dataset.align_features(X, ["a", "b", "c"], ["c", "a"]),
                                      X[:, [2, 0]])
        np.testing.assert_array_equal(dataset.align_features(X, ["a", "b", "c"], ["a", "b"]),
                                      X[:, :2])

    def test_missing_feature_is_a_data_error(self, rng):
        with pytest.raises(DataError, match=r"lacks features required by the model: \['d'\]"):
            dataset.align_features(rng.normal(size=(2, 3)), ["a", "b", "c"], ["a", "d"])


class TestRowBlocks:
    @pytest.mark.parametrize("n", [0, 1, 24, 25, 26, 1000])
    @pytest.mark.parametrize("width", [1, 4, 7, 100, 101, 5000])
    def test_blocks_cover_the_rows_in_order_within_the_budget(self, monkeypatch, n, width):
        """Rows 0..n-1 in order, each block of budget // width rows (the last
        may be shorter), or one row when a row alone exceeds the budget."""
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", 100)
        blocks = dataset.row_blocks(n, width)
        assert [i for b in blocks for i in range(n)[b]] == list(range(n))
        sizes = [b.stop - b.start for b in blocks]
        assert all(s >= 1 for s in sizes)
        assert all(s == max(1, 100 // width) for s in sizes[:-1])
        if width <= 100:
            assert all(s * width <= 100 for s in sizes)
        else:
            assert all(s == 1 for s in sizes)


SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308]
TEXTS = ["NA", "", "a,b", 'say "hi"', "two\r\nlines", "cr\r", "lf\n", " ", "plain"]


@st.composite
def csv_columns(draw):
    """(header, columns): equal-length numeric arrays and lists mixing
    floats, ints and strings that need quoting."""
    n = draw(st.integers(0, 30))
    floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True))
    ints = st.integers(-2 ** 63, 2 ** 63 - 1)
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["float", "int", "list"]))
        if kind == "float":
            columns.append(np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=float))
        elif kind == "int":
            columns.append(np.array(draw(st.lists(ints, min_size=n, max_size=n)),
                                    dtype=np.int64))
        else:
            cell = st.one_of(floats, ints, st.sampled_from(TEXTS), st.text(max_size=4))
            columns.append(draw(st.lists(cell, min_size=n, max_size=n)))
    return [f"c{j}" for j in range(len(columns))], columns


class TestWriteCsv:
    @pytest.mark.parametrize("block_rows", [1, 3, 4096])
    def test_array_columns_write_what_their_lists_write(self, tmp_path, monkeypatch, block_rows):
        """Array columns are turned into Python numbers a block at a time;
        the bytes equal one csv pass over the whole ``.tolist()`` columns."""
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", block_rows * 6)
        rng = np.random.default_rng(5)
        ints = rng.integers(-5, 10 ** 12, size=10)
        floats = np.array([1 / 3, -0.0, 1e-300, 1e16, np.nan, np.inf, 0.1, 2.5, -7.0, 1e22])
        words = [f"w{i}" for i in range(10)]
        table = rng.normal(size=(10, 3))
        dataset.write_csv(tmp_path / "a.csv", ["i", "f", "w", "t0", "t1", "t2"],
                          [ints, floats, words, *table.T])
        with open(tmp_path / "b.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "f", "w", "t0", "t1", "t2"])
            writer.writerows(zip(ints.tolist(), floats.tolist(), words, *table.T.tolist()))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_header_only(self, tmp_path):
        dataset.write_csv(tmp_path / "a.csv", ["x"], [np.empty(0)])
        assert (tmp_path / "a.csv").read_bytes() == b"x\r\n"

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=csv_columns(), block=st.sampled_from([1, 2, 5, 7, 64, 1 << 14]))
    def test_bytes_equal_the_csv_module(self, tmp_path, monkeypatch, table, block):
        header, columns = table
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", block)
        dataset.write_csv(tmp_path / "a.csv", header, columns)
        with open(tmp_path / "b.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                                   for c in columns)))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestNoPythonConverters:
    def test_loadtxt_gets_no_converters(self, tmp_path, monkeypatch, capsys):
        """``np.loadtxt`` parses every field it is given in C; a Python
        converter would run once per field.  Every reader of a table, the
        faulty ones too, calls it without one."""
        real, calls = np.loadtxt, []

        def spy(*args, **kwargs):
            calls.append(inspect.signature(real).bind(*args, **kwargs).arguments)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        path = tmp_path / "d.csv"
        path.write_text(BASIC.strip() + "\n", encoding="utf-8")
        ds = dataset.load_csv(path)
        dataset.load_csv(path, covariate_columns=[])
        bad = tmp_path / "bad.csv"
        bad.write_text(BASIC.strip().replace(",2.5\n", ",zz\n") + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="zz"):
            dataset.load_csv(bad)
        pred = tmp_path / "pred.csv"
        dataset.write_csv(pred, ["cell", "year", "month", "p_le_0.0"],
                          [ds.cell_index, ds.year, ds.month, np.full(ds.n_rows, 0.5)])
        assert cli.main(["--runlog", str(tmp_path / "runs.log"), "score", "--pred", str(pred),
                         "--data", str(path)]) == 0
        assert len(calls) >= 4
        assert all(call.get("converters") is None for call in calls)
