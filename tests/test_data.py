import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsynth.data import (CSV_BLOCK_ROWS, CSV_READ_ROWS, EMBED_DIM, KIND_CATEGORICAL,
                           KIND_NUMERIC, EncodingPipeline, QuantileMap,
                           RawTable, TabularSchema, encoded_rows,
                           first_occurrence_codes, fit_quantile_map, load_csv,
                           load_partitions, partition_iid, partition_noniid,
                           save_partitions, write_csv)
from fedsynth.errors import CsvFormatError, SchemaError, ValidationError, reading
from fedsynth.fixtures import MIXTURE_SCHEMA, gaussian_mixture_table
from fedsynth.store import read_json


# ---------------------------------------------------------------------------
# Schema


def test_schema_rejects_duplicate_names():
    with pytest.raises(SchemaError):
        TabularSchema(columns=(("a", "numeric"), ("a", "categorical")))


def test_schema_rejects_unknown_kind():
    with pytest.raises(SchemaError):
        TabularSchema(columns=(("a", "floaty"),))


def test_schema_rejects_missing_target():
    with pytest.raises(SchemaError):
        TabularSchema(columns=(("a", "numeric"),), target_column="b")


def test_schema_rejects_numeric_partition_column():
    with pytest.raises(SchemaError):
        TabularSchema(columns=(("a", "numeric"),), partition_column="a")


def test_schema_roundtrip(tmp_path):
    path = tmp_path / "schema.json"
    MIXTURE_SCHEMA.save(path)
    assert TabularSchema.load(path) == MIXTURE_SCHEMA


def test_schema_encoded_width():
    assert MIXTURE_SCHEMA.encoded_width == 2 + EMBED_DIM  # x, y, segment


# ---------------------------------------------------------------------------
# CSV I/O


def test_csv_roundtrip(tmp_path):
    table = gaussian_mixture_table(64, seed=3)
    path = tmp_path / "t.csv"
    write_csv(path, table)
    back = load_csv(path, table.schema)
    for name in table.schema.names:
        np.testing.assert_array_equal(back.column(name), table.column(name))


def test_csv_roundtrip_is_byte_stable(tmp_path):
    table = gaussian_mixture_table(32, seed=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, table)
    write_csv(p2, load_csv(p1, table.schema))
    assert p1.read_bytes() == p2.read_bytes()


def _row_loop_write_csv(path, table):
    """Reference writer: converts and writes one cell, then one row, at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.schema.names)
        kinds = table.schema.kinds
        cols = [table.columns[name] for name in table.schema.names]
        for i in range(table.n_rows):
            row = []
            for name, col in zip(table.schema.names, cols):
                if kinds[name] == KIND_NUMERIC:
                    row.append(repr(float(col[i])))
                else:
                    row.append(str(col[i]))
            writer.writerow(row)


_WRITER_SCHEMA = TabularSchema(columns=(
    ("x", KIND_NUMERIC), ("label", KIND_CATEGORICAL), ("count", KIND_NUMERIC),
    ("note", KIND_CATEGORICAL)))


def _writer_table(n_rows, seed=0):
    rng = np.random.default_rng(seed)
    specials = np.array([-0.0, 5e-324, 1e16, 0.1 + 0.2, 7.0, -3.0, 0.0, -1e300])
    x = np.where(rng.random(n_rows) < 0.5, rng.choice(specials, n_rows),
                 rng.normal(size=n_rows) * 10.0 ** rng.integers(-20, 20, n_rows))
    labels = np.array(["a,b", 'say "hi"', "two\nlines", "crème brûlée", "日本",
                       "plain", " padded ", ""], dtype=object)
    return RawTable(_WRITER_SCHEMA, {
        "x": x,
        "label": rng.choice(labels[:-1], n_rows),
        "count": rng.integers(-5, 5, n_rows),  # integer dtype, integer values
        "note": rng.choice(labels, n_rows)})


@pytest.mark.parametrize("n_rows", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                    CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS + 7])
def test_write_csv_bytes_equal_the_row_loop(tmp_path, n_rows):
    table = _writer_table(n_rows, seed=n_rows)
    write_csv(tmp_path / "blocks.csv", table)
    _row_loop_write_csv(tmp_path / "rows.csv", table)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cell has no text")


def test_write_csv_that_fails_midway_keeps_the_old_file(tmp_path):
    """A write that raises after whole blocks reached the disk leaves the old
    bytes in place, not a truncated table, and no temp file beside them."""
    path = tmp_path / "t.csv"
    path.write_bytes(b"old,bytes\n")
    table = _writer_table(2 * CSV_BLOCK_ROWS)
    table.columns["label"] = table.columns["label"].astype(object)
    table.columns["label"][CSV_BLOCK_ROWS + 5] = _Unprintable()
    with pytest.raises(RuntimeError, match="cell has no text"):
        write_csv(path, table)
    assert path.read_bytes() == b"old,bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_write_csv_memory_is_bounded_by_the_block(tmp_path):
    peaks = []
    for n_rows in (20_000, 200_000):
        table = _writer_table(n_rows)
        tracemalloc.start()
        try:
            write_csv(tmp_path / "t.csv", table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del table
    assert peaks[1] <= 1.5 * peaks[0], peaks


def _row_loop_load_csv(path, schema):
    """Reference reader: parses one row, then one cell, at a time."""
    try:
        with reading(f"CSV {path!r}", CsvFormatError), \
                open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise CsvFormatError(f"CSV {path!r} is empty")
            pos = {name: header.index(name) for name in schema.names}
            raw_cols: dict = {name: [] for name in schema.names}
            kinds = schema.kinds
            for row_idx, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise CsvFormatError(
                        f"{path!r} row {row_idx}: expected {len(header)} cells, got {len(row)}")
                for name in schema.names:
                    cell = row[pos[name]]
                    if cell == "":
                        raise CsvFormatError(f"{path!r} row {row_idx}: empty cell in {name!r}")
                    if kinds[name] == KIND_NUMERIC:
                        try:
                            value = float(cell)
                        except ValueError:
                            raise CsvFormatError(
                                f"{path!r} row {row_idx}: cannot parse {cell!r} "
                                f"as numeric in column {name!r}") from None
                        if not math.isfinite(value):
                            raise CsvFormatError(
                                f"{path!r} row {row_idx}: non-finite value in {name!r}")
                        raw_cols[name].append(value)
                    else:
                        raw_cols[name].append(cell)
    except csv.Error as exc:
        raise CsvFormatError(f"CSV {path!r} line {reader.line_num}: {exc}") from None
    if not raw_cols[schema.names[0]]:
        raise CsvFormatError(f"CSV {path!r} has a header but no data rows")
    return RawTable(schema, {
        name: np.asarray(raw_cols[name],
                         dtype=np.float64 if kinds[name] == KIND_NUMERIC else object)
        for name in schema.names})


def _csv_rows(n_rows, seed=0):
    """Header and cells of a _writer_table with no empty cell, its columns in
    the reverse of schema order."""
    table = _writer_table(n_rows, seed)
    names = table.schema.names[::-1]
    table.columns["note"] = table.columns["label"][::-1]
    cols = [[repr(float(v)) for v in table.columns[n]] if table.schema.kinds[n] == KIND_NUMERIC
            else [str(v) for v in table.columns[n]] for n in names]
    return list(names), [list(row) for row in zip(*cols)]


def _write_rows(path, header, rows, encoding="utf-8"):
    with open(path, "w", encoding=encoding, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _outcome(load, path, schema=_WRITER_SCHEMA):
    """The table ``load`` returns, or the type and message of its error."""
    try:
        return load(path, schema)
    except CsvFormatError as exc:
        return type(exc), str(exc)


def _assert_same_outcome(path, schema=_WRITER_SCHEMA):
    got, want = _outcome(load_csv, path, schema), _outcome(_row_loop_load_csv, path, schema)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, RawTable) and list(got.columns) == list(want.columns)
    for name, col in want.columns.items():
        assert got.columns[name].dtype == col.dtype and got.columns[name].shape == col.shape
        if col.dtype == object:
            assert got.columns[name].tolist() == col.tolist()
            assert all(type(v) is str for v in got.columns[name])
        else:
            assert np.array_equal(got.columns[name].view(np.uint64), col.view(np.uint64))


@pytest.mark.parametrize("n_rows", [0, 1, CSV_READ_ROWS - 1, CSV_READ_ROWS,
                                    CSV_READ_ROWS + 1, 3 * CSV_READ_ROWS + 7])
@pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])
def test_load_csv_blocks_equal_the_row_loop(tmp_path, n_rows, encoding):
    path = tmp_path / "t.csv"
    _write_rows(path, *_csv_rows(n_rows, seed=n_rows), encoding=encoding)
    _assert_same_outcome(path)


def _cell(name, text):
    def edit(row):
        row = list(row)
        row[_WRITER_SCHEMA.names[::-1].index(name)] = text
        return row
    return edit


_BAD_ROWS = {
    "short row": lambda row: row[:-1], "long row": lambda row: row + ["extra"],
    "blank line": lambda row: [],
    "empty numeric": _cell("count", ""), "empty categorical": _cell("label", ""),
    "unparseable": _cell("x", "oops"), "infinite": _cell("count", "-inf"),
    "nan": _cell("x", "nan"),
}


@pytest.mark.parametrize("kind", _BAD_ROWS)
@pytest.mark.parametrize("bad_row", [1, CSV_READ_ROWS, CSV_READ_ROWS + 20])
def test_load_csv_errors_equal_the_row_loop(tmp_path, kind, bad_row):
    """Each malformed row, in the first block and in a later one, raises the
    row loop's error; so does a later bad row of the same block behind an
    earlier one of another kind."""
    header, rows = _csv_rows(2 * CSV_READ_ROWS + 3)
    rows[bad_row - 1] = _BAD_ROWS[kind](rows[bad_row - 1])
    path = tmp_path / "t.csv"
    _write_rows(path, header, rows)
    _assert_same_outcome(path)
    rows[bad_row + 1] = _cell("x", "later")(rows[bad_row + 1])
    _write_rows(path, header, rows)
    _assert_same_outcome(path)
    assert f"row {bad_row}:" in _outcome(load_csv, path)[1]


@pytest.mark.parametrize("earlier_bad_row", [None, 3, CSV_READ_ROWS + 3])
def test_load_csv_cell_over_the_field_limit_equals_the_row_loop(tmp_path, earlier_bad_row):
    """A cell the csv module refuses, read in the middle of a block, is
    reported as the row loop reports it: after a bad row earlier in the
    same block, which comes first."""
    header, rows = _csv_rows(2 * CSV_READ_ROWS + 3)
    rows[CSV_READ_ROWS + 9] = _cell("label", "z" * 200)(rows[CSV_READ_ROWS + 9])
    if earlier_bad_row is not None:
        rows[earlier_bad_row - 1] = _cell("x", "oops")(rows[earlier_bad_row - 1])
    path = tmp_path / "t.csv"
    _write_rows(path, header, rows)
    limit = csv.field_size_limit(100)
    try:
        _assert_same_outcome(path)
        message = _outcome(load_csv, path)[1]
    finally:
        csv.field_size_limit(limit)
    assert ("field larger than field limit" in message) == (earlier_bad_row is None)


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y,segment\n1.0,2.0,s0\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    table = load_csv(path, MIXTURE_SCHEMA)
    assert table.column("x").tolist() == [1.0]
    assert table.column("segment").tolist() == ["s0"]


def test_load_csv_missing_column_named(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y\n1.0,2.0\n")
    with pytest.raises(SchemaError, match="segment"):
        load_csv(path, MIXTURE_SCHEMA)


def test_load_csv_extra_column_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y,segment,bonus\n1.0,2.0,s0,9\n")
    with pytest.raises(SchemaError, match="bonus"):
        load_csv(path, MIXTURE_SCHEMA)


def test_load_csv_bad_numeric_reports_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y,segment\n1.0,2.0,s0\noops,2.0,s1\n")
    with pytest.raises(CsvFormatError, match="row 2"):
        load_csv(path, MIXTURE_SCHEMA)


def test_load_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y,segment\nnan,2.0,s0\n")
    with pytest.raises(CsvFormatError):
        load_csv(path, MIXTURE_SCHEMA)


def test_load_csv_rejects_empty_cell(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y,segment\n1.0,,s0\n")
    with pytest.raises(CsvFormatError):
        load_csv(path, MIXTURE_SCHEMA)


def test_load_csv_rejects_empty_body(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y,segment\n")
    with pytest.raises(CsvFormatError):
        load_csv(path, MIXTURE_SCHEMA)


# ---------------------------------------------------------------------------
# Quantile map


def test_quantile_map_median_maps_to_half():
    # 101 samples -> 101 levels, so 0.5 sits exactly on the level grid and
    # np.quantile(values, 0.5) is the sample median itself.
    rng = np.random.default_rng(0)
    values = rng.normal(size=101)
    qm = fit_quantile_map(values)
    med = float(np.median(values))
    assert qm.transform(np.array([med]))[0] == pytest.approx(0.5, abs=1e-12)


def test_quantile_map_roundtrip_within_range():
    rng = np.random.default_rng(1)
    values = rng.lognormal(size=500)
    qm = fit_quantile_map(values)
    back = qm.inverse(qm.transform(values))
    assert np.max(np.abs(back - values)) < 1e-6


def test_quantile_map_clamps_out_of_range():
    qm = fit_quantile_map(np.array([0.0, 1.0, 2.0, 3.0]))
    lo = qm.inverse(np.array([-0.5]))[0]
    hi = qm.inverse(np.array([1.5]))[0]
    assert lo == 0.0 and hi == 3.0


def test_quantile_map_levels_count_capped():
    values = np.arange(5000.0)
    qm = fit_quantile_map(values, n_quantiles=1000)
    assert len(qm.levels) == 1000
    qm_small = fit_quantile_map(np.arange(10.0), n_quantiles=1000)
    assert len(qm_small.levels) == 10


def test_quantile_map_transform_monotone():
    rng = np.random.default_rng(2)
    values = rng.normal(size=300)
    qm = fit_quantile_map(values)
    xs = np.sort(rng.normal(size=100))
    ys = qm.transform(xs)
    assert np.all(np.diff(ys) >= 0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=200))
def test_quantile_map_outputs_unit_interval(raw):
    values = np.asarray(raw, dtype=np.float64)
    qm = fit_quantile_map(values)
    out = qm.transform(values)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def _quantile_column(data, kind, n, pool):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "pool":  # ties; a one-value pool is a constant column
        return rng.choice(np.asarray(pool, dtype=np.float64), n)
    if kind == "integers":
        return rng.integers(-20, 20, n).astype(np.float64)
    scale = data.draw(st.sampled_from([1e-310, 1e-5, 1.0, 1e16, 1e300]))
    return rng.normal(size=n) * scale


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_quantile_fit_bit_equals_np_quantile(data):
    n = data.draw(st.integers(1, 5000) | st.integers(1, 40))
    kind = data.draw(st.sampled_from(["pool", "integers", "normal"]))
    # st.floats yields subnormals, huge magnitudes and both signed zeros.
    pool = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                        width=64), min_size=1, max_size=6)
                     | st.lists(st.sampled_from([-0.0, 0.0, 1.5]), min_size=2))
    values = _quantile_column(data, kind, n, pool)
    n_q = data.draw(st.sampled_from([2, n, 1000, n + data.draw(st.integers(1, 50))]))
    if n_q < 2:
        return
    with np.errstate(over="ignore", invalid="ignore"):
        got = fit_quantile_map(values, n_q).quantiles
        want = np.quantile(values, np.linspace(0.0, 1.0, min(n_q, n)))
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("pool", [
    [-0.0, 0.0, -1.0, 2.5],  # both zeros: the np.quantile branch
    [-0.0, -1.0],            # maximum -0.0: np.quantile returns +0.0 there
    [-0.0],
    [0.0, -2.0]])
def test_quantile_fit_keeps_np_quantile_zero_signs(pool, seed):
    rng = np.random.default_rng(seed)
    values = rng.choice(pool, int(rng.integers(2, 4000)))
    levels = np.linspace(0.0, 1.0, min(1000, values.size))
    got = fit_quantile_map(values).quantiles
    assert got.view(np.uint64).tolist() == np.quantile(values, levels).view(np.uint64).tolist()


# ---------------------------------------------------------------------------
# Category codec


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.text(alphabet="abc", max_size=2), max_size=30),
                min_size=1, max_size=3))
def test_first_occurrence_codes_matches_dict_oracle(columns):
    oracle: dict = {}
    for col in columns:
        for v in col:
            if v not in oracle:
                oracle[v] = len(oracle)
    vocab, codes = first_occurrence_codes(*columns)
    assert vocab.dtype == object
    assert list(vocab) == list(oracle)
    assert len(codes) == len(columns)
    for col, col_codes in zip(columns, codes):
        assert col_codes.dtype == np.int64
        assert col_codes.tolist() == [oracle[v] for v in col]
        assert vocab[col_codes].tolist() == col
    # joint coding: equal values share one code across columns
    if len(columns) >= 2 and columns[0] and columns[1]:
        assert ((codes[0][:, None] == codes[1][None, :]).tolist()
                == [[x == y for y in columns[1]] for x in columns[0]])


def _one_column_pipeline(values, embed_seed=0, name="c"):
    """Pipeline fitted on a table whose one column ``name`` is categorical."""
    schema = TabularSchema(((name, KIND_CATEGORICAL),))
    table = RawTable(schema, {name: np.asarray(values, dtype=object)})
    return EncodingPipeline.fit(table, embed_seed=embed_seed)


def test_codec_vocabulary_first_occurrence_order():
    pipe = _one_column_pipeline(["pear", "apple", "pear", "fig", "apple"])
    assert pipe.vocabularies["c"] == ("pear", "apple", "fig")


def test_codec_deterministic_embeddings():
    values = ["a", "b", "c"]
    (t1,) = _one_column_pipeline(values, embed_seed=5).initial_embeddings()
    (t2,) = _one_column_pipeline(values, embed_seed=5).initial_embeddings()
    np.testing.assert_array_equal(t1, t2)
    (t3,) = _one_column_pipeline(values, embed_seed=6).initial_embeddings()
    assert not np.array_equal(t1, t3)


def test_codec_embedding_init_scale():
    # Marginal std of the initial embedding table is 1/sqrt(EMBED_DIM), so a
    # fresh embedding row has unit expected squared norm.
    pipe = _one_column_pipeline([f"v{i}" for i in range(4000)], embed_seed=1)
    (table,) = pipe.initial_embeddings()
    assert float(table.std()) == pytest.approx(1.0 / np.sqrt(EMBED_DIM), rel=0.05)
    norms = np.sum(table**2, axis=1)
    assert float(norms.mean()) == pytest.approx(1.0, rel=0.1)


def test_codec_large_vocabulary():
    pipe = _one_column_pipeline([f"lvl{i % 58}" for i in range(580)])
    assert len(pipe.vocabularies["c"]) == 58
    assert pipe.initial_embeddings()[0].shape == (58, EMBED_DIM)


def test_codec_unseen_category_message():
    pipe = _one_column_pipeline(["a"], name="dept")
    unseen = RawTable(pipe.schema, {"dept": np.array(["zzz"], dtype=object)})
    with pytest.raises(ValidationError, match="'zzz'.*'dept'"):
        pipe.category_indices(unseen)


def test_codec_decode_nearest_and_tie_lowest_index():
    pipe = _one_column_pipeline(["u", "v", "w"])
    table = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    # point equidistant from rows 0 and 1 -> lowest index wins
    picks = pipe.decode(np.array([[1.0, 0.0], [1.9, 0.1]]), embeddings=[table])
    assert list(picks.column("c")) == ["u", "v"]


def test_encoded_rows_puts_numerics_first_then_each_columns_embedding_row():
    numeric = np.array([[0.5], [-0.5]])
    cat_rows = np.array([[1, 0], [0, 2]])
    tables = [np.array([[1.0, 2.0], [3.0, 4.0]]),
              np.array([[5.0, 6.0], [7.0, 8.0], [9.0, 10.0]])]
    np.testing.assert_array_equal(encoded_rows(numeric, cat_rows, tables),
                                  [[0.5, 3.0, 4.0, 5.0, 6.0],
                                   [-0.5, 1.0, 2.0, 9.0, 10.0]])


# ---------------------------------------------------------------------------
# Encoding pipeline


def test_pipeline_encode_range_and_decode_roundtrip():
    table = gaussian_mixture_table(400, seed=9)
    pipe = EncodingPipeline.fit(table, embed_seed=2)
    enc = pipe.encode(table)
    assert enc.shape == (400, table.schema.encoded_width)
    numeric = enc[:, :2]
    assert np.all(numeric >= -1.0) and np.all(numeric <= 1.0)
    dec = pipe.decode(enc)
    np.testing.assert_allclose(dec.column("x"), table.column("x"), atol=1e-6)
    np.testing.assert_allclose(dec.column("y"), table.column("y"), atol=1e-6)
    assert np.all(dec.column("segment") == table.column("segment"))


def test_pipeline_decode_clips_numeric_overflow():
    table = gaussian_mixture_table(50, seed=9)
    pipe = EncodingPipeline.fit(table, embed_seed=2)
    enc = pipe.encode(table)
    enc[:, 0] = 35.0  # way outside [-1, 1]
    dec = pipe.decode(enc)
    assert np.all(dec.column("x") <= table.column("x").max())


def test_pipeline_roundtrip_serialization(tmp_path):
    table = gaussian_mixture_table(100, seed=4)
    pipe = EncodingPipeline.fit(table, embed_seed=3)
    path = tmp_path / "pipe.json"
    pipe.save(path)
    back = EncodingPipeline.load(path)
    assert back.digest == pipe.digest
    np.testing.assert_array_equal(back.encode(table), pipe.encode(table))


def test_pipeline_digest_differs_with_seed():
    table = gaussian_mixture_table(100, seed=4)
    p1 = EncodingPipeline.fit(table, embed_seed=3)
    p2 = EncodingPipeline.fit(table, embed_seed=4)
    assert p1.digest != p2.digest


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("vocabularies"),
    lambda d: d.pop("quantiles"),
    lambda d: d.pop("embed_seed"),
    lambda d: d.pop("schema"),
    lambda d: d["vocabularies"].pop("segment"),
    lambda d: d["quantiles"].pop("x"),
    lambda d: d.update(vocabularies=["a", "b"]),
    lambda d: d.update(n_quantiles="many"),
    lambda d: d["quantiles"].update(x=["a"]),
    lambda d: d["vocabularies"].update(segment=[]),
    lambda d: d["vocabularies"].update(segment=["a", "a"]),
    lambda d: d["vocabularies"].update(segment=[["a"], ["b"]]),
], ids=["no-vocabularies", "no-quantiles", "no-embed-seed", "no-schema",
        "no-column-vocabulary", "no-column-quantiles", "vocabularies-list",
        "n-quantiles-text", "quantile-text", "empty-vocabulary",
        "duplicate-vocabulary", "unhashable-vocabulary"])
def test_pipeline_from_dict_rejects_malformed_input(edit):
    d = EncodingPipeline.fit(gaussian_mixture_table(50, seed=4)).to_dict()
    edit(d)
    with pytest.raises(ValidationError):
        EncodingPipeline.from_dict(d)


# ---------------------------------------------------------------------------
# Partitioning


def _coverage_ok(parts, n_rows):
    seen = np.concatenate(parts)
    return len(seen) == n_rows and set(seen.tolist()) == set(range(n_rows))


def test_partition_iid_covers_all_rows():
    table = gaussian_mixture_table(101, seed=0)
    parts = partition_iid(table, n_clients=4, rng_seed=1)
    assert len(parts) == 4
    assert _coverage_ok(parts, 101)
    sizes = sorted(len(p) for p in parts)
    assert sizes == [25, 25, 25, 26]
    assert all(p.dtype == np.int64 and np.all(np.diff(p) > 0) for p in parts)


def test_partition_iid_deterministic():
    table = gaussian_mixture_table(100, seed=0)
    p1 = partition_iid(table, 3, rng_seed=7)
    p2 = partition_iid(table, 3, rng_seed=7)
    for a, b in zip(p1, p2):
        np.testing.assert_array_equal(a, b)


def test_partition_noniid_groups_by_column():
    table = gaussian_mixture_table(600, seed=2)
    parts = partition_noniid(table, "segment", n_clients=3, rng_seed=0)
    assert _coverage_ok(parts, 600)
    labels = table.column("segment")
    # with 3 groups and 3 clients the greedy pass gives one group per client
    for p in parts:
        assert len(set(labels[p].tolist())) == 1


def test_partition_noniid_more_clients_than_groups():
    table = gaussian_mixture_table(600, seed=2)
    parts = partition_noniid(table, "segment", n_clients=5, rng_seed=0)
    assert len(parts) == 5
    assert _coverage_ok(parts, 600)
    assert all(len(p) > 0 for p in parts)


def test_partition_rejects_empty_client(tmp_path):
    path = tmp_path / "parts.json"
    save_partitions(path, [np.arange(5), np.array([], dtype=np.int64)])
    with pytest.raises(ValidationError, match="client 1 has no rows"):
        load_partitions(path, 5, 2)


def test_partition_save_load_roundtrip(tmp_path):
    parts = partition_iid(gaussian_mixture_table(50, seed=0), 3, rng_seed=2)
    path = tmp_path / "parts.json"
    save_partitions(path, parts)
    assert [c["client_id"] for c in read_json(path)["clients"]] == [0, 1, 2]
    back = load_partitions(path, 50, 3)
    for a, b in zip(parts, back):
        assert b.dtype == np.int64
        np.testing.assert_array_equal(a, b)


def test_partition_iid_of_one_client_is_every_row_in_order():
    parts = partition_iid(gaussian_mixture_table(30, seed=0), 1, rng_seed=5)
    assert len(parts) == 1
    np.testing.assert_array_equal(parts[0], np.arange(30))


def test_raw_table_select():
    table = gaussian_mixture_table(30, seed=1)
    sub = table.select(np.array([3, 1, 4]))
    assert sub.n_rows == 3
    assert sub.column("x")[0] == table.column("x")[3]
