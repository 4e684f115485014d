"""CSV ingestion, reversible mixed-type encoding, and client partitioning.

Numeric columns are quantile-transformed to their empirical CDF position and
rescaled to [-1, 1]; categorical columns become trainable 2-d embedding rows.
The fitted pipeline (quantiles, vocabularies, embedding init seed) persists to
a single JSON file so that decoding is reproducible.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CsvFormatError, SchemaError, ValidationError, reading
from .store import json_digest, read_json, replacing, write_json

KIND_NUMERIC = "numeric"
KIND_CATEGORICAL = "categorical"
_KINDS = (KIND_NUMERIC, KIND_CATEGORICAL)

EMBED_DIM = 2
EMBED_INIT_STD = 1.0 / math.sqrt(2.0)
DEFAULT_N_QUANTILES = 1000
CSV_BLOCK_ROWS = 4096
# Rows per block that load_csv parses. One block's cells are alive at once:
# at 4096 rows of a 5-column table they raised a process's peak RSS by
# 1.8 MB over a row-at-a-time parse; at 1024 rows by nothing measurable,
# and parsing was as fast.
CSV_READ_ROWS = 1024


@dataclass(frozen=True)
class TabularSchema:
    """Ordered column declaration: name -> kind, plus optional special roles.

    ``target_column`` names the categorical label used by the utility metric;
    ``partition_column`` names the categorical column driving non-IID splits.
    """

    columns: tuple[tuple[str, str], ...]
    target_column: str | None = None
    partition_column: str | None = None

    def __post_init__(self):
        if not self.columns:
            raise SchemaError("schema must declare at least one column")
        for name, kind in self.columns:
            if not isinstance(name, str):
                raise SchemaError(f"column names must be strings, got {name!r}")
            if kind not in _KINDS:
                raise SchemaError(f"column {name!r} has unknown kind {kind!r}")
        names = [name for name, _ in self.columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")
        kinds = dict(self.columns)
        for role, col in (("target_column", self.target_column),
                          ("partition_column", self.partition_column)):
            if col is not None and not (isinstance(col, str) and col in kinds):
                raise SchemaError(f"{role} {col!r} not among schema columns")
            if col is not None and kinds[col] != KIND_CATEGORICAL:
                raise SchemaError(f"{role} {col!r} must be categorical")

    # Computed once per schema: load_csv and RawTable.n_rows read them per row.
    @functools.cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)

    @functools.cached_property
    def kinds(self) -> dict:
        """name -> kind; one dict shared by every caller, so never mutate it."""
        return dict(self.columns)

    @property
    def numeric_names(self) -> tuple[str, ...]:
        return tuple(n for n, k in self.columns if k == KIND_NUMERIC)

    @property
    def categorical_names(self) -> tuple[str, ...]:
        return tuple(n for n, k in self.columns if k == KIND_CATEGORICAL)

    @property
    def encoded_width(self) -> int:
        return len(self.numeric_names) + EMBED_DIM * len(self.categorical_names)

    def to_dict(self) -> dict:
        out = {"columns": [{"name": n, "kind": k} for n, k in self.columns]}
        if self.target_column is not None:
            out["target"] = self.target_column
        if self.partition_column is not None:
            out["partition_by"] = self.partition_column
        return out

    @classmethod
    def from_dict(cls, d: dict, what: str = "schema") -> "TabularSchema":
        with reading(what, SchemaError):
            cols = tuple((c["name"], c["kind"]) for c in d["columns"])
        return cls(cols, d.get("target"), d.get("partition_by"))

    @classmethod
    def load(cls, path) -> "TabularSchema":
        what = f"schema file {path!r}"
        with reading(what, SchemaError):
            d = read_json(path)
        return cls.from_dict(d, what)

    def save(self, path) -> None:
        write_json(path, self.to_dict())


@dataclass
class RawTable:
    """Column-major table: numeric columns as float64, categoricals as str."""

    schema: TabularSchema
    columns: dict

    def __post_init__(self):
        lengths = {name: len(col) for name, col in self.columns.items()}
        if set(lengths) != set(self.schema.names):
            raise SchemaError("table columns do not match schema")
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"ragged columns: {lengths}")

    @property
    def n_rows(self) -> int:
        return len(self.columns[self.schema.names[0]])

    def select(self, indices) -> "RawTable":
        idx = np.asarray(indices)
        return RawTable(self.schema,
                        {name: col[idx] for name, col in self.columns.items()})

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


def _raise_row_error(path, rows: list, first: int, width: int, pos: dict,
                     schema: TabularSchema) -> None:
    """Check ``rows`` (data rows ``first`` on) row by row and cell by cell,
    and raise the CsvFormatError of the first bad one, if any."""
    kinds = schema.kinds
    for row_idx, row in enumerate(rows, start=first):
        if len(row) != width:
            raise CsvFormatError(
                f"{path!r} row {row_idx}: expected {width} cells, got {len(row)}")
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


def _parse_block(rows: list, width: int, pos: dict, schema: TabularSchema) -> dict | None:
    """Each column of ``rows``: float64 for numerics, a tuple of str for
    categoricals; None when a row or cell is malformed."""
    if set(map(len, rows)) != {width}:
        return None
    cells = list(zip(*rows))
    columns = {}
    for name in schema.names:
        col = cells[pos[name]]
        if "" in col:
            return None
        if schema.kinds[name] == KIND_NUMERIC:
            try:
                col = np.fromiter(map(float, col), dtype=np.float64, count=len(col))
            except ValueError:
                return None
            if not np.isfinite(col).all():
                return None
        columns[name] = col
    return columns


def load_csv(path, schema: TabularSchema) -> RawTable:
    """Parse a UTF-8, comma-delimited CSV with a header row against ``schema``.

    Column order in the file is free; the result follows schema order. A
    leading byte-order mark, as spreadsheet programs write, is skipped. Any
    missing/extra header, unparseable numeric cell, or empty cell is an error
    (missing values are out of scope).

    Rows are converted one block of ``CSV_READ_ROWS`` at a time, column by
    column. A block with a bad row or cell is checked again row by row, which
    raises the error naming the first bad row and column.
    """
    try:
        with reading(f"CSV {path!r}", CsvFormatError), \
                open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise CsvFormatError(f"CSV {path!r} is empty")
            missing = [n for n in schema.names if n not in header]
            if missing:
                raise SchemaError(f"CSV {path!r} missing column(s) {missing}")
            extra = [n for n in header if n not in schema.names]
            if extra:
                raise SchemaError(f"CSV {path!r} has undeclared column(s) {extra}")
            if len(set(header)) != len(header):
                raise SchemaError(f"CSV {path!r} has duplicate header names")
            width = len(header)
            pos = {name: header.index(name) for name in schema.names}

            blocks: dict = {name: [] for name in schema.names}
            n_rows = 0
            while True:
                rows: list = []
                try:
                    rows.extend(itertools.islice(reader, CSV_READ_ROWS))
                except (csv.Error, UnicodeDecodeError):
                    # the rows read before the one that failed come first
                    _raise_row_error(path, rows, n_rows + 1, width, pos, schema)
                    raise
                if not rows:
                    break
                columns = _parse_block(rows, width, pos, schema)
                if columns is None:
                    _raise_row_error(path, rows, n_rows + 1, width, pos, schema)
                for name, col in columns.items():
                    blocks[name].append(col)
                n_rows += len(rows)
    except csv.Error as exc:  # such as a cell longer than csv.field_size_limit()
        raise CsvFormatError(f"CSV {path!r} line {reader.line_num}: {exc}") from None

    if n_rows == 0:
        raise CsvFormatError(f"CSV {path!r} has a header but no data rows")
    columns = {}
    for name in schema.names:
        if schema.kinds[name] == KIND_NUMERIC:
            columns[name] = np.concatenate(blocks[name])
        else:
            columns[name] = np.fromiter(itertools.chain.from_iterable(blocks[name]),
                                        dtype=object, count=n_rows)
    return RawTable(schema, columns)


def write_csv(path, table: RawTable) -> None:
    """Write a RawTable back to CSV in schema column order.

    Cells are converted one block of ``CSV_BLOCK_ROWS`` rows at a time, column
    by column: numerics as the ``repr`` of their float64 value, categoricals
    through ``str``. The strings held at once are bounded by the block, not
    by the table. The file is replaced only once every row is written.
    """
    names = table.schema.names
    kinds = table.schema.kinds
    with replacing(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for start in range(0, table.n_rows, CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            cells = []
            for name in names:
                col = table.columns[name][block]
                if kinds[name] == KIND_NUMERIC:
                    cells.append(map(repr, np.asarray(col, dtype=np.float64).tolist()))
                else:
                    cells.append(map(str, col))
            writer.writerows(zip(*cells))


# ---------------------------------------------------------------------------
# Numeric quantile transform


@dataclass(frozen=True)
class QuantileMap:
    """Empirical-CDF transform for one numeric column.

    ``quantiles[k]`` is the empirical quantile at level ``k/(n_q-1)``;
    transform/inverse interpolate linearly between them.
    """

    quantiles: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.quantiles, dtype=np.float64)
        if q.ndim != 1 or q.size < 1:
            raise ValidationError("quantile map needs a 1-d quantile array")
        if np.any(np.diff(q) < 0):
            raise ValidationError("reference quantiles must be non-decreasing")
        object.__setattr__(self, "quantiles", q)

    @property
    def levels(self) -> np.ndarray:
        n = self.quantiles.size
        if n == 1:
            return np.array([0.5])
        return np.linspace(0.0, 1.0, n)

    def transform(self, values) -> np.ndarray:
        """Map values to their interpolated CDF position in [0, 1]."""
        return np.interp(np.asarray(values, dtype=np.float64),
                         self.quantiles, self.levels)

    def inverse(self, u) -> np.ndarray:
        """Map CDF positions back to data scale (inputs clamped to [0, 1])."""
        u = np.clip(np.asarray(u, dtype=np.float64), 0.0, 1.0)
        return np.interp(u, self.levels, self.quantiles)


def fit_quantile_map(values, n_quantiles: int = DEFAULT_N_QUANTILES) -> QuantileMap:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValidationError("cannot fit a quantile map on an empty column")
    if not np.all(np.isfinite(values)):
        raise ValidationError("numeric column contains non-finite values")
    if n_quantiles < 2:
        raise ValidationError("n_quantiles must be >= 2")
    n_q = min(int(n_quantiles), values.size)
    if n_q == 1:
        return QuantileMap(np.array([values[0]]))
    levels = np.linspace(0.0, 1.0, n_q)
    zero_signs = np.signbit(values[values == 0.0])
    if zero_signs.any() and not zero_signs.all():
        # A sort and np.quantile's partition place -0.0 and +0.0 differently
        # (NumPy's vectorised sort may even rewrite one into the other), which
        # can flip the sign of a zero quantile; keep np.quantile's.
        return QuantileMap(np.quantile(values, levels))
    return QuantileMap(_linear_quantiles(np.sort(values), levels))


def _linear_quantiles(ordered: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """``np.quantile(values, levels)`` (method 'linear') from sorted values.

    These are the steps of NumPy 2.4's ``_quantile`` and ``_lerp`` for the
    'linear' method, in the same order: virtual index (n - 1) q, its floor
    and floor + 1 with both clamped to the last element at or above n - 1
    (and to the first below 0), gamma against the clamped floor, then
    a + (b - a) gamma, or b - (b - a)(1 - gamma) where gamma >= 0.5. So the
    result is bit-equal to ``np.quantile``, which instead partitions the
    column at about two indices per level and costs far more than one sort.
    """
    n = ordered.size
    virtual = (n - 1) * levels
    previous = np.floor(virtual)
    following = previous + 1
    above = virtual >= n - 1
    previous[above] = -1
    following[above] = -1
    below = virtual < 0
    previous[below] = 0
    following[below] = 0
    previous = previous.astype(np.intp)
    following = following.astype(np.intp)
    gamma = virtual - previous
    a, b = ordered[previous], ordered[following]
    diff = b - a
    out = a + diff * gamma
    upper = gamma >= 0.5
    out[upper] = b[upper] - diff[upper] * (1 - gamma[upper])
    return out


# ---------------------------------------------------------------------------
# Categorical coding


def first_occurrence_codes(*columns) -> tuple:
    """Jointly integer-code categorical columns.

    Returns ``(vocab, codes)``: ``vocab`` is an object array of the distinct
    values of all columns, in order of first occurrence when the columns are
    read one after another; ``codes`` holds one int64 array per column with
    ``vocab[codes[i]]`` equal to column ``i``. Every categorical column is
    coded here, so the vocabulary order is decided in one place.
    """
    flat = list(itertools.chain.from_iterable(columns))
    lookup = {v: i for i, v in enumerate(dict.fromkeys(flat))}
    vocab = np.fromiter(lookup, dtype=object, count=len(lookup))
    codes = np.fromiter(map(lookup.__getitem__, flat), dtype=np.int64,
                        count=len(flat))
    bounds = np.cumsum([len(col) for col in columns])[:-1]
    return vocab, np.split(codes, bounds)


def encoded_rows(numeric: np.ndarray, cat_rows: np.ndarray, embeddings) -> np.ndarray:
    """Encoded rows: the numeric block, then for each categorical column ``j``
    its embedding row ``embeddings[j][cat_rows[:, j]]``, EMBED_DIM wide."""
    return np.hstack([numeric] + [e[r] for e, r in zip(embeddings, cat_rows.T)])


# ---------------------------------------------------------------------------
# Pipeline: fit once, encode/decode many times


PIPELINE_FORMAT = "fedsynth-pipeline-v1"


@dataclass
class EncodingPipeline:
    """Fitted, immutable encode/decode state for one schema.

    ``vocabularies`` maps each categorical column to its values in order of
    first occurrence. The initial embedding table of the ``pos``-th
    categorical column is drawn i.i.d. from N(0, 1/2) (std 1/sqrt(2)) with
    seed ``[embed_seed, pos]``; training happens wherever the tables are
    treated as model parameters. Decoding maps each 2-d slice to the nearest
    table row (Euclidean), ties to the lowest index.
    """

    schema: TabularSchema
    quantile_maps: dict
    vocabularies: dict
    n_quantiles: int
    embed_seed: int

    def __post_init__(self):
        for name, vocab in self.vocabularies.items():
            if len(vocab) == 0:
                raise ValidationError(f"empty vocabulary for column {name!r}")
            if len(set(vocab)) != len(vocab):
                raise ValidationError(f"vocabulary entries of column {name!r} must be unique")

    @property
    def encoded_width(self) -> int:
        return self.schema.encoded_width

    @classmethod
    def fit(cls, table: RawTable, n_quantiles: int = DEFAULT_N_QUANTILES,
            embed_seed: int = 0) -> "EncodingPipeline":
        schema = table.schema
        qmaps = {name: fit_quantile_map(table.column(name), n_quantiles)
                 for name in schema.numeric_names}
        vocabs = {name: tuple(first_occurrence_codes(table.column(name))[0])
                  for name in schema.categorical_names}
        return cls(schema, qmaps, vocabs, n_quantiles, embed_seed)

    def initial_embeddings(self) -> list:
        return [np.random.default_rng([self.embed_seed, pos]).normal(
                    0.0, EMBED_INIT_STD, (len(self.vocabularies[name]), EMBED_DIM))
                for pos, name in enumerate(self.schema.categorical_names)]

    def encode_numeric(self, table: RawTable) -> np.ndarray:
        """Numeric block only, in [-1, 1], shape (N, #numeric)."""
        cols = [2.0 * self.quantile_maps[name].transform(table.column(name)) - 1.0
                for name in self.schema.numeric_names]
        if not cols:
            return np.zeros((table.n_rows, 0))
        return np.column_stack(cols)

    def category_indices(self, table: RawTable) -> np.ndarray:
        """Vocabulary index matrix, shape (N, #categorical), dtype int64."""
        cols = []
        for name in self.schema.categorical_names:
            vocab = self.vocabularies[name]
            values, (_, codes) = first_occurrence_codes(vocab, table.column(name))
            unseen = np.flatnonzero(codes >= len(vocab))
            if unseen.size:
                raise ValidationError(f"unseen category {values[codes[unseen[0]]]!r} "
                                      f"in column {name!r}")
            cols.append(codes)
        if not cols:
            return np.zeros((table.n_rows, 0), dtype=np.int64)
        return np.column_stack(cols)

    def encode(self, table: RawTable, embeddings: list | None = None) -> np.ndarray:
        """Full encoded matrix: numerics first, then 2-d embedding slices."""
        if embeddings is None:
            embeddings = self.initial_embeddings()
        out = encoded_rows(self.encode_numeric(table), self.category_indices(table),
                           embeddings)
        if not np.all(np.isfinite(out)):
            raise ValidationError("encoded matrix contains non-finite values")
        return out

    def decode(self, encoded: np.ndarray, embeddings: list | None = None) -> RawTable:
        encoded = np.atleast_2d(np.asarray(encoded, dtype=np.float64))
        if encoded.shape[1] != self.encoded_width:
            raise ValidationError(
                f"encoded width {encoded.shape[1]} != expected {self.encoded_width}")
        if embeddings is None:
            embeddings = self.initial_embeddings()
        n_num = len(self.schema.numeric_names)
        columns: dict = {}
        for i, name in enumerate(self.schema.numeric_names):
            u = (np.clip(encoded[:, i], -1.0, 1.0) + 1.0) / 2.0
            columns[name] = self.quantile_maps[name].inverse(u)
        for j, name in enumerate(self.schema.categorical_names):
            sl = encoded[:, n_num + EMBED_DIM * j: n_num + EMBED_DIM * (j + 1)]
            # (N, V) squared distances; argmin returns the lowest index on ties.
            d2 = ((sl[:, None, :] - embeddings[j][None, :, :]) ** 2).sum(axis=2)
            vocab = np.asarray(self.vocabularies[name], dtype=object)
            columns[name] = vocab[np.argmin(d2, axis=1)]
        return RawTable(self.schema, columns)

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": PIPELINE_FORMAT,
            "schema": self.schema.to_dict(),
            "n_quantiles": self.n_quantiles,
            "embed_seed": self.embed_seed,
            "quantiles": {name: qm.quantiles.tolist()
                          for name, qm in self.quantile_maps.items()},
            "vocabularies": {name: list(vocab)
                             for name, vocab in self.vocabularies.items()},
        }

    @property
    def digest(self) -> str:
        return json_digest(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict, what: str = "pipeline") -> "EncodingPipeline":
        fmt = d.get("format") if isinstance(d, dict) else None
        if fmt != PIPELINE_FORMAT:
            raise ValidationError(f"{what} has format {fmt!r}, not {PIPELINE_FORMAT!r}")
        with reading(what):
            schema = TabularSchema.from_dict(d["schema"], what)
            qmaps = {name: QuantileMap(np.asarray(d["quantiles"][name], dtype=np.float64))
                     for name in schema.numeric_names}
            vocabs = {name: tuple(d["vocabularies"][name])
                      for name in schema.categorical_names}
            return cls(schema, qmaps, vocabs, int(d["n_quantiles"]), int(d["embed_seed"]))

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "EncodingPipeline":
        what = f"pipeline file {path!r}"
        with reading(what):
            d = read_json(path)
        return cls.from_dict(d, what)


# ---------------------------------------------------------------------------
# Client partitioning: a partition is a list of one sorted int64 row-index
# array per client, and client i owns entry i.


def _check_lambda(n_clients: int, n_rows: int) -> None:
    if not 1 <= n_clients <= n_rows:
        raise ValidationError(f"cannot split {n_rows} rows across {n_clients} clients")


def partition_iid(table: RawTable, n_clients: int, rng_seed) -> list:
    """Uniform shuffle, then near-equal contiguous shards (sizes differ <= 1)."""
    _check_lambda(n_clients, table.n_rows)
    rng = np.random.default_rng(rng_seed)
    perm = rng.permutation(table.n_rows)
    return [np.sort(chunk) for chunk in np.array_split(perm, n_clients)]


def partition_noniid(table: RawTable, partition_column: str, n_clients: int,
                     rng_seed) -> list:
    """Label-skew split: each distinct value of ``partition_column`` goes,
    whole, to the currently smallest client (greedy, largest groups first).

    When there are fewer distinct values than clients, the largest value
    group is split uniformly at random so every client ends non-empty.
    """
    _check_lambda(n_clients, table.n_rows)
    if table.schema.kinds.get(partition_column) != KIND_CATEGORICAL:
        raise ValidationError(
            f"partition column {partition_column!r} must be a categorical column")
    _, (codes,) = first_occurrence_codes(table.column(partition_column))
    sizes = np.bincount(codes)
    # A stable sort keeps each group's row indices ascending.
    groups = np.split(np.argsort(codes, kind="stable"), np.cumsum(sizes)[:-1])

    buckets: list = [[] for _ in range(n_clients)]
    counts = np.zeros(n_clients, dtype=np.int64)
    # Largest group first; ties broken by first occurrence for determinism.
    for g in np.argsort(-sizes, kind="stable"):
        target = int(np.argmin(counts))
        buckets[target].append(groups[g])
        counts[target] += sizes[g]

    rng = np.random.default_rng(rng_seed)
    while np.any(counts == 0):
        empties = np.flatnonzero(counts == 0)
        donor = int(np.argmax(counts))
        donor_rows = np.concatenate(buckets[donor])
        if donor_rows.size < 2:
            raise ValidationError("not enough rows to give every client data")
        shuffled = rng.permutation(donor_rows)
        n_parts = min(empties.size + 1, donor_rows.size)
        parts = np.array_split(shuffled, n_parts)
        buckets[donor] = [parts[0]]
        counts[donor] = parts[0].size
        for empty, part in zip(empties, parts[1:]):
            buckets[int(empty)] = [part]
            counts[int(empty)] = part.size

    return [np.sort(np.concatenate(bucket)) for bucket in buckets]


def save_partitions(path, partitions: list) -> None:
    write_json(path, {"clients": [{"client_id": cid, "indices": rows.tolist()}
                                  for cid, rows in enumerate(partitions)]})


def load_partitions(path, n_rows: int, n_clients: int) -> list:
    """The partition in ``path``, else ValidationError: entry i names client i, for
    each i < ``n_clients`` only, and lists some integers in [0, n_rows), and no row
    appears twice. Shards need not be sorted or cover every row."""
    with reading(f"partitions file {path!r}"):
        entries = read_json(path)["clients"]
        ids = [c["client_id"] for c in entries]
        partitions = [np.asarray(c["indices"]) for c in entries]
    if ids != list(range(n_clients)):
        raise ValidationError(f"{path!r} must list clients 0 to {n_clients - 1} in order")
    for cid, rows in enumerate(partitions):
        if rows.size == 0:
            raise ValidationError(f"client {cid} has no rows")
        # by dtype kind, so that 1.5 or "3" is refused, not converted
        if rows.dtype.kind != "i" or rows.ndim != 1 or rows.min() < 0 or rows.max() >= n_rows:
            raise ValidationError(f"client {cid}'s rows must be integers in [0, {n_rows})")
    # one sort, not np.unique, whose first call costs about 1.6 MB of resident memory
    held = np.sort(np.concatenate(partitions))
    if np.any(held[1:] == held[:-1]):
        raise ValidationError(f"a row appears twice in {path!r}")
    return [rows.astype(np.int64, copy=False) for rows in partitions]
