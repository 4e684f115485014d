"""Attack-based privacy evaluation of synthetic tables.

Three evaluators — singling-out, linkability, inference — each report the
rate at which a synthetic-data-equipped attacker beats a baseline attacker
who never saw the synthetic table. Risks are baseline-adjusted:
max(0, (raw - baseline) / (1 - baseline)), so a perfect generator that leaks
nothing scores near 0 and a copy of the real data scores near 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import KIND_CATEGORICAL, RawTable, first_occurrence_codes
from .errors import ValidationError

_Z95 = 1.959963984540054


def wilson_interval(successes: int, n: int) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValidationError("interval needs at least one trial")
    p, z = successes / n, _Z95
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def adjusted_risk(raw: float, baseline: float) -> float:
    """Attack rate in excess of the baseline, rescaled to [0, 1]."""
    if baseline >= 1.0:
        return 0.0
    return min(1.0, max(0.0, (raw - baseline) / (1.0 - baseline)))


# ---------------------------------------------------------------------------
# Mixed-type views and Gower distance


@dataclass
class _View:
    """One table as an (N, D) float64 matrix in schema order.

    Numeric columns hold their values; categorical columns hold codes over
    the joint real-then-synthetic first-occurrence vocabulary, so equal codes
    mean equal values in either table. Distances read the columns ``cols``.
    """

    data: np.ndarray       # (N, D) float
    is_cat: np.ndarray     # (D,) bool
    ranges: np.ndarray     # (D,) joint (real union syn) range per column
    names: tuple           # the D schema names
    cols: np.ndarray       # column indices, in the caller's order

    def select(self, columns) -> "_View":
        index = {name: j for j, name in enumerate(self.names)}
        return replace(self, cols=np.array([index[c] for c in columns], dtype=np.int64))


def _build_views(real: RawTable, syn: RawTable, columns=None) -> tuple:
    """(real, synthetic) views coded together; ``columns`` picks the columns
    distances read (default: all, in schema order)."""
    schema = real.schema
    if syn.schema.columns != schema.columns:
        raise ValidationError("real and synthetic tables must share a schema")
    names = schema.names
    is_cat = np.array([schema.kinds[n] == KIND_CATEGORICAL for n in names])
    # Column-major, so each column that distances and predicates scan is contiguous.
    r = np.empty((real.n_rows, len(names)), order="F")
    s = np.empty((syn.n_rows, len(names)), order="F")
    for j, name in enumerate(names):
        if is_cat[j]:
            _, (r[:, j], s[:, j]) = first_occurrence_codes(real.column(name),
                                                           syn.column(name))
        else:
            r[:, j], s[:, j] = real.column(name), syn.column(name)
    both = np.concatenate([r, s])
    ranges = both.max(axis=0) - both.min(axis=0)
    cols = np.arange(len(names))
    views = (_View(r, is_cat, ranges, names, cols),
             _View(s, is_cat, ranges, names, cols))
    return views if columns is None else tuple(v.select(columns) for v in views)


def gower_distances(queries: _View, reference: _View, rows: np.ndarray,
                    ref_rows: slice = slice(None), buffers=None) -> np.ndarray:
    """(len(rows), n) mean per-column Gower distance matrix against the n
    reference rows ``ref_rows`` (default: all of them).

    Numeric columns contribute |a-b|/range (0 when the joint range is 0);
    categoricals contribute a 0/1 mismatch indicator. ``buffers`` (from
    ``_gower_buffers``) lends the scratch; the result is then a view of it,
    overwritten by the next call that shares them.
    """
    cols = queries.cols
    if cols.size == 0:
        raise ValidationError("Gower distance needs at least one column")
    q, ref = queries.data[rows], reference.data[ref_rows]
    shape = (rows.size, ref.shape[0])
    # One buffer of each kind for all columns: page faults on fresh
    # (rows, N) temporaries cost more than the arithmetic.
    if buffers is None:
        total, diff = np.zeros(shape), np.empty(shape)
        mismatch = np.empty(shape, dtype=bool)
    else:
        total, diff, mismatch = (b[:shape[0] * shape[1]].reshape(shape) for b in buffers)
        total.fill(0.0)
    for j in cols[~queries.is_cat[cols]]:
        if queries.ranges[j] > 0:
            np.subtract.outer(q[:, j], ref[:, j], out=diff)
            np.abs(diff, out=diff)
            diff /= queries.ranges[j]
            total += diff
    for j in cols[queries.is_cat[cols]]:
        np.not_equal.outer(q[:, j], ref[:, j], out=mismatch)
        total += mismatch
    total /= cols.size
    return total


# Reference rows per Gower block: about nn.BLOCK distances at 500 attacks, so
# the attacks' memory does not grow with the synthetic table.
GOWER_BLOCK_ROWS = 64


def _gower_buffers(n_queries: int) -> tuple:
    """Scratch for ``gower_distances`` over at most GOWER_BLOCK_ROWS reference rows."""
    size = n_queries * GOWER_BLOCK_ROWS
    return np.empty(size), np.empty(size), np.empty(size, dtype=bool)


def _gower_blocks(n_ref: int):
    """Slices of at most GOWER_BLOCK_ROWS reference rows covering range(n_ref)."""
    for start in range(0, n_ref, GOWER_BLOCK_ROWS):
        yield slice(start, min(start + GOWER_BLOCK_ROWS, n_ref))


def _nearest(queries: _View, reference: _View, rows: np.ndarray) -> np.ndarray:
    """Index of each query row's nearest reference row, block by block.

    Equal to ``np.argmin`` over the full distance matrix: a later block wins
    only on a strictly smaller distance, so ties keep the first index, and a
    NaN distance wins as argmin's does.
    """
    buffers = _gower_buffers(rows.size)
    best = np.full(rows.size, np.inf)
    nearest = np.zeros(rows.size, dtype=np.int64)
    every = np.arange(rows.size)
    for block in _gower_blocks(reference.data.shape[0]):
        dist = gower_distances(queries, reference, rows, block, buffers)
        arg = np.argmin(dist, axis=1)
        low = dist[every, arg]
        wins = (low < best) | (np.isnan(low) & ~np.isnan(best))
        best[wins] = low[wins]
        nearest[wins] = arg[wins] + block.start
    return nearest


# ---------------------------------------------------------------------------
# Singling-out


def _rarity(anchors: np.ndarray, marginal: np.ndarray, is_cat: np.ndarray) -> tuple:
    """Rarity of each anchor cell within ``marginal``'s column, in (0, 1],
    and its predicate side: +1 -> "x >= v", -1 -> "x <= v", 0 -> "x == v".

    Numeric rarity is the mid-rank ECDF tail; categorical rarity the value's
    frequency.
    """
    n = marginal.shape[0]
    rarity = np.empty(anchors.shape)
    sides = np.zeros(anchors.shape, dtype=np.int64)
    for d in range(anchors.shape[1]):
        order = np.sort(marginal[:, d])
        left = np.searchsorted(order, anchors[:, d], side="left")
        right = np.searchsorted(order, anchors[:, d], side="right")
        if is_cat[d]:
            rarity[:, d] = np.maximum(right - left, 0.5) / n
        else:
            cdf = (left + right) / (2.0 * n)
            tail = np.minimum(cdf, 1.0 - cdf) + 1.0 / (2.0 * n)
            rarity[:, d] = np.minimum(tail, 1.0)
            sides[:, d] = np.where(cdf >= 0.5, 1, -1)
    return rarity, sides


def _run_predicate_attack(anchors: np.ndarray, marginal: np.ndarray,
                          real: _View, n_attacks: int, rng) -> int:
    """Outlier-pooled random conjunctions; count exactly-one-match successes."""
    rarity, sides = _rarity(anchors, marginal, real.is_cat)
    n_anchors, d_total = anchors.shape
    outlier_score = np.sum(np.log(rarity), axis=1)
    pool_size = max(min(20, n_anchors), n_anchors // 10)
    pool = np.argsort(outlier_score, kind="stable")[:pool_size]
    successes = 0
    log_w_all = -np.log(rarity)
    for _ in range(n_attacks):
        a = int(pool[rng.integers(0, pool.size)])
        k = int(rng.integers(2, 5)) if d_total >= 2 else 1
        k = min(k, d_total)
        # Gumbel top-k: sample k attributes without replacement, weighted
        # toward this record's rarest values.
        keys = np.log(log_w_all[a] + 1e-12) + rng.gumbel(size=d_total)
        attrs = np.argsort(keys, kind="stable")[-k:]
        mask = np.ones(real.data.shape[0], dtype=bool)
        for d in attrs:
            col, v = real.data[:, d], anchors[a, d]
            if sides[a, d] > 0:
                mask &= col >= v
            elif sides[a, d] < 0:
                mask &= col <= v
            else:
                mask &= col == v
        if int(mask.sum()) == 1:
            successes += 1
    return successes


def singling_out_risk(real: RawTable, syn: RawTable, n_attacks: int, rng) -> dict:
    """How often synthetic-outlier predicates isolate exactly one real record.

    Attack anchors are the rarest synthetic records (top rarity decile); the
    baseline runs the identical predicate pipeline on mix-and-match anchors
    resampled per column from the real marginals, which carry no synthetic
    information. Returns raw/baseline rates, adjusted risk, and a Wilson 95%
    CI on the adjusted risk.
    """
    if real.n_rows == 0 or syn.n_rows == 0:
        raise ValidationError("singling-out needs non-empty tables")
    real_view, syn_view = _build_views(real, syn)
    r, s = real_view.data, syn_view.data
    if np.all(r == r[0]):
        return {"risk": 0.0, "ci": (0.0, 0.0), "raw": 0.0, "baseline": 0.0,
                "warning": "degenerate real table (all rows identical)"}
    successes = _run_predicate_attack(s, s, real_view, n_attacks, rng)

    # Mix-and-match pseudo-records: each column drawn independently from real.
    pseudo = np.column_stack([r[rng.integers(0, r.shape[0], size=s.shape[0]), d]
                              for d in range(r.shape[1])])
    base_successes = _run_predicate_attack(pseudo, r, real_view, n_attacks, rng)

    raw = successes / n_attacks
    baseline = base_successes / n_attacks
    lo, hi = wilson_interval(successes, n_attacks)
    return {
        "risk": adjusted_risk(raw, baseline),
        "ci": (adjusted_risk(lo, baseline), adjusted_risk(hi, baseline)),
        "raw": raw,
        "baseline": baseline,
        "warning": None,
    }


# ---------------------------------------------------------------------------
# Linkability


def default_aux_split(schema) -> tuple:
    """Alternate the first min(10, D) schema columns into subsets A and B."""
    names = schema.names[: min(10, len(schema.names))]
    return tuple(names[0::2]), tuple(names[1::2])


def linkability_risk(real: RawTable, syn: RawTable, n_attacks: int, rng) -> dict:
    """How often the A-column and B-column nearest synthetic neighbours of a
    real record coincide (1-NN sets intersecting under Gower distance), with
    the columns split by ``default_aux_split``."""
    if len(real.schema.names) < 2:
        raise ValidationError("linkability needs at least two columns")
    split_a, split_b = default_aux_split(real.schema)
    rows = rng.integers(0, real.n_rows, size=n_attacks)
    real_view, syn_view = _build_views(real, syn)
    a = real_view.select(split_a), syn_view.select(split_a)
    b = real_view.select(split_b), syn_view.select(split_b)
    buffers = _gower_buffers(rows.size)
    # One pass over the synthetic blocks keeps each split's running minimum
    # per attacked row, and whether a row seen so far sits at both minima. A
    # link found earlier stands only while neither minimum drops, since a
    # drop moves that split's tied rows into the current block.
    low_a, low_b = np.full(rows.size, np.inf), np.full(rows.size, np.inf)
    linked = np.zeros(rows.size, dtype=bool)
    for block in _gower_blocks(syn.n_rows):
        dist = gower_distances(*a, rows, block, buffers)
        new_a = np.minimum(low_a, dist.min(axis=1))
        near = dist <= new_a[:, None]
        dist = gower_distances(*b, rows, block, buffers)
        new_b = np.minimum(low_b, dist.min(axis=1))
        near &= dist <= new_b[:, None]
        linked &= (new_a == low_a) & (new_b == low_b)
        linked |= near.any(axis=1)
        low_a, low_b = new_a, new_b
    successes = int(linked.sum())
    raw = successes / n_attacks
    baseline = 1.0 / syn.n_rows  # two independent uniform picks coincide
    return {"risk": adjusted_risk(raw, baseline), "raw": raw, "baseline": baseline}


# ---------------------------------------------------------------------------
# Inference


def inference_risk(real: RawTable, syn: RawTable, n_attacks: int, rng) -> dict:
    """Predict each column from the others via the nearest synthetic record.

    Numeric guesses count when within 5% of the column's joint range; the
    baseline guesser answers the real-marginal majority class or median.
    Returns the per-column risks and their mean.
    """
    names = real.schema.names
    if len(names) < 2:
        raise ValidationError("inference needs at least two columns")
    real_view, syn_view = _build_views(real, syn)
    per_column = {}
    for d, name in enumerate(names):
        rows = rng.integers(0, real.n_rows, size=n_attacks)
        aux = [c for c in names if c != name]
        nn = _nearest(real_view.select(aux), syn_view.select(aux), rows)
        real_col, syn_col = real_view.data[:, d], syn_view.data[:, d]
        if real_view.is_cat[d]:
            hits = syn_col[nn] == real_col[rows]
            # argmax keeps the first-occurring value among tied majorities
            majority = np.argmax(np.bincount(real_col.astype(np.int64)))
            base_hits = real_col[rows] == majority
        else:
            tol = 0.05 * float(real_view.ranges[d])
            hits = np.abs(syn_col[nn] - real_col[rows]) <= tol
            base_hits = np.abs(float(np.median(real_col)) - real_col[rows]) <= tol
        raw = float(np.mean(hits))
        baseline = float(np.mean(base_hits))
        per_column[name] = adjusted_risk(raw, baseline)
    mean_risk = float(np.mean(list(per_column.values())))
    return {"risk": mean_risk, "per_column": per_column}


def privacy_score(sor: float, lr: float, ir: float) -> float:
    """Mean of the three attack risks (higher = more leakage)."""
    for v in (sor, lr, ir):
        if not 0.0 <= v <= 1.0:
            raise ValidationError("attack risks must lie in [0, 1]")
    return (sor + lr + ir) / 3.0
