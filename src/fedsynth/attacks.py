"""Attack-based privacy evaluation of synthetic tables.

Three evaluators — singling-out, linkability, inference — each report the
rate at which a synthetic-data-equipped attacker beats a baseline attacker
who never saw the synthetic table. Risks are baseline-adjusted:
max(0, (raw - baseline) / (1 - baseline)), so a perfect generator that leaks
nothing scores near 0 and a copy of the real data scores near 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import KIND_CATEGORICAL, KIND_NUMERIC, RawTable, first_occurrence_codes
from .errors import ValidationError

_Z95 = 1.959963984540054


def wilson_interval(successes: int, n: int, z: float = _Z95) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValidationError("interval needs at least one trial")
    p = successes / n
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
    """Numeric matrix + integer-coded categorical matrix for fast distances."""

    num: np.ndarray        # (N, n_num) float
    cat: np.ndarray        # (N, n_cat) int codes over the union vocabulary
    num_names: tuple
    cat_names: tuple
    ranges: np.ndarray     # per numeric column, joint (real union syn) range


def _build_views(real: RawTable, syn: RawTable, columns=None) -> tuple:
    schema = real.schema
    if syn.schema.columns != schema.columns:
        raise ValidationError("real and synthetic tables must share a schema")
    names = list(schema.names if columns is None else columns)
    kinds = schema.kinds
    num_names = tuple(n for n in names if kinds[n] == KIND_NUMERIC)
    cat_names = tuple(n for n in names if kinds[n] == KIND_CATEGORICAL)

    def numeric_block(table):
        if not num_names:
            return np.zeros((table.n_rows, 0))
        return np.column_stack([np.asarray(table.column(n), dtype=np.float64)
                                for n in num_names])

    r_num, s_num = numeric_block(real), numeric_block(syn)
    ranges = np.zeros(len(num_names))
    for j in range(len(num_names)):
        both = np.concatenate([r_num[:, j], s_num[:, j]])
        ranges[j] = float(both.max() - both.min())

    r_cat = np.zeros((real.n_rows, len(cat_names)), dtype=np.int64)
    s_cat = np.zeros((syn.n_rows, len(cat_names)), dtype=np.int64)
    for j, name in enumerate(cat_names):
        _, (r_cat[:, j], s_cat[:, j]) = first_occurrence_codes(real.column(name),
                                                               syn.column(name))

    real_view = _View(r_num, r_cat, num_names, cat_names, ranges)
    syn_view = _View(s_num, s_cat, num_names, cat_names, ranges)
    return real_view, syn_view


def gower_distances(queries: _View, reference: _View, rows: np.ndarray) -> np.ndarray:
    """(len(rows), N_ref) mean per-column Gower distance matrix.

    Numeric columns contribute |a-b|/range (0 when the joint range is 0);
    categoricals contribute a 0/1 mismatch indicator.
    """
    n_cols = queries.num.shape[1] + queries.cat.shape[1]
    if n_cols == 0:
        raise ValidationError("Gower distance needs at least one column")
    total = np.zeros((rows.size, reference.num.shape[0]))
    for j in range(queries.num.shape[1]):
        diff = np.abs(queries.num[rows, j][:, None] - reference.num[None, :, j])
        if queries.ranges[j] > 0:
            total += diff / queries.ranges[j]
    for j in range(queries.cat.shape[1]):
        total += queries.cat[rows, j][:, None] != reference.cat[None, :, j]
    return total / n_cols


# ---------------------------------------------------------------------------
# Singling-out


def _numeric_ecdf(sample: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mid-rank empirical CDF of ``values`` within ``sample``."""
    order = np.sort(sample)
    left = np.searchsorted(order, values, side="left")
    right = np.searchsorted(order, values, side="right")
    return (left + right) / (2.0 * order.size)


@dataclass
class _AnchorSet:
    """Candidate predicate anchors: values and per-attribute rarity."""

    values: list           # per column: array of anchor values
    rarity: np.ndarray     # (n_anchors, D) in (0, 1]
    sides: np.ndarray      # (n_anchors, D) +1 -> "x >= v", -1 -> "x <= v" (numeric)
    names: tuple
    kinds: dict


def _anchors_from_table(source: RawTable, marginal: RawTable) -> _AnchorSet:
    """Rarity of each source cell judged against ``marginal``'s columns."""
    schema = source.schema
    n = source.n_rows
    rarity = np.ones((n, len(schema.names)))
    sides = np.ones((n, len(schema.names)), dtype=np.int64)
    values = []
    for d, name in enumerate(schema.names):
        vals = source.column(name)
        values.append(vals)
        marg = marginal.column(name)
        if schema.kinds[name] == KIND_NUMERIC:
            cdf = _numeric_ecdf(np.asarray(marg, dtype=np.float64),
                                np.asarray(vals, dtype=np.float64))
            tail = np.minimum(cdf, 1.0 - cdf) + 1.0 / (2.0 * len(marg))
            rarity[:, d] = np.minimum(tail, 1.0)
            sides[:, d] = np.where(cdf >= 0.5, 1, -1)
        else:
            vocab, (marg_codes, val_codes) = first_occurrence_codes(marg, vals)
            freq = np.bincount(marg_codes, minlength=vocab.size)
            rarity[:, d] = np.maximum(freq[val_codes], 0.5) / len(marg)
    return _AnchorSet(values, rarity, sides, schema.names, schema.kinds)


def _mix_and_match_anchors(real: RawTable, n_anchors: int, rng) -> RawTable:
    """Pseudo-records drawn per-column independently from the real marginals."""
    columns = {}
    for name in real.schema.names:
        col = real.column(name)
        columns[name] = col[rng.integers(0, len(col), size=n_anchors)]
    return RawTable(real.schema, columns)


def _run_predicate_attack(anchors: _AnchorSet, real: RawTable, n_attacks: int,
                          rng) -> int:
    """Outlier-pooled random conjunctions; count exactly-one-match successes."""
    n_anchors = anchors.rarity.shape[0]
    d_total = len(anchors.names)
    outlier_score = np.sum(np.log(anchors.rarity), axis=1)
    pool_size = max(min(20, n_anchors), n_anchors // 10)
    pool = np.argsort(outlier_score, kind="stable")[:pool_size]

    real_numeric = {name: np.asarray(real.column(name), dtype=np.float64)
                    for name in anchors.names
                    if anchors.kinds[name] == KIND_NUMERIC}
    # Categorical predicates compare integer codes over a joint vocabulary.
    real_codes, anchor_codes = {}, {}
    for d, name in enumerate(anchors.names):
        if anchors.kinds[name] == KIND_CATEGORICAL:
            _, (real_codes[name], anchor_codes[name]) = first_occurrence_codes(
                real.column(name), anchors.values[d])
    successes = 0
    log_w_all = -np.log(anchors.rarity)
    for _ in range(n_attacks):
        a = int(pool[rng.integers(0, pool.size)])
        k = int(rng.integers(2, 5)) if d_total >= 2 else 1
        k = min(k, d_total)
        # Gumbel top-k: sample k attributes without replacement, weighted
        # toward this record's rarest values.
        keys = np.log(log_w_all[a] + 1e-12) + rng.gumbel(size=d_total)
        attrs = np.argsort(keys, kind="stable")[-k:]
        mask = np.ones(real.n_rows, dtype=bool)
        for d in attrs:
            name = anchors.names[d]
            if anchors.kinds[name] == KIND_NUMERIC:
                col = real_numeric[name]
                v = float(anchors.values[d][a])
                if anchors.sides[a, d] > 0:
                    mask &= col >= v
                else:
                    mask &= col <= v
            else:
                mask &= real_codes[name] == anchor_codes[name][a]
        if int(mask.sum()) == 1:
            successes += 1
    return successes


def _all_rows_identical(table: RawTable) -> bool:
    return all(first_occurrence_codes(table.column(name))[0].size <= 1
               for name in table.schema.names)


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
    if _all_rows_identical(real):
        return {"risk": 0.0, "ci": (0.0, 0.0), "raw": 0.0, "baseline": 0.0,
                "warning": "degenerate real table (all rows identical)"}
    attack_anchors = _anchors_from_table(syn, syn)
    successes = _run_predicate_attack(attack_anchors, real, n_attacks, rng)

    pseudo = _mix_and_match_anchors(real, syn.n_rows, rng)
    base_anchors = _anchors_from_table(pseudo, real)
    base_successes = _run_predicate_attack(base_anchors, real, n_attacks, rng)

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


def linkability_risk(real: RawTable, syn: RawTable, n_attacks: int, rng,
                     aux_split: tuple | None = None) -> dict:
    """How often the A-column and B-column nearest synthetic neighbours of a
    real record coincide (1-NN sets intersecting under Gower distance)."""
    if len(real.schema.names) < 2:
        raise ValidationError("linkability needs at least two columns")
    split_a, split_b = aux_split if aux_split is not None else default_aux_split(real.schema)
    if not split_a or not split_b:
        raise ValidationError("both sides of the aux split must be non-empty")
    rows = rng.integers(0, real.n_rows, size=n_attacks)
    real_a, syn_a = _build_views(real, syn, split_a)
    real_b, syn_b = _build_views(real, syn, split_b)
    dist_a = gower_distances(real_a, syn_a, rows)
    dist_b = gower_distances(real_b, syn_b, rows)
    near_a = dist_a <= dist_a.min(axis=1, keepdims=True)
    near_b = dist_b <= dist_b.min(axis=1, keepdims=True)
    successes = int(np.any(near_a & near_b, axis=1).sum())
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
    schema = real.schema
    if len(schema.names) < 2:
        raise ValidationError("inference needs at least two columns")
    per_column = {}
    for name in schema.names:
        aux = [c for c in schema.names if c != name]
        rows = rng.integers(0, real.n_rows, size=n_attacks)
        real_view, syn_view = _build_views(real, syn, aux)
        dists = gower_distances(real_view, syn_view, rows)
        nn = np.argmin(dists, axis=1)
        if schema.kinds[name] == KIND_NUMERIC:
            real_col = np.asarray(real.column(name), dtype=np.float64)
            syn_col = np.asarray(syn.column(name), dtype=np.float64)
            both = np.concatenate([real_col, syn_col])
            tol = 0.05 * float(both.max() - both.min())
            hits = np.abs(syn_col[nn] - real_col[rows]) <= tol
            base_hits = np.abs(float(np.median(real_col)) - real_col[rows]) <= tol
        else:
            _, (real_codes, syn_codes) = first_occurrence_codes(real.column(name),
                                                                syn.column(name))
            hits = syn_codes[nn] == real_codes[rows]
            # argmax keeps the first-occurring value among tied majorities
            majority = np.argmax(np.bincount(real_codes))
            base_hits = real_codes[rows] == majority
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
