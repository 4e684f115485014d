"""Fidelity, utility, and privacy scoring of synthetic tables.

Fidelity compares marginals (Wasserstein/Jensen-Shannon similarity) and
pairwise associations (Pearson deltas for numeric pairs, Theil-U deltas for
ordered categorical pairs). Utility trains the built-in classifiers on
synthetic rows and tests them on held-out real rows. Privacy aggregates the
three attack risks. Everything is a pure function of (real, syn, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attacks import inference_risk, linkability_risk, privacy_score, singling_out_risk
from .classifiers import accuracy, builtin_classifiers
from .data import (KIND_CATEGORICAL, KIND_NUMERIC, RawTable, first_occurrence_codes,
                   fit_quantile_map)
from .errors import ValidationError
from .store import canonical_json

DEFAULT_N_ATTACKS = 500
DEFAULT_TEST_FRACTION = 0.2


# ---------------------------------------------------------------------------
# Column fidelity


def _empirical_w1(a: np.ndarray, b: np.ndarray) -> float:
    """Exact 1-d Wasserstein-1 between two empirical distributions."""
    grid = np.sort(np.concatenate([a, b]))
    widths = np.diff(grid)
    if widths.size == 0:
        return 0.0
    cdf_a = np.searchsorted(np.sort(a), grid[:-1], side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), grid[:-1], side="right") / b.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * widths))


def wasserstein_similarity(real_col, syn_col) -> float:
    """1 - W1 after jointly min-max normalizing both columns to [0, 1]."""
    a = np.asarray(real_col, dtype=np.float64)
    b = np.asarray(syn_col, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValidationError("wasserstein_similarity needs non-empty columns")
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi == lo:
        return 1.0  # identical constants on both sides
    a = (a - lo) / (hi - lo)
    b = (b - lo) / (hi - lo)
    return float(np.clip(1.0 - _empirical_w1(a, b), 0.0, 1.0))


def js_similarity(real_col, syn_col) -> float:
    """1 - Jensen-Shannon divergence (log base 2) of category frequencies."""
    if len(real_col) == 0 or len(syn_col) == 0:
        raise ValidationError("js_similarity needs non-empty columns")
    vocab, (real_codes, syn_codes) = first_occurrence_codes(real_col, syn_col)
    p = np.bincount(real_codes, minlength=vocab.size) / real_codes.size
    q = np.bincount(syn_codes, minlength=vocab.size) / syn_codes.size
    m = (p + q) / 2.0

    def kl(x, y):
        mask = x > 0
        return float(np.sum(x[mask] * np.log2(x[mask] / y[mask])))

    js = 0.5 * kl(p, m) + 0.5 * kl(q, m)
    return float(np.clip(1.0 - js, 0.0, 1.0))


def column_fidelity(real: RawTable, syn: RawTable) -> tuple:
    """Mean per-column similarity; returns (omega_col, per-column dict)."""
    if syn.schema.columns != real.schema.columns:
        raise ValidationError("tables must share a schema")
    per_column = {}
    for name, kind in real.schema.columns:
        if kind == KIND_NUMERIC:
            per_column[name] = wasserstein_similarity(real.column(name),
                                                      syn.column(name))
        else:
            per_column[name] = js_similarity(real.column(name), syn.column(name))
    scores = list(per_column.values())
    return float(np.mean(scores)), per_column


# ---------------------------------------------------------------------------
# Row fidelity


def _pearson(a: np.ndarray, b: np.ndarray) -> float | None:
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        return None
    return float(np.corrcoef(a, b)[0, 1])


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log(p)))


def theil_u(a_values, b_values) -> float:
    """Uncertainty coefficient U(a -> b): how much b reduces surprise in a.

    Natural-log entropies; defined as 1 when a is constant (H(a) = 0).
    """
    if len(a_values) != len(b_values) or len(a_values) == 0:
        raise ValidationError("Theil U needs two equal-length non-empty columns")
    a_vocab, (a,) = first_occurrence_codes(a_values)
    b_vocab, (b,) = first_occurrence_codes(b_values)
    joint = np.bincount(a * b_vocab.size + b, minlength=a_vocab.size * b_vocab.size)
    joint = joint.reshape(a_vocab.size, b_vocab.size).astype(np.float64)
    h_a = _entropy(joint.sum(axis=1))
    if h_a == 0.0:
        return 1.0
    n = joint.sum()
    h_a_given_b = 0.0
    for j in range(joint.shape[1]):
        col = joint[:, j]
        w = col.sum() / n
        if w > 0:
            h_a_given_b += w * _entropy(col)
    return float((h_a - h_a_given_b) / h_a)


def row_fidelity(real: RawTable, syn: RawTable) -> dict:
    """Pairwise association similarity.

    Unordered numeric pairs score 1 - |Pearson_real - Pearson_syn| (clamped);
    ordered categorical pairs score 1 - |U_real - U_syn|. Mixed-type pairs
    are out of scope. Numeric pairs with a constant column are skipped and
    counted. Returns omega_row = None when no pair is evaluable.
    """
    schema = real.schema
    if len(schema.names) < 2:
        raise ValidationError("row fidelity needs at least two columns")
    if syn.schema.columns != schema.columns:
        raise ValidationError("tables must share a schema")
    numeric = schema.numeric_names
    categorical = schema.categorical_names
    scores = []
    skipped = 0
    for i in range(len(numeric)):
        for j in range(i + 1, len(numeric)):
            r = _pearson(np.asarray(real.column(numeric[i]), dtype=np.float64),
                         np.asarray(real.column(numeric[j]), dtype=np.float64))
            s = _pearson(np.asarray(syn.column(numeric[i]), dtype=np.float64),
                         np.asarray(syn.column(numeric[j]), dtype=np.float64))
            if r is None or s is None:
                skipped += 1
                continue
            scores.append(float(np.clip(1.0 - abs(r - s), 0.0, 1.0)))
    for a in categorical:
        for b in categorical:
            if a == b:
                continue
            u_real = theil_u(real.column(a), real.column(b))
            u_syn = theil_u(syn.column(a), syn.column(b))
            scores.append(float(np.clip(1.0 - abs(u_real - u_syn), 0.0, 1.0)))
    omega_row = float(np.mean(scores)) if scores else None
    return {"omega_row": omega_row, "pairs_evaluated": len(scores),
            "pairs_skipped": skipped}


# ---------------------------------------------------------------------------
# Utility


def _encode_features(schema, train: RawTable, test: RawTable) -> tuple:
    """Quantile-transformed numerics + union-vocabulary one-hots."""
    feature_names = [n for n in schema.names if n != schema.target_column]
    blocks_train, blocks_test = [], []
    for name in feature_names:
        if schema.kinds[name] == KIND_NUMERIC:
            qm = fit_quantile_map(train.column(name),
                                  min(100, train.n_rows))
            blocks_train.append(qm.transform(train.column(name))[:, None])
            blocks_test.append(qm.transform(test.column(name))[:, None])
        else:
            vocab, (train_codes, test_codes) = first_occurrence_codes(
                train.column(name), test.column(name))
            for blocks, codes in ((blocks_train, train_codes), (blocks_test, test_codes)):
                onehot = np.zeros((codes.size, vocab.size))
                onehot[np.arange(codes.size), codes] = 1.0
                blocks.append(onehot)
    return np.hstack(blocks_train), np.hstack(blocks_test)


def utility_score(syn_train: RawTable, real_test: RawTable, seed: int = 0) -> dict:
    """Train-on-synthetic, test-on-real accuracy, averaged over classifiers."""
    schema = syn_train.schema
    if schema.target_column is None:
        raise ValidationError("utility needs schema.target_column")
    if schema.kinds[schema.target_column] != KIND_CATEGORICAL:
        raise ValidationError("utility target must be a categorical column")
    if real_test.schema.columns != schema.columns:
        raise ValidationError("tables must share a schema")

    labels, (y_train, y_test) = first_occurrence_codes(
        syn_train.column(schema.target_column),
        real_test.column(schema.target_column))
    x_train, x_test = _encode_features(schema, syn_train, real_test)

    accuracies: dict = {}
    skipped: list = []
    if np.unique(y_train).size < 2:
        skipped = [name for name, _ in builtin_classifiers(seed)]
    else:
        for name, model in builtin_classifiers(seed):
            model.fit(x_train, y_train, labels.size)
            accuracies[name] = accuracy(y_test, model.predict(x_test))
    phi = float(np.mean(list(accuracies.values()))) if accuracies else None
    counts = np.bincount(y_test, minlength=labels.size)
    return {"phi": phi, "accuracies": accuracies, "skipped": skipped,
            "majority_rate": float(counts.max() / counts.sum()),
            "n_train": syn_train.n_rows, "n_test": real_test.n_rows}


# ---------------------------------------------------------------------------
# Full report


@dataclass
class MetricsReport:
    """All scores for one (real, synthetic) comparison.

    ``privacy_risk`` is the attack-success aggregate (lower = more private);
    ``privacy_protection`` is its complement. Serialization has stable key
    order, so equal reports produce identical bytes.
    """

    fidelity: dict
    utility: dict
    privacy: dict
    metadata: dict = field(default_factory=dict)

    @property
    def omega(self) -> float:
        return self.fidelity["omega"]

    @property
    def phi(self) -> float | None:
        return self.utility["phi"]

    @property
    def privacy_risk(self) -> float:
        return self.privacy["pi"]

    def to_dict(self) -> dict:
        return {"fidelity": self.fidelity, "utility": self.utility,
                "privacy": self.privacy, "metadata": self.metadata}

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        return cls(d["fidelity"], d["utility"], d["privacy"], d.get("metadata", {}))


def evaluate_tables(real: RawTable, syn: RawTable, seed: int = 0,
                    n_attacks: int = DEFAULT_N_ATTACKS,
                    test_fraction: float = DEFAULT_TEST_FRACTION,
                    metadata: dict | None = None) -> MetricsReport:
    """Score a synthetic table against its real counterpart.

    The real table is split (seeded) into a held-out test fraction for the
    utility metric; the synthetic training slice is truncated to the size of
    the real training complement. Fidelity and the attacks always see the
    full tables. Seed streams are separated per evaluator so attack noise is
    independent of the utility split.
    """
    if syn.schema.columns != real.schema.columns:
        raise ValidationError("real and synthetic tables must share a schema")
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError("test_fraction must lie in (0, 1)")
    if n_attacks < 1:
        raise ValidationError("n_attacks must be >= 1")
    if seed < 0:
        raise ValidationError("seed must be non-negative")

    omega_col, per_column = column_fidelity(real, syn)
    if len(real.schema.names) >= 2:
        row = row_fidelity(real, syn)
    else:
        row = {"omega_row": None, "pairs_evaluated": 0, "pairs_skipped": 0}
    omega_row = row["omega_row"]
    omega = omega_col if omega_row is None else (omega_col + omega_row) / 2.0
    fidelity = {"omega": omega, "omega_col": omega_col, "omega_row": omega_row,
                "per_column": per_column,
                "pairs_evaluated": row["pairs_evaluated"],
                "pairs_skipped": row["pairs_skipped"]}

    if real.schema.target_column is not None:
        split_rng = np.random.default_rng([seed, 3])
        perm = split_rng.permutation(real.n_rows)
        n_test = max(1, int(round(test_fraction * real.n_rows)))
        test_idx = np.sort(perm[:n_test])
        n_train = real.n_rows - n_test
        syn_perm = split_rng.permutation(syn.n_rows)
        syn_idx = np.sort(syn_perm[: min(n_train, syn.n_rows)])
        utility = utility_score(syn.select(syn_idx), real.select(test_idx),
                                seed=seed)
    else:
        utility = {"phi": None, "accuracies": {}, "skipped": [],
                   "majority_rate": None, "n_train": 0, "n_test": 0}

    sor = singling_out_risk(real, syn, n_attacks, np.random.default_rng([seed, 0]))
    lr = linkability_risk(real, syn, n_attacks, np.random.default_rng([seed, 1]))
    ir = inference_risk(real, syn, n_attacks, np.random.default_rng([seed, 2]))
    pi = privacy_score(sor["risk"], lr["risk"], ir["risk"])
    privacy = {
        "pi": pi,
        "protection": 1.0 - pi,
        "n_attacks": n_attacks,
        "singling_out": {"risk": sor["risk"], "ci": list(sor["ci"]),
                         "raw": sor["raw"], "baseline": sor["baseline"],
                         "warning": sor["warning"]},
        "linkability": {"risk": lr["risk"], "raw": lr["raw"],
                        "baseline": lr["baseline"]},
        "inference": {"risk": ir["risk"], "per_column": ir["per_column"]},
    }

    meta = {"seed": seed, "n_real": real.n_rows, "n_syn": syn.n_rows}
    if metadata:
        meta.update(metadata)
    return MetricsReport(fidelity, utility, privacy, meta)
