import json
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from fedsynth import classifiers, metrics
from fedsynth.classifiers import (LOGISTIC_ITERS, LOGISTIC_L2, LOGISTIC_LR, MLP_HIDDEN,
                                  MLP_ITERS, MLP_LR, DecisionTreeGini, LogisticRegressionGD,
                                  MlpClassifierAdam, _row_max, _softmax, accuracy,
                                  builtin_classifiers)
from fedsynth.data import RawTable, TabularSchema, first_occurrence_codes, write_csv
from fedsynth.errors import DivergenceError, ValidationError
from fedsynth.experiment import cmd_evaluate
from fedsynth.fixtures import (INDEPENDENT_SCHEMA, gaussian_mixture_table,
                               independent_table, separable_table,
                               shuffle_column)
from fedsynth.metrics import (MetricsReport, _encode_features, column_fidelity,
                              evaluate_tables, js_similarity, row_fidelity, theil_u,
                              utility_score, wasserstein_similarity)
from fedsynth.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, _layout, adam_step
from fedsynth.store import canonical_json

# Frozen oracle: 1 - JS2((1/2, 1/2), (1, 0)) with base-2 logs.
JS_HALF_VS_POINT = 0.6887218755408672


# ---------------------------------------------------------------------------
# Column fidelity


def test_wasserstein_similarity_identical_is_one():
    x = np.random.default_rng(0).normal(size=500)
    assert wasserstein_similarity(x, x) == 1.0


def test_wasserstein_similarity_extreme_point_masses():
    assert wasserstein_similarity([0.0, 0.0], [1.0, 1.0]) == 0.0
    assert wasserstein_similarity([2.0, 2.0], [2.0, 2.0]) == 1.0


def test_wasserstein_similarity_half_shift():
    # ranges [0,1] and [1,2]: joint range [0,2], W1 = 1/2 after normalizing
    a = np.linspace(0.0, 1.0, 2000)
    b = np.linspace(1.0, 2.0, 2000)
    assert wasserstein_similarity(a, b) == pytest.approx(0.5, abs=1e-3)


def test_wasserstein_matches_scipy_after_joint_normalization():
    rng = np.random.default_rng(1)
    a = rng.normal(size=400)
    b = rng.normal(1.0, 2.0, size=300)
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    expected = 1.0 - stats.wasserstein_distance((a - lo) / (hi - lo),
                                                (b - lo) / (hi - lo))
    assert wasserstein_similarity(a, b) == pytest.approx(expected, rel=1e-12)


def test_js_similarity_identical_is_one():
    col = ["a", "b", "a", "c"]
    assert js_similarity(col, col) == 1.0


def test_js_similarity_frozen_half_vs_point():
    got = js_similarity(["u", "v"], ["u", "u"])
    assert got == pytest.approx(JS_HALF_VS_POINT, rel=1e-12)


def test_js_similarity_disjoint_supports_is_zero():
    assert js_similarity(["a", "a"], ["b", "b"]) == 0.0


def test_js_similarity_symmetric():
    a = ["x"] * 7 + ["y"] * 3
    b = ["x"] * 2 + ["y"] * 8
    assert js_similarity(a, b) == pytest.approx(js_similarity(b, a), rel=1e-15)


def test_column_fidelity_self_is_exactly_one():
    table = gaussian_mixture_table(300, seed=2)
    omega_col, per_column = column_fidelity(table, table)
    assert omega_col == 1.0
    assert all(v == 1.0 for v in per_column.values())


def test_column_fidelity_mean_is_exact():
    real = gaussian_mixture_table(200, seed=3)
    syn = gaussian_mixture_table(200, seed=4)
    omega_col, per_column = column_fidelity(real, syn)
    manual = np.mean([per_column[n] for n in real.schema.names])
    assert omega_col == pytest.approx(manual, abs=1e-15)


def test_column_fidelity_requires_matching_schema():
    a = gaussian_mixture_table(50, seed=0)
    b = separable_table(50, seed=0)
    with pytest.raises(ValidationError):
        column_fidelity(a, b)


# ---------------------------------------------------------------------------
# Row fidelity


def test_theil_u_self_is_one():
    vals = ["a", "b", "b", "c", "a", "c", "c"]
    assert theil_u(vals, vals) == 1.0


def test_theil_u_constant_first_column_is_one():
    assert theil_u(["k"] * 6, ["a", "b", "a", "b", "a", "b"]) == 1.0


def test_theil_u_independent_near_zero():
    rng = np.random.default_rng(5)
    a = rng.choice(["a", "b"], size=20_000)
    b = rng.choice(["x", "y", "z"], size=20_000)
    assert theil_u(a, b) < 0.005


def test_theil_u_is_directional():
    # b determines a, but a only partly determines b
    a = ["p", "p", "q", "q"]
    b = ["1", "2", "3", "4"]
    assert theil_u(a, b) == 1.0
    assert theil_u(b, a) < 1.0


def test_row_fidelity_self_is_exactly_one():
    table = gaussian_mixture_table(250, seed=6)
    row = row_fidelity(table, table)
    assert row["omega_row"] == 1.0
    # only the x-y numeric pair is in scope (mixed-type pairs are not scored)
    assert row["pairs_evaluated"] == 1
    assert row["pairs_skipped"] == 0


def test_row_fidelity_pair_bookkeeping_mixed_table():
    table = independent_table(150, seed=7)
    row = row_fidelity(table, table)
    # 3 numeric -> 3 unordered pairs; 2 categorical -> 2 ordered pairs
    assert row["pairs_evaluated"] == 5
    assert row["pairs_skipped"] == 0
    assert row["omega_row"] == 1.0


def test_row_fidelity_constant_numeric_column_skipped():
    table = gaussian_mixture_table(100, seed=6)
    from fedsynth.data import RawTable
    cols = {n: c.copy() for n, c in table.columns.items()}
    cols["y"][:] = 2.5
    flat = RawTable(table.schema, cols)
    row = row_fidelity(flat, flat)
    assert row["pairs_evaluated"] == 0
    assert row["pairs_skipped"] == 1
    assert row["omega_row"] is None


def test_row_fidelity_detects_broken_correlation():
    table = gaussian_mixture_table(2000, seed=8)
    broken = shuffle_column(table, "y", seed=9)
    row_self = row_fidelity(table, table)
    row_broken = row_fidelity(table, broken)
    assert row_broken["omega_row"] < row_self["omega_row"] - 0.1


def test_row_fidelity_none_when_no_pairs():
    table = separable_table(100, seed=0)
    # u, v numeric + label categorical -> one numeric pair, so drop a column
    sub_schema_cols = [c for c in table.schema.names if c != "v"]
    from fedsynth.data import RawTable, TabularSchema, first_occurrence_codes
    schema = TabularSchema(columns=(("u", "numeric"), ("label", "categorical")),
                           target_column="label")
    sub = RawTable(schema, {"u": table.column("u"),
                            "label": table.column("label")})
    row = row_fidelity(sub, sub)
    assert row["omega_row"] is None
    assert row["pairs_evaluated"] == 0


# ---------------------------------------------------------------------------
# Classifiers


def _split_xy(table, target):
    names = [n for n in table.schema.names if n != target]
    X = np.column_stack([table.column(n) for n in names])
    labels = {v: i for i, v in enumerate(dict.fromkeys(table.column(target)))}
    y = np.array([labels[v] for v in table.column(target)], dtype=np.int64)
    return X, y, len(labels)


def test_logistic_regression_separable():
    table = separable_table(400, seed=1)
    X, y, k = _split_xy(table, "label")
    model = LogisticRegressionGD().fit(X[:300], y[:300], k)
    assert accuracy(y[300:], model.predict(X[300:])) >= 0.95


def test_logistic_regression_deterministic():
    table = separable_table(200, seed=2)
    X, y, k = _split_xy(table, "label")
    p1 = LogisticRegressionGD().fit(X, y, k).predict(X)
    p2 = LogisticRegressionGD().fit(X, y, k).predict(X)
    np.testing.assert_array_equal(p1, p2)


def test_decision_tree_learns_axis_aligned_rectangle():
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, size=(400, 2))
    y = ((X[:, 0] > 0.3) & (X[:, 1] < 0.6)).astype(np.int64)
    model = DecisionTreeGini(max_depth=3).fit(X, y, 2)
    assert accuracy(y, model.predict(X)) >= 0.99


def test_decision_tree_deterministic():
    rng = np.random.default_rng(30)
    X = rng.uniform(size=(300, 4))
    y = rng.integers(0, 3, size=300)
    p1 = DecisionTreeGini().fit(X, y, 3).predict(X)
    p2 = DecisionTreeGini().fit(X.copy(), y.copy(), 3).predict(X)
    np.testing.assert_array_equal(p1, p2)


def test_decision_tree_depth_limit_respected():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(200, 3))
    y = rng.integers(0, 2, size=200)
    stump = DecisionTreeGini(max_depth=0).fit(X, y, 2)
    # a depth-0 tree is a single leaf: constant prediction
    assert np.unique(stump.predict(X)).size == 1


def test_mlp_separable_and_seeded():
    table = separable_table(300, seed=5)
    X, y, k = _split_xy(table, "label")
    m1 = MlpClassifierAdam(seed=0).fit(X, y, k)
    m2 = MlpClassifierAdam(seed=0).fit(X, y, k)
    np.testing.assert_array_equal(m1.predict(X), m2.predict(X))
    assert accuracy(y, m1.predict(X)) >= 0.95


def _mlp_fit_reference(X, y, n_classes, seed):
    """MlpClassifierAdam.fit as fresh-array expressions: the oracle for the
    in-place loop, which must match it bit for bit."""
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    rng = np.random.default_rng(seed)
    n, d = X.shape
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    w1 = rng.uniform(-1.0, 1.0, size=(d, MLP_HIDDEN)) * np.sqrt(6.0 / d)
    b1 = np.zeros(MLP_HIDDEN)
    w2 = rng.uniform(-1.0, 1.0, size=(MLP_HIDDEN, n_classes)) * np.sqrt(6.0 / MLP_HIDDEN)
    b2 = np.zeros(n_classes)
    ms = [np.zeros_like(p) for p in (w1, b1, w2, b2)]
    vs = [np.zeros_like(p) for p in (w1, b1, w2, b2)]
    for step in range(1, MLP_ITERS + 1):
        z1 = X @ w1 + b1
        h1 = np.maximum(z1, 0.0)
        probs = _softmax(h1 @ w2 + b2)
        d_logits = (probs - onehot) / n
        g_w2 = h1.T @ d_logits
        g_b2 = d_logits.sum(axis=0)
        d_h1 = (d_logits @ w2.T) * (z1 > 0)
        g_w1 = X.T @ d_h1
        g_b1 = d_h1.sum(axis=0)
        params = [w1, b1, w2, b2]
        grads = [g_w1, g_b1, g_w2, g_b2]
        for k in range(4):
            ms[k] = beta1 * ms[k] + (1 - beta1) * grads[k]
            vs[k] = beta2 * vs[k] + (1 - beta2) * grads[k] * grads[k]
            m_hat = ms[k] / (1 - beta1 ** step)
            v_hat = vs[k] / (1 - beta2 ** step)
            params[k] -= MLP_LR * m_hat / (np.sqrt(v_hat) + eps)
        w1, b1, w2, b2 = params
    return w1, b1, w2, b2


@pytest.mark.parametrize("table", [
    gaussian_mixture_table(300, seed=3),  # 4 features, 3 classes
    RawTable(TabularSchema(INDEPENDENT_SCHEMA.columns, target_column="grade"),
             independent_table(300, seed=4).columns),  # 40-level one-hots
], ids=["narrow", "wide"])
def test_mlp_fit_matches_the_reference_loop_bit_for_bit(table):
    schema = table.schema
    X = _encode_features(schema, table, table)[0]
    labels = {v: i for i, v in enumerate(dict.fromkeys(table.column(schema.target_column)))}
    y = np.array([labels[v] for v in table.column(schema.target_column)])
    got = MlpClassifierAdam(seed=7).fit(X, y, len(labels)).params
    want = _mlp_fit_reference(X, y, len(labels), seed=7)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_mlp_fit_runs_nn_adam_on_one_parameter_buffer(monkeypatch):
    """One adam_step call per iteration, always on the same vector, and the
    fitted W1, b1, W2, b2 are views of it."""
    flats = []

    def spy(flat, state, g, lr):
        flats.append(flat)
        return adam_step(flat, state, g, lr)

    monkeypatch.setattr(classifiers, "adam_step", spy)
    X, y, k = _split_xy(separable_table(120, seed=2), "label")
    params = MlpClassifierAdam(seed=0).fit(X, y, k).params
    assert len(flats) == MLP_ITERS and all(f is flats[0] for f in flats)
    assert len(params) == 4 and all(np.shares_memory(p, flats[0]) for p in params)


def _softmax_np_max(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _logistic_fit_np_max(X, y, n_classes):
    """LogisticRegressionGD.fit with np.max's row maximum: its oracle."""
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    n, d = Xb.shape
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    W = np.zeros((d, n_classes))
    for _ in range(LOGISTIC_ITERS):
        probs = _softmax_np_max(Xb @ W)
        grad = Xb.T @ (probs - onehot) / n + LOGISTIC_L2 * W
        W -= LOGISTIC_LR * grad
    return W


def _mlp_fit_three_buffers(X, y, n_classes, seed):
    """MlpClassifierAdam.fit with separate z1, h1 and d_h1 buffers and
    np.max's row maximum: the oracle for the one-buffer loop."""
    rng = np.random.default_rng(seed)
    n, d = X.shape
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    manifest = {"weights": [(d, MLP_HIDDEN), (MLP_HIDDEN, n_classes)], "embeddings": []}
    flat = np.zeros((d + 1) * MLP_HIDDEN + (MLP_HIDDEN + 1) * n_classes)
    grad = np.empty_like(flat)
    (w1, w2), (b1, b2), _ = _layout(flat, manifest)
    (g_w1, g_w2), (g_b1, g_b2), _ = _layout(grad, manifest)
    w1[...] = rng.uniform(-1.0, 1.0, size=(d, MLP_HIDDEN)) * np.sqrt(6.0 / d)
    w2[...] = rng.uniform(-1.0, 1.0, size=(MLP_HIDDEN, n_classes)) * np.sqrt(6.0 / MLP_HIDDEN)
    state = AdamState.zeros(flat.size)
    z1, h1, d_h1 = (np.empty((n, MLP_HIDDEN)) for _ in range(3))
    relu = np.empty((n, MLP_HIDDEN), dtype=bool)
    logits = np.empty((n, n_classes))
    row = np.empty((n, 1))
    for _ in range(MLP_ITERS):
        np.matmul(X, w1, out=z1)
        z1 += b1
        np.maximum(z1, 0.0, out=h1)
        np.matmul(h1, w2, out=logits)
        logits += b2
        np.max(logits, axis=1, keepdims=True, out=row)
        logits -= row
        np.exp(logits, out=logits)
        np.sum(logits, axis=1, keepdims=True, out=row)
        logits /= row
        logits -= onehot
        logits /= n
        np.matmul(h1.T, logits, out=g_w2)
        np.sum(logits, axis=0, out=g_b2)
        np.matmul(logits, w2.T, out=d_h1)
        np.greater(z1, 0, out=relu)
        d_h1 *= relu
        np.matmul(X.T, d_h1, out=g_w1)
        np.sum(d_h1, axis=0, out=g_b1)
        adam_step(flat, state, grad, MLP_LR)
    return w1, b1, w2, b2


def _wide_xy(n_rows, seed):
    table = RawTable(TabularSchema(INDEPENDENT_SCHEMA.columns, target_column="grade"),
                     independent_table(n_rows, seed=seed).columns)
    X = _encode_features(table.schema, table, table)[0]
    y = first_occurrence_codes(table.column("grade"))[1][0]
    return X, y, int(y.max()) + 1


def _zeroed_rows(X):
    """X with every third row all zeros, so that hidden pre-activations are
    exactly b1 there, ±0 before b1 first moves."""
    X = X.copy()
    X[::3] = 0.0
    X[1::6] = -0.0
    return X


@pytest.mark.parametrize("xy", [
    _split_xy(gaussian_mixture_table(300, seed=3), "segment"),  # 2 features, 3 classes
    _wide_xy(300, seed=4),  # 40-level one-hots, 12 classes
    (_zeroed_rows(_wide_xy(240, seed=5)[0]),) + _wide_xy(240, seed=5)[1:],
], ids=["narrow", "wide", "zero-rows"])
def test_classifier_fits_bit_equal_their_np_max_and_three_buffer_oracles(xy):
    X, y, k = xy
    assert np.array_equal(LogisticRegressionGD().fit(X, y, k).coef,
                          _logistic_fit_np_max(X, y, k))
    got = MlpClassifierAdam(seed=3).fit(X, y, k).params
    want = _mlp_fit_three_buffers(X, y, k, seed=3)
    assert all(np.array_equal(g.view(np.uint64), w.view(np.uint64))
               for g, w in zip(got, want))


_EDGE_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf, 5e-324])


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=40)
                  .filter(lambda shape: shape[1] >= 1),
                  elements=st.one_of(_EDGE_VALUES, st.floats(width=64))))
def test_row_max_equals_np_max(a):
    """Bit for bit, except that a row whose maximum is zero may get either
    zero; after the softmax's subtraction and exp, not even that differs."""
    got, want = _row_max(a), np.max(a, axis=1, keepdims=True)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    nonzero = ~nan & (want != 0)
    assert np.array_equal(got[nonzero].view(np.uint64), want[nonzero].view(np.uint64))
    assert np.all(got[want == 0] == 0)
    with np.errstate(invalid="ignore", over="ignore"):
        e_got, e_want = np.exp(a - got), np.exp(a - want)
    numbers = ~np.isnan(e_want)
    assert np.array_equal(np.isnan(e_got), ~numbers)
    assert np.array_equal(e_got[numbers].view(np.uint64), e_want[numbers].view(np.uint64))


def test_builtin_classifiers_names():
    names = [name for name, _ in builtin_classifiers(0)]
    assert names == ["logistic_regression", "decision_tree", "mlp"]


def test_accuracy_basic():
    assert accuracy(np.array([1, 0, 1, 1]), np.array([1, 1, 1, 0])) == 0.5


# ---------------------------------------------------------------------------
# Utility score


def test_utility_separable_self_train_high():
    table = separable_table(600, seed=11)
    out = utility_score(table.select(np.arange(480)),
                        table.select(np.arange(480, 600)), seed=0)
    assert out["phi"] >= 0.95
    assert set(out["accuracies"]) == {"logistic_regression", "decision_tree",
                                      "mlp"}
    assert out["phi"] == pytest.approx(
        np.mean(list(out["accuracies"].values())), abs=1e-15)


def test_utility_label_independent_data_near_majority():
    """When test labels carry no feature signal, train-on-anything accuracy
    concentrates near the majority rate."""
    table = separable_table(2000, seed=12)
    shuffled = shuffle_column(table, "label", seed=13)
    out = utility_score(shuffled.select(np.arange(1000)),
                        shuffled.select(np.arange(1000, 2000)), seed=0)
    assert abs(out["phi"] - out["majority_rate"]) <= 0.06


def test_utility_single_class_train_skips():
    table = separable_table(100, seed=14)
    mask = np.flatnonzero(table.column("label") == table.column("label")[0])
    out = utility_score(table.select(mask), table, seed=0)
    assert out["phi"] is None
    assert len(out["skipped"]) == 3


def test_utility_requires_categorical_target():
    table = gaussian_mixture_table(80, seed=15)
    from fedsynth.data import RawTable, TabularSchema, first_occurrence_codes
    no_target = TabularSchema(columns=table.schema.columns)
    stripped = RawTable(no_target, dict(table.columns))
    with pytest.raises(ValidationError):
        utility_score(stripped, stripped)


# ---------------------------------------------------------------------------
# Full report


def test_evaluate_self_omega_exactly_one():
    table = gaussian_mixture_table(250, seed=16)
    report = evaluate_tables(table, table, seed=0, n_attacks=25)
    assert report.omega == 1.0
    assert report.fidelity["omega_col"] == 1.0
    assert report.fidelity["omega_row"] == 1.0


def test_evaluate_aggregates_are_exact_means():
    real = gaussian_mixture_table(220, seed=17)
    syn = gaussian_mixture_table(220, seed=18)
    report = evaluate_tables(real, syn, seed=1, n_attacks=30)
    f = report.fidelity
    assert f["omega"] == pytest.approx(
        (f["omega_col"] + f["omega_row"]) / 2.0, abs=1e-15)
    p = report.privacy
    np.testing.assert_allclose(
        p["pi"], np.mean([p["singling_out"]["risk"], p["linkability"]["risk"],
                          p["inference"]["risk"]]), atol=1e-15)
    assert p["protection"] == pytest.approx(1.0 - p["pi"], abs=1e-15)


def test_evaluate_deterministic_given_seed():
    real = gaussian_mixture_table(150, seed=19)
    syn = gaussian_mixture_table(150, seed=20)
    r1 = evaluate_tables(real, syn, seed=5, n_attacks=40)
    r2 = evaluate_tables(real, syn, seed=5, n_attacks=40)
    assert canonical_json(r1.to_dict()) == canonical_json(r2.to_dict())


def test_report_json_roundtrip():
    real = gaussian_mixture_table(120, seed=21)
    report = evaluate_tables(real, real, seed=2, n_attacks=20)
    back = MetricsReport.from_dict(json.loads(canonical_json(report.to_dict())))
    assert canonical_json(back.to_dict()) == canonical_json(report.to_dict())
    assert back.omega == report.omega
    assert back.privacy_risk == report.privacy_risk


def test_evaluate_rejects_schema_mismatch_and_bad_fraction():
    a = gaussian_mixture_table(60, seed=22)
    b = separable_table(60, seed=23)
    with pytest.raises(ValidationError):
        evaluate_tables(a, b)
    with pytest.raises(ValidationError):
        evaluate_tables(a, a, test_fraction=1.5)


# ---------------------------------------------------------------------------
# The utility MLP's worker thread


def _mlp_threads() -> list:
    return [t for t in threading.enumerate() if t.name.startswith("fedsynth-mlp")]


def _scored_pair(n_rows=300):
    schema = TabularSchema(INDEPENDENT_SCHEMA.columns, target_column="grade")
    return (RawTable(schema, independent_table(n_rows, seed=31).columns),
            RawTable(schema, independent_table(n_rows, seed=32).columns))


def test_reports_are_byte_identical_with_and_without_the_mlp_worker(monkeypatch, tmp_path):
    """With two usable CPUs the MLP fits on a worker thread, and is still
    fitting when this thread starts the attacks; with one it fits here after
    them and no thread starts. evaluate_tables and cmd_evaluate give the
    same report bytes either way, and leave no worker thread."""
    real, syn = _scored_pair()
    paths = [str(tmp_path / name) for name in ("real.csv", "syn.csv", "schema.json")]
    write_csv(paths[0], real)
    write_csv(paths[1], syn)
    real.schema.save(paths[2])
    fit, singling_out = MlpClassifierAdam.fit, metrics.singling_out_risk
    attacks_started = threading.Event()
    fit_threads = []

    def tracked_fit(self, *args):
        fit_threads.append((threading.current_thread(), threading.active_count()))
        assert attacks_started.wait(10)
        return fit(self, *args)

    def tracked_singling_out(*args):
        attacks_started.set()
        return singling_out(*args)

    monkeypatch.setattr(MlpClassifierAdam, "fit", tracked_fit)
    monkeypatch.setattr(metrics, "singling_out_risk", tracked_singling_out)
    reports = {}
    for n_cpus in (1, 2):
        monkeypatch.setattr(metrics, "_usable_cpus", lambda: n_cpus)
        fit_threads.clear()
        threads_before = threading.active_count()
        attacks_started.clear()
        report = evaluate_tables(real, syn, seed=4, n_attacks=50)
        out = tmp_path / f"report-{n_cpus}.json"
        attacks_started.clear()
        cmd_evaluate(*paths, seed=4, n_attacks=50, out_path=str(out))
        reports[n_cpus] = (canonical_json(report.to_dict()), out.read_bytes())
        if n_cpus == 1:
            assert fit_threads == [(threading.main_thread(), threads_before)] * 2
        else:
            assert [t.name.startswith("fedsynth-mlp") for t, _ in fit_threads] == [True] * 2
        assert _mlp_threads() == []
    assert reports[1] == reports[2]
    assert list(report.utility["accuracies"]) == ["logistic_regression", "decision_tree",
                                                  "mlp"]


def test_failing_mlp_fit_raises_its_error_after_this_threads_work(monkeypatch):
    """The worker's DivergenceError reaches the caller of evaluate_tables only
    once this thread has run its last attack, and no worker thread is left."""
    monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)
    error = DivergenceError("mlp fit diverged")
    inference, finished = metrics.inference_risk, []

    def failing_fit(self, *args):
        raise error

    def tracked_inference(*args):
        out = inference(*args)
        finished.append(threading.current_thread() is threading.main_thread())
        return out

    monkeypatch.setattr(MlpClassifierAdam, "fit", failing_fit)
    monkeypatch.setattr(metrics, "inference_risk", tracked_inference)
    with pytest.raises(DivergenceError) as info:
        evaluate_tables(*_scored_pair(), seed=1, n_attacks=30)
    assert info.value is error
    assert finished == [True]
    assert _mlp_threads() == []


def test_callers_error_raises_after_the_mlp_fit_returns(monkeypatch):
    """Column fidelity fails while the MLP is still fitting: evaluate_tables
    raises fidelity's error only after the fit has returned."""
    monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)
    raised, returned = threading.Event(), threading.Event()
    error = ValidationError("fidelity failed")
    fit = MlpClassifierAdam.fit

    def slow_fit(self, *args):
        assert raised.wait(10)
        time.sleep(0.05)
        out = fit(self, *args)
        returned.set()
        return out

    def failing_fidelity(real, syn):
        raised.set()
        raise error

    monkeypatch.setattr(MlpClassifierAdam, "fit", slow_fit)
    monkeypatch.setattr(metrics, "column_fidelity", failing_fidelity)
    with pytest.raises(ValidationError) as info:
        evaluate_tables(*_scored_pair(), seed=1, n_attacks=30)
    assert info.value is error
    assert returned.is_set()
    assert _mlp_threads() == []


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("one_class", [False, True], ids=["scored", "skipped"])
def test_utility_score_calls_alongside_once_on_this_thread(monkeypatch, n_cpus, one_class):
    monkeypatch.setattr(metrics, "_usable_cpus", lambda: n_cpus)
    table = separable_table(200, seed=14)
    labels = table.column("label")
    train = table.select(np.flatnonzero(labels == labels[0])) if one_class else table
    calls = []
    out = utility_score(train, table, alongside=lambda: calls.append(threading.current_thread()))
    assert calls == [threading.main_thread()]
    assert out == utility_score(train, table)
    assert (out["phi"] is None) == one_class
