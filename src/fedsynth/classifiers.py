"""Self-contained classifiers for train-on-synthetic utility scoring.

Three deterministic built-ins: multinomial logistic regression (full-batch
gradient descent from zero init), a CART-style decision tree (Gini, bounded
depth), and a one-hidden-layer MLP (seeded init, full-batch Adam). They all
consume dense float feature matrices and integer class labels.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .nn import AdamState, _layout, adam_step

LOGISTIC_LR = 0.5
LOGISTIC_ITERS = 400
LOGISTIC_L2 = 1e-4
TREE_MIN_SAMPLES_SPLIT = 2
MLP_HIDDEN = 64
MLP_ITERS = 300
MLP_LR = 1e-2


def _row_max(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.max(a, axis=1, keepdims=True)``, one column at a time.

    Over the few columns of a class table a pass per column is faster than
    np.max's loop per row. A maximum rounds nothing, so each row's value is
    np.max's, except that a row whose largest values are ±0 may get the
    other zero; ``x - m`` then differs only in the sign of a zero, which
    the softmax's ``exp`` maps to 1 either way.
    """
    if out is None:
        out = np.empty((a.shape[0], 1), dtype=a.dtype)
    out[...] = a[:, :1]
    for j in range(1, a.shape[1]):
        np.maximum(out, a[:, j:j + 1], out=out)
    return out


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - _row_max(logits)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class LogisticRegressionGD:
    """Softmax regression trained by plain gradient descent (LOGISTIC_* settings).

    Zero initialization makes training deterministic without a seed.
    """

    def __init__(self):
        self.coef = None

    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int) -> "LogisticRegressionGD":
        Xb = np.hstack([X, np.ones((X.shape[0], 1))])
        n, d = Xb.shape
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y] = 1.0
        W = np.zeros((d, n_classes))
        for _ in range(LOGISTIC_ITERS):
            probs = _softmax(Xb @ W)
            grad = Xb.T @ (probs - onehot) / n + LOGISTIC_L2 * W
            W -= LOGISTIC_LR * grad
        self.coef = W
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        Xb = np.hstack([X, np.ones((X.shape[0], 1))])
        return np.argmax(Xb @ self.coef, axis=1)


class DecisionTreeGini:
    """CART classifier: best Gini split per node, depth-bounded.

    Ties prefer the earliest feature and the lowest threshold, so fitting is
    deterministic. Thresholds are midpoints between consecutive distinct
    sorted feature values.
    """

    def __init__(self, max_depth: int = 8):
        self.max_depth = max_depth
        self.tree = None
        self.n_classes = None

    @staticmethod
    def _gini_from_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            p = counts / totals[:, None]
        g = 1.0 - np.nansum(p * p, axis=1)
        g[totals == 0] = 0.0
        return g

    def _best_split(self, X: np.ndarray, y: np.ndarray):
        n, n_feat = X.shape
        parent_counts = np.bincount(y, minlength=self.n_classes)
        parent_gini = 1.0 - np.sum((parent_counts / n) ** 2)
        best = None  # (weighted_gini, feature, threshold)
        for f in range(n_feat):
            order = np.argsort(X[:, f], kind="stable")
            xs = X[order, f]
            ys = y[order]
            cut = np.flatnonzero(xs[:-1] < xs[1:])
            if cut.size == 0:
                continue
            onehot = np.zeros((n, self.n_classes))
            onehot[np.arange(n), ys] = 1.0
            cum = np.cumsum(onehot, axis=0)
            left = cum[cut]
            right = parent_counts[None, :] - left
            n_left = (cut + 1).astype(np.float64)
            n_right = n - n_left
            g_left = self._gini_from_counts(left, n_left)
            g_right = self._gini_from_counts(right, n_right)
            weighted = (n_left * g_left + n_right * g_right) / n
            k = int(np.argmin(weighted))
            if best is None or weighted[k] < best[0] - 1e-15:
                best = (float(weighted[k]), f, float((xs[cut[k]] + xs[cut[k] + 1]) / 2.0))
        if best is None or parent_gini - best[0] <= 1e-12:
            return None
        return best[1], best[2]

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int):
        counts = np.bincount(y, minlength=self.n_classes)
        majority = int(np.argmax(counts))
        if (depth >= self.max_depth or y.size < TREE_MIN_SAMPLES_SPLIT
                or np.count_nonzero(counts) == 1):
            return ("leaf", majority)
        split = self._best_split(X, y)
        if split is None:
            return ("leaf", majority)
        feature, threshold = split
        mask = X[:, feature] <= threshold
        left = self._build(X[mask], y[mask], depth + 1)
        right = self._build(X[~mask], y[~mask], depth + 1)
        return ("node", feature, threshold, left, right)

    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int) -> "DecisionTreeGini":
        self.n_classes = n_classes
        self.tree = self._build(np.asarray(X, dtype=np.float64),
                                np.asarray(y, dtype=np.int64), 0)
        return self

    def _predict_one(self, x: np.ndarray) -> int:
        node = self.tree
        while node[0] == "node":
            _, feature, threshold, left, right = node
            node = left if x[feature] <= threshold else right
        return node[1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.array([self._predict_one(row) for row in np.asarray(X)],
                        dtype=np.int64)


class MlpClassifierAdam:
    """One hidden ReLU layer (MLP_HIDDEN wide), softmax output, full-batch Adam."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.params = None

    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int) -> "MlpClassifierAdam":
        rng = np.random.default_rng(self.seed)
        n, d = X.shape
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y] = 1.0
        # parameters and gradients are views of one buffer each, in the
        # denoiser's layout, so that one adam_step call updates all four
        manifest = {"weights": [(d, MLP_HIDDEN), (MLP_HIDDEN, n_classes)], "embeddings": []}
        flat = np.zeros((d + 1) * MLP_HIDDEN + (MLP_HIDDEN + 1) * n_classes)
        grad = np.empty_like(flat)
        (w1, w2), (b1, b2), _ = _layout(flat, manifest)
        (g_w1, g_w2), (g_b1, g_b2), _ = _layout(grad, manifest)
        w1[...] = rng.uniform(-1.0, 1.0, size=(d, MLP_HIDDEN)) * np.sqrt(6.0 / d)
        w2[...] = rng.uniform(-1.0, 1.0, size=(MLP_HIDDEN, n_classes)) * np.sqrt(6.0 / MLP_HIDDEN)
        state = AdamState.zeros(flat.size)
        # Every (n, ·) array is allocated once and updated in place, in the
        # order of the textbook expressions, so results are bit-identical
        # to them; fresh pages each iteration cost more than the arithmetic.
        # One (n, H) buffer holds z1, then h1 = relu(z1), then d_h1: the
        # mask h1 > 0 equals z1 > 0 (NaN and -0.0 included), and d_h1 is
        # written only once h1.T @ d_logits has been read.
        h = np.empty((n, MLP_HIDDEN))
        relu = np.empty((n, MLP_HIDDEN), dtype=bool)
        logits = np.empty((n, n_classes))
        row = np.empty((n, 1))
        for _ in range(MLP_ITERS):
            np.matmul(X, w1, out=h)
            h += b1
            np.maximum(h, 0.0, out=h)
            np.matmul(h, w2, out=logits)
            logits += b2
            _row_max(logits, out=row)  # softmax, in place
            logits -= row
            np.exp(logits, out=logits)
            np.sum(logits, axis=1, keepdims=True, out=row)
            logits /= row
            logits -= onehot  # d_logits = (probs - onehot) / n
            logits /= n
            np.matmul(h.T, logits, out=g_w2)
            np.sum(logits, axis=0, out=g_b2)
            np.greater(h, 0, out=relu)
            np.matmul(logits, w2.T, out=h)
            h *= relu
            np.matmul(X.T, h, out=g_w1)
            np.sum(h, axis=0, out=g_b1)
            adam_step(flat, state, grad, MLP_LR)
        self.params = (w1, b1, w2, b2)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = self.params
        h1 = np.maximum(X @ w1 + b1, 0.0)
        return np.argmax(h1 @ w2 + b2, axis=1)


def builtin_classifiers(seed: int = 0) -> list:
    """(name, fresh model) pairs for the utility evaluator.

    The MLP, the longest fit, comes last: ``metrics.utility_score`` fits it
    on a worker thread while it fits the others.
    """
    return [
        ("logistic_regression", LogisticRegressionGD()),
        ("decision_tree", DecisionTreeGini()),
        ("mlp", MlpClassifierAdam(seed=seed)),
    ]


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValidationError("prediction/label shape mismatch")
    return float(np.mean(y_true == y_pred))
