import tracemalloc

import numpy as np
import pytest

from fedsynth.attacks import (GOWER_BLOCK_ROWS, adjusted_risk, default_aux_split,
                              gower_distances, inference_risk,
                              linkability_risk, privacy_score,
                              singling_out_risk, wilson_interval,
                              _build_views, _nearest)
from fedsynth.data import RawTable, TabularSchema
from fedsynth.errors import ValidationError
from fedsynth.fixtures import (gaussian_mixture_table, independent_table,
                               shuffle_column)


def _null_table(table, seed=0):
    """Synthetic null: every column independently permuted (marginals kept,
    joint structure destroyed)."""
    out = table
    for i, col in enumerate(table.schema.names):
        out = shuffle_column(out, col, seed=seed * 131 + i)
    return out


# ---------------------------------------------------------------------------
# Statistics helpers


def test_wilson_interval_known_value():
    lo, hi = wilson_interval(5, 10)
    # classic 5/10 Wilson 95%: (0.2366, 0.7634)
    assert lo == pytest.approx(0.2366, abs=2e-4)
    assert hi == pytest.approx(0.7634, abs=2e-4)


def test_wilson_interval_edges():
    lo, hi = wilson_interval(0, 50)
    assert lo == pytest.approx(0.0, abs=1e-12) and 0.0 < hi < 0.1
    lo, hi = wilson_interval(50, 50)
    assert 0.9 < lo < 1.0 and hi == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        wilson_interval(1, 0)


def test_adjusted_risk_formula():
    assert adjusted_risk(0.6, 0.2) == pytest.approx(0.5, rel=1e-12)
    assert adjusted_risk(0.1, 0.3) == 0.0  # below baseline clamps to zero
    assert adjusted_risk(1.0, 0.0) == 1.0
    assert adjusted_risk(0.5, 1.0) == 0.0  # degenerate baseline


# ---------------------------------------------------------------------------
# Gower distance


def test_gower_distance_hand_example():
    table_a = gaussian_mixture_table(4, seed=0)
    ra, sa = _build_views(table_a, table_a)
    d = gower_distances(ra, sa, np.arange(4))
    # self-distance is exactly zero on the diagonal
    np.testing.assert_allclose(np.diag(d), 0.0, atol=0)
    assert np.all(d >= 0.0) and np.all(d <= 1.0 + 1e-12)
    np.testing.assert_allclose(d, d.T, atol=1e-12)


def test_gower_distance_mixed_units_insensitive():
    """Scaling a numeric column does not change Gower distances."""
    table = independent_table(60, seed=1)
    scaled_cols = {n: c.copy() for n, c in table.columns.items()}
    scaled_cols["amount"] = scaled_cols["amount"] * 1000.0
    scaled = RawTable(table.schema, scaled_cols)
    va, vb = _build_views(table, table)
    wa, wb = _build_views(scaled, scaled)
    rows = np.arange(10)
    np.testing.assert_allclose(gower_distances(va, vb, rows),
                               gower_distances(wa, wb, rows), rtol=1e-12)


def test_build_views_column_subset_matches_restricted_tables():
    """Selecting columns by index gives the codes, ranges and Gower distances
    of views built from tables that hold only those columns."""
    real = independent_table(80, seed=1)
    syn = independent_table(60, seed=2)
    cols = ("amount", "offset", "grade")  # drops numeric "score", categorical "dept"
    kinds = real.schema.kinds
    sub_schema = TabularSchema(tuple((c, kinds[c]) for c in cols))

    def restrict(table):
        return RawTable(sub_schema, {c: table.column(c) for c in cols})

    picked = _build_views(real, syn, cols)
    alone = _build_views(restrict(real), restrict(syn))
    for p, a in zip(picked, alone):
        np.testing.assert_array_equal(p.data[:, p.cols], a.data[:, a.cols])
        np.testing.assert_array_equal(p.ranges[p.cols], a.ranges[a.cols])
        np.testing.assert_array_equal(p.is_cat[p.cols], a.is_cat[a.cols])
    rows = np.arange(0, 80, 3)
    np.testing.assert_array_equal(gower_distances(*picked, rows),
                                  gower_distances(*alone, rows))


def _gower_reference(queries, reference, rows):
    """gower_distances with a fresh array per column and a fresh quotient:
    the oracle for the reused buffers, which must match it bit for bit."""
    cols = queries.cols
    q, ref = queries.data[rows], reference.data
    total = np.zeros((rows.size, ref.shape[0]))
    for j in cols[~queries.is_cat[cols]]:
        if queries.ranges[j] > 0:
            total += np.abs(np.subtract.outer(q[:, j], ref[:, j])) / queries.ranges[j]
    for j in cols[queries.is_cat[cols]]:
        total += np.not_equal.outer(q[:, j], ref[:, j])
    return total / cols.size


@pytest.mark.parametrize("columns", [None, ("grade", "amount", "dept"),
                                     ("score",), ("dept",)])
def test_gower_distances_match_the_fresh_array_reference(columns):
    real = independent_table(90, seed=3)
    syn = independent_table(70, seed=4)
    real.columns["offset"][:] = 1.5  # a zero-range numeric column
    syn.columns["offset"][:] = 1.5
    r, s = _build_views(real, syn, columns)
    for queries, reference in ((r, s), (s, r)):
        rows = np.arange(0, queries.data.shape[0], 2)
        assert np.array_equal(gower_distances(queries, reference, rows),
                              _gower_reference(queries, reference, rows))


def test_gower_distances_over_a_reference_range_with_buffers():
    """A reference-row range in lent buffers gives those columns of the full
    matrix bit for bit, and the result lives in the buffers."""
    r, s = _build_views(independent_table(50, seed=5), independent_table(150, seed=6))
    rows = np.arange(0, 50, 3)
    full = gower_distances(r, s, rows)
    buffers = (np.empty(rows.size * 100), np.empty(rows.size * 100),
               np.empty(rows.size * 100, dtype=bool))
    for block in (slice(0, 64), slice(64, 128), slice(128, 150), slice(10, 11)):
        part = gower_distances(r, s, rows, block, buffers)
        assert np.array_equal(part, full[:, block])
        assert np.shares_memory(part, buffers[0])


def _tiled_table(table, n_rows, seed):
    """``n_rows`` rows of ``table`` where row i + GOWER_BLOCK_ROWS repeats row
    i, so every nearest distance is tied across block boundaries."""
    first = np.random.default_rng(seed).integers(0, table.n_rows, size=GOWER_BLOCK_ROWS)
    idx = np.resize(first, n_rows)
    return RawTable(table.schema, {n: c[idx] for n, c in table.columns.items()})


def _block_cases():
    real = independent_table(300, seed=7)
    odd = 2 * GOWER_BLOCK_ROWS + 17   # a partial last block
    return [(real, independent_table(odd, seed=8)),
            (real, _tiled_table(real, odd, seed=9)),
            (real, _tiled_table(real, 3 * GOWER_BLOCK_ROWS, seed=10)),
            (gaussian_mixture_table(200, seed=11), gaussian_mixture_table(odd, seed=12))]


@pytest.mark.parametrize("case", range(4))
def test_blocked_nearest_matches_dense_argmin(case):
    """First index of the minimum, as np.argmin over the whole matrix gives,
    also when the minimum recurs in later blocks."""
    real, syn = _block_cases()[case]
    r, s = _build_views(real, syn)
    rows = np.random.default_rng(case).integers(0, real.n_rows, size=150)
    names = real.schema.names
    for name in names:
        aux = [c for c in names if c != name]
        queries, reference = r.select(aux), s.select(aux)
        dense = np.argmin(gower_distances(queries, reference, rows), axis=1)
        assert np.array_equal(_nearest(queries, reference, rows), dense)


def test_blocked_nearest_takes_the_first_nan_like_argmin():
    r, s = _build_views(independent_table(20, seed=1), independent_table(200, seed=2))
    s.data[[5, 70, 150], 0] = np.nan   # NaN distances in blocks 0, 1 and 2
    rows = np.arange(20)
    dense = np.argmin(gower_distances(r, s, rows), axis=1)
    assert np.all(dense == 5)
    assert np.array_equal(_nearest(r, s, rows), dense)
    s.data[5, 0] = 0.0
    assert np.all(_nearest(r, s, rows) == 70)


def _dense_linkability(real, syn, n_attacks, rng):
    """linkability_risk on whole (n_attacks, N_syn) matrices: the oracle for
    the blocked one-pass version."""
    split_a, split_b = default_aux_split(real.schema)
    rows = rng.integers(0, real.n_rows, size=n_attacks)
    real_view, syn_view = _build_views(real, syn)
    near = []
    for split in (split_a, split_b):
        dist = gower_distances(real_view.select(split), syn_view.select(split), rows)
        near.append(dist <= dist.min(axis=1, keepdims=True))
    raw = int(np.any(near[0] & near[1], axis=1).sum()) / n_attacks
    baseline = 1.0 / syn.n_rows
    return {"risk": adjusted_risk(raw, baseline), "raw": raw, "baseline": baseline}


@pytest.mark.parametrize("case", range(4))
def test_blocked_linkability_matches_dense_oracle(case):
    real, syn = _block_cases()[case]
    got = linkability_risk(real, syn, 200, np.random.default_rng(case))
    assert got == _dense_linkability(real, syn, 200, np.random.default_rng(case))
    if case in (1, 2):  # tiled copies of real rows: links sit at tied minima
        assert got["raw"] > 0.0


def test_attack_memory_does_not_grow_with_the_synthetic_table():
    """500 attacks against 2,000 and then 20,000 synthetic rows: the traced
    peak grows by the coded tables, not by (attacks x rows) matrices, which
    added about 220 MB."""
    real = independent_table(1000, seed=13)
    peaks = []
    for n_syn in (2_000, 20_000):
        syn = independent_table(n_syn, seed=14)
        tracemalloc.start()
        try:
            linkability_risk(real, syn, 500, np.random.default_rng(1))
            inference_risk(real, syn, 500, np.random.default_rng(2))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 10 * 2 ** 20


def test_default_aux_split_alternates():
    table = independent_table(10, seed=0)
    a, b = default_aux_split(table.schema)
    names = table.schema.names
    assert a == names[0::2]
    assert b == names[1::2]
    assert set(a) | set(b) == set(names)


# ---------------------------------------------------------------------------
# Attack calibration on the designated fixture (N=500)


@pytest.fixture(scope="module")
def calib_real():
    return independent_table(500, seed=1)


@pytest.fixture(scope="module")
def calib_null(calib_real):
    return _null_table(calib_real, seed=2)


def test_singling_out_self_high(calib_real):
    out = singling_out_risk(calib_real, calib_real, 500,
                            np.random.default_rng([7, 0]))
    assert out["risk"] >= 0.5
    assert out["warning"] is None
    lo, hi = out["ci"]
    assert lo <= out["risk"] <= hi


def test_singling_out_null_low(calib_real, calib_null):
    out = singling_out_risk(calib_real, calib_null, 500,
                            np.random.default_rng([7, 0]))
    assert out["risk"] <= 0.05


def test_linkability_self_high(calib_real):
    out = linkability_risk(calib_real, calib_real, 500,
                           np.random.default_rng([7, 1]))
    assert out["risk"] >= 0.9
    assert out["baseline"] == pytest.approx(1 / 500)


def test_linkability_null_low(calib_real, calib_null):
    out = linkability_risk(calib_real, calib_null, 500,
                           np.random.default_rng([7, 1]))
    assert out["risk"] <= 0.1


def test_linkability_decoupled_permutation_near_zero(calib_real):
    """Permuting the A-side columns against the B-side of the *same* rows
    removes the cross-side link, so the attack collapses to its baseline."""
    schema = calib_real.schema
    split_a, _ = default_aux_split(schema)
    rng = np.random.default_rng(3)
    perm = rng.permutation(calib_real.n_rows)
    cols = {}
    for name in schema.names:
        col = calib_real.column(name).copy()
        cols[name] = col[perm] if name in split_a else col
    decoupled = RawTable(schema, cols)
    out = linkability_risk(calib_real, decoupled, 500,
                           np.random.default_rng([7, 1]))
    assert out["risk"] <= 0.1


def test_inference_self_high(calib_real):
    out = inference_risk(calib_real, calib_real, 400,
                         np.random.default_rng([7, 2]))
    assert out["risk"] >= 0.9
    assert set(out["per_column"]) == set(calib_real.schema.names)


def test_inference_null_low(calib_real, calib_null):
    out = inference_risk(calib_real, calib_null, 400,
                         np.random.default_rng([7, 2]))
    assert out["risk"] <= 0.1


def test_attack_risks_always_in_unit_interval(calib_real, calib_null):
    for syn in (calib_real, calib_null):
        s = singling_out_risk(calib_real, syn, 60, np.random.default_rng(0))
        l = linkability_risk(calib_real, syn, 60, np.random.default_rng(1))
        i = inference_risk(calib_real, syn, 60, np.random.default_rng(2))
        for v in (s["risk"], l["risk"], i["risk"]):
            assert 0.0 <= v <= 1.0


def test_attacks_deterministic_given_rng(calib_real, calib_null):
    a = singling_out_risk(calib_real, calib_null, 120,
                          np.random.default_rng([9, 9]))
    b = singling_out_risk(calib_real, calib_null, 120,
                          np.random.default_rng([9, 9]))
    assert a == b
    la = linkability_risk(calib_real, calib_null, 120,
                          np.random.default_rng([9, 8]))
    lb = linkability_risk(calib_real, calib_null, 120,
                          np.random.default_rng([9, 8]))
    assert la == lb


def test_singling_out_degenerate_real_warns():
    table = independent_table(20, seed=5)
    cols = {n: np.repeat(c[:1], 20) for n, c in table.columns.items()}
    flat = RawTable(table.schema, cols)
    out = singling_out_risk(flat, table, 50, np.random.default_rng(0))
    assert out["risk"] == 0.0
    assert out["warning"] is not None


def test_mixture_null_also_low():
    real = gaussian_mixture_table(500, seed=1)
    null = _null_table(real, seed=4)
    s = singling_out_risk(real, null, 300, np.random.default_rng([1, 0]))
    l = linkability_risk(real, null, 300, np.random.default_rng([1, 1]))
    i = inference_risk(real, null, 300, np.random.default_rng([1, 2]))
    assert privacy_score(s["risk"], l["risk"], i["risk"]) <= 0.1


def test_privacy_score_mean_and_validation():
    assert privacy_score(0.3, 0.6, 0.9) == pytest.approx(0.6, abs=1e-15)
    with pytest.raises(ValidationError):
        privacy_score(1.2, 0.0, 0.0)
    with pytest.raises(ValidationError):
        privacy_score(-0.1, 0.5, 0.5)
