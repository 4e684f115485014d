import json
import zipfile

import numpy as np
import pytest

from fedsynth.errors import CheckpointError
from fedsynth.store import (canonical_json, json_digest,
                            load_arrays, read_json, save_arrays, write_json)


def test_canonical_json_sorts_keys_and_is_compact():
    text = canonical_json({"b": 1, "a": [1, 2], "c": {"z": 0, "y": 1}})
    assert text == '{"a":[1,2],"b":1,"c":{"y":1,"z":0}}'


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_json_digest_stable():
    a = json_digest({"b": 1, "a": 2})
    b = json_digest({"a": 2, "b": 1})
    assert a == b
    assert len(a) == 64


def test_write_read_json_roundtrip(tmp_path):
    path = tmp_path / "x.json"
    payload = {"alpha": [1.5, 2.5], "name": "run"}
    write_json(path, payload)
    assert read_json(path) == payload


def test_save_load_arrays_roundtrip(tmp_path):
    path = tmp_path / "ck.npz"
    arrays = {"w": np.arange(12.0).reshape(3, 4), "idx": np.array([3, 1, 2])}
    meta = {"round": 7, "tag": "demo"}
    save_arrays(path, arrays, meta)
    got_arrays, got_meta = load_arrays(path)
    assert got_meta == meta
    assert set(got_arrays) == {"w", "idx"}
    np.testing.assert_array_equal(got_arrays["w"], arrays["w"])
    np.testing.assert_array_equal(got_arrays["idx"], arrays["idx"])
    assert got_arrays["w"].dtype == np.float64
    assert got_arrays["idx"].dtype == arrays["idx"].dtype


def test_save_arrays_byte_stable(tmp_path):
    """Writing the same payload twice yields identical bytes.

    np.savez embeds wall-clock timestamps in the zip directory, so the
    custom writer pins them; this guards the reproducibility contract.
    """
    arrays = {"w": np.linspace(0, 1, 17), "b": np.zeros((2, 3))}
    meta = {"round": 1}
    p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
    save_arrays(p1, arrays, meta)
    save_arrays(p2, arrays, meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_arrays_member_order_sorted(tmp_path):
    path = tmp_path / "ck.npz"
    save_arrays(path, {"zz": np.zeros(1), "aa": np.ones(1)}, {})
    with zipfile.ZipFile(path) as zf:
        names = zf.namelist()
    assert names[0] == "meta.json"
    assert names[1:] == sorted(names[1:]) == ["aa.npy", "zz.npy"]


def test_load_arrays_rejects_garbage(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"this is not a zip archive")
    with pytest.raises(CheckpointError):
        load_arrays(path)


def test_load_arrays_rejects_missing_meta(tmp_path):
    path = tmp_path / "nometa.npz"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("w.npy", b"xx")
    with pytest.raises(CheckpointError):
        load_arrays(path)


def test_write_json_is_canonical_on_disk(tmp_path):
    path = tmp_path / "c.json"
    write_json(path, {"b": 2, "a": 1})
    raw = path.read_text(encoding="utf-8")
    assert json.loads(raw) == {"a": 1, "b": 2}
    assert raw.index('"a"') < raw.index('"b"')
