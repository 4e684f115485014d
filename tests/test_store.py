import io
import json
import tracemalloc
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


def _in_memory_archive_bytes(arrays, meta):
    """The archive built in memory: writestr of each member's full bytes."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression=zipfile.ZIP_STORED) as zf:
        if meta is not None:
            info = zipfile.ZipInfo("meta.json", date_time=(1980, 1, 1, 0, 0, 0))
            info.external_attr = 0o600 << 16
            zf.writestr(info, canonical_json(meta).encode("utf-8"))
        for name in sorted(arrays):
            member = io.BytesIO()
            np.lib.format.write_array(member, np.asarray(arrays[name]), allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.external_attr = 0o600 << 16
            zf.writestr(info, member.getvalue())
    return buf.getvalue()


@pytest.mark.parametrize("meta", [None, {"round": 3, "name": "x"}])
def test_save_arrays_streamed_bytes_equal_in_memory_archive(tmp_path, meta):
    arrays = {
        "scalar": np.array(2.5),
        "empty": np.zeros((0, 3)),
        "ints": np.arange(-5, 7, dtype=np.int64),
        "c_order": np.arange(12.0).reshape(3, 4),
        "f_order": np.asfortranarray(np.arange(20.0).reshape(4, 5)),
        "strided": np.arange(30.0).reshape(5, 6)[::2, ::3],
        "float32": np.linspace(-1.0, 1.0, 7, dtype=np.float32),
    }
    path = tmp_path / "ck.npz"
    save_arrays(path, arrays, meta)
    assert path.read_bytes() == _in_memory_archive_bytes(arrays, meta)
    got, got_meta = load_arrays(path)
    assert got_meta == (meta or {})
    for name, arr in arrays.items():
        assert got[name].dtype == arr.dtype and np.array_equal(got[name], arr)
    assert got["f_order"].flags.f_contiguous


def test_load_arrays_rejects_flipped_payload_byte(tmp_path):
    path = tmp_path / "ck.npz"
    save_arrays(path, {"w": np.linspace(0.0, 1.0, 4096)}, {"round": 1})
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01  # inside w.npy's data: only the CRC can notice
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_arrays(path)


def test_load_arrays_decodes_only_named_members_but_checks_every_crc(tmp_path):
    path = tmp_path / "ck.npz"
    arrays = {"a": np.arange(5.0), "b": np.linspace(0.0, 1.0, 4096), "c": np.ones(3)}
    save_arrays(path, arrays, {"round": 1})
    got, meta = load_arrays(path, names=("a", "c"))
    assert meta == {"round": 1} and sorted(got) == ["a", "c"]
    assert np.array_equal(got["a"], arrays["a"]) and np.array_equal(got["c"], arrays["c"])
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01  # inside b.npy's data, which is not decoded
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_arrays(path, names=("a", "c"))


def test_load_arrays_rejects_truncated_file(tmp_path):
    path = tmp_path / "ck.npz"
    save_arrays(path, {"w": np.linspace(0.0, 1.0, 4096)}, {"round": 1})
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 100])
    with pytest.raises(CheckpointError):
        load_arrays(path)


def test_save_arrays_streams_without_an_archive_sized_buffer(tmp_path):
    """Nine 16 MiB arrays save with a peak under a third of their 144 MiB.

    Building the whole archive in memory first peaked at 178 MiB.
    """
    arrays = {f"a{i}": np.full(1 << 21, float(i)) for i in range(9)}
    total = sum(a.nbytes for a in arrays.values())
    tracemalloc.start()
    try:
        save_arrays(tmp_path / "big.npz", arrays, {"round": 1})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < total / 3


def _leftovers(directory, name):
    return sorted(p.name for p in directory.iterdir() if p.name.startswith(name + ".tmp"))


def test_failed_save_arrays_leaves_old_file_and_no_temp(tmp_path):
    path = tmp_path / "ck.npz"
    save_arrays(path, {"w": np.ones(3)}, {"round": 1})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        # an object array is refused only after earlier members are written
        save_arrays(path, {"a": np.zeros(1000), "z": np.array([object()])}, {})
    assert path.read_bytes() == before
    assert _leftovers(tmp_path, "ck.npz") == []


def test_failed_write_json_leaves_old_file_and_no_temp(tmp_path):
    path = tmp_path / "m.json"
    write_json(path, {"ok": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(path, {"a": list(range(1000)), "z": object()})
    assert path.read_bytes() == before
    assert _leftovers(tmp_path, "m.json") == []
