"""Byte-stable serialization helpers.

Checkpoints must hash identically across runs, but ``np.savez`` embeds the
wall-clock timestamp of each zip member, so two otherwise identical saves
differ. ``save_arrays`` writes the same ``.npy``-members-in-a-zip layout with
a pinned timestamp and a fixed member order instead. A ``meta.json`` member
carries small JSON-serializable metadata alongside the arrays.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile

import numpy as np

from .errors import CheckpointError

_EPOCH = (1980, 1, 1, 0, 0, 0)
_META_MEMBER = "meta.json"


def canonical_json(obj) -> str:
    """Serialize ``obj`` to JSON with sorted keys and no whitespace.

    The output is deterministic, which makes it suitable for hashing. NaN and
    infinity are rejected; callers encode them explicitly (e.g. as the string
    ``"inf"``) before hashing.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def json_digest(obj) -> str:
    """Hex SHA-256 of the canonical JSON form of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def save_arrays(path, arrays: dict, meta: dict | None = None) -> None:
    """Write named arrays (plus optional JSON metadata) to a stable zip.

    Members are stored uncompressed in sorted name order with a constant
    timestamp, so the file bytes depend only on the content.
    """
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression=zipfile.ZIP_STORED) as zf:
        if meta is not None:
            info = zipfile.ZipInfo(_META_MEMBER, date_time=_EPOCH)
            info.external_attr = 0o600 << 16
            zf.writestr(info, canonical_json(meta).encode("utf-8"))
        for name in sorted(arrays):
            arr = np.asarray(arrays[name])
            member = io.BytesIO()
            np.lib.format.write_array(member, arr, allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=_EPOCH)
            info.external_attr = 0o600 << 16
            zf.writestr(info, member.getvalue())
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(buf.getvalue())
    os.replace(tmp, path)


def load_arrays(path) -> tuple[dict, dict]:
    """Read back ``(arrays, meta)`` written by :func:`save_arrays`."""
    arrays: dict = {}
    meta: dict = {}
    try:
        with zipfile.ZipFile(path, "r") as zf:
            for name in zf.namelist():
                with zf.open(name) as member:
                    if name == _META_MEMBER:
                        meta = json.load(member)
                    elif name.endswith(".npy"):
                        arrays[name[: -len(".npy")]] = np.lib.format.read_array(
                            io.BytesIO(member.read()), allow_pickle=False
                        )
    except (OSError, zipfile.BadZipFile, ValueError) as exc:
        raise CheckpointError(f"cannot read array archive {path!r}: {exc}") from exc
    return arrays, meta


def write_json(path, obj, indent: int = 2) -> None:
    """Atomically write ``obj`` as human-readable JSON."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=indent, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
