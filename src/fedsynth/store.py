"""Byte-stable serialization helpers.

Checkpoints must hash identically across runs, but ``np.savez`` embeds the
wall-clock timestamp of each zip member, so two otherwise identical saves
differ. ``save_arrays`` writes the same ``.npy``-members-in-a-zip layout with
a pinned timestamp and a fixed member order instead. A ``meta.json`` member
carries small JSON-serializable metadata alongside the arrays.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import zipfile

import numpy as np

from .errors import CheckpointError

_EPOCH = (1980, 1, 1, 0, 0, 0)
_META_MEMBER = "meta.json"
# bytes per read when a member is read to its end without being decoded
_DRAIN_CHUNK = 1 << 20


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


@contextlib.contextmanager
def replacing(path, mode: str, **open_kwargs):
    """Open a temp file beside ``path`` that replaces it only on success.

    If the body raises, the temp file is removed and ``path`` keeps its old
    bytes, so a failed write never leaves a partial file behind. An OSError
    about the temp file is re-labelled with ``path``, the name the caller knows.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            exc.filename, exc.filename2 = os.fspath(path), None
        raise


def _member_info(name: str) -> zipfile.ZipInfo:
    info = zipfile.ZipInfo(name, date_time=_EPOCH)
    info.external_attr = 0o600 << 16
    return info


def save_arrays(path, arrays: dict, meta: dict | None = None) -> None:
    """Write named arrays (plus optional JSON metadata) to a stable zip.

    Members are stored uncompressed in sorted name order with a constant
    timestamp, so the file bytes depend only on the content. Each ``.npy``
    member is streamed straight into the archive on disk, so no in-memory
    copy of the archive or of a member is made: NumPy's format-1.0 header
    writer writes the header and the payload goes from the array's own
    memory. The bytes are those of ``ZipFile.writestr`` with the member's
    ``np.lib.format.write_array`` output.
    """
    with replacing(path, "wb") as fh, \
            zipfile.ZipFile(fh, "w", compression=zipfile.ZIP_STORED) as zf:
        if meta is not None:
            zf.writestr(_member_info(_META_MEMBER),
                        canonical_json(meta).encode("utf-8"))
        for name in sorted(arrays):
            arr = np.asarray(arrays[name])
            info = _member_info(name + ".npy")
            # zipfile picks the zip64 layout from the size preset before a
            # member is opened, as writestr does; leaving out the ~128-byte
            # .npy header moves that choice only for members within a header
            # of the ~2 GB threshold
            info.file_size = arr.nbytes
            if arr.dtype.hasobject:
                raise ValueError("object arrays cannot be saved without pickling")
            header = np.lib.format.header_data_from_array_1_0(arr)
            # the payload is the array's memory in the order the header names,
            # as write_array lays it out, but written from a view, not copied
            # out chunk by chunk
            payload = np.ascontiguousarray(arr.T if header["fortran_order"] else arr)
            with zf.open(info, "w") as member:
                np.lib.format.write_array_header_1_0(member, header)
                member.write(payload.reshape(-1).view(np.uint8).data)


def load_arrays(path, names=None) -> tuple[dict, dict]:
    """Read back ``(arrays, meta)`` written by :func:`save_arrays`.

    Arrays are read straight from each member's stream. With ``names``, only
    those arrays are decoded. Every member, decoded or not, is read to its
    end, where zipfile checks its CRC, so a corrupted archive fails either way.
    """
    arrays: dict = {}
    meta: dict = {}
    try:
        with zipfile.ZipFile(path, "r") as zf:
            for name in zf.namelist():
                key = name[: -len(".npy")] if name.endswith(".npy") else None
                with zf.open(name) as member:
                    if name == _META_MEMBER:
                        meta = json.load(member)
                    elif key is not None and (names is None or key in names):
                        arrays[key] = np.lib.format.read_array(member, allow_pickle=False)
                    while member.read(_DRAIN_CHUNK):
                        pass
    except (OSError, zipfile.BadZipFile, ValueError) as exc:
        raise CheckpointError(f"cannot read array archive {path!r}: {exc}") from exc
    return arrays, meta


def write_json(path, obj) -> None:
    """Atomically write ``obj`` as human-readable JSON (sorted keys, two-space indent)."""
    with replacing(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
