"""Binary tensor-bundle persistence.

A bundle is a single file holding named float64 arrays:

    magic "CMTB" | version u32 | entry count u32
    per entry: name length u32 | name utf-8 | ndim u32 | dims u64... | offset u64
    payload length u64 | payload (contiguous little-endian float64)

Offsets index into the payload in bytes.  Round trips are bit-exact.
"""

from __future__ import annotations

import os
import struct
from typing import Dict

import numpy as np

MAGIC = b"CMTB"
VERSION = 1


class BundleError(Exception):
    """Malformed bundle file or invalid write request."""


def write_bundle(tensors: Dict[str, np.ndarray], path) -> None:
    """Write named arrays to `path`. Names must be unique; values finite float64.

    The bytes go to a temporary file beside `path`, which then replaces it, so
    a write that fails or is interrupted leaves any earlier bundle intact.
    """
    names = list(tensors)
    if len(set(names)) != len(names):
        raise BundleError("duplicate tensor names")

    header = [MAGIC, struct.pack("<II", VERSION, len(names))]
    payload = bytearray()
    for name in names:
        arr = np.asarray(tensors[name], dtype=np.float64)
        encoded = name.encode("utf-8")
        offset = len(payload)
        header.append(struct.pack("<I", len(encoded)))
        header.append(encoded)
        header.append(struct.pack("<I", arr.ndim))
        header.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        header.append(struct.pack("<Q", offset))
        payload += arr.astype("<f8").tobytes()
    if not np.isfinite(np.frombuffer(payload, "<f8")).all():
        bad = next(n for n in names if not np.isfinite(np.asarray(tensors[n], np.float64)).all())
        raise BundleError(f"tensor {bad!r} holds non-finite values")

    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(header))
            fh.write(struct.pack("<Q", len(payload)))
            fh.write(bytes(payload))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read_bundle(path) -> Dict[str, np.ndarray]:
    """Read a bundle written by write_bundle. Fails cleanly on corruption."""
    with open(path, "rb") as fh:
        raw = fh.read()

    view = memoryview(raw)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise BundleError("truncated header")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(4)) != MAGIC:
        raise BundleError("unknown magic")
    version, count = struct.unpack("<II", take(8))
    if version != VERSION:
        raise BundleError(f"unsupported version {version}")

    entries = []
    seen = set()
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = bytes(take(name_len)).decode("utf-8")
        if name in seen:
            raise BundleError(f"duplicate tensor name {name!r}")
        seen.add(name)
        (ndim,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        (offset,) = struct.unpack("<Q", take(8))
        entries.append((name, shape, offset))

    (payload_len,) = struct.unpack("<Q", take(8))
    payload = view[pos : pos + payload_len]
    if len(payload) != payload_len:
        raise BundleError("truncated payload")

    out = {}
    for name, shape, offset in entries:
        nbytes = 8 * int(np.prod(shape, dtype=np.int64)) if shape else 8
        if offset + nbytes > payload_len:
            raise BundleError(f"entry {name!r} overruns payload")
        arr = np.frombuffer(payload[offset : offset + nbytes], dtype="<f8")
        out[name] = arr.reshape(shape).astype(np.float64).copy()
    return out
