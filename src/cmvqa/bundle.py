"""Binary tensor-bundle persistence.

A bundle is a single file holding named float64 or uint8 arrays:

    magic "CMTB" | version u32 | entry count u32
    per entry: name length u32 | name utf-8 | dtype u8 | ndim u32 | dims u64... | offset u64
    payload length u64 | payload (contiguous little-endian arrays)

The dtype code is 0 for float64 and 1 for uint8; entries lie in the payload
in the order they were given.  Version 1 files, which have no dtype code and
hold float64 only, are still read.  Offsets index into the payload in bytes.
Round trips are bit-exact.  Reading and writing both reject a float64 entry
holding NaN or Inf, checking each entry on its own.
"""

from __future__ import annotations

import math
import os
import struct
from typing import Dict

import numpy as np

MAGIC = b"CMTB"
VERSION = 2
DTYPES = (np.dtype("<f8"), np.dtype("u1"))  # indexed by an entry's dtype code


class BundleError(Exception):
    """Malformed bundle file or invalid write request."""


def write_bundle(tensors: Dict[str, np.ndarray], path) -> None:
    """Write named arrays to `path`.  uint8 arrays are stored as bytes; every
    other value as float64, which must be finite.

    The bytes go to a temporary file beside `path`, which then replaces it, so
    a write that fails or is interrupted leaves any earlier bundle intact.
    """
    entries = []
    for name, value in tensors.items():
        code = int(getattr(value, "dtype", None) == DTYPES[1])
        arr = np.asarray(value, DTYPES[code], order="C")
        if not code and not np.isfinite(arr).all():
            raise BundleError(f"tensor {name!r} holds non-finite values")
        entries.append((name.encode("utf-8"), code, arr))
    header, offset = [MAGIC, struct.pack("<II", VERSION, len(entries))], 0
    for encoded, code, arr in entries:
        header += [struct.pack("<I", len(encoded)), encoded,
                   struct.pack(f"<BI{arr.ndim}QQ", code, arr.ndim, *arr.shape, offset)]
        offset += arr.nbytes
    header.append(struct.pack("<Q", offset))

    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(header))
            for _, _, arr in entries:
                fh.write(arr)
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
    if version not in (1, VERSION):
        raise BundleError(f"unsupported version {version}")

    entries = []
    seen = set()
    for index in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        raw_name = bytes(take(name_len))
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as err:
            raise BundleError(f"entry {index} has a name that is not UTF-8: {raw_name!r}") from err
        if name in seen:
            raise BundleError(f"duplicate tensor name {name!r}")
        seen.add(name)
        if version == 1:
            code, (ndim,) = 0, struct.unpack("<I", take(4))
        else:
            code, ndim = struct.unpack("<BI", take(5))
            if code >= len(DTYPES):
                raise BundleError(f"entry {name!r} has unknown dtype code {code}")
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        (offset,) = struct.unpack("<Q", take(8))
        entries.append((name, code, shape, offset))

    (payload_len,) = struct.unpack("<Q", take(8))
    payload = view[pos : pos + payload_len]
    if len(payload) != payload_len:
        raise BundleError("truncated payload")

    out = {}
    for name, code, shape, offset in entries:
        nbytes = (1 if code else 8) * math.prod(shape)
        if offset + nbytes > payload_len:
            raise BundleError(f"entry {name!r} overruns payload")
        try:
            arr = np.frombuffer(payload[offset : offset + nbytes], DTYPES[code]).reshape(shape)
        except ValueError as err:   # a zero-size shape numpy cannot hold
            raise BundleError(f"entry {name!r} has shape {shape}: {err}") from err
        # astype copies, so each array owns its memory
        out[name] = arr.copy() if code else arr.astype(np.float64)
        if not code and not np.isfinite(out[name]).all():
            raise BundleError(f"tensor {name!r} holds non-finite values")
    return out
