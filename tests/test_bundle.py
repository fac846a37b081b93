"""Bundle round-trip and corruption tests."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cmvqa.bundle import BundleError, read_bundle, write_bundle


def test_roundtrip_3x4(tmp_path, gen):
    x = gen.standard_normal((3, 4))
    path = tmp_path / "t.cmtb"
    write_bundle({"x": x}, path)
    back = read_bundle(path)
    assert list(back) == ["x"]
    assert np.array_equal(back["x"], x)
    assert back["x"].tobytes() == x.tobytes()  # bit-identical


def test_roundtrip_random_shapes_up_to_rank4(tmp_path, gen):
    tensors = {}
    for i in range(40):
        rank = int(gen.integers(0, 5))
        shape = tuple(int(gen.integers(1, 6)) for _ in range(rank))
        tensors[f"t{i}"] = gen.standard_normal(shape) if rank else np.array(gen.standard_normal())
    path = tmp_path / "many.cmtb"
    write_bundle(tensors, path)
    back = read_bundle(path)
    assert set(back) == set(tensors)
    for name, arr in tensors.items():
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes()


def test_zero_dim_tensor(tmp_path):
    write_bundle({"s": np.array(3.75)}, tmp_path / "s.cmtb")
    back = read_bundle(tmp_path / "s.cmtb")
    assert back["s"].shape == ()
    assert back["s"] == 3.75


def test_empty_bundle(tmp_path):
    write_bundle({}, tmp_path / "e.cmtb")
    assert read_bundle(tmp_path / "e.cmtb") == {}


def test_truncated_payload_raises(tmp_path, gen):
    path = tmp_path / "t.cmtb"
    write_bundle({"x": gen.standard_normal((4, 4))}, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-1])
    with pytest.raises(BundleError, match="truncated"):
        read_bundle(path)


def test_unknown_magic_raises(tmp_path):
    path = tmp_path / "bad.cmtb"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(BundleError, match="magic"):
        read_bundle(path)


def test_uint8_entries_round_trip_as_bytes(tmp_path, gen):
    tensors = {"a": gen.standard_normal((2, 3)), "text": np.frombuffer(b"k = v\n", np.uint8),
               "b": gen.standard_normal(4), "empty": np.zeros(0, np.uint8)}
    path = tmp_path / "mixed.cmtb"
    write_bundle(tensors, path)
    back = read_bundle(path)
    assert list(back) == list(tensors)
    for name, arr in tensors.items():
        assert back[name].dtype == arr.dtype and back[name].tobytes() == arr.tobytes()
    # per entry: name length, name, dtype code, ndim, dims, offset; then
    # the payload length, 8 bytes per float and 1 per byte
    header = 12 + sum(4 + len(n) + 1 + 4 + 8 * a.ndim + 8 for n, a in tensors.items())
    assert path.stat().st_size == header + 8 + 8 * (6 + 4) + 6


def test_unknown_dtype_code_raises(tmp_path):
    path = tmp_path / "d.cmtb"
    write_bundle({"x": np.zeros(1)}, path)
    raw = bytearray(path.read_bytes())
    raw[12 + 4 + 1] = 7  # the code after the name's length and its one byte
    path.write_bytes(bytes(raw))
    with pytest.raises(BundleError, match="dtype code 7"):
        read_bundle(path)


def test_unknown_version_raises(tmp_path, gen):
    path = tmp_path / "v.cmtb"
    write_bundle({"x": gen.standard_normal(3)}, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99  # bump version field
    path.write_bytes(bytes(raw))
    with pytest.raises(BundleError, match="version"):
        read_bundle(path)


def test_corrupt_header_raises(tmp_path):
    path = tmp_path / "h.cmtb"
    path.write_bytes(b"CMTB\x01\x00\x00\x00\x05\x00\x00\x00")  # claims 5 entries, no data
    with pytest.raises(BundleError):
        read_bundle(path)


def test_names_with_unicode(tmp_path, gen):
    x = gen.standard_normal(2)
    path = tmp_path / "u.cmtb"
    write_bundle({"emb/täble": x}, path)
    assert np.array_equal(read_bundle(path)["emb/täble"], x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_raises_and_writes_nothing(tmp_path, gen, bad):
    x = gen.standard_normal(4)
    x[2] = bad
    with pytest.raises(BundleError, match="'w'.*non-finite"):
        write_bundle({"ok": gen.standard_normal(3), "w": x}, tmp_path / "n.cmtb")
    assert list(tmp_path.iterdir()) == []


def _float_bundle(version: int, arrays: dict, lead: int = 0) -> bytes:
    """Float64 entries back to back after ``lead`` payload bytes, in format
    version 1 (no dtype codes) or 2."""
    header, payload = [b"CMTB", struct.pack("<II", version, len(arrays))], b"\x00" * lead
    for name, arr in arrays.items():
        code = struct.pack("<I", arr.ndim) if version == 1 else struct.pack("<BI", 0, arr.ndim)
        header += [struct.pack("<I", len(name)), name.encode(), code,
                   struct.pack(f"<{arr.ndim}Q", *arr.shape), struct.pack("<Q", len(payload))]
        payload += arr.astype("<f8").tobytes()
    return b"".join(header) + struct.pack("<Q", len(payload)) + payload


@pytest.mark.parametrize("lead", [0, 4], ids=["aligned", "off-grid"])
@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_on_read_raises_naming_it(tmp_path, gen, bad, version, lead):
    arrays = {"ok": gen.standard_normal(3), "layer0/w": gen.standard_normal((2, 3)),
              "last": gen.standard_normal(2)}
    back = _read_raw(tmp_path, _float_bundle(version, arrays, lead))
    assert {n: a.tobytes() for n, a in back.items()} == {n: a.tobytes() for n, a in arrays.items()}
    arrays["layer0/w"][1, 2] = bad
    with pytest.raises(BundleError, match="'layer0/w'.*non-finite"):
        _read_raw(tmp_path, _float_bundle(version, arrays, lead))


def test_finite_entries_whose_sum_overflows_read_back(tmp_path):
    arrays = {"a": np.array([1e308, 1e308]), "b": np.array([-1e308, -1e308, 2.0])}
    back = _read_raw(tmp_path, _float_bundle(2, arrays))
    assert {n: a.tobytes() for n, a in back.items()} == {n: a.tobytes() for n, a in arrays.items()}


def test_non_finite_entry_before_byte_entries_raises(tmp_path, gen):
    path = tmp_path / "m.cmtb"
    write_bundle({"a": gen.standard_normal(2), "w": np.array([1.5, 2.5]),
                  "text": np.frombuffer(b"abc", np.uint8)}, path)
    raw = path.read_bytes()
    path.write_bytes(raw.replace(struct.pack("<d", 2.5), struct.pack("<d", np.nan)))
    with pytest.raises(BundleError, match="'w'.*non-finite"):
        read_bundle(path)


def test_non_finite_entry_after_byte_entry_named_on_write_and_read(tmp_path):
    tensors = {"text": np.frombuffer(b"abc", np.uint8), "w": np.array([1.5, np.nan])}
    with pytest.raises(BundleError, match="'w'.*non-finite"):
        write_bundle(tensors, tmp_path / "w.cmtb")
    assert list(tmp_path.iterdir()) == []
    path = tmp_path / "m.cmtb"
    write_bundle({**tensors, "w": np.array([1.5, 2.5])}, path)
    raw = path.read_bytes()
    path.write_bytes(raw.replace(struct.pack("<d", 2.5), struct.pack("<d", np.nan)))
    with pytest.raises(BundleError, match="'w'.*non-finite"):
        read_bundle(path)


def test_existing_bundle_survives_rejected_write(tmp_path, gen):
    path = tmp_path / "keep.cmtb"
    x = gen.standard_normal((2, 3))
    write_bundle({"x": x}, path)
    with pytest.raises(BundleError):
        write_bundle({"x": np.full((2, 3), np.nan)}, path)
    assert read_bundle(path)["x"].tobytes() == x.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["keep.cmtb"]


def test_existing_bundle_survives_interrupted_write(tmp_path, gen, monkeypatch):
    import cmvqa.bundle

    path = tmp_path / "keep.cmtb"
    x = gen.standard_normal(5)
    write_bundle({"x": x}, path)

    def fail_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cmvqa.bundle.os, "replace", fail_replace)
    with pytest.raises(OSError, match="disk full"):
        write_bundle({"x": gen.standard_normal(5)}, path)
    monkeypatch.undo()
    assert read_bundle(path)["x"].tobytes() == x.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["keep.cmtb"]


def test_read_arrays_own_their_memory_and_are_writeable(tmp_path, gen):
    tensors = {"f": gen.standard_normal((2, 3)), "u": np.frombuffer(b"abc", np.uint8)}
    write_bundle(tensors, tmp_path / "o.cmtb")
    for arr in read_bundle(tmp_path / "o.cmtb").values():
        assert arr.flags.owndata and arr.flags.writeable


def _entry_header(name: bytes, dims) -> bytes:
    """One v2 float64 entry's header, at payload offset 0."""
    return (struct.pack("<I", len(name)) + name + struct.pack("<BI", 0, len(dims))
            + struct.pack(f"<{len(dims)}Q", *dims) + struct.pack("<Q", 0))


def test_name_that_is_not_utf8_raises_bundle_error(tmp_path):
    path = tmp_path / "n.cmtb"
    path.write_bytes(b"CMTB" + struct.pack("<II", 2, 1) + _entry_header(b"\xff\xfe", (1,))
                     + struct.pack("<Q", 8) + b"\x00" * 8)
    with pytest.raises(BundleError, match="entry 0 .*not UTF-8"):
        read_bundle(path)


def test_dimension_numpy_cannot_hold_raises_bundle_error(tmp_path):
    path = tmp_path / "d.cmtb"
    path.write_bytes(b"CMTB" + struct.pack("<II", 2, 1) + _entry_header(b"x", (0, 2 ** 63))
                     + struct.pack("<Q", 0))
    with pytest.raises(BundleError, match="'x' has shape"):
        read_bundle(path)


# -- property tests: every malformed file is a BundleError ------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)
# float64 and uint8 entries in any order, 0-d and zero-length ones included
_arrays = st.dictionaries(
    st.text(min_size=1, max_size=6),
    st.one_of(
        st.lists(_finite, max_size=6).map(lambda v: np.array(v, np.float64)),
        _finite.map(np.array),
        st.binary(max_size=6).map(lambda b: np.frombuffer(b, np.uint8)),
        st.integers(0, 255).map(lambda v: np.array(v, np.uint8)),
    ),
    max_size=5,
)
_PROPERTY = settings(derandomize=True, max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def _bundle_bytes(tmp_path, tensors) -> bytes:
    path = tmp_path / "p.cmtb"
    write_bundle(tensors, path)
    return path.read_bytes()


def _read_raw(tmp_path, raw: bytes):
    path = tmp_path / "r.cmtb"
    path.write_bytes(raw)
    return read_bundle(path)


@_PROPERTY
@given(tensors=_arrays)
def test_entries_in_any_order_round_trip_bit_exactly(tmp_path, tensors):
    back = _read_raw(tmp_path, _bundle_bytes(tmp_path, tensors))
    assert list(back) == list(tensors)
    for name, arr in tensors.items():
        assert (back[name].dtype, back[name].shape) == (arr.dtype, arr.shape)
        assert back[name].tobytes() == arr.tobytes()


@_PROPERTY
@given(tensors=_arrays)
def test_every_truncation_raises_bundle_error(tmp_path, tensors):
    raw = _bundle_bytes(tmp_path, tensors)
    for cut in range(len(raw)):
        with pytest.raises(BundleError):
            _read_raw(tmp_path, raw[:cut])


@_PROPERTY
@given(tensors=_arrays, flips=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 255)),
                                        min_size=1, max_size=4))
def test_flipped_bytes_read_back_or_raise_bundle_error(tmp_path, tensors, flips):
    raw = bytearray(_bundle_bytes(tmp_path, tensors))
    for pos, mask in flips:
        raw[pos % len(raw)] ^= mask
    try:
        back = _read_raw(tmp_path, bytes(raw))
    except BundleError:
        return
    assert all(isinstance(arr, np.ndarray) for arr in back.values())
