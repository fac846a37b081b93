"""Bundle round-trip and corruption tests."""

import numpy as np
import pytest

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
