import numpy as np
import pytest

from neighborrank.checkpoint import MAGIC, CheckpointError, atomic_write, load_arrays, save_arrays
from neighborrank.rng import RngStream


def test_round_trip_bit_exact(tmp_path):
    rng = RngStream(9)
    arrays = {
        "embed.item": rng.normal((7, 4)),
        "mlp.w0": rng.normal((4, 3)),
        "mlp.b0": np.zeros(3),
        "meta.scale": np.array(1.2345678901234567),
    }
    path = tmp_path / "model.ckpt"
    save_arrays(path, arrays)
    loaded = load_arrays(path)
    assert list(loaded) == list(arrays)
    for name in arrays:
        assert loaded[name].shape == arrays[name].shape
        assert arrays[name].tobytes() == loaded[name].tobytes()


def test_resave_is_byte_identical(tmp_path):
    arrays = {"a": RngStream(3).normal((5, 5))}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_arrays(p1, arrays)
    save_arrays(p2, load_arrays(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_arrays(path, {"w": np.ones(3)})
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="halfway"):
        with atomic_write(path, "wb") as fh:
            fh.write(before[:10])
            raise RuntimeError("halfway")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_header_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    save_arrays(path, {"w": np.ones(2)})
    assert path.read_bytes()[:8] == MAGIC == b"NLGRCKPT"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_arrays(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "t.ckpt"
    save_arrays(path, {"w": np.ones((3, 3))})
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(CheckpointError, match="truncated"):
        load_arrays(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "v.ckpt"
    save_arrays(path, {"w": np.ones(1)})
    raw = bytearray(path.read_bytes())
    raw[8] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_arrays(path)
