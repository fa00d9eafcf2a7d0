"""Tests for the checkpoint format: round-trips, byte determinism, and
corruption detection."""

import numpy as np
import pytest

from fedcpc import checkpoint as ck
from fedcpc import model as m
from fedcpc.errors import CheckpointError


def cfg():
    return m.CpcConfig(input_dim=6, enc_layers=1, enc_units=4, ctx_layers=1,
                       ctx_units=3, future_steps=2, temperature=0.5,
                       num_negatives=2)


def test_roundtrip_weights_config_meta(tmp_path):
    config = cfg()
    weights = m.flatten(m.init_params(config, 3))
    path = tmp_path / "model.ckpt"
    ck.save_checkpoint(path, config, weights, meta={"round": "12", "x.seed": "42"})
    config2, weights2, meta = ck.load_checkpoint(path)
    assert config2 == config
    assert np.array_equal(weights2, weights)
    assert meta["round"] == "12"
    assert meta["x.seed"] == "42"


def test_equal_content_is_byte_identical(tmp_path):
    config = cfg()
    weights = m.flatten(m.init_params(config, 5))
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ck.save_checkpoint(a, config, weights, meta={"k": "v"})
    ck.save_checkpoint(b, config, weights.copy(), meta={"k": "v"})
    assert a.read_bytes() == b.read_bytes()
    assert ck.file_sha256(a) == ck.file_sha256(b)


def test_meta_order_does_not_matter(tmp_path):
    config = cfg()
    weights = np.zeros(m.param_count(config))
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ck.save_checkpoint(a, config, weights, meta={"p": "1", "q": "2"})
    ck.save_checkpoint(b, config, weights, meta={"q": "2", "p": "1"})
    assert a.read_bytes() == b.read_bytes()


def test_weight_change_changes_hash(tmp_path):
    config = cfg()
    weights = m.flatten(m.init_params(config, 5))
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ck.save_checkpoint(a, config, weights)
    bumped = weights.copy()
    bumped[0] = np.nextafter(bumped[0], np.inf)
    ck.save_checkpoint(b, config, bumped)
    assert ck.file_sha256(a) != ck.file_sha256(b)


def test_wrong_length_rejected(tmp_path):
    config = cfg()
    with pytest.raises(CheckpointError):
        ck.save_checkpoint(tmp_path / "x.ckpt", config,
                           np.zeros(m.param_count(config) + 1))


def test_bad_meta_rejected(tmp_path):
    config = cfg()
    weights = np.zeros(m.param_count(config))
    with pytest.raises(CheckpointError):
        ck.save_checkpoint(tmp_path / "x.ckpt", config, weights, meta={"bad key": "v"})
    with pytest.raises(CheckpointError):
        ck.save_checkpoint(tmp_path / "x.ckpt", config, weights, meta={"k": "two\nlines"})


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOT-A-CKPT\ndata\n")
    with pytest.raises(CheckpointError):
        ck.load_checkpoint(path)


def test_load_rejects_missing_sentinel(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"FEDCPC-CKPT-1\nmeta a b\n")
    with pytest.raises(CheckpointError):
        ck.load_checkpoint(path)


def test_load_rejects_truncated_payload(tmp_path):
    config = cfg()
    weights = np.zeros(m.param_count(config))
    path = tmp_path / "x.ckpt"
    ck.save_checkpoint(path, config, weights)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError):
        ck.load_checkpoint(path)


def test_load_rejects_tampered_param_table(tmp_path):
    config = cfg()
    weights = np.zeros(m.param_count(config))
    path = tmp_path / "x.ckpt"
    ck.save_checkpoint(path, config, weights)
    blob = path.read_bytes().replace(b"param enc.0.W 6 4", b"param enc.0.W 4 6")
    path.write_bytes(blob)
    with pytest.raises(CheckpointError):
        ck.load_checkpoint(path)


@pytest.mark.parametrize("good, garbled", [
    (b"param enc.0.W 6 4\n", b"param enc.0.W 6x4\n"),
    (b"meta cfg.enc_units 4\n", b"meta cfg.enc_units 4x\n"),
    (b"meta cfg.temperature 0.5\n", b"meta cfg.temperature half\n"),
], ids=["param-shape", "meta-int", "meta-float"])
def test_load_rejects_garbled_header(tmp_path, good, garbled):
    path = tmp_path / "x.ckpt"
    ck.save_checkpoint(path, cfg(), np.zeros(m.param_count(cfg())))
    blob = path.read_bytes()
    assert good in blob
    path.write_bytes(blob.replace(good, garbled))
    with pytest.raises(CheckpointError):
        ck.load_checkpoint(path)


def test_config_meta_roundtrip():
    config = cfg()
    assert ck.config_from_meta(ck.config_meta(config)) == config


def test_config_from_meta_missing_key():
    meta = ck.config_meta(cfg())
    del meta["cfg.temperature"]
    with pytest.raises(CheckpointError):
        ck.config_from_meta(meta)
