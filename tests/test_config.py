"""Tests for config parsing, presets, serialization, and materializers."""

import pytest

from fedcpc import config as c
from fedcpc.central import CentralConfig
from fedcpc.errors import ConfigError
from fedcpc.federated import FedConfig
from fedcpc.model import CpcConfig
from fedcpc.probe import ProbeConfig


def test_desk_preset_is_schema_complete():
    cfg = c.desk_preset()
    assert set(cfg) == set(c.SCHEMA)
    assert cfg["scale"] == "desk"
    assert cfg["fed.server_lr"] == 3e-3


def test_desk_preset_equals_dataclass_defaults():
    cfg = c.desk_preset()
    assert c.cpc_config(cfg) == CpcConfig()
    assert c.fed_config(cfg) == FedConfig()
    assert c.central_config(cfg) == CentralConfig()
    assert c.probe_config(cfg) == ProbeConfig()


def test_parse_overrides_defaults():
    cfg = c.parse_config("seed=7\nfed.rounds_max=12\n")
    assert cfg["seed"] == 7
    assert cfg["fed.rounds_max"] == 12
    assert cfg["fed.client_lr"] == 1.0  # untouched default


def test_parse_ignores_comments_and_blanks():
    cfg = c.parse_config("# a comment\n\n  seed=3\n")
    assert cfg["seed"] == 3


def test_parse_unknown_key_is_hard_error_with_line():
    with pytest.raises(ConfigError) as e:
        c.parse_config("seed=1\nfed.round_max=5\n")
    assert "line 2" in str(e.value)
    assert "fed.round_max" in str(e.value)


def test_parse_missing_equals():
    with pytest.raises(ConfigError) as e:
        c.parse_config("seed 1\n")
    assert "line 1" in str(e.value)


def test_parse_type_errors():
    with pytest.raises(ConfigError):
        c.parse_config("seed=abc\n")
    with pytest.raises(ConfigError):
        c.parse_config("fed.client_lr=fast\n")
    with pytest.raises(ConfigError):
        c.parse_config("acknowledge_paper_scale=yes\n")
    with pytest.raises(ConfigError):
        c.parse_config("mode=distributed\n")
    with pytest.raises(ConfigError):
        c.parse_config("corpus.style=smooth\n")


@pytest.mark.parametrize("line", [
    "fed.client_lr=nan",
    "cpc.temperature=inf",
    "fed.server_lr=-inf",
    "probe.lr=NaN",
    "workers=0",
    "workers=-2",
])
def test_parse_rejects_bad_values(line):
    with pytest.raises(ConfigError) as e:
        c.parse_config(line + "\n")
    assert line.partition("=")[0] in str(e.value)


def test_render_parse_roundtrip():
    cfg = c.desk_preset()
    cfg["seed"] = 123
    cfg["fed.server_lr"] = 0.004
    cfg["corpus.style"] = "spectral"
    back = c.parse_config(c.render_config(cfg))
    assert back == cfg


def test_render_carries_provenance_comments():
    text = c.render_config(c.desk_preset())
    assert "# [published]" in text
    assert "# [desk/published]" in text
    assert "# [plumbing]" in text
    bare = c.render_config(c.desk_preset(), provenance=False)
    assert "# [" not in bare


def test_paper_scale_overlay():
    cfg = c.parse_config("scale=paper\n")
    assert cfg["cpc.enc_layers"] == 3
    assert cfg["cpc.enc_units"] == 512
    assert cfg["cpc.ctx_layers"] == 6
    assert cfg["cpc.ctx_units"] == 1024
    assert cfg["fed.num_clients"] == 48
    assert cfg["fed.rounds_max"] == 22000
    assert cfg["fed.server_lr"] == 1e-5
    assert cfg["central.max_steps"] == 130000


def test_paper_scale_explicit_keys_win():
    cfg = c.parse_config("scale=paper\nfed.rounds_max=100\n")
    assert cfg["fed.rounds_max"] == 100
    assert cfg["fed.num_clients"] == 48


def test_paper_scale_refuses_without_acknowledgement():
    cfg = c.parse_config("scale=paper\n")
    with pytest.raises(ConfigError):
        c.ensure_runnable(cfg)
    cfg = c.parse_config("scale=paper\nacknowledge_paper_scale=true\n")
    c.ensure_runnable(cfg)
    c.ensure_runnable(c.desk_preset())


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        c.load_config(tmp_path / "none.cfg")


def test_comment_lines_and_meta_entries():
    cfg = c.desk_preset()
    comments = c.config_comment_lines(cfg)
    assert len(comments) == len(c.SCHEMA)
    assert all(line.startswith("cfg ") for line in comments)
    meta = c.config_meta_entries(cfg)
    assert set(meta) == {f"x.{k}" for k in c.SCHEMA}
    assert meta["x.seed"] == "42"
    assert meta["x.acknowledge_paper_scale"] == "false"


def test_materializers_produce_dataclasses():
    cfg = c.desk_preset()
    cpc = c.cpc_config(cfg)
    assert isinstance(cpc, CpcConfig)
    assert (cpc.enc_layers, cpc.enc_units) == (2, 64)

    fed = c.fed_config(cfg)
    assert isinstance(fed, FedConfig)
    assert fed.server_lr == 3e-3
    assert fed.seed == 42

    cen = c.central_config(cfg)
    assert isinstance(cen, CentralConfig)
    assert cen.lr == 2e-3 and cen.max_steps == 200

    probe = c.probe_config(cfg)
    assert isinstance(probe, ProbeConfig)
    assert probe.epochs == 300


def test_float_values_roundtrip_exactly():
    cfg = c.desk_preset()
    cfg["fed.server_lr"] = 0.1 + 0.2  # 0.30000000000000004
    back = c.parse_config(c.render_config(cfg))
    assert back["fed.server_lr"] == cfg["fed.server_lr"]
