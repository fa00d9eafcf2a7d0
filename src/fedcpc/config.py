"""Flat key=value experiment configuration.

A config file is UTF-8 text: blank lines and ``#`` comments are ignored,
every other line is ``key=value``. Unknown keys are hard errors so a typo
cannot silently fall back to a default. Every key carries a provenance tag:

    published   value taken from the published training setup
    desk        scaled down (or invented) to run on a desktop
    plumbing    artifact mechanics with no published counterpart

The desk value of every ``cpc.``, ``fed.``, ``central.`` and ``probe.`` key
is the default of the matching dataclass field, read here rather than
restated. ``scale=paper`` selects the published full-scale preset, which is
not desktop-feasible and refuses to run unless acknowledge_paper_scale=true.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .central import CentralConfig
from .errors import ConfigError
from .federated import SERVER_OPTS, FedConfig
from .files import atomic_writer
from .model import CpcConfig
from .probe import ProbeConfig
from .rng import DEFAULT_SEED


@dataclass(frozen=True)
class Key:
    type: type
    desk: object
    paper: object
    provenance: str
    choices: tuple[str, ...] | None = None


_CPC, _FED, _CENTRAL, _PROBE = CpcConfig(), FedConfig(), CentralConfig(), ProbeConfig()

SCHEMA: dict[str, Key] = {
    "seed": Key(int, DEFAULT_SEED, DEFAULT_SEED, "plumbing"),
    "scale": Key(str, "desk", "paper", "plumbing", choices=("desk", "paper")),
    "acknowledge_paper_scale": Key(bool, False, False, "plumbing"),
    "mode": Key(str, "federated", "federated", "plumbing", choices=("federated", "central")),
    "workers": Key(int, 1, 1, "plumbing"),
    "corpus.speakers": Key(int, 10, 10, "desk"),
    "corpus.chapters": Key(int, 4, 4, "desk"),
    "corpus.utterances": Key(int, 80, 80, "desk"),
    "corpus.style": Key(str, "temporal", "temporal", "desk",
                        choices=("spectral", "temporal")),
    "cpc.input_dim": Key(int, _CPC.input_dim, 768, "published"),
    "cpc.enc_layers": Key(int, _CPC.enc_layers, 3, "desk/published"),
    "cpc.enc_units": Key(int, _CPC.enc_units, 512, "desk/published"),
    "cpc.ctx_layers": Key(int, _CPC.ctx_layers, 6, "desk/published"),
    "cpc.ctx_units": Key(int, _CPC.ctx_units, 1024, "desk/published"),
    "cpc.future_steps": Key(int, _CPC.future_steps, 4, "desk"),
    "cpc.temperature": Key(float, _CPC.temperature, 1.0, "desk"),
    "cpc.num_negatives": Key(int, _CPC.num_negatives, 7, "desk"),
    "fed.num_clients": Key(int, _FED.num_clients, 48, "desk/published"),
    "fed.clients_per_round": Key(int, _FED.clients_per_round, 48, "desk/published"),
    "fed.client_batch_size": Key(int, _FED.client_batch_size, 8, "desk/published"),
    "fed.local_steps": Key(int, _FED.local_steps, 1, "published"),
    "fed.batches_per_step": Key(int, _FED.batches_per_step, 1, "published"),
    "fed.rounds_max": Key(int, _FED.rounds_max, 22000, "desk/published"),
    "fed.client_lr": Key(float, _FED.client_lr, 1.0, "published"),
    "fed.server_opt": Key(str, _FED.server_opt, "adam", "published", choices=SERVER_OPTS),
    "fed.server_lr": Key(float, _FED.server_lr, 1e-5, "desk/published"),
    "fed.beta1": Key(float, _FED.beta1, 0.9, "desk"),
    "fed.beta2": Key(float, _FED.beta2, 0.999, "desk"),
    "fed.eps": Key(float, _FED.eps, 1e-8, "desk"),
    "central.epochs": Key(int, _CENTRAL.epochs, 1, "desk"),
    "central.batch_size": Key(int, _CENTRAL.batch_size, 64, "desk/published"),
    "central.lr": Key(float, _CENTRAL.lr, 1e-5, "desk/published"),
    "central.max_steps": Key(int, _CENTRAL.max_steps, 130000, "desk/published"),
    "probe.epochs": Key(int, _PROBE.epochs, 300, "desk"),
    "probe.lr": Key(float, _PROBE.lr, 0.05, "desk"),
    "probe.eval_fraction": Key(float, _PROBE.eval_fraction, 0.2, "desk"),
}


def _parse_value(key: str, raw: str) -> object:
    spec = SCHEMA[key]
    raw = raw.strip()
    if spec.type is bool:
        if raw not in ("true", "false"):
            raise ConfigError(f"{key}: expected true or false, got {raw!r}")
        return raw == "true"
    if spec.type is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if spec.type is float:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
        return value
    if spec.choices is not None and raw not in spec.choices:
        raise ConfigError(f"{key}: expected one of {spec.choices}, got {raw!r}")
    return raw


def _render_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def desk_preset() -> dict[str, object]:
    return {key: spec.desk for key, spec in SCHEMA.items()}


def parse_config(text: str) -> dict[str, object]:
    """Parse key=value lines over the desk preset; a later line for the same
    key wins."""
    cfg = desk_preset()
    explicit = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        cfg[key] = _parse_value(key, raw)
        explicit.add(key)
    if cfg["workers"] < 1:
        raise ConfigError(f"workers: expected at least 1, got {cfg['workers']}")
    if cfg["seed"] < 0:
        raise ConfigError(f"seed: expected a non-negative integer, got {cfg['seed']}")
    if cfg["scale"] == "paper":
        # overlay published values for anything the text left at desk default
        for key, spec in SCHEMA.items():
            if key not in explicit:
                cfg[key] = spec.paper
    return cfg


def load_config(path=None, overrides: Sequence[str] = ()) -> dict[str, object]:
    """Parse the config file at ``path`` (none: desk defaults), then the
    ``key=value`` lines in ``overrides``, which win over the file."""
    text = ""
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as e:
            raise ConfigError(str(e)) from e
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    return parse_config("\n".join([text, *overrides]))


def render_config(cfg: dict[str, object], provenance: bool = True) -> str:
    """The serialized form: same keys in, same run out."""
    lines = []
    for key, spec in SCHEMA.items():
        if provenance:
            lines.append(f"# [{spec.provenance}]")
        lines.append(f"{key}={_render_value(cfg[key])}")
    return "\n".join(lines) + "\n"


def write_config(path, cfg: dict[str, object]) -> None:
    with atomic_writer(path) as f:
        f.write(render_config(cfg).encode("utf-8"))


def config_comment_lines(cfg: dict[str, object]) -> list[str]:
    """One ``cfg key=value`` comment per key, embedded in text artifacts."""
    return [f"cfg {key}={_render_value(cfg[key])}" for key in SCHEMA]


def config_meta_entries(cfg: dict[str, object]) -> dict[str, str]:
    """Config as checkpoint metadata (prefixed to dodge model-config keys)."""
    return {f"x.{key}": _render_value(cfg[key]) for key in SCHEMA}


def ensure_runnable(cfg: dict[str, object]) -> None:
    if cfg["scale"] == "paper" and not cfg["acknowledge_paper_scale"]:
        raise ConfigError(
            "scale=paper replicates the published full-scale setup, which is not "
            "feasible on a desktop; set acknowledge_paper_scale=true to run anyway")


def _from_keys(cls, cfg: dict[str, object], prefix: str, **explicit):
    """``cls`` built from the ``<prefix>.<field>`` keys that SCHEMA has, plus
    ``explicit`` fields."""
    fields = {f.name: cfg[f"{prefix}.{f.name}"] for f in dataclasses.fields(cls)
              if f"{prefix}.{f.name}" in SCHEMA}
    return cls(**fields, **explicit)


def cpc_config(cfg: dict[str, object]) -> CpcConfig:
    return _from_keys(CpcConfig, cfg, "cpc")


def fed_config(cfg: dict[str, object]) -> FedConfig:
    return _from_keys(FedConfig, cfg, "fed", seed=cfg["seed"])


def central_config(cfg: dict[str, object]) -> CentralConfig:
    # there are no central.beta* or central.eps keys: the central Adam shares
    # the server Adam's betas and eps
    return _from_keys(CentralConfig, cfg, "central", seed=cfg["seed"],
                      beta1=cfg["fed.beta1"], beta2=cfg["fed.beta2"], eps=cfg["fed.eps"])


def probe_config(cfg: dict[str, object]) -> ProbeConfig:
    return _from_keys(ProbeConfig, cfg, "probe", seed=cfg["seed"])
