"""Command-line harness.

Subcommands:

    synth      generate a synthetic corpus manifest
    silo       partition a manifest and write the silo report
    pretrain   federated or central pre-training from a manifest
    probe      linear-probe accuracy of a checkpoint (or random init)
    gradcheck  finite-difference check of the tape gradients

Every artifact embeds the serialized config that produced it; rerunning the
same config reproduces the artifact. Diagnostics go to stderr; the exit code
is 0 exactly when the command succeeded. Setting FEDCPC_DETERMINISTIC=1
zeroes wall-clock fields so logs from repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import central as central_mod
from . import config as cfg_mod
from . import federated as fed_mod
from . import gradcheck as gradcheck_mod
from . import model as m
from . import probe as probe_mod
from .checkpoint import load_checkpoint
from .errors import FedcpcError
from .files import atomic_writer
from .frontend import synth_corpus
from .silo import load_manifest, partition_by_speaker, silo_report, write_manifest


# flags that override a config key, by argparse destination
_FLAG_KEYS = {"seed": "seed", "workers": "workers", "mode": "mode",
              "server_opt": "fed.server_opt"}


def _load_cfg(args) -> dict[str, object]:
    # flags go through the parser as trailing key=value lines, so they are
    # validated like file values and win over them
    overrides = [f"{key}={getattr(args, dest)}" for dest, key in _FLAG_KEYS.items()
                 if getattr(args, dest, None) is not None]
    cfg = cfg_mod.load_config(args.config, overrides)
    cfg_mod.ensure_runnable(cfg)
    return cfg


def _emit(out, text: str) -> None:
    """Write a report to the ``--out`` path, or to stdout without one."""
    if out:
        with atomic_writer(out) as f:
            f.write(text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file (desk defaults otherwise)")
    p.add_argument("--seed", type=int, help="override the config seed")


def cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    records = synth_corpus(cfg["corpus.speakers"], cfg["corpus.chapters"],
                           cfg["corpus.utterances"], cfg["seed"],
                           style=cfg["corpus.style"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / "manifest.tsv"
    write_manifest(manifest, records, header_comments=cfg_mod.config_comment_lines(cfg))
    cfg_mod.write_config(out / "config.txt", cfg)
    print(manifest)
    return 0


def cmd_silo(args) -> int:
    records = load_manifest(args.manifest)
    silos = partition_by_speaker(records)
    report = silo_report(silos)
    _emit(args.out, report)
    print(f"{len(silos)} speakers, {len(records)} utterances", file=sys.stderr)
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load_cfg(args)
    records = load_manifest(args.manifest)
    cpc = cfg_mod.cpc_config(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = cfg_mod.config_meta_entries(cfg)
    base_dir = Path(args.manifest).parent
    if cfg["mode"] == "federated":
        result = fed_mod.run_federated(records, cfg_mod.fed_config(cfg), cpc,
                                       out_dir=out, workers=cfg["workers"],
                                       base_dir=base_dir, checkpoint_meta=meta)
    else:
        result = central_mod.run_central(records, cfg_mod.central_config(cfg), cpc,
                                         out_dir=out, base_dir=base_dir,
                                         checkpoint_meta=meta)
    fed_mod.write_metrics(out / "metrics.tsv", result.metrics,
                          header_comments=cfg_mod.config_comment_lines(cfg))
    cfg_mod.write_config(out / "config.txt", cfg)
    if not result.metrics:
        print("no usable training rounds", file=sys.stderr)
        return 1
    first, last = result.metrics[0], result.metrics[-1]
    print(f"{cfg['mode']}: {len(result.metrics)} rounds, "
          f"loss {first.mean_client_loss:.4f} -> {last.mean_client_loss:.4f}",
          file=sys.stderr)
    print(result.checkpoints[-1])
    return 0


def cmd_probe(args) -> int:
    cfg = _load_cfg(args)
    records = load_manifest(args.manifest)
    base_dir = Path(args.manifest).parent
    task = probe_mod.build_task(records, cfg["probe.eval_fraction"])
    if args.random_init:
        cpc = cfg_mod.cpc_config(cfg)
        weights = m.flatten(m.init_params(cpc, cfg["seed"]))
        name = "random-init"
    else:
        if not args.checkpoint:
            print("probe needs --checkpoint or --random-init", file=sys.stderr)
            return 2
        cpc, weights, _ = load_checkpoint(args.checkpoint)
        name = Path(args.checkpoint).name
    arm = args.arm or ("random-init" if args.random_init else "pretrained")
    result = probe_mod.evaluate_weights(arm, name, weights, cpc, task,
                                        cfg_mod.probe_config(cfg), base_dir)
    report = probe_mod.render_probe_report([result],
                                           header_comments=cfg_mod.config_comment_lines(cfg))
    _emit(args.out, report)
    print(f"{arm}: accuracy {result.accuracy:.4f} on {result.n_eval} utterances",
          file=sys.stderr)
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _load_cfg(args)
    reports = gradcheck_mod.run_gradcheck(cfg_mod.cpc_config(cfg), cfg["seed"])
    table = gradcheck_mod.render_report(reports)
    _emit(args.out, table)
    failed = [r.group for r in reports if not r.passed]
    if failed:
        print(f"gradcheck FAILED for {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"gradcheck passed for all {len(reports)} parameter groups", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedcpc",
                                     description="speaker-siloed federated CPC pre-training, desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory for the manifest")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("silo", help="partition a manifest by speaker")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="report path (stdout otherwise)")
    p.set_defaults(fn=cmd_silo)

    p = sub.add_parser("pretrain", help="federated or central pre-training")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--mode", choices=("federated", "central"))
    p.add_argument("--server-opt", choices=fed_mod.SERVER_OPTS, dest="server_opt")
    p.add_argument("--workers", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("probe", help="linear-probe a checkpoint")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--random-init", action="store_true", dest="random_init",
                   help="probe a freshly initialized model instead of a checkpoint")
    p.add_argument("--arm", help="label for the report row")
    p.add_argument("--out", help="report path (stdout otherwise)")
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    _add_common(p)
    p.add_argument("--out", help="report path (stdout otherwise)")
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # overflow is caught where it matters (Tensor construction, the
        # server step), so numpy's own warnings would only clutter stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except FedcpcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
