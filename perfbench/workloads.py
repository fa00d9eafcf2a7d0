"""The three benchmark workloads and their inputs.

Inputs are a pure function of the workload seed and the unit index: no
clock, no global random state, no file read. A run is a sequence of timed
units. Unit ``u`` of workload seed ``s`` uses the desk config with
``seed = s * UNIT_SEED_STRIDE + u``, so every unit trains (or probes) fresh
utterances from a fresh initialisation. Distinct utterances per unit keep a
cache that outlives one program call from turning repeated benchmark units
into hits the program would not get.

The quality run behind ``loss_ratio`` and the probe-pcm checkpoint is the
exception: its inputs are the same for every workload seed (see
``quality_run``).

The timed calls go through module attributes (``federated.run_federated``,
``probe.evaluate_weights``, ``checkpoint.load_checkpoint``) so the traced
run's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import statistics
import time
from pathlib import Path

import fedcpc.config as c
from fedcpc import autodiff, central, checkpoint, federated, probe
from fedcpc import model as m
from fedcpc.frontend import save_pcm, synth_corpus, synth_waveform
from fedcpc.silo import UtteranceRecord


UNIT_SEED_STRIDE = 1000
# the traced phase of a run uses units from here on, so the traced inputs
# do not depend on how many untraced units fitted before them
TRACED_UNIT_BASE = 500
# fixed work per training unit
ROUNDS_PER_UNIT = 5
STEPS_PER_UNIT = 5
# held-out utterances probed after each training unit: 5 per speaker, so
# the probe's 1-in-5 split gives one eval utterance per speaker
TRAIN_PROBE_UTTS = 5
# utterances per speaker in one probe-pcm unit
PCM_UTTS = 10
# the quality run: QUALITY_UTTS utterances trained on again and again for
# QUALITY_STEPS rounds or steps, from config seed QUALITY_SEED
QUALITY_SEED = 42
QUALITY_UTTS = 4
QUALITY_STEPS = 20


def unit_config(seed: int, unit: int) -> dict[str, object]:
    """Desk config for one unit."""
    cfg = c.desk_preset()
    cfg["seed"] = seed * UNIT_SEED_STRIDE + unit
    return cfg


def _corpus(cfg: dict[str, object], chapters: int, utterances: int) -> list[UtteranceRecord]:
    return synth_corpus(cfg["corpus.speakers"], chapters, utterances, cfg["seed"],
                        cfg["corpus.style"])


def training_inputs(cfg: dict[str, object]) -> tuple[list[UtteranceRecord],
                                                      list[UtteranceRecord]]:
    """(training records, held-out probe records) of a desk corpus.

    The last chapter is held out of training; the first TRAIN_PROBE_UTTS
    utterances of each speaker in it form the probe set.
    """
    records = _corpus(cfg, cfg["corpus.chapters"], cfg["corpus.utterances"])
    last = max(r.chapter_id for r in records)
    train = [r for r in records if r.chapter_id != last]
    held_out = [r for r in records if r.chapter_id == last
                and int(r.utterance_id.rsplit("-", 1)[1]) < TRAIN_PROBE_UTTS]
    return train, held_out


def pcm_records(cfg: dict[str, object]) -> list[UtteranceRecord]:
    """Synthetic records for one probe-pcm unit, before materialisation."""
    return _corpus(cfg, 1, PCM_UTTS)


def materialise_pcm(records, out_dir) -> list[UtteranceRecord]:
    """Render each record to ``<out_dir>/<utterance_id>.pcm`` (plus its
    ``.len`` sidecar) and return records whose audio_ref is that relative
    file name."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    out = []
    for r in records:
        name = f"{r.utterance_id}.pcm"
        save_pcm(Path(out_dir) / name, synth_waveform(r.audio_ref))
        out.append(UtteranceRecord(r.utterance_id, r.speaker_id, r.chapter_id,
                                   name, r.duration_s))
    return out


def quality_run(kind: str, out: Path, steps: int = QUALITY_STEPS):
    """Train on the quality inputs and return the program's RunResult; the
    final checkpoint is ``out/final.ckpt``.

    ``kind`` "federated" runs ``run_federated`` with one client and the desk
    server Adam, "central" runs ``run_central`` with the desk Adam. Both
    see the same QUALITY_UTTS utterances in every round or step, so the
    loss falls from ln 8 to 0.60-0.66 of it in 20 (a program that stopped
    learning reads about 1.0). The inputs do not depend on the workload
    seed: with 4 utterances, seeds alone spread the ratio by more than any
    bound allows, while a 1e-7 relative change of the initial weights moves
    it by less than 2e-5 of itself.
    """
    cfg = c.desk_preset()
    cfg["seed"] = QUALITY_SEED
    cpc = c.cpc_config(cfg)
    records = synth_corpus(1, 1, QUALITY_UTTS, QUALITY_SEED, cfg["corpus.style"])
    out.mkdir(parents=True, exist_ok=True)
    if kind == "federated":
        # one chapter per round: the client's stream is the same batch again and again
        repeated = [dataclasses.replace(r, chapter_id=f"rep{k:03d}")
                    for k in range(steps) for r in records]
        fed = dataclasses.replace(c.fed_config(cfg), num_clients=1, clients_per_round=1,
                                  rounds_max=steps)
        return federated.run_federated(repeated, fed, cpc, out_dir=out)
    cen = dataclasses.replace(c.central_config(cfg), epochs=steps,
                              batch_size=QUALITY_UTTS, max_steps=steps)
    return central.run_central(records, cen, cpc, out_dir=out)


def loss_ratio(losses: list[float]) -> float:
    """Mean loss over the last tenth of rounds or steps over the first's."""
    tail = losses[-math.ceil(len(losses) / 10):]
    return statistics.fmean(tail) / losses[0]


@dataclasses.dataclass
class UnitResult:
    utts: int                # usable training utterances, or utterances probed
    busy_s: float            # training call (training units) or whole unit (probe)
    round_s: list[float]     # mean round or step time (training units) or whole unit (probe)
    probe_s: list[float]     # per probe arm
    losses: list[float]
    accuracies: list[float]
    digest: str              # deterministic outputs, compared across repeats


class TrainingWorkload:
    """fed-desk and central-desk: a short pre-training run, then one probe
    arm on its final weights over held-out synthetic utterances."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.ops_per_unit = (ROUNDS_PER_UNIT if name == "fed-desk" else STEPS_PER_UNIT) + 1
        self.quality_kind = "federated" if name == "fed-desk" else "central"

    def inputs(self, unit: int):
        cfg = unit_config(self.seed, unit)
        train, held_out = training_inputs(cfg)
        return cfg, train, probe.build_task(held_out, cfg["probe.eval_fraction"])

    def setup_pass(self):
        inputs = self.inputs(0)
        cfg, train, _ = inputs
        cpc = c.cpc_config(cfg)
        # one client batch forward and backward, so lazy allocation and BLAS
        # start-up are not charged to the first timed round
        weights = m.flatten(m.init_params(cpc, cfg["seed"]))
        loss, params, _ = federated.batch_mean_loss(
            weights, train[:cfg["fed.client_batch_size"]], cpc, cfg["seed"])
        autodiff.gradient(loss, params.tensors())
        return inputs

    def run_unit(self, unit: int, inputs) -> UnitResult:
        cfg, train, task = inputs
        cpc = c.cpc_config(cfg)
        out = self.work / f"unit{unit}"
        out.mkdir()
        started = time.perf_counter()
        if self.name == "fed-desk":
            fed = dataclasses.replace(c.fed_config(cfg), rounds_max=ROUNDS_PER_UNIT)
            result = federated.run_federated(train, fed, cpc, out_dir=out,
                                             workers=cfg["workers"])
        else:
            cen = dataclasses.replace(c.central_config(cfg), max_steps=STEPS_PER_UNIT)
            result = central.run_central(train, cen, cpc, out_dir=out)
        trained = time.perf_counter()
        arm = probe.evaluate_weights("trained", "final.ckpt", result.weights, cpc,
                                     task, c.probe_config(cfg))
        done = time.perf_counter()
        rows = result.metrics
        # the benchmark's clock, not the program's rows: checkpoint saves
        # (every round at this length) fall outside the program's round timer
        return UnitResult(
            utts=sum(r.utterances for r in rows), busy_s=trained - started,
            round_s=[(trained - started) / len(rows)],
            probe_s=[done - trained], losses=[r.mean_client_loss for r in rows],
            accuracies=[arm.accuracy],
            digest=f"{checkpoint.file_sha256(out / 'final.ckpt')} {arm.accuracy!r}")

    def use_checkpoint(self, path: Path) -> None:
        """Training units write their own checkpoints."""

    def cleanup(self, unit: int) -> None:
        shutil.rmtree(self.work / f"unit{unit}", ignore_errors=True)


class ProbeWorkload:
    """probe-pcm: load one checkpoint, then probe it and a random-init
    encoder over the same PCM utterances, as README step 4 does."""

    ops_per_unit = 2
    quality_kind = "federated"

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.checkpoint = None

    def inputs(self, unit: int):
        cfg = unit_config(self.seed, unit)
        base = self.work / f"unit{unit}"
        records = materialise_pcm(pcm_records(cfg), base)
        random_init = m.flatten(m.init_params(c.cpc_config(cfg), cfg["seed"]))
        return cfg, base, probe.build_task(records, cfg["probe.eval_fraction"]), random_init

    def setup_pass(self):
        inputs = self.inputs(0)
        cfg, base, task, random_init = inputs
        probe.extract_contexts(random_init, c.cpc_config(cfg), task.train_records[:4], base)
        return inputs

    def use_checkpoint(self, path: Path) -> None:
        """Probe the federated quality run's final checkpoint. Without one
        (the quality run failed, which fails the run) the units probe a
        random-init checkpoint, so the run still completes."""
        if not path.is_file():
            path.parent.mkdir(parents=True, exist_ok=True)
            cpc = c.cpc_config(c.desk_preset())
            checkpoint.save_checkpoint(path, cpc, m.flatten(m.init_params(cpc, QUALITY_SEED)))
        self.checkpoint = path

    def run_unit(self, unit: int, inputs) -> UnitResult:
        cfg, base, task, random_init = inputs
        pcfg = c.probe_config(cfg)
        started = time.perf_counter()
        cpc, weights, _ = checkpoint.load_checkpoint(self.checkpoint)
        loaded = time.perf_counter()
        pre = probe.evaluate_weights("pretrained", self.checkpoint.name, weights, cpc,
                                     task, pcfg, base)
        first = time.perf_counter()
        rnd = probe.evaluate_weights("random-init", "random-init", random_init,
                                     c.cpc_config(cfg), task, pcfg, base)
        done = time.perf_counter()
        per_arm = len(task.train_records) + len(task.eval_records)
        return UnitResult(
            utts=2 * per_arm, busy_s=done - started,
            round_s=[done - started], probe_s=[first - loaded, done - first],
            losses=[], accuracies=[pre.accuracy, rnd.accuracy],
            digest=f"{checkpoint.file_sha256(self.checkpoint)} {pre.accuracy!r} {rnd.accuracy!r}")

    def cleanup(self, unit: int) -> None:
        shutil.rmtree(self.work / f"unit{unit}", ignore_errors=True)


def make_workload(name: str, seed: int, work: Path):
    cls = ProbeWorkload if name == "probe-pcm" else TrainingWorkload
    return cls(name, seed, work)
