"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: ``install`` replaces the
module attributes that fedcpc looks up at call time (for example
``fedcpc.federated.gradient`` or ``fedcpc.model.contextualize``) with
wrappers that time each call, and ``Patches.restore`` puts the originals
back. Nothing under ``src/`` is edited, and the untraced run installs
nothing.

A span is (name, start, end, parent, trace). ``trace`` is one identifier per
federated round, central step or probe arm; a wrapper marked ``new_trace``
starts a new one when it is entered. Calls too frequent for a span
(``sample_negatives``) only bump a counter.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    trace: int


class Tracer:
    """Keeps spans and counters in memory until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.utterances: set[tuple[str, str]] = set()  # (audio_ref, base_dir)
        self.trace = 0
        self._stack: list[int] = []

    def enter(self, name: str, new_trace: bool = False) -> int:
        if new_trace:
            self.trace += 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.trace))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    "trace": s.trace}) + "\n")


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name, the summed duration minus the part of each span's
    interval that its direct children cover (overlapping children count
    once, and a child is clipped to its parent's interval)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            start, end = max(s.start, p.start), min(s.end, p.end)
            if end > start:
                children[s.parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s.name] += (s.end - s.start) - covered(children.get(i, []))
    return dict(out)


class Patches:
    """Module attributes replaced by ``install``; ``restore`` undoes them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _timed(tracer: Tracer, fn, name: str, new_trace: bool = False, after=None):
    def wrapper(*args, **kwargs):
        index = tracer.enter(name, new_trace)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(index)
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _counted(tracer: Tracer, fn, counter: str):
    def wrapper(*args, **kwargs):
        tracer.counters[counter] += 1
        return fn(*args, **kwargs)
    return wrapper


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary the per-layer table reports."""
    import fedcpc.autodiff as autodiff
    import fedcpc.central as central
    import fedcpc.checkpoint as checkpoint
    import fedcpc.federated as federated
    import fedcpc.frontend as frontend
    import fedcpc.model as model
    import fedcpc.probe as probe

    c = tracer.counters
    patches = Patches()

    def timed(owner, attr, name, **kw):
        patches.replace(owner, attr, _timed(tracer, getattr(owner, attr), name, **kw))

    def on_features(args, _result):
        # audio identity, not utterance_id: ids repeat across units' corpora
        record, base_dir = args[0], (args[1] if len(args) > 1 else None)
        c["frontend.calls"] += 1
        tracer.utterances.add((record.audio_ref, str(base_dir)))

    def on_encode(_args, z):
        c["model.frames"] += z.shape[0]

    def batch_counter(prefix):
        def after(args, result):
            c[f"{prefix}.drawn"] += len(args[1])
            c[f"{prefix}.usable"] += len(result[2])
        return after

    def on_select(_args, chosen):
        c["federated.selected"] += len(chosen)

    def on_client_update(_args, _result):
        c["federated.client_updates"] += 1

    def on_save(args, _result):
        c["checkpoint.save_bytes"] += os.path.getsize(args[0])

    for owner in (federated, probe):
        timed(owner, "features_for_record", "frontend.features", after=on_features)
    timed(frontend, "resolve_audio", "frontend.audio")
    timed(frontend, "waveform_features", "frontend.stft")
    timed(model, "encode", "model.encode", after=on_encode)
    timed(model, "contextualize", "model.context")
    timed(model, "infonce_loss", "model.infonce")
    patches.replace(model, "sample_negatives",
                    _counted(tracer, model.sample_negatives, "model.negatives_calls"))
    for owner in (federated, central):
        timed(owner, "gradient", "autodiff.backward")
    trace_fn = autodiff.Tape.trace

    def counting_trace(root):
        tape = trace_fn(root)
        c["autodiff.tape_nodes"] += len(tape.nodes)
        return tape
    patches.replace(autodiff.Tape, "trace", staticmethod(counting_trace))

    timed(federated, "run_federated", "federated.run")
    timed(federated, "select_clients", "federated.select", new_trace=True, after=on_select)
    timed(federated, "client_update", "federated.client_update", after=on_client_update)
    timed(federated, "batch_mean_loss", "federated.batch_loss",
          after=batch_counter("federated"))
    timed(federated, "aggregate", "federated.aggregate")
    timed(federated, "server_step", "federated.server_step")
    timed(federated, "partition_by_speaker", "silo.partition")
    timed(federated, "assign_to_clients", "silo.assign")
    timed(central, "run_central", "central.run")
    timed(central, "batch_mean_loss", "central.batch_loss", new_trace=True,
          after=batch_counter("central"))
    for owner in (federated, central):
        timed(owner, "adam_step", "optim.adam")
        timed(owner, "save_checkpoint", "checkpoint.save", after=on_save)
    timed(checkpoint, "load_checkpoint", "checkpoint.load")
    timed(probe, "evaluate_weights", "probe.evaluate", new_trace=True)
    timed(probe, "extract_contexts", "probe.extract")
    timed(probe, "train_probe", "probe.train")
    return patches


def write_layer_table(path, tracer: Tracer, units: int) -> None:
    """Self seconds of every span name, total and per traced unit, as TSV."""
    selfs = self_times(tracer.spans)
    lines = ["# span\tself_s\tself_s_per_unit"]
    for name in sorted(selfs, key=lambda n: -selfs[n]):
        lines.append(f"{name}\t{selfs[name]!r}\t{selfs[name] / units!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# per-layer rows that are the self time of one span name
SELF_ROWS = {
    "frontend.audio_s": "frontend.audio",
    "frontend.stft_s": "frontend.stft",
    "model.encode_s": "model.encode",
    "model.context_s": "model.context",
    "model.infonce_s": "model.infonce",
    "autodiff.backward_s": "autodiff.backward",
    "federated.client_update_self_s": "federated.client_update",
    "federated.aggregate_s": "federated.aggregate",
    "federated.server_step_s": "federated.server_step",
    "central.step_self_s": "central.run",
    "optim.adam_s": "optim.adam",
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.load_s": "checkpoint.load",
    "silo.partition_s": "silo.partition",
    "silo.assign_s": "silo.assign",
    "probe.train_s": "probe.train",
}


def layer_metrics(tracer: Tracer, units: int, overhead: float) -> dict[str, tuple[float, str]]:
    """The per-layer table as (value, unit) by metric name. Times and counts
    are per traced benchmark unit (spans named ``bench.unit``)."""
    selfs = self_times(tracer.spans)
    cnt = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    def whole(name):
        return sum(s.end - s.start for s in tracer.spans if s.name == name)

    out = {name: (selfs.get(span, 0.0) / units, "s") for name, span in SELF_ROWS.items()}
    # extraction is reported whole: features, encoder and LSTM run inside it
    out["probe.extract_s"] = (whole("probe.extract") / units, "s")
    out["frontend.calls_per_utt"] = (ratio(cnt["frontend.calls"], len(tracer.utterances)),
                                     "count")
    out["model.negatives_calls"] = (cnt["model.negatives_calls"] / units, "count")
    out["model.frames"] = (cnt["model.frames"] / units, "count")
    trained = cnt["federated.usable"] + cnt["central.usable"]
    out["autodiff.tape_nodes_per_utt"] = (ratio(cnt["autodiff.tape_nodes"], trained), "count")
    out["federated.usable_ratio"] = (ratio(cnt["federated.usable"], cnt["federated.drawn"]),
                                     "ratio")
    out["federated.client_retries"] = (
        (cnt["federated.client_updates"] - cnt["federated.selected"]) / units, "count")
    out["central.usable_ratio"] = (ratio(cnt["central.usable"], cnt["central.drawn"]), "ratio")
    out["checkpoint.save_bytes"] = (cnt["checkpoint.save_bytes"] / units, "bytes")
    # share of the traced units' wall time that the rows above attribute to
    # a layer; the rest is orchestration (loops, batching, unflatten)
    reported = sum(selfs.get(span, 0.0) for span in SELF_ROWS.values())
    out["trace.covered_share"] = (ratio(reported, whole("bench.unit")), "ratio")
    out["trace.overhead"] = (overhead, "ratio")
    return out
