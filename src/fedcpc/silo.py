"""Corpus manifests and speaker-siloed client streams.

A manifest is UTF-8 text, one utterance per line:

    utterance_id<TAB>speaker_id<TAB>chapter_id<TAB>audio_ref<TAB>duration_s

Lines starting with ``#`` are ignored. Records are grouped into one silo per
speaker, ordered by chapter within the silo, and silos are dealt round-robin
to clients so that a client's batches are always speaker-pure and each
utterance is emitted exactly once. A client whose silo drains continues with
the next silo it was dealt.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ManifestError
from .files import atomic_writer

_FIELDS = ("utterance_id", "speaker_id", "chapter_id", "audio_ref", "duration_s")


@dataclass(frozen=True)
class UtteranceRecord:
    utterance_id: str
    speaker_id: str
    chapter_id: str
    audio_ref: str
    duration_s: float


def parse_manifest(text: str) -> list[UtteranceRecord]:
    records = []
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != len(_FIELDS):
            raise ManifestError(f"expected {len(_FIELDS)} tab-separated fields, got {len(parts)}",
                                line=lineno)
        utt_id, speaker, chapter, ref, dur = parts
        if not utt_id or not speaker or not chapter or not ref:
            raise ManifestError("empty field", line=lineno)
        try:
            duration = float(dur)
        except ValueError:
            raise ManifestError(f"duration_s {dur!r} is not a number", line=lineno) from None
        if not np.isfinite(duration) or duration <= 0:
            raise ManifestError(f"duration_s must be finite and positive, got {dur}", line=lineno)
        if utt_id in seen:
            raise ManifestError(f"duplicate utterance_id {utt_id!r} (first at line {seen[utt_id]})",
                                line=lineno)
        seen[utt_id] = lineno
        records.append(UtteranceRecord(utt_id, speaker, chapter, ref, duration))
    return records


def load_manifest(path) -> list[UtteranceRecord]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ManifestError(str(e)) from e
    return parse_manifest(text)


def render_manifest(records, header_comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in (header_comments or [])]
    lines.append("# " + "\t".join(_FIELDS))
    for r in records:
        for value in (r.utterance_id, r.speaker_id, r.chapter_id, r.audio_ref):
            if "\t" in value or "\n" in value:
                raise ManifestError(f"field {value!r} contains a delimiter")
        lines.append("\t".join([r.utterance_id, r.speaker_id, r.chapter_id,
                                r.audio_ref, repr(r.duration_s)]))
    return "\n".join(lines) + "\n"


def write_manifest(path, records, header_comments: list[str] | None = None) -> None:
    with atomic_writer(path, ManifestError) as f:
        f.write(render_manifest(records, header_comments).encode("utf-8"))


@dataclass
class SpeakerSilo:
    """All of one speaker's utterances, chapter-ordered (ties by utterance_id)."""

    speaker_id: str
    records: list[UtteranceRecord]

    @property
    def duration_s(self) -> float:
        return sum(r.duration_s for r in self.records)


def partition_by_speaker(records) -> list[SpeakerSilo]:
    if not records:
        raise ManifestError("no records to partition")
    by_speaker: dict[str, list[UtteranceRecord]] = {}
    for r in records:
        by_speaker.setdefault(r.speaker_id, []).append(r)
    silos = []
    for speaker in sorted(by_speaker):
        ordered = sorted(by_speaker[speaker], key=lambda r: (r.chapter_id, r.utterance_id))
        silos.append(SpeakerSilo(speaker, ordered))
    return silos


@dataclass
class ClientStream:
    """A client's private, single-pass queue of speaker-pure batches."""

    client_index: int
    batches: list[list[UtteranceRecord]] = field(default_factory=list)
    cursor: int = 0

    @property
    def exhausted(self) -> bool:
        return self.cursor >= len(self.batches)

    def next_batch(self) -> list[UtteranceRecord] | None:
        """The next batch, advancing the cursor; None once drained."""
        if self.exhausted:
            return None
        batch = self.batches[self.cursor]
        self.cursor += 1
        return batch


def assign_to_clients(silos, num_clients: int, max_batch: int,
                      rng: np.random.Generator) -> list[ClientStream]:
    """Deal silos round-robin (in seeded-shuffled order) to ``num_clients``
    streams and cut each silo into batches of at most ``max_batch``.

    Batches never span silos, so every batch is speaker-pure; a short
    remainder batch is kept rather than dropped.
    """
    if num_clients < 1:
        raise ManifestError("num_clients must be >= 1")
    if max_batch < 1:
        raise ManifestError("max_batch must be >= 1")
    if num_clients > len(silos):
        warnings.warn(f"{num_clients} clients but only {len(silos)} speaker silos; "
                      f"{num_clients - len(silos)} clients will sit idle", stacklevel=2)
    order = rng.permutation(len(silos))
    streams = [ClientStream(i) for i in range(num_clients)]
    for j, silo_idx in enumerate(order):
        recs = silos[silo_idx].records
        stream = streams[j % num_clients]
        for start in range(0, len(recs), max_batch):
            stream.batches.append(recs[start:start + max_batch])
    return streams


def silo_report(silos) -> str:
    """Per-speaker utterance counts and durations, tab-delimited."""
    lines = ["# speaker_id\tutterances\tduration_s"]
    total_n, total_d = 0, 0.0
    for s in silos:
        lines.append(f"{s.speaker_id}\t{len(s.records)}\t{repr(s.duration_s)}")
        total_n += len(s.records)
        total_d += s.duration_s
    lines.append(f"total\t{total_n}\t{repr(total_d)}")
    return "\n".join(lines) + "\n"
