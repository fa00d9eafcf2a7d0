"""Correctness gates and the quality run, in a process of their own.

    python3 perfbench/gates.py --kind federated --seed 1 --out DIR

The benchmark runs this before its timed units and waits for it, so the
gates' time and memory stay out of the workload's figures. Each gate
returns (passed, one-line description); an exception fails its gate. The
last stdout line is JSON: ``{"gates": [[passed, description], ...],
"losses": [...]}``, with the quality run's loss per round or step (empty if
it failed). The quality run's final checkpoint is ``DIR/quality/final.ckpt``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import fedcpc.config as c  # noqa: E402
import workloads  # noqa: E402
from fedcpc import federated  # noqa: E402
from fedcpc import model as m  # noqa: E402
from fedcpc.central import sgd_reference_step  # noqa: E402
from fedcpc.checkpoint import file_sha256  # noqa: E402
from fedcpc.frontend import synth_corpus  # noqa: E402
from fedcpc.gradcheck import run_gradcheck  # noqa: E402
from fedcpc.rng import TAG_SELECT, substream  # noqa: E402


def gradcheck(seed: int) -> tuple[bool, str]:
    """Finite differences against the tape for every parameter group."""
    reports = run_gradcheck(c.cpc_config(c.desk_preset()), seed)
    bad = [r.group for r in reports if not r.passed]
    worst = max(r.max_rel_err for r in reports)
    return not bad, f"gradcheck: {len(reports)} groups, worst {worst:.2e}, failing {bad}"


def fedsgd_equals_sgd(seed: int) -> tuple[bool, str]:
    """One full-participation FedSGD round against the reference SGD step on
    the union batch, to 1e-9 (acceptance criterion 3)."""
    cpc = c.cpc_config(c.desk_preset())
    records = synth_corpus(4, 1, 2, seed=seed)
    fed = federated.FedConfig(num_clients=4, clients_per_round=4, client_batch_size=2,
                              local_steps=1, batches_per_step=1, rounds_max=1,
                              client_lr=0.1, server_opt="plain", seed=seed)
    streams = federated.build_streams(records, fed)
    state = federated.ServerState.fresh(m.flatten(m.init_params(cpc, seed)))
    w0 = state.weights.copy()
    chosen = federated.select_clients([s.client_index for s in streams if not s.exhausted],
                                      fed.clients_per_round, substream(seed, TAG_SELECT, 1))
    union, updates = [], []
    for idx in chosen:
        union.extend(streams[idx].batches[streams[idx].cursor])
        updates.append(federated.client_update(state.weights, streams[idx], fed, cpc, 1))
    federated.server_step(state, federated.aggregate(updates), fed)
    want = sgd_reference_step(w0, union, fed.client_lr, cpc, seed)
    diff = float(np.max(np.abs(state.weights - want)))
    return diff <= 1e-9, f"fedsgd-equals-sgd: max weight diff {diff:.2e} of 1e-9"


def determinism(kind: str, work: Path) -> tuple[bool, str]:
    """Two short quality runs must write byte-identical final checkpoints
    (acceptance criterion 7)."""
    digests = []
    for i in range(2):
        out = work / f"repeat{i}"
        workloads.quality_run(kind, out, steps=1)
        digests.append(file_sha256(out / "final.ckpt"))
    return (digests[0] == digests[1],
            f"determinism: two 1-round {kind} runs wrote {digests[0][:16]} and {digests[1][:16]}")


def quality(kind: str, work: Path, losses: list[float]) -> tuple[bool, str]:
    """The quality run behind loss_ratio; it must complete with finite
    losses. Fills ``losses`` only when it passes."""
    result = workloads.quality_run(kind, work / "quality")
    got = [r.mean_client_loss for r in result.metrics]
    ok = len(got) == workloads.QUALITY_STEPS and all(math.isfinite(x) for x in got)
    if ok:
        losses[:] = got
    return ok, (f"quality run: {len(got)} {kind} rounds or steps, "
                f"loss {got[0]:.4f} to {got[-1]:.4f}")


def guarded(gate, *args) -> tuple[bool, str]:
    try:
        return gate(*args)
    except Exception as e:  # any error fails the gate, and the others still run
        return False, f"{gate.__name__}: {type(e).__name__}: {e}"


def code_digest(files) -> str:
    """Hash of the given source files' names and bytes."""
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(Path(path).name.encode())
        h.update(Path(path).read_bytes())
    return h.hexdigest()[:16]


def ledger(path: Path, key: str, digest: str) -> tuple[bool, str] | None:
    """A unit's deterministic outputs (final-checkpoint SHA-256 and probe
    accuracies) must equal those an earlier run recorded under ``key``: the
    byte-determinism of acceptance criterion 7 across processes. ``key``
    carries a digest of the code, so runs of other code are never compared.
    Returns None, and records the digest, when no earlier run has the key."""
    entries = json.loads(path.read_text()) if path.exists() else {}
    if key not in entries:
        entries[key] = digest
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return None
    first = entries[key]
    return first == digest, f"ledger: {key} gave {digest}, first run gave {first}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--kind", required=True, choices=("federated", "central"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    losses: list[float] = []
    report = [guarded(gradcheck, args.seed), guarded(fedsgd_equals_sgd, args.seed),
              guarded(determinism, args.kind, args.out),
              guarded(quality, args.kind, args.out, losses)]
    print(json.dumps({"gates": report, "losses": losses}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
