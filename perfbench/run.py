#!/usr/bin/env python3
"""The fedcpc benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fed-desk --seed 1 --seconds 25 --trace 0

Workloads, defined in workloads.py (perfbench/README.md says why each
exists): fed-desk, central-desk and probe-pcm.

A run sets up several times and reports the median, runs the correctness
gates and the quality run in a child process (gates.py) and waits for it,
then runs timed units closed loop in its own process, each on fresh inputs,
until about ``--seconds`` of timed work is done. ``--trace 0``
prints the end-to-end metrics and wraps nothing. ``--trace 1`` alternates
untraced and traced units and prints the per-layer metrics, including the
tracing overhead. The last stdout line is the result JSON.

What a run leaves behind goes under ``.perfbench/`` at the root:
``results.jsonl`` (one detailed record per run, with the machine facts),
``ledger.json`` (deterministic outputs per seed, compared across repeats)
and, for traced runs, ``trace-<workload>-seed<seed>/`` with the spans as
JSONL and every span's self time as TSV.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_PASSES = 3
GATES_TIMEOUT_S = 120


def import_program() -> None:
    """Import fedcpc from this checkout's ``src/`` and nowhere else, then
    the benchmark modules that use it."""
    if not (SRC / "fedcpc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fedcpc package at {SRC / 'fedcpc'}")
    sys.path.insert(0, str(SRC))
    import fedcpc

    if Path(fedcpc.__file__).resolve().parent != SRC / "fedcpc":
        raise SystemExit(f"perfbench: imported fedcpc from {fedcpc.__file__}, not {SRC}")
    sys.path.insert(0, str(HERE))
    import gates  # noqa: F401
    import workloads  # noqa: F401


class Tally:
    """Operations attempted and failed: gates, rounds, steps, probe arms."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ops: int, ok: bool, note: str) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.notes.append(note)
        print(f"perfbench: {'ok' if ok else 'FAILED'} {note}", file=sys.stderr)


def run_units(wl, budget_s: float, tally: Tally, first_inputs, tracer=None):
    """Timed units, closed loop, until the next one would end further from
    ``budget_s`` of timed work than stopping now. Generating a unit's inputs
    is not timed. A ``FedcpcError`` fails the unit's operations.

    With a tracer, units alternate untraced and traced, so the two halves
    see the same drift in machine speed; traced units are numbered from
    ``TRACED_UNIT_BASE`` and run with the layer wrappers installed.

    Returns the untraced and the traced results, and the number and digest
    of the first untraced unit that completed (unit 0 unless it failed).
    """
    import tracing
    from fedcpc import FedcpcError
    from workloads import TRACED_UNIT_BASE

    done = {False: [], True: []}
    next_unit = {False: 0, True: TRACED_UNIT_BASE}
    first = {}
    elapsed, count = 0.0, 0
    while count < (1 if tracer is None else 2) or elapsed + elapsed / count / 2 < budget_s:
        traced = tracer is not None and count % 2 == 1
        unit = next_unit[traced]
        next_unit[traced] += 1
        inputs = first_inputs if unit == 0 else wl.inputs(unit)
        patches = tracing.install(tracer) if traced else None
        started = time.perf_counter()
        span = tracer.enter("bench.unit") if traced else None
        try:
            result = wl.run_unit(unit, inputs)
        except FedcpcError as e:
            result = None
            tally.record(wl.ops_per_unit, False, f"unit {unit}: {type(e).__name__}: {e}")
        finally:
            if traced:
                tracer.exit(span)
                patches.restore()
        elapsed += time.perf_counter() - started
        count += 1
        if result is not None:
            finite = all(math.isfinite(v) for v in result.losses + result.accuracies)
            tally.record(wl.ops_per_unit, finite, f"unit {unit}: losses and accuracies finite")
            if not first and not traced:
                first = {"unit": unit, "digest": result.digest}
            done[traced].append(result)
        wl.cleanup(unit)
    return done[False], done[True], first


def run_gates(wl, seed: int, work: Path, tally: Tally) -> list[float]:
    """Run gates.py in a child process, wait for it and record its gates.
    Returns the quality run's losses (empty if it failed) and hands its
    final checkpoint to the workload."""
    out = work / "gates"
    out.mkdir()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "gates.py"), "--kind", wl.quality_kind,
             "--seed", str(seed), "--out", str(out)],
            stdout=subprocess.PIPE, text=True, timeout=GATES_TIMEOUT_S, check=False)
        report = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 \
            else {"gates": [[False, f"gates process exited with {proc.returncode}"]]}
    except (subprocess.TimeoutExpired, ValueError, IndexError) as e:
        report = {"gates": [[False, f"gates process: {type(e).__name__}: {e}"]]}
    for ok, note in report["gates"]:
        tally.record(1, ok, note)
    wl.use_checkpoint(out / "quality" / "final.ckpt")
    return report.get("losses", [])


def rate(results) -> float:
    """Utterances per second of busy time (training calls, or probe units)."""
    return sum(r.utts for r in results) / sum(r.busy_s for r in results)


def bench(args, work: Path, import_s: float) -> int:
    import gates
    import stats
    import tracing
    import workloads

    wl = workloads.make_workload(args.workload, args.seed, work)
    passes = []
    for _ in range(SETUP_PASSES):
        started = time.perf_counter()
        first_inputs = wl.setup_pass()
        passes.append(time.perf_counter() - started)
    setup_s = import_s + statistics.median(passes)

    tally = Tally()
    losses = run_gates(wl, args.seed, work, tally)

    tracer = tracing.Tracer() if args.trace else None
    results, traced, first = run_units(wl, args.seconds, tally, first_inputs, tracer)
    # read before anything else runs here, so it is the workload's own peak
    peak_rss_mb = stats.peak_rss_mb()
    if not results or (args.trace and not traced):
        print("perfbench: no unit completed", file=sys.stderr)
        return 1
    code = gates.code_digest([*SRC.glob("fedcpc/*.py"), *HERE.glob("*.py")])
    key = f"{code} {args.workload} seed={args.seed} unit={first['unit']}"
    compared = gates.ledger(STATE / "ledger.json", key, first["digest"])
    if compared is None:
        print(f"perfbench: ledger: first run of {key}, recorded, not compared",
              file=sys.stderr)
    else:
        tally.record(1, *compared)

    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "machine": stats.machine_facts(),
               "import_s": import_s, "setup_passes_s": passes,
               "unit_rates": [r.utts / r.busy_s for r in results],
               "digest": first["digest"], "quality_losses": losses,
               "failures": tally.notes}
    if args.trace:
        metrics = tracing.layer_metrics(tracer, len(traced), rate(results) / rate(traced) - 1)
        out = STATE / f"trace-{args.workload}-seed{args.seed}"
        out.mkdir(exist_ok=True)
        tracer.write_jsonl(out / "spans.jsonl")
        tracing.write_layer_table(out / "layers.tsv", tracer, len(traced))
        details["traced_units"] = len(traced)
    else:
        rounds = [x for r in results for x in r.round_s]
        probes = [x for r in results for x in r.probe_s]
        round_p50, n_rounds = stats.median_with_count(rounds)
        probe_p50, n_probes = stats.median_with_count(probes)
        print(f"perfbench: medians of {n_rounds} round samples and {n_probes} probe arms",
              file=sys.stderr)
        metrics = {
            "setup_s": (setup_s, "s"),
            "train_utts_per_s": (rate(results), "utt/s"),
            "round_s_p50": (round_p50, "s"),
            "probe_s": (probe_p50, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            # a failed quality run (a failed gate already) reads as no learning
            "loss_ratio": (workloads.loss_ratio(losses) if losses else 1.0, "ratio"),
        }
        details["samples"] = {"round_s": rounds, "probe_s": probes}

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    details["result"] = result
    with open(STATE / "results.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps(details) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"perfbench: {name} = {value!r} {unit}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("fed-desk", "central-desk", "probe-pcm"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    import_program()
    import_s = time.perf_counter() - _STARTED
    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{os.getpid()}"
    work.mkdir()
    try:
        return bench(args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
