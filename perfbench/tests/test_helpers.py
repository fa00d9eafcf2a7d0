"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE.parent))

import gates  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


def test_median_with_count():
    assert stats.median_with_count([3.0, 1.0, 2.0]) == (2.0, 3)
    assert stats.median_with_count(x for x in [4.0, 1.0, 2.0, 3.0]) == (2.5, 4)
    with pytest.raises(ValueError):
        stats.median_with_count([])


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 5) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9]) == pytest.approx((7.5 - 2.5) / 5)


def test_loss_ratio_takes_the_last_tenth():
    assert workloads.loss_ratio([2.0] + [1.0] * 17 + [0.5, 0.7]) == pytest.approx(0.3)


def test_ledger_compares_only_keys_an_earlier_run_recorded(tmp_path):
    path = tmp_path / "ledger.json"
    assert gates.ledger(path, "code seed=1", "abc") is None
    assert gates.ledger(path, "code seed=1", "abc")[0]
    assert not gates.ledger(path, "code seed=1", "abd")[0]
    assert gates.ledger(path, "code seed=2", "abd") is None


def test_self_time_nested_and_overlapping_children():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 3.0, 6.0, 0, 1),    # overlaps a: [1, 6] is covered once
        Span("leaf", 2.0, 3.0, 1, 1),  # only a's self time loses it
        Span("b", 8.0, 12.0, 0, 1),   # runs past root's end: clipped to [8, 10]
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert got["a"] == pytest.approx(2.0)
    assert got["b"] == pytest.approx(3.0 + 4.0)
    assert got["leaf"] == pytest.approx(1.0)


def test_tracer_parents_and_trace_ids():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.enter("round", new_trace=True)
    inner = tracer.enter("layer")
    tracer.exit(inner)
    tracer.exit(outer)
    step = tracer.enter("round", new_trace=True)
    tracer.exit(step)
    assert [s.parent for s in tracer.spans] == [None, 0, None]
    assert [s.trace for s in tracer.spans] == [1, 1, 2]
    assert self_times(tracer.spans) == {"round": 2.0 + 1.0, "layer": 1.0}


def test_install_restores_every_attribute():
    import fedcpc.autodiff as autodiff
    import fedcpc.federated as federated
    import fedcpc.model as model

    before = (federated.gradient, model.contextualize, autodiff.Tape.__dict__["trace"])
    tracer = Tracer()
    patches = tracing.install(tracer)
    assert federated.gradient is not before[0]
    patches.restore()
    assert (federated.gradient, model.contextualize,
            autodiff.Tape.__dict__["trace"]) == before


def test_training_inputs_are_a_pure_function_of_the_seed():
    np.random.seed(0)
    first = workloads.training_inputs(workloads.unit_config(7, 0))
    np.random.seed(1)
    again = workloads.training_inputs(workloads.unit_config(7, 0))
    assert first == again
    other = workloads.training_inputs(workloads.unit_config(8, 0))
    assert [r.audio_ref for r in other[0]] != [r.audio_ref for r in first[0]]
    next_unit = workloads.training_inputs(workloads.unit_config(7, 1))
    assert next_unit[0][0].audio_ref != first[0][0].audio_ref
    train_ids = {r.utterance_id for r in first[0]}
    assert first[1] and not train_ids & {r.utterance_id for r in first[1]}


def test_pcm_inputs_are_a_pure_function_of_the_seed(tmp_path):
    cfg = workloads.unit_config(3, 0)
    a = workloads.materialise_pcm(workloads.pcm_records(cfg), tmp_path / "a")
    b = workloads.materialise_pcm(workloads.pcm_records(cfg), tmp_path / "b")
    assert a == b
    for r in a:
        assert (tmp_path / "a" / r.audio_ref).read_bytes() == \
            (tmp_path / "b" / r.audio_ref).read_bytes()
