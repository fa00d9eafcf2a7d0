"""Tests for the finite-difference gradient checker, including fault
injection: a deliberately corrupted gradient must be flagged, and only it."""

import numpy as np

from fedcpc import gradcheck as gc
from fedcpc import model as m

SMALL = m.CpcConfig(enc_units=8, ctx_units=8, future_steps=2, num_negatives=3)


def test_all_groups_pass_on_small_model():
    reports = gc.run_gradcheck(SMALL, seed=42, frames=10, coords_per_group=10)
    names = [name for name, _ in m.param_shapes(SMALL)]
    assert [r.group for r in reports] == names
    for r in reports:
        assert r.passed, (r.group, r.max_rel_err)
        assert 0 < r.coords_checked <= 10


def test_corrupted_group_is_flagged_exactly():
    target = "ar.0.Wh"
    reports = gc.run_gradcheck(SMALL, seed=42, frames=10, coords_per_group=10,
                               corrupt=target)
    failed = [r.group for r in reports if not r.passed]
    assert failed == [target]


def test_corrupting_head_bias_is_flagged():
    reports = gc.run_gradcheck(SMALL, seed=42, frames=10, coords_per_group=10,
                               corrupt="head.2.b")
    failed = [r.group for r in reports if not r.passed]
    assert failed == ["head.2.b"]


def test_gradcheck_deterministic():
    a = gc.run_gradcheck(SMALL, seed=7, frames=10, coords_per_group=5)
    b = gc.run_gradcheck(SMALL, seed=7, frames=10, coords_per_group=5)
    assert [(r.group, r.max_rel_err) for r in a] == [(r.group, r.max_rel_err) for r in b]


def test_render_report_format():
    reports = gc.run_gradcheck(SMALL, seed=1, frames=10, coords_per_group=3)
    text = gc.render_report(reports)
    lines = text.strip().splitlines()
    assert lines[0].startswith("# group\t")
    assert len(lines) == 1 + len(reports)
    for line in lines[1:]:
        group, err, coords, status = line.split("\t")
        assert status in ("pass", "FAIL")
        assert float(err) >= 0.0
        assert int(coords) >= 1
