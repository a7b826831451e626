"""The benchmark's attribute hooks find every name they patch and see the
work of a command: a hook whose target the product path no longer calls
would report zero."""

from __future__ import annotations

import csv
import sys
from collections import Counter
from pathlib import Path

import pytest

from forceplan.cli import main

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SCENARIOS = ROOT / "scenarios"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    return spans


def test_every_layer_hook_target_exists(spans):
    with spans.Tracer(layers=True):
        pass


def test_layer_hooks_see_a_solve(spans, capsys):
    with spans.Tracer(layers=True) as tracer:
        assert main(["solve", str(SCENARIOS / "nut_default.json")]) == 0
    calls = Counter(span[0] for span in tracer.spans)
    # build_world and build_problem, each through the domain module.
    assert calls["domains.build"] == 2
    for name in ("domains.chain_cost", "planner.cost_fn", "robot.ik", "robustness.estimate",
                 "stability.cone"):
        assert calls[name] > 0, name


def test_probe_hooks_see_a_sweep(spans, tmp_path, capsys):
    out = tmp_path / "rob.csv"
    argv = ["robustness", str(SCENARIOS / "bottle_default.json"), "--samples", "10"]
    with spans.Tracer(layers=True) as tracer:
        assert main([*argv, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [span[0] for span in tracer.spans].count(spans.SWEEP) == 1
    # The estimates the cli itself calls, one per CSV row.
    captured = [span for span in tracer.spans
                if span[0] == spans.ESTIMATE and "call" in (span[4] or {})]
    assert rows and len(captured) == len(rows)
