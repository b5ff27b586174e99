import os
import subprocess
import sys
import time

import pytest

from branchnet.graph import ArchConfig, build_trunk
from branchnet.resolver import (Constraints, SoftTarget, format_resolution_report,
                                resolve_architecture)
from oracles import compositions


def test_default_resolution_selects_the_pinned_composition():
    res = resolve_architecture()
    assert res.candidates, "expected at least one passing composition"
    sel = res.selected
    assert sel.stage_repeats == (1, 1, 5, 4)
    assert sel.params == 10_460_848
    assert sel.macs == 810_595_328
    assert res.convention == "mac"
    assert sel.conventions == ("mac",)
    graph = build_trunk(ArchConfig(stage_repeats=sel.stage_repeats))
    assert sum(n.kind == "conv" and not n.name.startswith("shortcut")
               for n in graph.nodes) == 24


def test_default_resolution_runs_quickly():
    start = time.monotonic()
    resolve_architecture()
    assert time.monotonic() - start < 60.0


def test_residuals_are_reported_not_zeroed():
    sel = resolve_architecture().selected
    by_layer = {r[0]: r for r in sel.residuals}
    layer, classes, trainable, target, resid = by_layer["conv19"]
    assert (classes, trainable, target) == (7, 3_972_231, 1_018_055)
    assert resid == trainable - target == 2_954_176
    layer, classes, trainable, target, resid = by_layer["conv22"]
    assert (classes, trainable, target) == (14, 1_481_550, 889_230)
    assert resid == 592_320
    assert sel.score == 2_954_176 + 592_320


def test_trunk_cost_is_composition_invariant():
    res = resolve_architecture()
    assert {c.macs for c in res.candidates} == {810_595_328}


def test_candidate_set_matches_brute_force_enumeration():
    wide = Constraints(params_window=(0, 10 ** 12), cost_window=(0, 10 ** 13))
    res = resolve_architecture(wide)
    want = set(compositions(11, 4, 1, 8))
    assert {c.stage_repeats for c in res.candidates} == want
    assert res.near_misses == []


def test_ranking_is_total_and_deterministic():
    a = resolve_architecture()
    b = resolve_architecture()
    assert [c.stage_repeats for c in a.candidates] == \
        [c.stage_repeats for c in b.candidates]
    scores = [c.score for c in a.candidates]
    assert scores == sorted(scores)
    tied = [c.stage_repeats for c in a.candidates if c.score == scores[0]]
    assert tied == sorted(tied)
    assert tied[0] == (1, 1, 5, 4)


def test_impossible_window_reports_near_misses_without_relaxing():
    res = resolve_architecture(Constraints(params_window=(1, 2)))
    assert res.candidates == []
    assert res.selected is None and res.convention is None
    assert 0 < len(res.near_misses) <= 10
    report = format_resolution_report(res)
    assert "nearest misses" in report
    # the misses keep their true (out-of-window) numbers
    assert all(c.params > 2 for c in res.near_misses)


def test_odd_conv_count_is_rejected():
    with pytest.raises(ValueError, match="conv_count"):
        resolve_architecture(Constraints(conv_count=23))


def test_constraints_mapping_parsing():
    c = Constraints.from_mapping({
        "conv_count": "16", "params_window": "1,2", "cost_window": "3,4",
        "max_repeat": "5", "soft_targets": "fc:2:642",
    })
    assert c.conv_count == 16
    assert c.params_window == (1, 2) and c.cost_window == (3, 4)
    assert c.max_repeat == 5
    assert c.soft_targets == (SoftTarget("fc", 2, 642),)
    with pytest.raises(ValueError, match="unknown constraint key"):
        Constraints.from_mapping({"budget": "1"})


def test_report_documents_the_selection():
    res = resolve_architecture()
    report = format_resolution_report(res)
    assert "1,1,5,4" in report or "(1, 1, 5, 4)" in report
    assert "10,460,848" in report
    assert "810,595,328" in report
    assert "mac" in report
    assert "1,018,055" in report and "889,230" in report
    assert "1,061,411,840" in report


def test_default_report_matches_committed_file():
    path = os.path.join(os.path.dirname(__file__), "..", "reports",
                        "arch_resolution.txt")
    with open(path) as f:
        assert format_resolution_report(resolve_architecture()) == f.read()


@pytest.mark.parametrize("key, raw", [
    ("soft_targets", "fc:2"), ("soft_targets", "fc:2:3:4"),
    ("params_window", "1"), ("cost_window", "1,2,3"),
    ("conv_count", "x")])
def test_constraint_values_are_checked_against_their_field(key, raw):
    with pytest.raises(ValueError, match=key):
        Constraints.from_mapping({key: raw})


def test_a_soft_target_below_two_classes_is_rejected_naming_the_field():
    with pytest.raises(ValueError, match="num_classes must be at least 2"):
        SoftTarget("conv19", 1, 100)
    with pytest.raises(ValueError, match="soft_targets: num_classes"):
        Constraints.from_mapping({"soft_targets": "conv19:1:100"})


def test_a_large_max_repeat_returns_the_default_report():
    # no part of a composition exceeds blocks - 3, so a larger bound adds
    # nothing; the child must not walk max_repeat ** 4 tuples
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    runs = [subprocess.run([sys.executable, "-m", "branchnet.cli",
                            "arch-resolve", *extra], env=env,
                           capture_output=True, text=True, timeout=60)
            for extra in ([], ["--set", "max_repeat=1000000"])]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[1].stdout == runs[0].stdout
