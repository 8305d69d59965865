"""The statistical report gate: this tree against the committed reports
of its parent, and the gate's own behaviour on synthetic report sets."""

import copy
import json
from pathlib import Path

import pytest
from scipy import stats

from gate import (ALPHA, byte_identical, check_level, compare, dispersion,
                  error_p_value, main, run_points, tolerance)

DATA = Path(__file__).parent / "data"


def _reference(name):
    return json.loads((DATA / f"{name}_cut.json").read_text())["reports"]


@pytest.mark.parametrize("name", ["scenario_a", "scenario_b"])
def test_tree_passes_the_gate_on_the_cut_configs(name):
    parent = _reference(name)
    change = [run_points(name, rep["seed"], cut=True) for rep in parent]
    assert compare(parent, change) == []


def test_identical_reports_pass():
    for name in ("scenario_a", "scenario_b"):
        reports = _reference(name)
        assert compare(reports, copy.deepcopy(reports)) == []


def test_unequal_bits_fail():
    parent = _reference("scenario_a")
    change = copy.deepcopy(parent)
    change[0]["points"][0]["signals"]["ch0:digital"]["bits"] += 1
    failures = compare(parent, change)
    assert len(failures) == 1 and "ch0:digital: bits" in failures[0]


def test_errors_scaled_on_one_signal_fail():
    # scenario A's signal with the most errors; in scenario B that is the
    # digital uplink, whose one-burst counts spread so widely over five
    # seeds that a 1.5-fold rate is within their reach
    parent = _reference("scenario_a")
    name = max(parent[0]["points"][0]["signals"],
               key=lambda k: sum(rep["points"][0]["signals"][k]["errors"]
                                 for rep in parent))
    change = copy.deepcopy(parent)
    for rep in change:
        sig = rep["points"][0]["signals"][name]
        sig["errors"] = round(1.5 * sig["errors"])
    failures = compare(parent, change)
    assert len(failures) == 1 and f"{name}: errors" in failures[0]


def test_each_check_runs_at_a_share_of_the_family_level():
    # scenario B: 7 signals (errors and EVM), 4 ledger entries, 1 ratio
    assert check_level(_reference("scenario_b")) == pytest.approx(ALPHA / 19)


def test_overdispersed_errors_widen_the_error_test():
    # per-seed counts no wider than binomial keep the exact binomial test
    assert dispersion([84, 67, 81, 66, 71], [34320] * 5) == 1.0
    assert error_p_value([100] * 5, [10**5] * 5, [120] * 5, [10**5] * 5) \
        == pytest.approx(stats.binomtest(600, 1100, 0.5).pvalue)
    # the same pooled counts from seeds that spread widely pass
    wide = [40, 160, 60, 140, 100]
    assert dispersion(wide, [10**5] * 5) > 10
    assert error_p_value([100] * 5, [10**5] * 5, [120] * 5, [10**5] * 5) \
        < ALPHA < error_p_value(wide, [10**5] * 5, [120] * 5, [10**5] * 5)


def test_a_shift_beyond_the_parents_spread_fails():
    parent = _reference("scenario_b")
    points = [rep["points"][0] for rep in parent]
    tol = tolerance([pt["uplink_to_residual_db"] for pt in points],
                    check_level(parent))
    change = copy.deepcopy(parent)
    for rep in change:
        rep["points"][0]["uplink_to_residual_db"] += 0.9 * tol
    assert compare(parent, change) == []
    for rep in change:
        rep["points"][0]["uplink_to_residual_db"] += 0.2 * tol
    failures = compare(parent, change)
    assert len(failures) == 1 and "uplink_to_residual_db" in failures[0]


def test_tolerance_comes_from_the_parent_alone():
    # a change whose seeds scatter widely is not granted a wider tolerance
    parent = [{"points": [{"rx_power_dbm": 0.0, "signals": {},
                           "carrier_ledger": {"x": 1.0 + 1e-3 * k},
                           "uplink_to_residual_db": None}]} for k in range(5)]
    change = copy.deepcopy(parent)
    for k, rep in enumerate(change):
        rep["points"][0]["carrier_ledger"]["x"] = 1.0 + 0.5 * (-1) ** k
    assert compare(parent, change) != []
    assert compare(change, change) == []


def test_compare_names_byte_identical_report_sets(tmp_path, capsys):
    reports = _reference("scenario_b")
    for k, rep in enumerate(reports):
        rep["sha256"] = f"{k:064x}"
    assert byte_identical(reports, copy.deepcopy(reports))
    other = copy.deepcopy(reports)
    other[-1]["sha256"] = "f" * 64
    assert not byte_identical(reports, other)
    # reports written without hashes are never called byte-identical
    assert not byte_identical(_reference("scenario_b"),
                              _reference("scenario_b"))
    for side, reps in (("parent", reports), ("change", reports),
                       ("other", other)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "scenario_b.json").write_text(
            json.dumps({"reports": reps}))
    assert main(["compare", str(tmp_path / "parent"),
                 str(tmp_path / "change")]) == 0
    assert capsys.readouterr().out.rstrip().endswith(": pass, byte-identical")
    assert main(["compare", str(tmp_path / "parent"),
                 str(tmp_path / "other")]) == 0
    assert capsys.readouterr().out.rstrip().endswith(": pass")
