"""Statistical gate between two sets of scenario reports.

A change that alters the noise draws, or only the round-off, of the
pipeline cannot keep reports byte-identical.  This gate asks instead
whether the change's reports could have come from the parent's
pipeline.  Both sides run the same scenario over the same number of
seeds; per sweep point and per signal:

* bits must be equal, pooled over the seeds;
* errors, pooled over the seeds, must pass a two-sided conditional
  binomial test: given their sum, the change's share follows
  Binomial(sum, bits_change / (bits_parent + bits_change)) when both
  sides share one error rate; the p-value must reach the check's level.
  Bits of one burst are not independent: one-burst error counts of
  scenario B's digital uplink spread 5.5 times wider than binomial over
  seeds 1-5.  So the test's variance is widened by the dispersion of the
  parent's per-seed error counts (:func:`error_p_value`);
* the pooled EVM, every carrier-ledger entry and the uplink-to-residual
  ratio must agree within a tolerance computed by :func:`tolerance`
  from the parent's per-seed values alone, never from the change's.

All checks of one scenario together fail a change drawn from the
parent's own statistics with probability at most ``ALPHA``: with some
twenty checks a comparison, a level of ``ALPHA`` per check would fail
about one such change in five.

Run as a script it writes reference reports at a checkout and compares
two such sets::

    python3 tests/gate.py reference OUT [--checkout DIR] [--seeds 1-5[:step]] [--cut]
    python3 tests/gate.py compare PARENT_DIR CHANGE_DIR

``reference`` runs scenarios A and B at their top sweep point, each
seed in a fresh process on ``DIR/src``, and writes one JSON file per
scenario into OUT, with the SHA-256 of each full report; ``--cut`` also
cuts the burst to 200 symbols and one burst, as the tier-1 test does.
``compare`` gates every scenario file of CHANGE_DIR against the file of
the same name in PARENT_DIR, exits 1 if any check fails, and adds
``byte-identical`` to a verdict whose report hashes all match.  A null
check compares two seed sets of one checkout, which must pass, e.g.
``--seeds 1-5`` against ``--seeds 6-10``: ``run_scenario`` derives each
burst's seed from the config seed, the sweep point and the burst index
together, so distinct config seeds share no burst.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import stats

#: Family-wise significance level of one comparison: the chance that a
#: change drawn from the parent's own statistics fails any check of one
#: scenario.  Each of its ``n`` checks runs at ``ALPHA / n`` (Bonferroni;
#: see :func:`check_level`).
ALPHA = 0.01

#: Smallest tolerance, in the unit of the quantity (dB or EVM fraction):
#: a difference below it is round-off, not a change of physics.
ROUND_OFF = 1e-9

SCENARIOS = ("scenario_a", "scenario_b")

#: The cut of each scenario used in tier-1: its top point, 200 symbols
#: per burst and one burst.
CUT = {"burst_symbols": 200, "top_bits": 1000}


def check_level(reports) -> float:
    """The level of each check in a comparison of these reports: ALPHA
    over the number of checks (errors and EVM per signal, every ledger
    entry and the uplink ratio, per sweep point)."""
    n = sum(2 * len(pt["signals"]) + len(pt["carrier_ledger"]) + 1
            for pt in reports[0]["points"])
    return ALPHA / n


def tolerance(parent_values, level: float) -> float:
    """Largest allowed gap between the parent's and the change's pooled
    means of a quantity, from the parent's per-seed values.

    With ``m`` seeds on each side and ``s`` the parent's per-seed sample
    standard deviation, the gap of two pooled means has standard error
    ``s * sqrt(2 / m)``; the tolerance is that times the two-sided
    Student-t quantile at ``level`` with ``m - 1`` degrees of freedom,
    since ``s`` itself is estimated from ``m`` values.
    """
    values = np.asarray(parent_values, dtype=float)
    m = values.size
    if m < 2:
        raise ValueError("a tolerance needs at least two parent seeds")
    s = float(np.std(values, ddof=1))
    t = float(stats.t.ppf(1.0 - level / 2.0, m - 1))
    return max(t * s * math.sqrt(2.0 / m), ROUND_OFF)


def dispersion(errors, bits) -> float:
    """Pearson dispersion of per-seed error counts about their pooled
    rate: the factor by which their variance exceeds the binomial one,
    and never below 1."""
    errors = np.asarray(errors, dtype=float)
    bits = np.asarray(bits, dtype=float)
    rate = errors.sum() / bits.sum()
    if errors.size < 2 or not 0.0 < rate < 1.0:
        return 1.0
    chi2 = np.sum((errors - bits * rate) ** 2 / (bits * rate * (1.0 - rate)))
    return max(1.0, float(chi2) / (errors.size - 1))


def error_p_value(errors_parent, bits_parent, errors_change,
                  bits_change) -> float:
    """Two-sided p-value of the change's share of the pooled errors.

    Arguments are per-seed counts.  When the parent's counts spread no
    wider than binomial this is the exact conditional binomial test.
    Otherwise the binomial variance is widened by the parent's
    :func:`dispersion`, which is estimated from ``m`` seeds, and the
    standardized share is referred to Student's t with ``m - 1`` degrees
    of freedom (a quasi-binomial test).
    """
    e_p, e_c = int(np.sum(errors_parent)), int(np.sum(errors_change))
    b_p, b_c = int(np.sum(bits_parent)), int(np.sum(bits_change))
    total = e_p + e_c
    if total == 0:
        return 1.0
    share = b_c / (b_p + b_c)
    phi = dispersion(errors_parent, bits_parent)
    if phi == 1.0:
        return float(stats.binomtest(e_c, total, share).pvalue)
    z = (e_c - total * share) / math.sqrt(phi * total * share * (1 - share))
    return float(2.0 * stats.t.sf(abs(z), len(errors_parent) - 1))


def _pooled_evm(reports, p_idx: int, name: str) -> float:
    sq = bits = 0.0
    for rep in reports:
        sig = rep["points"][p_idx]["signals"][name]
        if np.isfinite(sig["evm_rms"]):
            sq += sig["evm_rms"] ** 2 * sig["bits"]
            bits += sig["bits"]
    return math.sqrt(sq / bits) if bits else float("nan")


def _within(label: str, parent_values, change_values,
            level: float) -> str | None:
    """A failure message when the pooled means differ by more than the
    parent's tolerance, else None."""
    gap = abs(float(np.mean(change_values)) - float(np.mean(parent_values)))
    tol = tolerance(parent_values, level)
    if not gap <= tol:
        return (f"{label}: parent {np.mean(parent_values):.6g}, change "
                f"{np.mean(change_values):.6g}, gap {gap:.3g} > "
                f"tolerance {tol:.3g}")
    return None


def compare(parent_reports, change_reports) -> list:
    """Failures of ``change_reports`` against ``parent_reports``.

    Each argument is a list of reports of one scenario, one per seed (a
    report needs only its ``points``).  Returns one message per failed
    check; an empty list means the change passes.
    """
    m = len(parent_reports)
    if m < 2 or len(change_reports) != m:
        return [f"need equal seed counts of at least 2, got {m} and "
                f"{len(change_reports)}"]
    n_points = len(parent_reports[0]["points"])
    if any(len(r["points"]) != n_points
           for r in (*parent_reports, *change_reports)):
        return ["the reports differ in their number of sweep points"]
    level = check_level(parent_reports)
    failures = []
    for p_idx in range(n_points):
        points_p = [r["points"][p_idx] for r in parent_reports]
        points_c = [r["points"][p_idx] for r in change_reports]
        where = f"point {points_p[0]['rx_power_dbm']:+g} dBm"
        names = set(points_p[0]["signals"])
        if any(set(pt["signals"]) != names for pt in (*points_p, *points_c)):
            failures.append(f"{where}: the reports differ in their signals")
            continue
        for name in sorted(names):
            label = f"{where} {name}"
            bits_p = sum(pt["signals"][name]["bits"] for pt in points_p)
            bits_c = sum(pt["signals"][name]["bits"] for pt in points_c)
            if bits_p != bits_c:
                failures.append(f"{label}: bits {bits_p} != {bits_c}")
                continue
            err_p = [pt["signals"][name]["errors"] for pt in points_p]
            err_c = [pt["signals"][name]["errors"] for pt in points_c]
            p = error_p_value(
                err_p, [pt["signals"][name]["bits"] for pt in points_p],
                err_c, [pt["signals"][name]["bits"] for pt in points_c])
            if p < level:
                failures.append(f"{label}: errors {sum(err_p)} -> "
                                f"{sum(err_c)} over {bits_p} bits, "
                                f"p = {p:.2g}")
            evm_p = [pt["signals"][name]["evm_rms"] for pt in points_p]
            if np.all(np.isfinite(evm_p)):
                gap = abs(_pooled_evm(change_reports, p_idx, name)
                          - _pooled_evm(parent_reports, p_idx, name))
                tol = tolerance(evm_p, level)
                if not gap <= tol:
                    failures.append(f"{label}: pooled EVM gap {gap:.3g} > "
                                    f"tolerance {tol:.3g}")
        for key in sorted(points_p[0]["carrier_ledger"]):
            msg = _within(f"{where} carrier_ledger.{key}",
                          [pt["carrier_ledger"][key] for pt in points_p],
                          [pt["carrier_ledger"][key] for pt in points_c],
                          level)
            if msg:
                failures.append(msg)
        ratios_p = [pt["uplink_to_residual_db"] for pt in points_p]
        ratios_c = [pt["uplink_to_residual_db"] for pt in points_c]
        if (None in ratios_p) != (None in ratios_c):
            failures.append(f"{where}: uplink_to_residual_db is missing "
                            f"on one side")
        elif None not in ratios_p:
            msg = _within(f"{where} uplink_to_residual_db", ratios_p,
                          ratios_c, level)
            if msg:
                failures.append(msg)
    return failures


# ---------------------------------------------------------------------------
# Reference runs


def scenario_config(name: str, seed: int, cut: bool):
    """The shipped scenario at its top sweep point under ``seed``; ``cut``
    also shortens it to :data:`CUT`."""
    import copy

    from oansim.scenarios import (ScenarioConfig, builtin_config_path,
                                  load_config)

    raw = copy.deepcopy(load_config(builtin_config_path(name)).raw)
    raw["sweep"]["rx_power_dbm"] = raw["sweep"]["rx_power_dbm"][-1:]
    if cut:
        raw["sweep"].update(CUT)
    raw["seed"] = seed
    return ScenarioConfig(raw)


def run_points(name: str, seed: int, cut: bool) -> dict:
    """The gated part of one report, its seed and sweep points, and the
    SHA-256 of the whole report as ``json.dumps(report, sort_keys=True)``."""
    from oansim.scenarios import run_scenario

    report = run_scenario(scenario_config(name, seed, cut))
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    return {"seed": seed, "points": report["points"],
            "sha256": digest.hexdigest()}


def byte_identical(parent_reports, change_reports) -> bool:
    """Whether every report on both sides carries a hash and the change's
    hashes equal the parent's, seed by seed."""
    hashes = [[r.get("sha256") for r in side]
              for side in (parent_reports, change_reports)]
    return None not in hashes[0] and hashes[0] == hashes[1]


def _seeds(text: str) -> list:
    """Seeds from ``first-last`` or ``first-last:step``."""
    span, _, step = text.partition(":")
    lo, _, hi = span.partition("-")
    return list(range(int(lo), int(hi or lo) + 1, int(step or 1)))


def _reference(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    src = Path(args.checkout).resolve() / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name in args.scenarios:
        reports = []
        for seed in _seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "_run", name,
                 str(seed)] + (["--cut"] if args.cut else []),
                env=env, capture_output=True, text=True, check=True)
            reports.append(json.loads(done.stdout))
            print(f"{name} seed {seed} done", file=sys.stderr)
        path = out / f"{name}{'_cut' if args.cut else ''}.json"
        path.write_text(json.dumps({"scenario": name, "cut": args.cut,
                                    "reports": reports}, indent=1) + "\n")
        print(path)
    return 0


def _compare(args) -> int:
    verdict = 0
    for change_path in sorted(Path(args.change).glob("*.json")):
        parent_path = Path(args.parent) / change_path.name
        if not parent_path.exists():
            continue
        parent = json.loads(parent_path.read_text())["reports"]
        change = json.loads(change_path.read_text())["reports"]
        failures = compare(parent, change)
        seeds = [[r["seed"] for r in side] for side in (parent, change)]
        same = ", byte-identical" if byte_identical(parent, change) else ""
        print(f"{change_path.stem}: parent seeds {seeds[0]}, change seeds "
              f"{seeds[1]}: {'FAIL' if failures else 'pass'}{same}")
        for msg in failures:
            print(f"  {msg}")
        verdict |= bool(failures)
    return verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    ref = sub.add_parser("reference", help="write reference reports")
    ref.add_argument("out")
    ref.add_argument("--checkout", default=str(Path(__file__).parents[1]))
    ref.add_argument("--seeds", default="1-5")
    ref.add_argument("--cut", action="store_true")
    ref.add_argument("--scenarios", nargs="+", default=list(SCENARIOS))
    cmp = sub.add_parser("compare", help="gate a change against a parent")
    cmp.add_argument("parent")
    cmp.add_argument("change")
    one = sub.add_parser("_run")
    one.add_argument("name")
    one.add_argument("seed", type=int)
    one.add_argument("--cut", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "reference":
        return _reference(args)
    if args.command == "compare":
        return _compare(args)
    print(json.dumps(run_points(args.name, args.seed, args.cut)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
