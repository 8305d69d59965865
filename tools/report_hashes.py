"""Print the SHA-256 of the reports that show a change of numbers.

    python3 tools/report_hashes.py [NAME ...]

Each report is hashed as ``json.dumps(report, sort_keys=True)``, so two
trees with equal hashes give byte-identical reports.  The reports, by name
(all of them by default), are ``run_scenario(cfg)`` of the configs

* ``cli_mini`` and ``scenarios_mini``: the MINI configs of
  ``tests/test_cli.py`` and ``tests/test_scenarios.py``, loaded from YAML
  as their tests load them;
* ``a_cut`` and ``b_cut``: scenarios A and B cut as the gate cuts them
  (``tests/gate.py``), at seed 1;
* ``a_top`` and ``b_top``: scenarios A and B at their top point with the
  benchmark's bit targets (``perfbench/workloads.py``), at seed 101;

and ``budget_example``, ``cli.run_budget`` of the shipped budget config.

Everything is imported from this file's tree (``src``, ``tests`` and
``perfbench``), so a copy of the tool in another tree hashes that tree.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _mini(module: str):
    """The MINI config of a test module, written as YAML and loaded."""
    import yaml

    from oansim.scenarios import load_config

    raw = copy.deepcopy(__import__(module).MINI)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mini.yaml"
        path.write_text(yaml.safe_dump(raw))
        return load_config(path)


def _top(name: str):
    import workloads

    return workloads.ScenarioTop(*workloads.SCENARIOS[name], 101).cfg


def _cut(name: str):
    import gate

    return gate.scenario_config(name, 1, cut=True)


def _scenario(config):
    """The report of a scenario run of ``config()``."""
    def report():
        from oansim.scenarios import run_scenario

        return run_scenario(config())
    return report


def _budget():
    import yaml

    from oansim.cli import run_budget
    from oansim.scenarios import builtin_config_path

    path = builtin_config_path("budget_example")
    return run_budget(yaml.safe_load(path.read_text()))


REPORTS = {
    "cli_mini": _scenario(lambda: _mini("test_cli")),
    "scenarios_mini": _scenario(lambda: _mini("test_scenarios")),
    "a_cut": _scenario(lambda: _cut("scenario_a")),
    "b_cut": _scenario(lambda: _cut("scenario_b")),
    "a_top": _scenario(lambda: _top("scenario_a_top")),
    "b_top": _scenario(lambda: _top("scenario_b_top")),
    "budget_example": _budget,
}


def report_hash(name: str) -> str:
    """The SHA-256 of the report ``name``."""
    report = REPORTS[name]()
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()
                          ).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"reports to hash: {', '.join(REPORTS)}")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(REPORTS))
    if unknown:
        parser.error(f"unknown reports {unknown}; known: {list(REPORTS)}")
    for part in ("perfbench", "tests", "src"):
        sys.path.insert(0, str(ROOT / part))
    for name in args.names or REPORTS:
        print(f"{name} {report_hash(name)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
