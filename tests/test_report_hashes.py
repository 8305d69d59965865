"""Smoke runs of the report-hash tool on the smallest of its reports."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest
import yaml

from oansim.cli import run_budget
from oansim.scenarios import builtin_config_path, load_config, run_scenario
from test_cli import MINI

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "report_hashes", ROOT / "tools" / "report_hashes.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_report_hashes_prints_the_hash_of_the_mini_report(tmp_path, capsys):
    tool = _tool()
    assert tool.main(["cli_mini"]) == 0
    path = tmp_path / "cli_mini.yaml"
    path.write_text(yaml.safe_dump(MINI))
    report = run_scenario(load_config(path))
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    assert capsys.readouterr().out == f"cli_mini {digest.hexdigest()}\n"
    with pytest.raises(SystemExit):
        tool.main(["cli_maxi"])


def test_report_hashes_prints_the_hash_of_the_budget_example(capsys):
    assert _tool().main(["budget_example"]) == 0
    raw = yaml.safe_load(builtin_config_path("budget_example").read_text())
    digest = hashlib.sha256(json.dumps(run_budget(raw), sort_keys=True)
                            .encode())
    assert capsys.readouterr().out == f"budget_example {digest.hexdigest()}\n"
