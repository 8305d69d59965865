"""Smoke run of the per-primitive benchmark harness at 2^12 samples."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_primitives_times_every_primitive(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "bench_primitives", ROOT / "tools" / "bench_primitives.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "BENCH_primitives.json"
    for label in ("first", "second"):
        assert bench.main(["--sizes", "12", "--repeat", "1", "--label", label,
                           "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert set(runs) == {"first", "second"}
    seconds = runs["second"]["seconds"]["2^12"]
    assert set(seconds) == {"apply_mrm", "drop_filter", "propagate_fiber",
                            "amplify_ase", "photodetect", "demodulate_ofdm",
                            "iq_drive", "real_drive", "receive", "iq_mrm_ssb",
                            "generate_subcarriers", "crop_to_band"}
    assert all(s is not None and s >= 0 for s in seconds.values())
