"""Command-line interface tests: subcommands, outputs, exit codes."""

import copy
import hashlib
import json
import re

import pytest
import yaml

from oansim.cli import build_parser, main
from oansim.errors import ConfigError
from oansim.scenarios import (ScenarioConfig, builtin_config_path,
                              load_config, run_scenario)
from oansim.subsystems import UPLINK_RATIO_TARGET_DB

MINI = {
    "name": "cli_mini",
    "seed": 5,
    "sample_rate": 64.0e9,
    "center_freq": 193.4e12,
    "wdm": {"channel_offsets": [0.0]},
    "digital": {"occupied_bandwidth": 2.0e9, "if_freq": 7.0e9},
    "uplink": {"drive_depth": 0.5},
    "devices": {"drive_depth": 0.12, "tx_power_dbm": 3.0},
    "spans": {"feeder_km": 20.0, "distribution_km": 5.0},
    "onu": {"broadband_passband_fraction": 0.995},
    "sweep": {"rx_power_dbm": [-3.0], "bits_per_point": 3000,
              "top_bits": 3000, "burst_symbols": 40},
}


@pytest.fixture
def mini_path(tmp_path):
    p = tmp_path / "cli_mini.yaml"
    p.write_text(yaml.safe_dump(MINI))
    return p


def test_run_writes_reports(mini_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(mini_path), "--out", str(out)])
    assert code == 0
    assert (out / "cli_mini_metrics.json").exists()
    assert (out / "cli_mini_waterfall.csv").exists()
    assert "cli_mini" in capsys.readouterr().out


def test_run_format_json_only(mini_path, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(mini_path), "--out", str(out),
                 "--format", "json"]) == 0
    assert (out / "cli_mini_metrics.json").exists()
    assert not (out / "cli_mini_waterfall.csv").exists()


def test_seed_override_lands_in_report(mini_path, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(mini_path), "--out", str(out),
                 "--seed", "99"]) == 0
    report = json.loads((out / "cli_mini_metrics.json").read_text())
    assert report["seed"] == 99


def test_sweep_overrides_power_axis(mini_path, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(mini_path), "--out", str(out),
                 "--rx-power", "-2", "--format", "json"]) == 0
    report = json.loads((out / "cli_mini_metrics.json").read_text())
    assert [p["rx_power_dbm"] for p in report["points"]] == [-2.0]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_sweep_rejects_a_non_finite_power(value, mini_path, tmp_path,
                                          capsys):
    assert main(["sweep", "--config", str(mini_path), "--out",
                 str(tmp_path), "--rx-power", "-2", value]) == 2
    err = capsys.readouterr().err
    assert "--rx-power" in err and "Traceback" not in err


def test_missing_config_exits_2(capsys):
    assert main(["run", "--config", "/no/such/file.yaml"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    raw = copy.deepcopy(MINI)
    raw["seed"] = "not-an-int"
    p = tmp_path / "bad.yaml"
    p.write_text(yaml.safe_dump(raw))
    assert main(["run", "--config", str(p)]) == 2


def _shipped_cut(style):
    """The shipped config of an overlay style, cut to a short burst."""
    name = {"adjacent_rf": "scenario_b", "subcarrier_tunnels": "scenario_a"}
    raw = yaml.safe_load(builtin_config_path(name[style]).read_text())
    raw["sweep"] = {"rx_power_dbm": [-4.0], "bits_per_point": 100,
                    "top_bits": 100, "full_bits": 100, "burst_symbols": 50}
    return raw


DELETE = "<delete>"
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("base, path, value, key", [
    ("mini", ["tunnels"], [{"occupied_bandwidth": 1e9}], "tunnels.0.if_freq"),
    ("mini", ["uplink", "rof"], {"occupied_bandwidth": 1e9},
     "uplink.rof.if_freq"),
    ("mini", ["amplifier"], {"gain_db": 4.0}, "amplifier.nf_db"),
    ("mini", ["spans", "feeder_km"], "twenty", "spans.feeder_km"),
    ("mini", ["sample_rate"], "fast", "sample_rate"),
    ("mini", ["sweep", "burst_symbols"], "many", "sweep.burst_symbols"),
    ("mini", ["sweep", "rx_power_dbm"], [], "sweep.rx_power_dbm"),
    ("mini", ["sweep", "rx_power_dbm"], -3.0, "sweep.rx_power_dbm"),
    ("adjacent_rf", ["onu", "rof_carrier_tap_db"], DELETE,
     "onu.rof_carrier_tap_db"),
    ("adjacent_rf", ["uplink", "rof"],
     {"if_freq": 2.4e9, "occupied_bandwidth": 2.8e9}, "uplink.rof"),
    # a string is not a YAML boolean: bool("false") would turn shot noise on
    ("mini", ["onu", "pd", "include_shot"], "false", "onu.pd.include_shot"),
    # a count is a whole number: int(64.9) would run 64 subcarriers
    ("mini", ["digital", "n_subcarriers"], 64.9, "digital.n_subcarriers"),
    # out of range: each ended in a traceback, ran silently or named no key
    ("mini", ["onu", "broadband_order"], 0, "onu.broadband_order"),
    ("adjacent_rf", ["uplink", "intercept_order"], 0, "uplink.intercept_order"),
    ("mini", ["onu", "broadband_passband_fraction"], 1.5,
     "onu.broadband_passband_fraction"),
    ("mini", ["onu", "carrier_tap_fraction"], 1.5, "onu.carrier_tap_fraction"),
    ("adjacent_rf", ["uplink", "intercept_carrier_tap"], 2,
     "uplink.intercept_carrier_tap"),
    ("mini", ["onu", "rof_filter_order"], 0, "onu.rof_filter_order"),
    ("mini", ["onu", "rof_filter_bandwidth"], -1, "onu.rof_filter_bandwidth"),
    ("mini", ["spans", "feeder_km"], -1, "spans.feeder_km"),
    ("mini", ["onu", "pd", "thermal_noise_psd"], -1,
     "onu.pd.thermal_noise_psd"),
    # burst seeds are drawn from the config seed, which must be >= 0
    ("mini", ["seed"], -1_000_000, "seed"),
    # a YAML boolean is not a number, though float(True) is 1.0
    ("mini", ["spans", "feeder_km"], True, "spans.feeder_km"),
    ("mini", ["seed"], True, "seed"),
    ("mini", ["sample_rate"], True, "sample_rate"),
    # counts, depths and device values out of range
    ("mini", ["sweep", "bits_per_point"], -5, "sweep.bits_per_point"),
    ("mini", ["sweep", "top_bits"], -5, "sweep.top_bits"),
    ("mini", ["sweep", "full_bits"], -5, "sweep.full_bits"),
    ("mini", ["sweep", "burst_symbols"], -1, "sweep.burst_symbols"),
    ("mini", ["devices", "drive_depth"], -0.1, "devices.drive_depth"),
    ("mini", ["devices", "rf_drive_depth"], -0.1, "devices.rf_drive_depth"),
    ("mini", ["uplink", "drive_depth"], 0, "uplink.drive_depth"),
    ("mini", ["devices", "ring", "coupling"], 1.5, "devices.ring.coupling"),
    ("mini", ["devices", "ring", "amplitude"], 0, "devices.ring.amplitude"),
    ("mini", ["devices", "ring", "fsr"], -1, "devices.ring.fsr"),
    ("mini", ["onu", "pd", "responsivity"], -1, "onu.pd.responsivity"),
    ("mini", ["devices", "ring", "mod_efficiency"], 0,
     "devices.ring.mod_efficiency"),
    ("mini", ["devices", "carrier_retain_fraction"], 1.5,
     "devices.carrier_retain_fraction"),
    ("mini", ["fec_threshold"], -1, "fec_threshold"),
    ("mini", ["center_freq"], -1e12, "center_freq"),
    # a signal band must lie above 0 Hz
    ("mini", ["tunnels"], [{"if_freq": 1e9, "occupied_bandwidth": 3e9}],
     "tunnels.0.if_freq"),
    ("mini", ["tunnels"], [{"if_freq": 0, "occupied_bandwidth": 1e9}],
     "tunnels.0.if_freq"),
    ("mini", ["digital", "if_freq"], 0.5e9, "digital.if_freq"),
    ("mini", ["uplink", "rof"], {"if_freq": 1e9, "occupied_bandwidth": 3e9},
     "uplink.rof.if_freq"),
    # not a finite number: each ended in a traceback, ran with a check
    # turned off or exited 2 naming no key
    ("mini", ["devices", "tx_power_dbm"], NAN, "devices.tx_power_dbm"),
    ("mini", ["spans", "dispersion_ps_nm_km"], NAN,
     "spans.dispersion_ps_nm_km"),
    ("mini", ["spans", "feeder_km"], INF, "spans.feeder_km"),
    ("mini", ["sweep", "rx_power_dbm"], [NAN], "sweep.rx_power_dbm"),
    ("mini", ["amplifier"], {"gain_db": 4.0, "nf_db": NAN}, "amplifier.nf_db"),
    ("mini", ["digital", "if_freq"], NAN, "digital.if_freq"),
    ("mini", ["center_freq"], INF, "center_freq"),
    ("mini", ["sample_rate"], INF, "sample_rate"),
    ("mini", ["digital", "occupied_bandwidth"], INF,
     "digital.occupied_bandwidth"),
    ("mini", ["onu", "min_residual_carrier_dbm"], NAN,
     "onu.min_residual_carrier_dbm"),
    ("mini", ["wdm", "slot_width"], NAN, "wdm.slot_width"),
    ("mini", ["devices", "drive_depth"], INF, "devices.drive_depth"),
    ("mini", ["devices", "subcarrier_clock_volt"], INF,
     "devices.subcarrier_clock_volt"),
    # the reports are written as <name>_metrics.json in the output folder
    ("mini", ["name"], "a/b", "name"),
    # a filter order is a loop count and an exponent: 1000 overflowed to a
    # traceback and 1e30 never ended
    ("mini", ["onu", "broadband_order"], 1000, "onu.broadband_order"),
    ("mini", ["onu", "broadband_order"], 1e30, "onu.broadband_order"),
    ("mini", ["onu", "rof_filter_order"], 1e30, "onu.rof_filter_order"),
    ("adjacent_rf", ["uplink", "intercept_order"], 1e30,
     "uplink.intercept_order"),
    # plan and slot errors that named another key
    ("mini", ["wdm", "slot_width"], 1e30, "wdm.slot_width"),
    ("mini", ["wdm", "digital_subband"], 1e30, "wdm.digital_subband"),
    ("mini", ["devices", "drive_depth"], 1e30, "devices.drive_depth"),
    ("mini", ["uplink", "drive_depth"], 1e30, "uplink.drive_depth"),
    ("mini", ["devices", "ring", "fsr"], 1e30, "devices.ring.fsr"),
    # counts, rates and levels past what the arithmetic holds: each ended
    # in a traceback
    ("mini", ["digital", "pilot_spacing"], 1e30, "digital.pilot_spacing"),
    ("mini", ["digital", "oversampling"], 1e30, "digital.oversampling"),
    ("mini", ["digital", "occupied_bandwidth"], 1e30,
     "digital.occupied_bandwidth"),
    ("mini", ["devices", "tx_power_dbm"], 1e30, "devices.tx_power_dbm"),
    ("mini", ["sweep", "burst_symbols"], 1e30, "sweep.burst_symbols"),
    ("mini", ["sample_rate"], 1e30, "sample_rate"),
    # a network unit's filter that fails its checks names the keys that
    # size it
    ("mini", ["onu", "broadband_order"], 2, "onu.broadband_order"),
    ("subcarrier_tunnels", ["onu", "rof_filter_bandwidth"], 1e30,
     "onu.rof_filter_bandwidth"),
    # keys in range whose burst's record is not: 2^58 and 2^32 samples
    ("mini", ["digital", "occupied_bandwidth"], 1e-3,
     "digital.occupied_bandwidth"),
    ("mini", ["sweep", "burst_symbols"], 1e6, "sweep.burst_symbols"),
    # bit targets no run reaches: each ran without end
    ("mini", ["sweep", "bits_per_point"], 1e30, "sweep.bits_per_point"),
    ("mini", ["sweep", "top_bits"], 1e30, "sweep.top_bits"),
    ("mini", ["sweep", "full_bits"], 1e30, "sweep.full_bits"),
    # a record past 2^24 samples, sized before its FFT length: each ended
    # in a traceback (2^64 samples at 50 symbols a burst; 1e-3 takes 200)
    ("subcarrier_tunnels", ["digital", "bit_rate"], 1e-4, "digital.bit_rate"),
    ("adjacent_rf", ["digital", "bit_rate"], 1e-4, "digital.bit_rate"),
    # a solved drop filter that fails names the keys that size it
    ("adjacent_rf", ["onu", "rof_carrier_tap_db"], 1e3,
     "onu.rof_carrier_tap_db"),
    ("subcarrier_tunnels", ["uplink", "rof", "if_freq"], 1e30,
     "uplink.rof.if_freq"),
    ("subcarrier_tunnels", ["uplink", "rof", "occupied_bandwidth"], 1e-30,
     "uplink.rof.occupied_bandwidth"),
    ("subcarrier_tunnels", ["digital", "bit_rate"], 1e-30, "digital.bit_rate"),
    # a misspelt key or section ran on the default without a word
    ("subcarrier_tunnels", ["spans", "feedr_km"], 99, "spans.feedr_km"),
    ("subcarrier_tunnels", ["spanz"], {"feeder_km": 99}, "spanz"),
    # null is absent: a required key is missing
    ("mini", ["sample_rate"], None, "sample_rate"),
    # the output folder is a name: each loaded as the text of its value,
    # and an empty one ran in the working directory
    ("mini", ["output"], True, "output"),
    ("mini", ["output"], [1.0], "output"),
    ("mini", ["output"], "", "output"),
    # each radio group is one receiver's drop: an empty one passed the
    # partition check and ended in a traceback
    ("adjacent_rf", ["rf_groups"], [[0, 1, 2], [3, 4], []], "rf_groups"),
    ("adjacent_rf", ["rf_groups"], [[], [0, 1, 2, 3, 4]], "rf_groups"),
])
def test_malformed_config_exits_2_naming_the_key(base, path, value, key,
                                                 tmp_path, capsys):
    raw = copy.deepcopy(MINI) if base == "mini" else _shipped_cut(base)
    section = raw
    for name in path[:-1]:
        section = section.setdefault(name, {})
    if value == DELETE:
        del section[path[-1]]
    else:
        section[path[-1]] = value
    p = tmp_path / "malformed.yaml"
    p.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(p)
    assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err



def test_mirrored_chain_is_error_free():
    """The digital downlink on the lower sideband and the uplink on the
    upper one: the network unit's broadband drop is solved on the mirrored
    band, and both signals arrive without error above the uplink target
    (0 of 7,080 bits each and 17.0 dB measured)."""
    raw = copy.deepcopy(MINI)
    raw["digital"]["sideband"] = "lower"
    raw["uplink"]["sideband"] = "upper"
    cfg = ScenarioConfig(raw)
    assert cfg.onus[0].broadband_filter.center_offset < 0
    (point,) = run_scenario(cfg)["points"]
    assert set(point["signals"]) == {"ch0:digital", "uplink:digital"}
    assert all(s["errors"] == 0 for s in point["signals"].values())
    assert point["uplink_to_residual_db"] >= UPLINK_RATIO_TARGET_DB


def test_simulation_error_exits_3(tmp_path, capsys):
    # no residual carrier reaches a +100 dBm floor, so the network unit
    # refuses to remodulate
    raw = copy.deepcopy(MINI)
    raw["onu"] = dict(raw["onu"], min_residual_carrier_dbm=100.0)
    p = tmp_path / "starved.yaml"
    p.write_text(yaml.safe_dump(raw))
    assert main(["run", "--config", str(p)]) == 3
    assert "simulation error" in capsys.readouterr().err


@pytest.mark.parametrize("feeder_km, message", [
    # the uplink's preamble drowns in the return loss
    (3000.0, "preamble not found"),
    # 200,000 dB of feeder loss leaves nothing at the network units
    (1e6, "without power"),
])
def test_a_link_too_long_exits_3(feeder_km, message, tmp_path, capsys):
    raw = copy.deepcopy(MINI)
    raw["spans"] = dict(raw["spans"], feeder_km=feeder_km)
    p = tmp_path / "long.yaml"
    p.write_text(yaml.safe_dump(raw))
    assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "simulation error" in err and message in err
    assert "Traceback" not in err


def test_budget_builtin_example(tmp_path, capsys):
    out = tmp_path / "bud"
    assert main(["budget", "--config", "budget_example",
                 "--out", str(out)]) == 0
    report = json.loads((out / "access_tree_budget.json").read_text())
    assert report["comp"][0]["passes"]
    got = capsys.readouterr().out
    assert "expansion 61.44x" in got


def test_budget_parse_error_exits_2_naming_the_file(tmp_path, capsys):
    p = tmp_path / "bad_budget.yaml"
    p.write_text("nodes: [unclosed")
    assert main(["budget", "--config", str(p), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"config parse error in {p}" in err and "Traceback" not in err


def test_budget_bad_service_exits_2(tmp_path):
    p = tmp_path / "bad_budget.yaml"
    p.write_text(yaml.safe_dump({
        "name": "x",
        "nodes": [{"id": "a", "kind": "central_office"},
                  {"id": "b", "kind": "onu"}],
        "links": [{"from": "a", "to": "b", "length_km": 1.0}],
        "latency": [{"path": ["a", "b"], "service": "warp_drive"}],
    }))
    assert main(["budget", "--config", str(p)]) == 2


@pytest.mark.parametrize("link, key", [
    ({"from": "a", "to": "b"}, "links.0.length_km"),
    ({"from": "a", "to": "b", "length_km": "far"}, "links.0.length_km"),
    ({"from": "a", "to": "b", "length_km": NAN}, "links.0.length_km"),
])
def test_malformed_budget_exits_2_naming_the_key(link, key, tmp_path, capsys):
    p = tmp_path / "bad_budget.yaml"
    p.write_text(yaml.safe_dump({
        "name": "x",
        "nodes": [{"id": "a", "kind": "central_office"},
                  {"id": "b", "kind": "onu"}],
        "links": [link],
    }))
    assert main(["budget", "--config", str(p), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("path, key", [
    (["latencyy"], "latencyy"),
    (["links", 0, "atten_db_per_kmm"], "links.0.atten_db_per_kmm"),
    (["power", 0, "bus_stagez"], "power.0.bus_stagez"),
])
def test_misspelt_budget_key_exits_2_naming_it(path, key, tmp_path, capsys):
    # each ran without a word: a misspelt section dropped its checks
    raw = yaml.safe_load(builtin_config_path("budget_example").read_text())
    section = raw
    for name in path[:-1]:
        section = section[name]
    section[path[-1]] = 5
    p = tmp_path / "misspelt.yaml"
    p.write_text(yaml.safe_dump(raw))
    assert main(["budget", "--config", str(p), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "did you mean" in err and "Traceback" not in err


@pytest.mark.parametrize("path, value, key", [
    (["links", 2, "from"], "splitter", "links.2.from"),
    (["links", 4, "to"], "ru9", "links.4.to"),
    (["nodes", 4, "id"], "onu1", "nodes.4.id"),
    (["nodes", 2, "kind"], "central_office", "nodes.2.kind"),
    (["links", 4, "to"], "ru1", "nodes, links"),
])
def test_budget_tree_fault_names_its_key(path, value, key, tmp_path, capsys):
    # a fault of one node or link names it; a shape no one key sets (here
    # a cycle that leaves ru2 unreached) names the sections
    raw = yaml.safe_load(builtin_config_path("budget_example").read_text())
    raw[path[0]][path[1]][path[2]] = value
    p = tmp_path / "tree.yaml"
    p.write_text(yaml.safe_dump(raw))
    assert main(["budget", "--config", str(p), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{key}: " in err and "Traceback" not in err


def test_budget_flag_must_be_a_yaml_boolean(tmp_path, capsys):
    p = tmp_path / "bad_budget.yaml"
    p.write_text(yaml.safe_dump({
        "name": "x",
        "nodes": [{"id": "a", "kind": "central_office",
                   "sync_compensation": "false"},
                  {"id": "b", "kind": "onu"}],
        "links": [{"from": "a", "to": "b", "length_km": 1.0}],
    }))
    assert main(["budget", "--config", str(p), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "nodes.0.sync_compensation" in err and "Traceback" not in err


@pytest.mark.parametrize("path, value, key", [
    # node lists: each ended in a traceback, a KeyError or an unhashable
    # list
    (["power", 0, "path"], ["nope", "co"], "power.0.path"),
    (["power", 0, "path"], [["co"], "edge"], "power.0.path"),
    (["latency", 0, "path"], [["co"], "edge"], "latency.0.path"),
    (["comp", 0, "rus"], [["ru1"]], "comp.0.rus"),
    # names: each was taken as its str(), and ../x wrote its report
    # outside --out
    (["name"], True, "name"),
    (["name"], [1.0], "name"),
    (["name"], "../x", "name"),
    (["nodes", 0, "id"], True, "nodes.0.id"),
    (["nodes", 0, "id"], [1.0], "nodes.0.id"),
    (["latency", 1, "service"], {"name": True, "one_way_latency_limit_ms": 1},
     "latency.1.service.name"),
    (["latency", 1, "service"],
     {"name": [1.0], "one_way_latency_limit_ms": 1}, "latency.1.service.name"),
])
def test_budget_names_and_node_lists_exit_2_naming_the_key(
        path, value, key, tmp_path, capsys):
    raw = yaml.safe_load(builtin_config_path("budget_example").read_text())
    section = raw
    for name in path[:-1]:
        section = section[name]
    section[path[-1]] = value
    p = tmp_path / "bad_budget.yaml"
    p.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert main(["budget", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{key}: " in err and "Traceback" not in err
    assert not list(tmp_path.rglob("*_budget.json"))


@pytest.mark.parametrize("command", [
    ["run", "--config", "MINI"],
    ["budget", "--config", "budget_example"],
    ["devices", "--config", "scenario_b", "--points", "11"],
])
def test_an_out_that_is_a_file_exits_2_naming_it(command, mini_path, tmp_path,
                                                 capsys):
    # budget and devices ended in a FileExistsError traceback, and run
    # exited 2 only after its whole run
    taken = tmp_path / "taken"
    taken.write_text("")
    command = [str(mini_path) if arg == "MINI" else arg for arg in command]
    assert main([*command, "--out", str(taken)]) == 2
    captured = capsys.readouterr()
    assert "--out: cannot make directory" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert taken.read_text() == ""


def test_devices_csv(tmp_path):
    out = tmp_path / "dev"
    assert main(["devices", "--config", "scenario_a", "--out", str(out),
                 "--points", "101"]) == 0
    lines = (out / "scenario_a_ring_response.csv").read_text().splitlines()
    assert lines[0] == "freq_hz,through_db,drop_db,phase_rad"
    assert len(lines) == 102
    # deepest through-port notch sits mid-sweep, on resonance
    rows = [line.split(",") for line in lines[1:]]
    through = [float(r[1]) for r in rows]
    assert 40 <= through.index(min(through)) <= 60
    # both shipped rings, byte for byte as their table was first written
    want = "21fefa91df1db31d553191752f9b800ee16fc8eb2e60d7945164639af692ff19"
    for name in ("scenario_a", "scenario_b"):
        assert main(["devices", "--config", name, "--out", str(out),
                     "--points", "101"]) == 0
        table = (out / f"{name}_ring_response.csv").read_bytes()
        assert hashlib.sha256(table).hexdigest() == want, name


@pytest.mark.parametrize("flag, value", [
    ("--points", "-1"), ("--points", "0"), ("--span", "nan"),
    ("--span", "inf"), ("--span", "0"), ("--span", "-1e9"),
])
def test_devices_rejects_a_bad_sweep(flag, value, tmp_path, capsys):
    out = tmp_path / "dev"
    assert main(["devices", "--config", "scenario_a", "--out", str(out),
                 f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not out.exists()


def test_seed_is_an_option_of_run_and_sweep_only(tmp_path, capsys):
    # the ring sweep draws no random numbers
    with pytest.raises(SystemExit) as exc:
        main(["devices", "--config", "scenario_a", "--out", str(tmp_path),
              "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    parser = build_parser()
    assert parser.parse_args(["run", "--config", "x", "--seed", "1"]).seed == 1
    assert parser.parse_args(["sweep", "--config", "x", "--rx-power", "0",
                              "--seed", "2"]).seed == 2


def test_builtin_name_resolution(tmp_path):
    out = tmp_path / "dev"
    assert main(["devices", "--config", "scenario_b", "--out", str(out),
                 "--points", "11"]) == 0
    assert (out / "scenario_b_ring_response.csv").exists()
