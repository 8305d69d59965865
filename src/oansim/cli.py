"""``oansim`` command-line interface.

Subcommands:

- ``run``: execute a scenario config end to end and emit reports.
- ``sweep``: same pipeline with the received-power axis overridden from
  the command line.
- ``budget``: network-level latency / coordination / fronthaul / power
  budgets from a topology config (no waveform simulation).
- ``devices``: export a microring frequency-response sweep as CSV.

Exit codes: 0 on success, 2 on configuration/validation failure, 3 on a
runtime simulation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from .budget import (COUPLING_DB_PER_FACET, FRONTHAUL_PRESETS, NODE_KINDS,
                     SERVICE_CATALOG, FronthaulSpec, LinkSpec, NodeSpec,
                     ServiceRequirement, TopologySpec, TreeError,
                     comp_feasibility, fronthaul_dimension, latency_budget,
                     power_budget)
from .channel import FiberParams
from .devices import ring_response
from .errors import ConfigError, SimulationError
from .scenarios import (ScenarioConfig, _choice, _flag, _naming,
                        _non_negative, _number, _positive, _ranged, _resolve,
                        _Values, _whole, builtin_config_path, emit_reports,
                        load_config, run_scenario)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3


def _resolve_config_path(config: str) -> Path:
    """Accept either a filesystem path or a shipped config name."""
    p = Path(config)
    if p.exists():
        return p
    if "/" not in config and not config.endswith((".yaml", ".yml")):
        return builtin_config_path(config)
    raise ConfigError(f"config file not found: {p}")


def _formats(fmt: str) -> tuple:
    return {"json": ("json",), "csv": ("csv",), "both": ("json", "csv")}[fmt]


def _load_scenario(args) -> ScenarioConfig:
    cfg = load_config(_resolve_config_path(args.config))
    return cfg if args.seed is None else cfg.with_seed(args.seed)


def _out_dir(args, cfg: ScenarioConfig | None = None) -> Path:
    if args.out is not None:
        return Path(args.out)
    if cfg is not None:
        return Path(cfg.output)
    return Path("reports")


def _cmd_run(args, sweep_override=None) -> int:
    cfg = _load_scenario(args)
    report = run_scenario(cfg, full=args.full, sweep_override=sweep_override)
    paths = emit_reports(report, _out_dir(args, cfg), _formats(args.format))
    top = report["points"][-1]
    print(f"scenario {report['name']}: seed {report['seed']}, "
          f"{len(report['points'])} sweep point(s)")
    worst = max(top["signals"].values(), key=lambda s: s["ber"])
    status = "all signals below FEC threshold" if all(
        s["passes_fec"] for s in top["signals"].values()) else "FEC FAILURES"
    print(f"top point {top['rx_power_dbm']:+.1f} dBm: {status} "
          f"(worst BER {worst['ber']:.3e})")
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    return _cmd_run(args, sweep_override=sorted(args.rx_power))


# ---------------------------------------------------------------------------
# budget subcommand


def _components(val) -> tuple:
    return tuple((str(label), _number(db)) for label, db in val)


_list = _ranged(lambda x: x, lambda x: isinstance(x, list), "a list")
# a budget config's keys, laid out as scenarios._KEYS; a service and a
# fronthaul entry are a shipped name or a mapping of _SERVICE or _FRONTHAUL
_SERVICE = {"name": (str,), "one_way_latency_limit_ms": (_positive,),
            "dl_rate_bps": (_number, 0.0), "ul_rate_bps": (_number, 0.0)}
_FRONTHAUL = {"kind": (_choice("CPRI", "eCPRI", "ARoF"),),
              "rf_bandwidth": (_positive,), "sample_rate": (_number, 0.0),
              "bit_width": (_whole, 0), "n_antenna_streams": (_whole, 1),
              "ecpri_split_factor": (_number, 1.0), "guard": (_number, 0.0)}
_NODE = {"id": (str,), "kind": (_choice(*NODE_KINDS),),
         "processing_delay_us": (_number, 0.0),
         "sync_compensation": (_flag, False)}
_LINK = {"from": (str,), "to": (str,), "length_km": (_non_negative,),
         "atten_db_per_km": (_non_negative, 0.2),
         "dispersion_ps_nm_km": (_number, 17.0),
         "components": (_components, ())}
_LATENCY = {"path": (_list,), "service": (lambda entry: entry,)}
_COMP = {"rus": (_list,), "controller": (str,),
         "max_one_way_us": (_number, 150.0), "max_skew_us": (_number, 1.5)}
_POWER = {"path": (_list,), "tx_power_dbm": (_number, 0.0),
          "coupling": (_choice(*COUPLING_DB_PER_FACET), "packaged"),
          "n_facets": (_whole, 2), "bus_stages": (_whole, 0),
          "bus_loss_db_per_stage": (_number, 0.1),
          "rx_sensitivity_dbm": (_number, -20.0)}
_BUDGET = {"name": (str, "budget"), "nodes": [_NODE], "links": [_LINK],
           "latency": [_LATENCY], "comp": [_COMP], "fronthaul": (_list, []),
           "power": [_POWER]}


def _items(values: _Values, key: str) -> list:
    """The values of each item of the list ``key`` of a budget config, by
    their names in its table."""
    return [{name: values[f"{key}.{i}.{name}"] for name in _BUDGET[key][0]}
            for i in range(len(values[key]))]


def _named(entry, key: str, catalog: dict, table: dict, values: _Values,
           spec):
    """The ``spec`` of the entry at ``key``: a name of ``catalog``, or a
    mapping of the keys of ``table``, its fields, read into ``values``."""
    if isinstance(entry, str):
        if entry not in catalog:
            raise ConfigError(
                f"{key}: '{entry}' is not one of {sorted(catalog)}")
        return catalog[entry]
    _resolve(entry, table, key + ".", values)
    return _naming([f"{key}.{name}" for name in table], spec,
                   **{name: values[f"{key}.{name}"] for name in table})


def run_budget(raw: dict) -> dict:
    """Evaluate every budget request in a topology config; returns a dict.

    A missing, malformed or unknown key raises ConfigError naming it, and
    a request that fails names its keys; a tree that does not hold names
    the node or link at fault, or its sections where no one item is.
    """
    if not isinstance(raw, dict):
        raise ConfigError("budget config is empty or not a mapping")
    values = _Values()
    _resolve(raw, _BUDGET, "", values)
    links = [LinkSpec(item["from"], item["to"], FiberParams(
        item["length_km"], item["atten_db_per_km"],
        item["dispersion_ps_nm_km"]), item["components"])
        for item in _items(values, "links")]
    try:
        topo = TopologySpec([NodeSpec(**item)
                             for item in _items(values, "nodes")], links)
    except TreeError as exc:
        raise ConfigError(f"{exc.key or 'nodes, links'}: {exc}") from None
    report: dict = {"name": values["name"]}

    report["latency"] = []
    for i, item in enumerate(_items(values, "latency")):
        svc = _named(item["service"], f"latency.{i}.service",
                     SERVICE_CATALOG, _SERVICE, values, ServiceRequirement)
        rep = _naming((f"latency.{i}.path",), latency_budget, topo,
                      item["path"], svc)
        report["latency"].append({"path": item["path"], "service": svc.name,
                                  **rep.to_dict()})

    report["comp"] = []
    for i, item in enumerate(_items(values, "comp")):
        rep = _naming((f"comp.{i}.rus", f"comp.{i}.controller"),
                      comp_feasibility, topo, item["rus"], item["controller"],
                      item["max_one_way_us"], item["max_skew_us"])
        report["comp"].append({"controller": item["controller"],
                               "rus": sorted(item["rus"]), **rep.to_dict()})

    report["fronthaul"] = []
    for i, entry in enumerate(values["fronthaul"]):
        spec = _named(entry, f"fronthaul.{i}", FRONTHAUL_PRESETS, _FRONTHAUL,
                      values, FronthaulSpec)
        dim = fronthaul_dimension(spec)
        dim["preset"] = entry if isinstance(entry, str) else spec.kind
        report["fronthaul"].append(dim)

    report["power"] = []
    for i, item in enumerate(_items(values, "power")):
        rep = _naming((f"power.{i}.path",), power_budget, topo, **item)
        report["power"].append({"path": item["path"], **rep.to_dict()})
    return report


def _print_budget(report: dict) -> None:
    for entry in report["latency"]:
        verdict = "PASS" if entry["passes"] else "FAIL"
        print(f"latency {'->'.join(entry['path'])} [{entry['service']}]: "
              f"{entry['total_us']:.1f} us of {entry['limit_us']:.1f} us "
              f"-> {verdict}")
    for entry in report["comp"]:
        verdict = "PASS" if entry["passes"] else "FAIL"
        print(f"comp {entry['controller']} <- {','.join(entry['rus'])}: "
              f"max skew {entry['max_skew_us']:.3f} us "
              f"(compensated={entry['compensated']}) -> {verdict}")
    for entry in report["fronthaul"]:
        if "line_rate_bps" in entry:
            print(f"fronthaul {entry['preset']} ({entry['kind']}): "
                  f"{entry['line_rate_bps']/1e9:.4f} Gb/s, "
                  f"expansion {entry['expansion_factor']:.2f}x")
        else:
            print(f"fronthaul {entry['preset']} ({entry['kind']}): "
                  f"{entry['optical_bandwidth_hz']/1e6:.1f} MHz optical, "
                  f"expansion {entry['expansion_factor']:.2f}x")
    for entry in report["power"]:
        verdict = "PASS" if entry["passes"] else "FAIL"
        print(f"power {'->'.join(entry['path'])}: received "
              f"{entry['received_dbm']:.1f} dBm, margin "
              f"{entry['margin_db']:.1f} dB -> {verdict}")


def _cmd_budget(args) -> int:
    path = _resolve_config_path(args.config)
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    report = run_budget(raw)
    _print_budget(report)
    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{report['name']}_budget.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# devices subcommand


def _cmd_devices(args) -> int:
    if args.points < 1:
        raise ConfigError(f"--points must be >= 1, got {args.points}")
    if args.span is not None and not 0.0 < args.span < np.inf:
        raise ConfigError(f"--span must be finite and > 0, got {args.span}")
    cfg = load_config(_resolve_config_path(args.config))
    center = cfg.center_freq
    # channel 0's modulator ring, untuned and on the plan's centre, with
    # a drop coupler like its bus coupler so that both ports are swept
    ring = cfg.transmitters[0].ring
    ring = replace(ring, resonance_freq=center, tuning_offset=0.0,
                   self_coupling_t2=ring.self_coupling_t1)
    span = args.span if args.span is not None else 10.0 * ring.fwhm
    freqs = center + np.linspace(-span / 2, span / 2, args.points)
    through, drop = ring_response(ring, freqs)
    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{cfg.name}_ring_response.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "through_db", "drop_db", "phase_rad"])
        for f, t, d in zip(freqs, through, drop):
            writer.writerow([f"{f:.6e}",
                             f"{20.0 * np.log10(max(abs(t), 1e-300)):.6f}",
                             f"{20.0 * np.log10(max(abs(d), 1e-300)):.6f}",
                             f"{np.angle(t):.9f}"])
    print(f"ring at {center/1e12:.4f} THz: FWHM {ring.fwhm/1e9:.3f} GHz, "
          f"FSR {ring.fsr/1e12:.2f} THz")
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oansim",
        description="Analog radio-over-fiber access-network simulator "
                    "and budgeting toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", required=True,
                       help="config file path or shipped config name "
                            "(e.g. scenario_a)")
        p.add_argument("--out", default=None, help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")

    p_run = sub.add_parser("run", help="run a scenario end to end")
    common(p_run)
    p_run.add_argument("--format", choices=("json", "csv", "both"),
                       default="both")
    p_run.add_argument("--full", action="store_true",
                       help="full-length bit budget at the top sweep point")

    p_sweep = sub.add_parser("sweep",
                             help="run with an overridden received-power axis")
    common(p_sweep)
    p_sweep.add_argument("--rx-power", type=float, nargs="+", required=True,
                         metavar="DBM", help="received power values in dBm")
    p_sweep.add_argument("--format", choices=("json", "csv", "both"),
                         default="both")
    p_sweep.add_argument("--full", action="store_true")

    p_budget = sub.add_parser(
        "budget", help="latency/coordination/fronthaul/power budgets")
    common(p_budget, seed=False)

    p_dev = sub.add_parser(
        "devices", help="export a microring frequency-response sweep")
    common(p_dev, seed=False)
    p_dev.add_argument("--span", type=float, default=None,
                       help="sweep span in Hz (default 10 linewidths)")
    p_dev.add_argument("--points", type=int, default=2001)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep,
                "budget": _cmd_budget, "devices": _cmd_devices}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    sys.exit(main())
