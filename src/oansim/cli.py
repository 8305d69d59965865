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

from .budget import (FRONTHAUL_PRESETS, SERVICE_CATALOG, FronthaulSpec,
                     LinkSpec, NodeSpec, ServiceRequirement, TopologySpec,
                     comp_feasibility, fronthaul_dimension, latency_budget,
                     power_budget)
from .channel import FiberParams
from .devices import ring_response
from .errors import ConfigError, SimulationError
from .scenarios import (ScenarioConfig, _flag, _get, _number, _whole,
                        builtin_config_path, emit_reports, load_config,
                        run_scenario)

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


def _reader(raw: dict, key: str):
    """``get(name, convert=_number, default=None)``: the value at
    key.name."""
    return lambda name, convert=_number, default=None: _get(
        raw, f"{key}.{name}", convert, default)


def _entries(raw: dict, key: str) -> list:
    """A reader of each item of the optional list at ``key``."""
    return [_reader(raw, f"{key}.{i}")
            for i in range(len(_get(raw, key, list, [])))]


def _components(val) -> tuple:
    return tuple((str(label), _number(db)) for label, db in val)


def _budget_topology(raw: dict) -> TopologySpec:
    nodes = [NodeSpec(get("id", str), get("kind", str),
                      get("processing_delay_us", default=0.0),
                      get("sync_compensation", _flag, False))
             for get in _entries(raw, "nodes")]
    links = [LinkSpec(get("from", str), get("to", str),
                      FiberParams(get("length_km"),
                                  get("atten_db_per_km", default=0.2),
                                  get("dispersion_ps_nm_km", default=17.0)),
                      get("components", _components, ()))
             for get in _entries(raw, "links")]
    return TopologySpec(nodes, links)


def _budget_service(get) -> ServiceRequirement:
    entry = get("service", lambda v: v)
    if isinstance(entry, str):
        if entry not in SERVICE_CATALOG:
            raise ConfigError(
                f"unknown service '{entry}'; catalog: {sorted(SERVICE_CATALOG)}")
        return SERVICE_CATALOG[entry]
    return ServiceRequirement(
        get("service.name", str), get("service.one_way_latency_limit_ms"),
        get("service.dl_rate_bps", default=0.0),
        get("service.ul_rate_bps", default=0.0))


def _budget_fronthaul(entry, get) -> FronthaulSpec:
    if isinstance(entry, str):
        if entry not in FRONTHAUL_PRESETS:
            raise ConfigError(f"unknown fronthaul preset '{entry}'; "
                              f"presets: {sorted(FRONTHAUL_PRESETS)}")
        return FRONTHAUL_PRESETS[entry]
    return FronthaulSpec(
        get("kind", str), get("rf_bandwidth"),
        sample_rate=get("sample_rate", default=0.0),
        bit_width=get("bit_width", _whole, 0),
        n_antenna_streams=get("n_antenna_streams", _whole, 1),
        ecpri_split_factor=get("ecpri_split_factor", default=1.0),
        guard=get("guard", default=0.0))


def run_budget(raw: dict) -> dict:
    """Evaluate every budget request in a topology config; returns a dict.

    A missing or malformed value raises ConfigError naming its dotted key.
    """
    if not isinstance(raw, dict):
        raise ConfigError("budget config is empty or not a mapping")
    topo = _budget_topology(raw)
    report: dict = {"name": _get(raw, "name", str, "budget")}

    report["latency"] = []
    for get in _entries(raw, "latency"):
        svc, path = _budget_service(get), get("path", list)
        report["latency"].append({"path": path, "service": svc.name,
                                  **latency_budget(topo, path, svc).to_dict()})

    report["comp"] = []
    for get in _entries(raw, "comp"):
        rep = comp_feasibility(
            topo, get("rus", list), get("controller", str),
            max_one_way_us=get("max_one_way_us", default=150.0),
            max_skew_us=get("max_skew_us", default=1.5))
        report["comp"].append({"controller": get("controller", str),
                               "rus": sorted(get("rus", list)),
                               **rep.to_dict()})

    report["fronthaul"] = []
    for i, get in enumerate(_entries(raw, "fronthaul")):
        entry = raw["fronthaul"][i]
        spec = _budget_fronthaul(entry, get)
        dim = fronthaul_dimension(spec)
        dim["preset"] = entry if isinstance(entry, str) else spec.kind
        report["fronthaul"].append(dim)

    report["power"] = []
    for get in _entries(raw, "power"):
        rep = power_budget(
            topo, get("path", list),
            tx_power_dbm=get("tx_power_dbm", default=0.0),
            coupling=get("coupling", str, "packaged"),
            n_facets=get("n_facets", _whole, 2),
            bus_stages=get("bus_stages", _whole, 0),
            bus_loss_db_per_stage=get("bus_loss_db_per_stage", default=0.1),
            rx_sensitivity_dbm=get("rx_sensitivity_dbm", default=-20.0))
        report["power"].append({"path": get("path", list), **rep.to_dict()})
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
