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
from pathlib import Path

import numpy as np
import yaml

from .budget import (FRONTHAUL_PRESETS, SERVICE_CATALOG, FronthaulSpec,
                     LinkSpec, NodeSpec, ServiceRequirement, TopologySpec,
                     comp_feasibility, fronthaul_dimension, latency_budget,
                     power_budget)
from .channel import FiberParams
from .devices import RingParams, ring_response
from .errors import ConfigError, SimulationError
from .scenarios import (ScenarioConfig, builtin_config_path, emit_reports,
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


def _budget_topology(raw: dict) -> TopologySpec:
    nodes = [NodeSpec(n["id"], n["kind"],
                      processing_delay_us=float(n.get("processing_delay_us", 0.0)),
                      sync_compensation=bool(n.get("sync_compensation", False)))
             for n in raw.get("nodes", [])]
    links = []
    for ln in raw.get("links", []):
        fiber = FiberParams(
            float(ln["length_km"]),
            atten_db_per_km=float(ln.get("atten_db_per_km", 0.2)),
            dispersion_ps_nm_km=float(ln.get("dispersion_ps_nm_km", 17.0)))
        comps = tuple((str(label), float(db))
                      for label, db in ln.get("components", []))
        links.append(LinkSpec(ln["from"], ln["to"], fiber, comps))
    return TopologySpec(nodes, links)


def _budget_service(entry) -> ServiceRequirement:
    if isinstance(entry, str):
        if entry not in SERVICE_CATALOG:
            raise ConfigError(
                f"unknown service '{entry}'; catalog: {sorted(SERVICE_CATALOG)}")
        return SERVICE_CATALOG[entry]
    return ServiceRequirement(
        entry["name"], float(entry["one_way_latency_limit_ms"]),
        dl_rate_bps=float(entry.get("dl_rate_bps", 0.0)),
        ul_rate_bps=float(entry.get("ul_rate_bps", 0.0)))


def _budget_fronthaul(entry) -> FronthaulSpec:
    if isinstance(entry, str):
        if entry not in FRONTHAUL_PRESETS:
            raise ConfigError(f"unknown fronthaul preset '{entry}'; "
                              f"presets: {sorted(FRONTHAUL_PRESETS)}")
        return FRONTHAUL_PRESETS[entry]
    return FronthaulSpec(
        entry["kind"], float(entry["rf_bandwidth"]),
        sample_rate=float(entry.get("sample_rate", 0.0)),
        bit_width=int(entry.get("bit_width", 0)),
        n_antenna_streams=int(entry.get("n_antenna_streams", 1)),
        ecpri_split_factor=float(entry.get("ecpri_split_factor", 1.0)),
        guard=float(entry.get("guard", 0.0)))


def run_budget(raw: dict) -> dict:
    """Evaluate every budget request in a topology config; returns a dict."""
    if not isinstance(raw, dict):
        raise ConfigError("budget config is empty or not a mapping")
    topo = _budget_topology(raw)
    report: dict = {"name": raw.get("name", "budget")}

    latency = []
    for req in raw.get("latency", []):
        svc = _budget_service(req["service"])
        rep = latency_budget(topo, list(req["path"]), svc)
        latency.append({"path": list(req["path"]), "service": svc.name,
                        **rep.to_dict()})
    report["latency"] = latency

    comp = []
    for req in raw.get("comp", []):
        rep = comp_feasibility(
            topo, list(req["rus"]), req["controller"],
            max_one_way_us=float(req.get("max_one_way_us", 150.0)),
            max_skew_us=float(req.get("max_skew_us", 1.5)))
        comp.append({"controller": req["controller"],
                     "rus": sorted(req["rus"]), **rep.to_dict()})
    report["comp"] = comp

    fronthaul = []
    for entry in raw.get("fronthaul", []):
        spec = _budget_fronthaul(entry)
        dim = fronthaul_dimension(spec)
        dim["preset"] = entry if isinstance(entry, str) else spec.kind
        fronthaul.append(dim)
    report["fronthaul"] = fronthaul

    power = []
    for req in raw.get("power", []):
        rep = power_budget(
            topo, list(req["path"]),
            tx_power_dbm=float(req.get("tx_power_dbm", 0.0)),
            coupling=req.get("coupling", "packaged"),
            n_facets=int(req.get("n_facets", 2)),
            bus_stages=int(req.get("bus_stages", 0)),
            bus_loss_db_per_stage=float(req.get("bus_loss_db_per_stage", 0.1)),
            rx_sensitivity_dbm=float(req.get("rx_sensitivity_dbm", -20.0)))
        power.append({"path": list(req["path"]), **rep.to_dict()})
    report["power"] = power
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
    cfg = _load_scenario(args)
    kw = cfg.ring_kwargs
    center = cfg.center_freq
    ring = RingParams(resonance_freq=center, fsr=kw["fsr"],
                      self_coupling_t1=kw["coupling"],
                      self_coupling_t2=kw["coupling"],
                      roundtrip_amplitude_a=kw["amplitude"],
                      mod_efficiency=kw["mod_efficiency"])
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
    common(p_dev)
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
