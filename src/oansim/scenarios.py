"""Configuration-driven end-to-end scenario runner.

A scenario runs the downlink/uplink chain

    transmitter -> feeder fiber -> smart-edge overlay -> distribution
    fiber -> network unit (drop + detect) -> remodulate -> uplink return
    -> smart-edge intercept -> central-office uplink detection

as independent seeded bursts whose bit errors are accumulated per sweep
point until every signal reaches its bit target.  One burst pipeline
serves both overlay styles, which differ in two steps only:

* the overlay: ``subcarrier_tunnels`` puts radio payloads on +/-f_s
  subcarriers generated from each channel's carrier; ``adjacent_rf``
  modulates narrow radio channels single-sideband next to the carrier of
  its single channel;
* where the uplink is detected: for tunnels the smart edge intercepts the
  radio uplink, if any, and the central office the digital uplink; under
  ``adjacent_rf`` the smart edge intercepts the digital uplink.

A :class:`ScenarioConfig` reads and checks the YAML once, when built.
Reports are plain dicts (JSON/CSV serializable, stable ordering) carrying
the fully resolved configuration as a reproducibility manifest.
"""

from __future__ import annotations

import copy
import csv
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml
from scipy import fft as fftpack

from .channel import (FiberParams, PdParams, amplify_ase, dc_block,
                      photodetect, propagate_fiber)
from .errors import ConfigError, SimulationError, StageError
from .forkjoin import branch_threads, fork
from .metrics import DEFAULT_FEC_THRESHOLD, BerReport, ber_over_sent_bits
from .ofdm import OfdmConfig, bandwidth_for_bit_rate, demodulate_ofdm, generate_ofdm
from .subsystems import (FilterSpec, OnuConfig, WdmChannel, WdmPlan,
                         detect_drop, olt_transmit, onu_receive, onu_remodulate,
                         scale_drive_to_depth, slope_biased_ring,
                         smart_edge_intercept_uplink, smart_edge_overlay,
                         solve_carrier_tap_filter)
from .devices import IqMrmConfig, drop_filter, iq_mrm_ssb
from .waveform import (ComplexWaveform, analytic, from_if, if_spectrum, psd,
                       set_power_dbm)

# head-of-frame silence so inter-channel fiber walk-off (a few hundred ps
# for +/-50 GHz channels over tens of km) cannot advance a preamble past
# the start of the simulation record
_WALKOFF_GUARD_S = 2e-9

_DEFAULTS = {
    "fec_threshold": DEFAULT_FEC_THRESHOLD,
    "overlay_style": "subcarrier_tunnels",
    "wdm": {
        "slot_width": 50e9,
        "digital_subband": 20e9,
        "rof_subcarrier_offset": 20e9,
    },
    "digital": {
        "qam_order": 4,
        "n_subcarriers": 64,
        "pilot_spacing": 16,
        "cp_fraction": 1.0 / 16.0,
        "oversampling": 4,
        "sideband": "upper",
        "if_freq": 7e9,
    },
    "tunnels": [],
    "rf_channels": [],
    "rf_groups": [],
    "uplink": {
        "sideband": "lower",
        "drive_depth": 0.2,
        "intercept_carrier_tap": 0.25,
        "intercept_order": 4,
        "rof": None,
    },
    "devices": {
        "ring": {"fsr": 5e12, "coupling": 0.9987, "amplitude": 0.9987,
                 "mod_efficiency": 2e9},
        "drive_depth": 0.25,
        "subcarrier_clock_volt": 0.4,
        "carrier_retain_fraction": 0.6,
        "tx_power_dbm": 3.0,
        "rf_drive_depth": 0.25,
    },
    "spans": {
        "feeder_km": 20.0,
        "distribution_km": 5.0,
        "atten_db_per_km": 0.2,
        "dispersion_ps_nm_km": 17.0,
    },
    "amplifier": None,
    "onu": {
        "carrier_tap_fraction": 0.25,
        "broadband_order": 3,
        "broadband_passband_fraction": 0.97,
        "rof_filter_bandwidth": 9e9,
        "rof_filter_order": 3,
        "rof_carrier_tap_db": None,
        "min_residual_carrier_dbm": -35.0,
        "pd": {"responsivity": 1.0, "thermal_noise_psd": 0.0,
               "include_shot": False},
    },
    "sweep": {
        "bits_per_point": 2.5e5,
        "top_bits": 2.0e6,
        "full_bits": 1.0e7,
        "burst_symbols": 2000,
    },
    "output": "reports",
}

_REQUIRED = ("name", "seed", "sample_rate", "center_freq", "wdm", "digital",
             "spans", "onu", "sweep")

DATA_DIR = Path(__file__).parent / "data"


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def builtin_config_path(name: str) -> Path:
    """Path of a shipped scenario config (e.g. 'scenario_a')."""
    path = DATA_DIR / f"{name}.yaml"
    if not path.exists():
        shipped = sorted(p.stem for p in DATA_DIR.glob("*.yaml"))
        raise ConfigError(f"no built-in scenario '{name}'; shipped: {shipped}")
    return path


def _number(val) -> float:
    num = float(val)
    if isinstance(val, bool) or not np.isfinite(num):
        raise ValueError(f"expected a finite number, not {val!r}")
    return num


def _get(raw: dict, key: str, convert=_number, default=None):
    """``convert`` of the value at the dotted ``key`` (a number indexes a
    list); a value that is missing, None or not convertible raises
    ConfigError naming the key."""
    val = raw
    for part in key.split("."):
        if isinstance(val, list) and part.isdigit():
            val = val[int(part)]
        else:
            val = val.get(part) if isinstance(val, dict) else None
    if val is None and default is None:
        raise ConfigError(f"{key} is missing")
    try:
        return convert(default if val is None else val)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _mapping(val) -> dict:
    if not isinstance(val, dict):
        raise ValueError(f"expected a mapping, not {val!r}")
    return val


def _floats(val) -> list:
    if not isinstance(val, list) or not val:
        raise ValueError(f"expected a non-empty list of numbers, not {val!r}")
    return [_number(v) for v in val]


def _sideband(val) -> str:
    if val not in ("upper", "lower"):
        raise ValueError(f"expected 'upper' or 'lower', not {val!r}")
    return val


def _flag(val) -> bool:
    if not isinstance(val, bool):
        raise ValueError(f"expected true or false, not {val!r}")
    return val


def _whole(val) -> int:
    num = float(val)
    if isinstance(val, bool) or not num.is_integer():
        raise ValueError(f"expected a whole number, not {val!r}")
    return int(num)


def _ranged(convert, accept, expected: str):
    """A converter: ``convert`` of the value, which ``accept`` must pass."""
    def checked(val):
        num = convert(val)
        if not accept(num):
            raise ValueError(f"expected {expected}, not {val!r}")
        return num
    return checked


_fraction = _ranged(_number, lambda x: 0.0 < x < 1.0, "a fraction in (0, 1)")
_unit = _ranged(_number, lambda x: 0.0 < x <= 1.0, "a number in (0, 1]")
_order = _ranged(_whole, lambda x: x >= 1, "a whole number >= 1")
_count = _ranged(_whole, lambda x: x >= 0, "a whole number >= 0")
_positive = _ranged(_number, lambda x: x > 0.0, "a number > 0")
_non_negative = _ranged(_number, lambda x: x >= 0.0, "a number >= 0")


def _is_partition(groups, n: int) -> bool:
    """Whether ``groups`` is a list of index lists holding 0..n-1 once each."""
    if not isinstance(groups, list) or not all(isinstance(g, list)
                                               for g in groups):
        return False
    flat = [i for g in groups for i in g]
    return all(type(i) is int for i in flat) and sorted(flat) == list(range(n))


def _ofdm(raw: dict, key: str, seed: int) -> OfdmConfig:
    """Modem geometry of the signal section at ``key``."""
    section = _get(raw, key, _mapping)
    n_sub = _get(raw, f"{key}.n_subcarriers", _whole, 64)
    qam = _get(raw, f"{key}.qam_order", _whole, 4)
    cp = _get(raw, f"{key}.cp_fraction", _number, 1.0 / 16.0)
    pilots = _get(raw, f"{key}.pilot_spacing", _whole, 16)
    oversampling = _get(raw, f"{key}.oversampling", _whole, 4)
    if "occupied_bandwidth" not in section and "bit_rate" not in section:
        raise ConfigError(f"{key} needs occupied_bandwidth or bit_rate")
    try:
        bw = (_get(raw, f"{key}.occupied_bandwidth")
              if "occupied_bandwidth" in section
              else bandwidth_for_bit_rate(
                  _get(raw, f"{key}.bit_rate"), qam_order=qam, cp_fraction=cp,
                  pilot_spacing=pilots, n_subcarriers=n_sub))
        return OfdmConfig(n_subcarriers=n_sub, qam_order=qam, cp_fraction=cp,
                          occupied_bandwidth=bw, pilot_spacing=pilots,
                          oversampling=oversampling, seed=seed)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None


class _Signal(NamedTuple):
    """One OFDM signal of a burst: its modem, radio IF and symbol count.
    Its drives are made from its modem-rate spectrum on the record's bins,
    and :func:`_detect` reads it back from the same bins."""
    ofdm: OfdmConfig
    if_freq: float
    symbols: int

    @property
    def n_bits(self) -> int:
        return self.symbols * self.ofdm.bits_per_symbol

    def edges(self) -> tuple:
        """Band edges around the IF that its filters must pass."""
        half_bw = 0.55 * self.ofdm.occupied_bandwidth
        return self.if_freq - half_bw, self.if_freq + half_bw

    def record_samples(self, sample_rate: float) -> int:
        """Samples the signal, preamble included, spans at ``sample_rate``."""
        ratio = Fraction(sample_rate / self.ofdm.sample_rate)
        ratio = ratio.limit_denominator(1_000_000)
        modem = (self.symbols + 1) * (self.ofdm.nfft + self.ofdm.n_cp)
        return -(-modem * ratio.numerator // ratio.denominator)

    def spectrum(self, bits, n: int, sample_rate: float,
                 lead: int = 0) -> np.ndarray:
        """``rfft`` bins of the real signal of ``bits`` at its IF on a
        record of ``n`` samples at ``sample_rate``, ``lead`` samples late."""
        return if_spectrum(generate_ofdm(self.ofdm, bits), self.if_freq, n,
                           sample_rate, lead)

    def drive(self, bits, n: int, sample_rate: float) -> ComplexWaveform:
        """The real signal of ``bits`` at its IF on the record, whose band
        edge is the upper one of :meth:`edges`: past it the signal holds
        only its sidelobes, some 27 dB down."""
        return ComplexWaveform(
            fftpack.irfft(self.spectrum(bits, n, sample_rate), n), sample_rate,
            band_edge=self.edges()[1])


@dataclass
class ScenarioConfig:
    """A scenario, read and checked once.

    ``raw`` is the resolved YAML and the report's manifest.  The other
    attributes are its values, converted, and what the bursts need that
    does not depend on the burst seed: the plan, the signals, the fibers,
    the network unit and the burst geometry.
    """
    raw: dict

    def __post_init__(self):
        raw = self.raw
        missing = [k for k in _REQUIRED if k not in raw]
        if missing:
            raise ConfigError(f"config missing required sections: {missing}")
        if type(raw["seed"]) is not int or raw["seed"] < 0:
            raise ConfigError("seed must be a whole number >= 0")
        self.name = raw["name"]
        self.seed = raw["seed"]
        self.style = raw["overlay_style"]
        if self.style not in ("subcarrier_tunnels", "adjacent_rf"):
            raise ConfigError(f"unknown overlay_style '{self.style}'")
        tunnels = self.style == "subcarrier_tunnels"
        for key in ("rf_channels", "rf_groups") if tunnels else ("tunnels",):
            if raw[key]:
                raise ConfigError(f"{key} is not used by {self.style}")
        self.sample_rate = _get(raw, "sample_rate", _positive)
        self.center_freq = _get(raw, "center_freq", _positive)
        self.fec_threshold = _get(raw, "fec_threshold", _fraction)
        self.output = _get(raw, "output", str)

        slot = [_get(raw, f"wdm.{key}") for key in
                ("slot_width", "digital_subband", "rof_subcarrier_offset")]
        slot_width, subband, f_s = slot
        offsets = _get(raw, "wdm.channel_offsets", _floats)
        self.plan = WdmPlan([WdmChannel(self.center_freq + off, *slot)
                             for off in offsets])
        if not tunnels and self.plan.n_channels != 1:
            raise ConfigError("wdm.channel_offsets: adjacent_rf expects a "
                              "single WDM channel")
        if max(offsets) - min(offsets) + slot_width > self.sample_rate:
            raise ConfigError("wdm.channel_offsets: the simulation bandwidth "
                              "(sample_rate) does not cover the plan")

        # burst window: the record that holds burst_symbols digital symbols,
        # rounded up to a power of two so that the whole-record FFTs along
        # the chain run on friendly sizes; every signal gets as many
        # symbols as fit in it.  _run_burst grows a burst's record past
        # this, to the next FFT-friendly length, when the walk-off guard
        # and the digital drive do not fit in it (both cut shipped configs)
        burst_symbols = _get(raw, "sweep.burst_symbols", _count)
        frame = _ofdm(raw, "digital", self.seed).frame_duration()
        self.n_record = 1 << int(np.ceil(np.log2(
            (1 + burst_symbols) * frame * self.sample_rate)))
        window = self.n_record / self.sample_rate

        def signal(key: str, seed_offset: int) -> _Signal:
            ofdm = _ofdm(raw, key, self.seed + seed_offset)
            sig = _Signal(ofdm, _get(raw, f"{key}.if_freq"),
                          max(1, int(window / ofdm.frame_duration()) - 1))
            if sig.edges()[0] <= 0.0:
                raise ConfigError(
                    f"{key}.if_freq: the band reaches {sig.edges()[0]/1e9:.2f}"
                    f" GHz; it must lie above 0 Hz")
            return sig

        self.digital = signal("digital", 1)
        if (self.digital.if_freq + self.digital.ofdm.occupied_bandwidth / 2.0
                > subband / 2.0):
            raise ConfigError("digital.if_freq: the digital payload does not "
                              "fit in the digital subband")
        self.digital_sideband = _get(raw, "digital.sideband", _sideband)
        key, seed_offset = ("tunnels", 10) if tunnels else ("rf_channels", 30)
        self.payloads = [signal(f"{key}.{i}", seed_offset + i)
                         for i in range(len(_get(raw, key, list)))]
        if tunnels:
            if len(self.payloads) > 2:
                raise ConfigError("tunnels: at most two, on the +f_s and "
                                  "-f_s subcarriers")
            # a tunnel must fit between the digital subband and slot edges
            extent = min(slot_width / 2.0 - f_s, f_s - subband / 2.0)
            for i, tunnel in enumerate(self.payloads):
                if tunnel.edges()[1] > extent:
                    raise ConfigError(
                        f"tunnels.{i}: the radio payload spills past "
                        f"+/-{extent/1e9:.2f} GHz around the subcarrier")
            self.groups = [[k] for k in range(len(self.payloads))]
        else:
            self.groups = raw["rf_groups"]
            if not self.payloads or not _is_partition(self.groups,
                                                      len(self.payloads)):
                raise ConfigError("adjacent_rf needs rf_channels and "
                                  "rf_groups that partition their indices")

        # the smart edge detects the radio uplink of tunnels, if any, and
        # the digital uplink under adjacent_rf; the central office detects
        # the digital uplink of tunnels
        self.uplink = {"digital": signal("digital", 2)}
        if _get(raw, "uplink.rof", _mapping, default={}):
            if not tunnels:
                raise ConfigError("uplink.rof is not used by adjacent_rf, "
                                  "whose smart edge detects the digital uplink")
            self.uplink["rof"] = signal("uplink.rof", 3)
        self.edge_uplink = ("rof" if "rof" in self.uplink
                            else None if tunnels else "digital")
        lower = _get(raw, "uplink.sideband", _sideband) == "lower"

        def sided(sig: _Signal) -> tuple:  # carrier offsets of its band
            lo, hi = sig.edges()
            return (-hi, -lo) if lower else (lo, hi)

        # the central office's demux passes the returning channel; its drop
        # is demodulated over the digital uplink's band
        self.demux = FilterSpec(0.0, 0.9 * slot_width, 5,
                                sided(self.uplink["digital"]))
        self.intercept = None
        if self.edge_uplink is not None:
            self.intercept = {
                "band_offsets": sided(self.uplink[self.edge_uplink]),
                "carrier_tap": _get(raw, "uplink.intercept_carrier_tap",
                                    _fraction),
                "order": _get(raw, "uplink.intercept_order", _order)}

        self.ring_kwargs = {key: _get(raw, f"devices.ring.{key}", convert)
                            for key, convert in (
                                ("fsr", _positive), ("coupling", _unit),
                                ("amplitude", _unit),
                                ("mod_efficiency", _positive))}
        self.tx_power_dbm = _get(raw, "devices.tx_power_dbm")
        self.drive_depth = _get(raw, "devices.drive_depth", _positive)
        self.rf_drive_depth = _get(raw, "devices.rf_drive_depth", _positive)
        self.subcarrier_clock_volt = _get(raw, "devices.subcarrier_clock_volt")
        self.carrier_retain_fraction = _get(
            raw, "devices.carrier_retain_fraction", _fraction)
        loss = (_get(raw, "spans.atten_db_per_km", _non_negative),
                _get(raw, "spans.dispersion_ps_nm_km"))
        self.feeder, self.distribution = (
            FiberParams(_get(raw, f"spans.{span}_km", _non_negative), *loss)
            for span in ("feeder", "distribution"))
        self.amplifier = None
        if raw["amplifier"]:
            self.amplifier = (_get(raw, "amplifier.gain_db", _non_negative),
                              _get(raw, "amplifier.nf_db"))
        self.onu = self._read_onu()
        self.rx_power_dbm = _get(raw, "sweep.rx_power_dbm", _floats)
        if self.rx_power_dbm != sorted(self.rx_power_dbm):
            raise ConfigError("sweep.rx_power_dbm must be ascending")
        self.bits_per_point = _get(raw, "sweep.bits_per_point", _count)
        self.top_bits = _get(raw, "sweep.top_bits", _count)
        self.full_bits = _get(raw, "sweep.full_bits", _count)

    def _read_onu(self) -> OnuConfig:
        """The network unit on channel 0.  Its filters sit relative to the
        carrier, so :meth:`onu_at` parks it on any channel."""
        raw = self.raw
        ch = self.plan.channels[0]
        order = _get(raw, "onu.rof_filter_order", _order)
        if self.style == "subcarrier_tunnels":
            bandwidth = _get(raw, "onu.rof_filter_bandwidth", _positive)
            filters = [FilterSpec(sign * ch.rof_subcarrier_offset, bandwidth,
                                  order)
                       for sign in (+1.0, -1.0)[:len(self.payloads)]]
        else:
            # the radio groups ride the lower sideband next to the carrier
            # and together tap rof_carrier_tap_db of it
            tap_db = _get(raw, "onu.rof_carrier_tap_db", _positive)
            tap = 1.0 - 10.0 ** (-tap_db / (10.0 * len(self.groups)))
            edges = [[e for k in group for e in self.payloads[k].edges()]
                     for group in self.groups]
            filters = [solve_carrier_tap_filter(-max(e), -min(e), tap, order)
                       for e in edges]
        lo, hi = self.digital.edges()
        if self.digital_sideband == "lower":
            lo, hi = -hi, -lo
        return OnuConfig(
            channel_center=ch.center_freq,
            broadband_filter=solve_carrier_tap_filter(
                lo, hi, _get(raw, "onu.carrier_tap_fraction", _fraction),
                _get(raw, "onu.broadband_order", _order),
                _get(raw, "onu.broadband_passband_fraction", _fraction)),
            rof_filters=tuple(filters),
            uplink_sideband=_get(raw, "uplink.sideband", _sideband),
            uplink_drive_depth=_get(raw, "uplink.drive_depth", _positive),
            slot_width=ch.slot_width,
            min_residual_carrier_dbm=_get(raw, "onu.min_residual_carrier_dbm"),
            pd=PdParams(responsivity=_get(raw, "onu.pd.responsivity",
                                          _positive),
                        thermal_noise_psd=_get(raw, "onu.pd.thermal_noise_psd",
                                               _non_negative),
                        include_shot=_get(raw, "onu.pd.include_shot", _flag)),
            ring_kwargs=self.ring_kwargs)

    def pd(self, seed: int) -> PdParams:
        return replace(self.onu.pd, seed=seed)

    def onu_at(self, channel_center: float, seed: int) -> OnuConfig:
        """The network unit parked on a channel, with its detector seed."""
        return replace(self.onu, channel_center=channel_center,
                       pd=self.pd(seed))

    def with_seed(self, seed: int) -> ScenarioConfig:
        """The same scenario under another seed."""
        return ScenarioConfig({**self.raw, "seed": seed})


def load_config(path) -> ScenarioConfig:
    """Parse and validate a scenario config file, resolving all defaults."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {p}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(
            f"config {p} is empty or not a mapping; required sections: "
            f"{list(_REQUIRED)}"
        )
    return ScenarioConfig(_deep_merge(_DEFAULTS, raw))


# ---------------------------------------------------------------------------
# Metric accumulation


class _Accumulator:
    def __init__(self, fec_threshold: float):
        self.fec = fec_threshold
        self.errors: dict[str, int] = {}
        self.bits: dict[str, int] = {}
        self.evm_sq: dict[str, float] = {}
        self.evm_n: dict[str, int] = {}

    def add(self, name: str, rep: BerReport):
        bits, evm = rep.total_bits, rep.evm_rms
        self.errors[name] = self.errors.get(name, 0) + rep.bit_errors
        self.bits[name] = self.bits.get(name, 0) + bits
        if np.isfinite(evm):
            self.evm_sq[name] = self.evm_sq.get(name, 0.0) + evm ** 2 * bits
            self.evm_n[name] = self.evm_n.get(name, 0) + bits

    def min_bits(self) -> int:
        return min(self.bits.values()) if self.bits else 0

    def summary(self) -> dict:
        out = {}
        for name in sorted(self.bits):
            bits = self.bits[name]
            ber = self.errors[name] / bits if bits else 0.0
            evm = float(np.sqrt(self.evm_sq[name] / self.evm_n[name])) \
                if self.evm_n.get(name) else float("nan")
            out[name] = {
                "bits": bits,
                "errors": self.errors[name],
                "ber": ber,
                "evm_rms": evm,
                "passes_fec": bool(ber < self.fec),
            }
        return out


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except SimulationError as exc:
        if isinstance(exc, StageError):
            raise
        raise StageError(name, exc) from exc


# ---------------------------------------------------------------------------
# Burst pipeline

# report names of each style's broadband and radio signals, and the stage
# that demodulates a radio signal
_SIGNAL_NAMES = {
    "subcarrier_tunnels": ("ch{ch}:digital", "ch{ch}:tunnel{k}", "tunnel_demod"),
    "adjacent_rf": ("broadband", "rf{k}", "rf_demod"),
}


def _detect(stage: str, name: str, signal: _Signal,
            electrical: ComplexWaveform, tx_bits) -> tuple:
    """Demodulate a detected signal at its IF; its name and its report of
    bit errors."""
    rx_bits, evm = _stage(stage, demodulate_ofdm, signal.ofdm,
                          from_if(electrical, signal.if_freq,
                                  signal.ofdm.sample_rate),
                          max_symbols=signal.symbols)
    return name, ber_over_sent_bits(tx_bits, rx_bits, evm)


def _analytic_drive(signals, n: int, sample_rate: float,
                    lead: int = 0) -> ComplexWaveform:
    """The analytic drive of each ``(signal, bits)`` of ``signals`` at its
    IF, ``lead`` samples late: their spectra, made in a fork and summed.
    Its band edge is the highest of theirs."""
    signals = list(signals)
    spectra = fork(*(partial(s.spectrum, bits, n, sample_rate, lead)
                     for s, bits in signals))
    return analytic(sum(spectra[1:], spectra[0]), n, sample_rate).copy_with(
        band_edge=max(s.edges()[1] for s, _ in signals))


def _overlay(cfg: ScenarioConfig, link: ComplexWaveform,
             drives: list) -> ComplexWaveform:
    """The smart edge's radio overlay, the first of the two steps where the
    styles differ: one real drive per channel and tunnel, or one composite
    analytic drive of the radio channels."""
    if cfg.style == "subcarrier_tunnels":
        k = len(cfg.payloads)
        return _stage("smart_edge_overlay", smart_edge_overlay, link,
                      cfg.plan, [drives[i * k:(i + 1) * k]
                                 for i in range(cfg.plan.n_channels)],
                      subcarrier_clock_volt=cfg.subcarrier_clock_volt,
                      carrier_retain_fraction=cfg.carrier_retain_fraction,
                      drive_depth=cfg.rf_drive_depth,
                      ring_kwargs=cfg.ring_kwargs)
    # one composite radio drive, single-sideband below the carrier
    ch = cfg.plan.channels[0]
    ring = slope_biased_ring(ch.center_freq, **cfg.ring_kwargs)
    drive = scale_drive_to_depth(drives[0], ring, cfg.rf_drive_depth)
    # quasi-static window: cover the carrier (slope_fraction linewidths
    # above the biased resonance) but stop short of the broadband subband,
    # which must see only the static through response
    slope_off = ch.center_freq - ring.effective_resonance
    window = slope_off + 0.5 * cfg.digital.edges()[0]
    return _stage("smart_edge_overlay", iq_mrm_ssb, link,
                  IqMrmConfig(ring, sideband="lower"), drive,
                  tone_window_hz=window)


def _run_burst(cfg: ScenarioConfig, rx_power_dbm: float, burst_seed: int,
               acc: _Accumulator, want_spectrum: bool):
    """One burst of the pipeline over all channels.

    Returns the uplink-to-residual ratio, the carrier ledger of channel 0's
    network unit and, if wanted, the report's spectrum after the overlay.
    Each whole-record waveform is let go after its last reader.
    """
    rng = np.random.default_rng(burst_seed)
    fs = cfg.sample_rate
    plan = cfg.plan
    dig = cfg.digital
    dig_bits = [rng.integers(0, 2, dig.n_bits) for _ in plan.channels]
    payload_bits = [[rng.integers(0, 2, s.n_bits) for s in cfg.payloads]
                    for _ in plan.channels]
    up_bits = {kind: rng.integers(0, 2, signal.n_bits)
               for kind, signal in cfg.uplink.items()}

    # the record: n_record, grown to hold the walk-off guard and the
    # digital drive, at an FFT-friendly length; every drive of the burst
    # is made at that length in one fork, the digital and uplink ones
    # after the guard
    guard = int(round(_WALKOFF_GUARD_S * fs))
    n = fftpack.next_fast_len(max(cfg.n_record,
                                  guard + dig.record_samples(fs)))
    payload = ([partial(s.drive, bits, n, fs) for channel_bits in payload_bits
                for s, bits in zip(cfg.payloads, channel_bits)]
               if cfg.style == "subcarrier_tunnels" else
               [partial(_analytic_drive, zip(cfg.payloads, payload_bits[0]), n,
                        fs)])
    made = fork(*(partial(_analytic_drive, [(dig, bits)], n, fs, guard)
                  for bits in dig_bits),
                partial(_analytic_drive, [(cfg.uplink[kind], bits)
                                          for kind, bits in up_bits.items()],
                        n, fs, guard), *payload)
    drives, up_drive = made[:plan.n_channels], made[plan.n_channels]
    payload_drives = made[plan.n_channels + 1:]
    del made
    tx = _stage("olt_transmit", olt_transmit, plan, drives,
                power_per_tone_dbm=cfg.tx_power_dbm,
                sideband=cfg.digital_sideband,
                drive_depth=cfg.drive_depth,
                ring_kwargs=cfg.ring_kwargs)
    del drives

    link = _stage("feeder_fiber", propagate_fiber, tx, cfg.feeder)
    del tx
    if cfg.amplifier is not None:
        link = _stage("amplifier", amplify_ase, link, *cfg.amplifier,
                      seed=burst_seed + 17)

    link = _overlay(cfg, link, payload_drives)
    del payload_drives
    spectrum = _spectrum(link) if want_spectrum else None

    link = _stage("distribution_fiber", propagate_fiber, link, cfg.distribution)
    link = set_power_dbm(link, rx_power_dbm)

    broadband_name, radio_name, radio_stage = _SIGNAL_NAMES[cfg.style]

    received = fork(*(partial(_stage, "onu_receive", onu_receive, link,
                              cfg.onu_at(ch.center_freq, burst_seed + 100 + i))
                      for i, ch in enumerate(plan.channels)))
    del link
    res = received[0]
    ledger = {
        "carrier_in_dbm": res.carrier_in_dbm,
        "carrier_after_broadband_dbm": res.carrier_after_broadband_dbm,
        "carrier_residual_dbm": res.carrier_residual_dbm,
        "rof_tap_cost_db": (res.carrier_after_broadband_dbm
                            - res.carrier_residual_dbm),
    }
    demods = [partial(_detect, "broadband_demod", broadband_name.format(ch=i),
                      dig, unit.broadband, dig_bits[i])
              for i, unit in enumerate(received)]
    demods += [partial(_detect, radio_stage,
                       radio_name.format(ch=i, k=k + 1), cfg.payloads[k], rof,
                       payload_bits[i][k])
               for i, unit in enumerate(received)
               for group, rof in zip(cfg.groups, unit.rof) for k in group]
    # uplink: channel 0's network unit remodulates its residual carrier
    # with the uplink drive, the digital signal and the radio one if any;
    # the downlink is demodulated beside the rest of the uplink
    rem = _stage("onu_remodulate", onu_remodulate, res.residual,
                 cfg.onu_at(plan.channels[0].center_freq, burst_seed + 100),
                 [up_drive])
    del res, received, up_drive
    reports, up_reports = fork(
        partial(fork, *demods),
        partial(_uplink, cfg, rem.waveform, up_bits, burst_seed))
    for name, report in reports + up_reports:
        acc.add(name, report)
    return rem.uplink_to_residual_db, ledger, spectrum


def _uplink(cfg: ScenarioConfig, remodulated: ComplexWaveform,
            up_bits: dict, burst_seed: int) -> list:
    """The reports of the uplink signals in the remodulated field."""
    plan = cfg.plan
    back = _stage("uplink_distribution", propagate_fiber, remodulated,
                  cfg.distribution)
    reports = []
    # where the uplink is detected, the second step where the styles differ
    kind = cfg.edge_uplink
    if kind is not None:
        icept = _stage("smart_edge_intercept", smart_edge_intercept_uplink,
                       back, plan.channels[0], pd=cfg.pd(burst_seed + 300),
                       **cfg.intercept)
        reports.append(_detect(f"uplink_{kind}_demod", f"uplink:{kind}",
                               cfg.uplink[kind], icept.rof_electrical,
                               up_bits[kind]))
        back = icept.through
        del icept
    if kind != "digital":
        co = _stage("uplink_feeder", propagate_fiber, back, cfg.feeder)
        pd = cfg.pd(burst_seed + 301)
        if plan.n_channels > 1:
            # central-office demux: select the returning channel so the other
            # WDM channels' carrier/sideband beats stay out of the uplink IF
            ch = plan.channels[0]
            co, _ = _stage("co_demux", drop_filter, co, ch.center_freq,
                           cfg.demux.bandwidth, cfg.demux.order)
            co_el = _stage("co_detect", detect_drop, co, ch.center_freq,
                           cfg.demux, pd)
        else:
            co_el = dc_block(_stage("co_detect", photodetect, co, pd))
        reports.append(_detect("uplink_digital_demod", "uplink:digital",
                               cfg.uplink["digital"], co_el,
                               up_bits["digital"]))
    return reports


def _spectrum(link: ComplexWaveform) -> dict:
    """The report's spectrum: at most 8,192 points of the PSD of ``link``."""
    freqs, vals = psd(link)
    step = max(1, freqs.size // 4096)
    return {
        "freq_hz": [float(f) for f in freqs[::step]],
        "psd_dbm_per_hz": [float(10 * np.log10(max(v, 1e-300) * 1e3))
                           for v in vals[::step]],
    }


# ---------------------------------------------------------------------------
# Runner


def run_scenario(cfg: ScenarioConfig, full: bool = False,
                 sweep_override=None) -> dict:
    """Execute the scenario; returns the metrics report (a plain dict)."""
    powers = (cfg.rx_power_dbm if sweep_override is None
              else list(sweep_override))
    if powers != sorted(powers):
        raise ConfigError("rx_power_dbm sweep must be ascending")
    top_bits = cfg.full_bits if full else cfg.top_bits

    points = []
    spectrum = None
    for p_idx, power in enumerate(powers):
        is_top = p_idx == len(powers) - 1
        target = top_bits if is_top else cfg.bits_per_point
        acc = _Accumulator(cfg.fec_threshold)
        ratios, ledgers = [], []
        burst = 0
        while burst == 0 or acc.min_bits() < target:
            seed = int(np.random.SeedSequence([cfg.seed, p_idx, burst])
                       .generate_state(1, np.uint64)[0])
            want_spec = is_top and burst == 0
            with branch_threads():
                ratio, ledger, spec = _run_burst(cfg, power, seed, acc,
                                                 want_spec)
            ratios.append(ratio)
            ledgers.append(ledger)
            if spec is not None:
                spectrum = spec
            burst += 1
        point = {
            "rx_power_dbm": float(power),
            "bursts": burst,
            "signals": acc.summary(),
            "uplink_to_residual_db": float(np.mean(ratios)),
            "carrier_ledger": {k: float(np.mean([ld[k] for ld in ledgers]))
                               for k in ledgers[0]},
        }
        points.append(point)

    report = {
        "name": cfg.name,
        "seed": cfg.seed,
        "full": bool(full),
        "config": cfg.raw,
        "points": points,
    }
    if spectrum is not None:
        report["spectrum"] = spectrum
    return report


# ---------------------------------------------------------------------------
# Emission


def emit_reports(report: dict, out_dir, formats=("json", "csv")) -> list:
    """Write the metrics JSON and plot-ready CSV series; returns paths."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    name = report["name"]
    written = []
    if "json" in formats:
        path = out / f"{name}_metrics.json"
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
        written.append(path)
    if "csv" in formats:
        path = out / f"{name}_waterfall.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["signal", "rx_power_dbm", "ber"])
            for point in report.get("points", []):
                for sig in sorted(point["signals"]):
                    writer.writerow([sig, point["rx_power_dbm"],
                                     point["signals"][sig]["ber"]])
        written.append(path)
        if "spectrum" in report:
            path = out / f"{name}_spectrum.csv"
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["freq_hz", "psd_dbm_per_hz"])
                for f, v in zip(report["spectrum"]["freq_hz"],
                                report["spectrum"]["psd_dbm_per_hz"]):
                    writer.writerow([f, v])
            written.append(path)
    return written
