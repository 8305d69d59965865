"""Configuration-driven end-to-end scenario runner.

A scenario runs the downlink/uplink chain

    transmitter -> feeder fiber -> smart-edge overlay -> distribution
    fiber -> network unit (drop + detect) -> remodulate -> uplink return
    -> smart-edge intercept -> central-office uplink detection

as independent seeded bursts whose bit errors are accumulated per sweep
point until every signal reaches its bit target; within a burst each
stage runs in a fork branch as soon as its inputs exist
(:func:`_run_burst`).  A burst holds the bus
as one slot record per WDM channel, at ``sample_rate / d_slot`` and
centred on the channel's carrier, ``d_slot`` being the largest power of
two whose record still holds the slot, its rings' tone windows and its
receivers' crops (2 for shipped scenario A, 1 for shipped B).  Each slot
runs in its own fork branch from its comb line to its network unit: a
device on its channel acts by its time-varying response, every other
channel's by its static one, and the fiber's dispersion is taken about
the plan's centre.  The slots meet twice: the clock generators hand each
other the harmonics they lift into other slots, and the received power
is set over the slots' summed power, the one join before the network
units.  Channel 0's slot alone carries the uplink.  One burst pipeline
serves both overlay styles.  Each channel's smart edge is one record
built at load, run the same way for both: ``subcarrier_tunnels`` puts
radio payloads on +/-f_s subcarriers that a clock-driven ring generates
from each channel's carrier, and ``adjacent_rf`` modulates narrow radio
channels single-sideband next to the carrier of its single channel with
one IQ pair.  The styles differ only in where the uplink is detected:
for tunnels the smart edge intercepts the radio uplink, if any, and the
central office the digital uplink; under ``adjacent_rf`` the smart edge
intercepts the digital uplink.

A :class:`ScenarioConfig` reads and checks the YAML once, when built,
against ``_KEYS``: the one list of a config's valid keys, each with its
converter and default.  It sizes the burst's record from the configured
modem rates, then fixes each signal's rate, at most 0.2 % up on the
shipped configs, so that the bins its modem grid spans on that record
have a fast transform length; every tone window, band edge, drop filter
and crop is built from that rate.
Reports are plain dicts (JSON/CSV serializable, stable ordering) carrying
the fully resolved configuration as a reproducibility manifest.
"""

from __future__ import annotations

import copy
import csv
import difflib
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
                         check_drop, detect_band, detect_drop,
                         generator_inputs, olt_transmit, onu_receive,
                         onu_remodulate, overlay_rings, slope_biased_ring,
                         smart_edge_intercept_uplink, smart_edge_overlay,
                         solve_carrier_tap_filter)
from .devices import Modulator, drop_filter, iq_arms
from .waveform import (ComplexWaveform, _division, analytic, band_power,
                       crop_window, from_if, if_spectrum, psd, scale_db)

# head-of-frame silence so inter-channel fiber walk-off (a few hundred ps
# for +/-50 GHz channels over tens of km) cannot advance a preamble past
# the start of the simulation record
_WALKOFF_GUARD_S = 2e-9

DATA_DIR = Path(__file__).parent / "data"


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


def _floats(val) -> list:
    if not isinstance(val, list) or not val:
        raise ValueError(f"expected a non-empty list of numbers, not {val!r}")
    return [_number(v) for v in val]


def _flag(val) -> bool:
    if not isinstance(val, bool):
        raise ValueError(f"expected true or false, not {val!r}")
    return val


def _name(val) -> str:
    if not isinstance(val, str) or not val:
        raise ValueError(f"expected a non-empty string, not {val!r}")
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


_file_name = _ranged(_name, lambda x: Path(x).name == x, "a bare file name")
_fraction = _ranged(_number, lambda x: 0.0 < x < 1.0, "a fraction in (0, 1)")
_unit = _ranged(_number, lambda x: 0.0 < x <= 1.0, "a number in (0, 1]")
# an order counts the multiplies raising a filter's skirt u^(2 order) in
# devices._drop_pair; 16 keeps u^32 finite, the shipped filters take 3-5
_order = _ranged(_whole, lambda x: 1 <= x <= 16, "a whole number in [1, 16]")
_count = _ranged(_whole, lambda x: x >= 0, "a whole number >= 0")
_positive = _ranged(_number, lambda x: x > 0.0, "a number > 0")
# ceilings of what the arithmetic holds: rates and symbol counts size the
# burst's record, modem counts its arrays, and a level is exponentiated
_rate = _ranged(_number, lambda x: 0 < x <= 1e13, "a number in (0, 1e13]")
_burst = _ranged(_whole, lambda x: 0 <= x <= 1e6, "a whole number in [0, 1e6]")
_modem = _ranged(_whole, lambda x: 2 <= x <= 1024,
                 "a whole number in [2, 1024]")
_level = _ranged(_number, lambda x: abs(x) <= 100, "a level in [-100, 100] dB")
_non_negative = _ranged(_number, lambda x: x >= 0.0, "a number >= 0")
_sweep = _ranged(_floats, lambda x: x == sorted(x), "ascending powers")


def _choice(*options):
    """A converter: the value, which must be one of ``options``."""
    return _ranged(lambda x: x, lambda x: x in options, f"one of {options}")


_sideband = _choice("upper", "lower")
# a list of non-empty lists of indices, each rf_channels index in one
_groups = _ranged(lambda x: x, lambda x: isinstance(x, list) and all(
    isinstance(g, list) and g and all(type(i) is int for i in g) for g in x),
    "a list of non-empty lists of indices")

# The one list of a scenario config's keys.  A key maps to ``(convert,)``,
# read only where the scenario needs it, or to ``(convert, default)``, a
# default of None leaving it off; a section maps to its own table: a dict
# for a fixed section, whose defaults the manifest records, ``[table]`` for
# a list of sections and ``(table, None)`` for a section that may be left
# off.  List items and optional sections take their defaults when read.
_MODEM = {"n_subcarriers": (_whole, 64), "qam_order": (_whole, 4),
          "cp_fraction": (_number, 1.0 / 16.0), "pilot_spacing": (_modem, 16),
          "oversampling": (_modem, 4)}
# an OFDM signal: its IF, its band as a bandwidth or a bit rate, its modem
_SIGNAL = {"if_freq": (_number,), "occupied_bandwidth": (_rate,),
           "bit_rate": (_rate,), **_MODEM}
_KEYS = {
    "name": (_file_name,), "seed": (_count,), "sample_rate": (_rate,),
    "center_freq": (_positive,),
    "fec_threshold": (_fraction, DEFAULT_FEC_THRESHOLD),
    "overlay_style": (_choice("subcarrier_tunnels", "adjacent_rf"),
                      "subcarrier_tunnels"),
    "wdm": {"channel_offsets": (_floats,), "slot_width": (_positive, 50e9),
            "digital_subband": (_positive, 20e9),
            "rof_subcarrier_offset": (_positive, 20e9)},
    "digital": {**_SIGNAL, "if_freq": (_number, 7e9),
                "sideband": (_sideband, "upper")},
    "tunnels": [_SIGNAL],
    "rf_channels": [_SIGNAL],
    "rf_groups": (_groups, []),
    "uplink": {"sideband": (_sideband, "lower"),
               "drive_depth": (_positive, 0.2),
               "intercept_carrier_tap": (_fraction, 0.25),
               "intercept_order": (_order, 4), "rof": (_SIGNAL, None)},
    "devices": {
        "ring": {"fsr": (_positive, 5e12), "coupling": (_unit, 0.9987),
                 "amplitude": (_unit, 0.9987),
                 "mod_efficiency": (_positive, 2e9)},
        "drive_depth": (_positive, 0.25),
        "subcarrier_clock_volt": (_number, 0.4),
        "carrier_retain_fraction": (_fraction, 0.6),
        "tx_power_dbm": (_level, 3.0), "rf_drive_depth": (_positive, 0.25)},
    "spans": {"feeder_km": (_non_negative, 20.0),
              "distribution_km": (_non_negative, 5.0),
              "atten_db_per_km": (_non_negative, 0.2),
              "dispersion_ps_nm_km": (_number, 17.0)},
    "amplifier": ({"gain_db": (_non_negative,), "nf_db": (_number,)}, None),
    "onu": {
        "carrier_tap_fraction": (_fraction, 0.25),
        "broadband_order": (_order, 3),
        "broadband_passband_fraction": (_fraction, 0.97),
        "rof_filter_bandwidth": (_positive, 9e9),
        "rof_filter_order": (_order, 3),
        "rof_carrier_tap_db": (_positive, None),
        "min_residual_carrier_dbm": (_number, -35.0),
        "pd": {"responsivity": (_positive, 1.0),
               "thermal_noise_psd": (_non_negative, 0.0),
               "include_shot": (_flag, False)}},
    "sweep": {"rx_power_dbm": (_sweep,), "bits_per_point": (_count, 2.5e5),
              "top_bits": (_count, 2.0e6), "full_bits": (_count, 1.0e7),
              "burst_symbols": (_burst, 2000)},
    "output": (_name, "reports"),
}
# the config keys of a ring's linewidth, which sizes its tone windows
_LINEWIDTH = ("devices.ring.fsr", "devices.ring.coupling",
              "devices.ring.amplitude")


class _Values(dict):
    """A config's converted values by dotted key (a number indexes a
    list); a key left off or null, with no default, is missing."""

    def __missing__(self, key):
        raise ConfigError(f"{key} is missing")


def _convert(key: str, val, convert):
    """``convert`` of ``val``, its error naming the config ``key``."""
    try:
        return convert(val)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _resolve(raw, table: dict, key: str, values: _Values,
             fill: bool = False):
    """Check the section ``raw`` at the dotted prefix ``key`` against
    ``table`` and put its values, converted, in ``values``; ``fill``
    writes the defaults of its keys and of its fixed sections into
    ``raw``.  Null is the same as absent.  An unknown key raises
    ConfigError naming it and the nearest known key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{key[:-1]}: expected a mapping, not {raw!r}")
    unknown = [name for name in raw if name not in table]
    if unknown:
        near = difflib.get_close_matches(str(unknown[0]), table, 1)
        raise ConfigError(f"{key}{unknown[0]}: unknown key" + "".join(
            f"; did you mean {key}{name}?" for name in near))
    for name, spec in table.items():
        sub, val = key + name, raw.get(name)
        if isinstance(spec, dict):
            val = {} if val is None else val
            _resolve(val, spec, sub + ".", values, fill)
        elif isinstance(spec, list):
            val = values[sub] = [] if val is None else val
            if not isinstance(val, list):
                raise ConfigError(f"{sub}: expected a list, not {val!r}")
            for i, item in enumerate(val):
                _resolve(item, spec[0], f"{sub}.{i}.", values)
        else:
            convert, *default = spec
            if val is None and not default:
                continue
            val = copy.deepcopy(default[0]) if val is None else val
            if isinstance(convert, dict) and val is not None:
                _resolve(val, convert, sub + ".", values)
                values[sub] = val
            elif val is not None:
                values[sub] = _convert(sub, val, convert)
        if fill:
            raw[name] = val


def _required(table: dict) -> list:
    """The keys of ``table`` that hold a key without a default."""
    return [name for name, spec in table.items()
            if isinstance(spec, dict) and _required(spec)
            or isinstance(spec, tuple) and len(spec) == 1]


def _band_keys(values: _Values, key: str) -> tuple:
    """The keys that set the band of the signal section at ``key``: its IF
    and its occupied bandwidth, or its bit rate and the modem keys that
    turn that into a bandwidth."""
    if f"{key}.occupied_bandwidth" in values:
        return f"{key}.if_freq", f"{key}.occupied_bandwidth"
    return (f"{key}.if_freq", f"{key}.bit_rate",
            *(f"{key}.{name}" for name in _MODEM))


def _naming(keys, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, its ConfigError naming the config ``keys``."""
    try:
        return fn(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{', '.join(keys)}: {exc}") from None


def _ofdm(values: _Values, key: str, seed: int) -> OfdmConfig:
    """Modem geometry of the signal section at ``key``."""
    keys = [f"{key}.{name}" for name in _MODEM]
    n_sub, qam, cp, pilots, oversampling = (values[k] for k in keys)
    band = _band_keys(values, key)[1]
    if band not in values:
        raise ConfigError(
            f"{key}.occupied_bandwidth or {key}.bit_rate is missing")
    return _naming(keys + [band], lambda: OfdmConfig(
        n_sub, qam, cp, values[band] if band.endswith("bandwidth")
        else bandwidth_for_bit_rate(values[band], qam, cp, pilots, n_sub),
        pilots, seed, oversampling))


class _Signal(NamedTuple):
    """One OFDM signal of a burst: its modem, radio IF and symbol count.
    :func:`_drive` makes it from its spectrum on the record's bins, and
    :func:`_detect` reads it back from the same bins.  ``stretch`` is its
    configured modem rate over the rate set at load, by which a drive's
    lead is scaled: a frame then sits where it did on the modem grid,
    whose fraction of a sample sets the demodulator's EVM floor."""
    ofdm: OfdmConfig
    if_freq: float
    symbols: int
    stretch: float = 1.0

    @property
    def n_bits(self) -> int:
        return self.symbols * self.ofdm.bits_per_symbol

    def edges(self) -> tuple:
        """Band edges around the IF that its filters must pass; past the
        upper one, where a drive's band ends, the signal holds only its
        sidelobes, some 27 dB down."""
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
        record of ``n`` samples at ``sample_rate``, ``lead`` samples at its
        configured rate late."""
        return if_spectrum(generate_ofdm(self.ofdm, bits), self.if_freq, n,
                           sample_rate, lead * self.stretch)


def _sided(lo: float, hi: float, sideband: str) -> tuple:
    """The carrier offsets of the band [lo, hi] on ``sideband``."""
    return (-hi, -lo) if sideband == "lower" else (lo, hi)


class _Receiver(NamedTuple):
    """A burst's receiver at ``site`` ("onu", "edge" or "co"): its ``drop``
    (None: the whole record), the config ``keys`` that size it, its
    detector's ``seed`` past the burst seed, and the ``stage`` demodulating
    each of its ``signals``, a ``(report name, signal, key of its bits)``."""
    site: str
    drop: FilterSpec | None
    keys: tuple
    seed: int
    stage: str
    signals: tuple


@dataclass
class ScenarioConfig:
    """A scenario, read and checked once.

    ``raw`` is the YAML, resolved against ``_KEYS``, the one list of
    valid keys, and the report's manifest.  The other
    attributes are its values, converted, and what the bursts need that
    does not depend on the burst seed, built once: the plan, the signals,
    the fibers, the burst geometry and every device, each modulator a
    record that decides its depth, tone window and band edge.  Per
    channel, ``transmitters`` holds its central-office IQ modulator,
    ``edge_rings`` its smart edge as ``(generator or None, [modulator])``
    (:func:`~oansim.subsystems.smart_edge_overlay`) and ``onus`` its
    network unit, whose remodulator shares the transmitter's ring.  The
    smart edge is the clock generator and one ring per tunnel
    (``subcarrier_tunnels``; ``(None, [])`` without tunnels) or the radio
    channels' IQ pair (``adjacent_rf``); ``edge_payloads`` holds, per
    smart-edge modulator, the indices of the ``payloads`` whose spectra
    its drive sums.  ``receivers`` holds, per channel, each receiver a
    burst runs on its slot (:class:`_Receiver`): its network unit's
    drops, then on channel 0 the uplink's at the smart edge and at the
    central office; ``detector`` is their unseeded detector.
    """
    raw: dict

    def __post_init__(self):
        if not isinstance(self.raw, dict):
            raise ConfigError(
                f"a scenario config is a mapping, not {self.raw!r}; required "
                f"sections: {_required(_KEYS)}")
        self.raw = copy.deepcopy(self.raw)
        self._values = v = _Values()
        _resolve(self.raw, _KEYS, "", v, fill=True)
        self.name, self.seed, self.style = (
            v[key] for key in ("name", "seed", "overlay_style"))
        tunnels = self.style == "subcarrier_tunnels"
        for key in (("rf_channels", "rf_groups") if tunnels
                    else ("tunnels", "uplink.rof")):
            if v.get(key):
                raise ConfigError(
                    f"{key} is not used by overlay_style {self.style}")
        self.sample_rate, self.center_freq = v["sample_rate"], v["center_freq"]
        self.fec_threshold, self.output = v["fec_threshold"], v["output"]

        keys = [f"wdm.{key}" for key in ("channel_offsets", "slot_width",
                                         "digital_subband", "rof_subcarrier_offset")]
        offsets, *slot = (v[key] for key in keys)
        slot_width, subband, f_s = slot
        self.plan = _naming(keys, lambda: WdmPlan(
            [WdmChannel(self.center_freq + off, *slot) for off in offsets]))
        if not tunnels and self.plan.n_channels != 1:
            raise ConfigError("wdm.channel_offsets: adjacent_rf expects a "
                              "single WDM channel")
        if max(offsets) - min(offsets) + slot_width > self.sample_rate:
            raise ConfigError("wdm.channel_offsets, wdm.slot_width: the "
                              "simulation bandwidth (sample_rate) does not "
                              "cover the plan")

        # burst window: the record that holds burst_symbols digital symbols,
        # rounded up to a power of two so that the whole-record FFTs along
        # the chain run on friendly sizes; every signal gets as many
        # symbols as fit in it at its configured rate
        burst_symbols = v["sweep.burst_symbols"]
        frame = _ofdm(v, "digital", self.seed).frame_duration()
        self.n_record = 1 << int(np.ceil(np.log2(
            (1 + burst_symbols) * frame * self.sample_rate)))
        window = self.n_record / self.sample_rate

        def signal(key: str, seed_offset: int, fast: bool = True) -> _Signal:
            """The signal of section ``key``, its symbols counted at its
            configured rate; ``fast`` then moves its modem rate up to the
            nearest whose grid on the burst's record, which d_slot does not
            change (:func:`~oansim.waveform.if_spectrum`), has a fast
            transform length: 0.19 % at most on the shipped configs."""
            configured = ofdm = _ofdm(v, key, self.seed + seed_offset)
            symbols = max(1, int(window / ofdm.frame_duration()) - 1)
            if fast:
                # a signal narrower than one bin keeps its rate, and its
                # burst fails as it did
                df = self.sample_rate / self.n_burst
                length = round(ofdm.sample_rate / df)
                ofdm = replace(ofdm, occupied_bandwidth=fftpack.next_fast_len(
                    length) * df / ofdm.oversampling) if length else ofdm
            sig = _Signal(ofdm, v[f"{key}.if_freq"], symbols,
                          configured.sample_rate / ofdm.sample_rate)
            if sig.edges()[0] <= 0.0:
                raise ConfigError(
                    f"{', '.join(_band_keys(v, key))}: the band reaches "
                    f"{sig.edges()[0]/1e9:.2f} GHz; it must lie above 0 Hz")
            return sig

        # the burst's record: n_record, grown to hold the walk-off guard
        # and the digital drive at its configured rate at an FFT-friendly
        # length (both cut shipped configs grow); it is carried as one slot
        # record per channel.  Every signal's modem rate is then fixed,
        # before any device, filter or crop reads its band
        guard = int(round(_WALKOFF_GUARD_S * self.sample_rate))
        need = max(self.n_record, guard + signal(
            "digital", 1, fast=False).record_samples(self.sample_rate))
        if need > 1 << 24:  # the full scenario A takes 2^22
            raise ConfigError(
                "sample_rate, sweep.burst_symbols, digital.occupied_bandwidth,"
                " digital.bit_rate, digital.n_subcarriers, digital.cp_fraction:"
                f" a burst's record of {need} samples is past 2^24")
        self.n_burst = fftpack.next_fast_len(need)
        self.digital = signal("digital", 1)
        if (self.digital.if_freq + self.digital.ofdm.occupied_bandwidth / 2.0
                > subband / 2.0):
            raise ConfigError(
                f"{', '.join(_band_keys(v, 'digital'))}, wdm.digital_subband:"
                f" the digital payload does not fit in the digital subband")
        digital_sideband = v["digital.sideband"]
        key, seed_offset = ("tunnels", 10) if tunnels else ("rf_channels", 30)
        self.payloads = [signal(f"{key}.{i}", seed_offset + i)
                         for i in range(len(v[key]))]
        if tunnels:
            if len(self.payloads) > 2:
                raise ConfigError("tunnels: at most two, on the +f_s and "
                                  "-f_s subcarriers")
            # a tunnel must fit between the digital subband and slot edges
            extent = min(slot_width / 2.0 - f_s, f_s - subband / 2.0)
            for i, tunnel in enumerate(self.payloads):
                if tunnel.edges()[1] > extent:
                    raise ConfigError(
                        f"{', '.join(_band_keys(v, f'tunnels.{i}'))}: the "
                        f"radio payload spills past +/-{extent/1e9:.2f} GHz "
                        f"around the subcarrier")
            groups = [[k] for k in range(len(self.payloads))]
        else:
            groups = v["rf_groups"]
            if not self.payloads or sorted(i for g in groups for i in g
                                           ) != list(range(len(self.payloads))):
                raise ConfigError("adjacent_rf needs rf_channels and "
                                  "rf_groups that partition their indices")

        # the uplink's receivers: the smart edge's of the radio uplink of
        # tunnels, if any, and of the digital uplink under adjacent_rf; the
        # central office's of the digital uplink of tunnels, through a demux
        # when other channels share the bus and on the whole record if not
        self.uplink = {"digital": signal("digital", 2)}
        if v.get("uplink.rof"):
            self.uplink["rof"] = signal("uplink.rof", 3)
        up_side = v["uplink.sideband"]
        edge = "rof" if v.get("uplink.rof") else None if tunnels else "digital"
        returns = []
        if edge is not None:
            keys = ("uplink.intercept_carrier_tap", "uplink.intercept_order")
            section = {"rof": "uplink.rof"}.get(edge, "digital")
            returns.append(("edge", edge, keys, _naming(
                keys + _band_keys(v, section), solve_carrier_tap_filter,
                *_sided(*self.uplink[edge].edges(), up_side),
                *(v[key] for key in keys))))
        if edge != "digital":
            returns.append(("co", "digital", ("wdm.channel_offsets",),
                            FilterSpec(0.0, 0.9 * slot_width, 5, _sided(
                                *self.uplink["digital"].edges(), up_side))
                            if self.plan.n_channels > 1 else None))

        ring = {key: v[f"devices.ring.{key}"]
                for key in ("fsr", "coupling", "amplitude", "mod_efficiency")}
        self.tx_power_dbm = v["devices.tx_power_dbm"]
        depth, rf_depth, up_depth = (v[key] for key in (
            "devices.drive_depth", "devices.rf_drive_depth",
            "uplink.drive_depth"))
        clock_volt = v["devices.subcarrier_clock_volt"]
        # every device is built here once, for the slot check and every
        # burst, as a record that fixes its drive depth, tone window and
        # band edge: each channel's modulator ring, under its transmitter
        # and its network unit's remodulator, whose tone windows reach 3
        # linewidths plus the drive's peak excursion, its depth, past the bias
        rings = [slope_biased_ring(ch.center_freq, **ring)
                 for ch in self.plan.channels]
        self.transmitters = [
            Modulator(r, depth, (3.0 + depth) * r.fwhm,
                      self.digital.edges()[1], iq_arms(digital_sideband))
            for r in rings]
        # each channel's smart edge, with each modulator's payloads and the
        # keys that size their tone windows: the generator and one ring per
        # tunnel, or the radio channels' IQ pair on a ring like channel 0's,
        # its window over the carrier but short of the broadband subband
        retain = v["devices.carrier_retain_fraction"]
        edges = [s.edges()[1] for s in self.payloads]
        if tunnels:
            self.edge_rings = [
                overlay_rings(ch, edges, rf_depth, clock_volt, retain, **ring)
                if edges else (None, []) for ch in self.plan.channels]
            self.edge_payloads = groups
            self._edge_keys = ("wdm.rof_subcarrier_offset",
                               "wdm.digital_subband")
        else:
            window = (self.plan.channels[0].center_freq
                      - rings[0].effective_resonance
                      + 0.5 * self.digital.edges()[0])
            self.edge_rings = [(None, [Modulator(
                rings[0], rf_depth, window, max(edges), iq_arms("lower"))])]
            self.edge_payloads = [list(range(len(edges)))]
            self._edge_keys = ("digital.if_freq",)
        loss = v["spans.atten_db_per_km"], v["spans.dispersion_ps_nm_km"]
        self.feeder, self.distribution = (
            FiberParams(v[f"spans.{span}_km"], *loss)
            for span in ("feeder", "distribution"))
        self.amplifier = None
        if v.get("amplifier"):
            self.amplifier = v["amplifier.gain_db"], v["amplifier.nf_db"]
        up_edge = max(s.edges()[1] for s in self.uplink.values())
        self.detector = PdParams(**{key: v[f"onu.pd.{key}"] for key in (
            "responsivity", "thermal_noise_psd", "include_shot")})
        self.onus, self.receivers = self._read_onus(groups, [
            Modulator(r, up_depth, (3.0 + up_depth) * r.fwhm, up_edge,
                      iq_arms(up_side)) for r in rings])
        # every receiver is its own photodiode: the network units' drops
        # take the detector seeds from 100 on, the uplink's the next ones
        first = 100 + sum(map(len, self.receivers))
        self.receivers[0] += [
            _Receiver(site, drop, keys, first + i, f"uplink_{kind}_demod",
                      ((f"uplink:{kind}", self.uplink[kind], kind),))
            for i, (site, kind, keys, drop) in enumerate(returns)]
        self.d_slot = self._slot_division()
        self.rx_power_dbm = v["sweep.rx_power_dbm"]
        # at most 10,000 bursts of the least-counted signal per bit target
        least = min(s.n_bits for s in (self.digital, *self.payloads,
                                       *self.uplink.values()))
        for key in ("bits_per_point", "top_bits", "full_bits"):
            bits = v[f"sweep.{key}"]
            if bits > 10_000 * least:
                raise ConfigError(
                    f"sweep.{key}, sweep.burst_symbols: {bits} bits take more "
                    f"than 10,000 bursts of {least} bits")
            setattr(self, key, bits)

    def _read_onus(self, groups: list, remodulators: list) -> tuple:
        """Each channel's network unit with its remodulator, and the
        receivers of its drops, of the digital signal and of each of
        ``groups`` of the payloads: the same filters, which sit relative to
        the carrier; a failing filter names the keys that size it."""
        v = self._values
        tunnels = self.style == "subcarrier_tunnels"
        f_s = self.plan.channels[0].rof_subcarrier_offset
        order = v["onu.rof_filter_order"]
        # each filter's config keys, for its load errors and its
        # receiver's band in _slot_spans
        rof = ("onu.rof_filter_bandwidth" if tunnels
               else "onu.rof_carrier_tap_db", "onu.rof_filter_order")
        wide = ("onu.carrier_tap_fraction", "onu.broadband_order",
                "onu.broadband_passband_fraction", *_band_keys(v, "digital"))
        if tunnels:
            bandwidth = v["onu.rof_filter_bandwidth"]
            filters = [FilterSpec(sign * f_s, bandwidth, order)
                       for sign in (+1.0, -1.0)[:len(self.payloads)]]
            keys = [rof] * len(filters)
        else:
            # the radio groups ride the lower sideband next to the carrier
            # and together tap rof_carrier_tap_db of it
            tap_db = v["onu.rof_carrier_tap_db"]
            tap = 1.0 - 10.0 ** (-tap_db / (10.0 * len(groups)))
            edges = [[e for k in group for e in self.payloads[k].edges()]
                     for group in groups]
            keys = [rof + tuple(key for k in group for key in _band_keys(
                v, f"rf_channels.{k}")) for group in groups]
            filters = [_naming(names, solve_carrier_tap_filter,
                               *_sided(min(e), max(e), "lower"), tap, order)
                       for e, names in zip(edges, keys)]
        broadband = _naming(
            wide, solve_carrier_tap_filter,
            *_sided(*self.digital.edges(), self.transmitters[0].sideband),
            *(v[f"onu.{key}"] for key in (
                "carrier_tap_fraction", "broadband_order",
                "broadband_passband_fraction")))
        # each drop with its stage and the report names of its signals,
        # by their index j: 0 for the digital signal, i + 1 for payload i
        digital, radio, stage = (
            ("ch{k}:digital", "ch{k}:tunnel{j}", "tunnel_demod") if tunnels
            else ("broadband", "rf{j}", "rf_demod"))
        drops = [(broadband, wide, "broadband_demod", [(digital, 0)]), *(
            (spec, names, stage, [(radio, i + 1) for i in group])
            for spec, names, group in zip(filters, keys, groups))]
        for spec, names, _, _ in drops:
            _naming(names, check_drop, spec, self.plan.channels[0])
        signals = [self.digital, *self.payloads]
        receivers = [[_Receiver(
            "onu", spec, names, 100 + len(drops) * k + i, stage, tuple(
                (name.format(k=k, j=j), signals[j], (k, j))
                for name, j in named))
            for i, (spec, names, stage, named) in enumerate(drops)]
            for k in range(self.plan.n_channels)]
        residual = v["onu.min_residual_carrier_dbm"]
        return [OnuConfig(c, broadband, m, tuple(filters), residual)
                for c, m in zip(self.plan.channels, remodulators)], receivers

    def _slot_spans(self, k: int) -> list:
        """The absolute bands ``(lo, hi, most, keys)`` channel ``k``'s slot
        record must hold, each with the largest slot division it allows
        (None for any) and the config keys that size it: the slot, the tone
        window each of its devices' records sets, the generator's window
        lifted to each subcarrier, and the crop window each of its
        ``receivers`` takes on the plan's record at ``sample_rate``, whose
        division it must not undercut (the whole record for a receiver
        without a drop)."""
        ch, onu = self.plan.channels[k], self.onus[k]
        f_c, f_s = ch.center_freq, ch.rof_subcarrier_offset
        spans = [(*ch.slot_edges, None, ("wdm.slot_width",))]
        gen, modulators = self.edge_rings[k]
        uplink = [(onu.modulator, ("uplink.drive_depth",))] if k == 0 else []
        devices = [(self.transmitters[k], ("devices.drive_depth",)), *uplink,
                   *((m, self._edge_keys) for m in modulators)]
        if gen is not None:
            retain = ("devices.carrier_retain_fraction",)
            devices.append((gen, retain))
            spans += [(gen.ring.effective_resonance + f - gen.window,
                       gen.ring.effective_resonance + f + gen.window, None,
                       ("wdm.rof_subcarrier_offset", *retain, *_LINEWIDTH))
                      for f in (-f_s, f_s)]
        spans += [(d.ring.effective_resonance - d.window,
                   d.ring.effective_resonance + d.window, None,
                   keys + _LINEWIDTH) for d, keys in devices]
        n, fs, ref = self.n_burst, self.sample_rate, self.plan.ref_freq()
        for spec, keys in ((rx.drop, rx.keys) for rx in self.receivers[k]):
            lo, hi = (f_c, f_c) if spec is None else detect_band(f_c, spec)
            found = None if spec is None else crop_window(n, fs, ref, lo, hi)
            if found is not None:
                most, _, lo, hi = found
            spans.append((lo, hi, 1 if found is None else most, keys))
        return spans

    def _slot_division(self) -> int:
        """The largest power of two ``d`` dividing the burst's record whose
        slot records, ``n_burst / d`` samples at ``sample_rate / d``
        centred on each carrier, hold every band of :meth:`_slot_spans`
        (:func:`~oansim.waveform._division`), and no larger than any
        band's ``most``.  Each receiver's crop then takes the bins the
        plan's record would give it, and what lands outside every slot
        record reaches none."""
        n, df = self.n_burst, self.sample_rate / self.n_burst
        spans = [self._slot_spans(k) for k in range(self.plan.n_channels)]
        held = [(_division(n, df, 0, lo - ch.center_freq, hi - ch.center_freq,
                           1), most, keys)
                for ch, bands in zip(self.plan.channels, spans)
                for lo, hi, most, keys in bands]
        unheld = sorted({key for d, _, keys in held if not d for key in keys})
        if unheld:
            raise ConfigError(
                f"{', '.join(unheld)}: a slot record at the full rate "
                f"(sample_rate) does not hold the tone windows, subcarriers or "
                f"receiver crops these size")
        # a slot record leaves the other channels out, so none of its
        # tone windows or crops may reach into another channel's slot
        for k, bands in enumerate(spans):
            for j, other in enumerate(self.plan.channels):
                lo, hi = other.slot_edges
                reach = sorted({key for a, b, _, keys in bands
                                if a < hi and b > lo for key in keys})
                if j != k and reach:
                    raise ConfigError(
                        f"wdm.channel_offsets: channel {k}'s tone windows or "
                        f"receiver crops, sized by {', '.join(reach)}, reach "
                        f"into channel {j}'s slot")
        return min(min(d, most or n) for d, most, _ in held)

    def with_seed(self, seed: int) -> ScenarioConfig:
        """The same scenario under another seed."""
        return ScenarioConfig({**self.raw, "seed": seed})


def read_yaml(path):
    """The parsed YAML of a config file; a ConfigError names the file if
    it is missing or does not parse."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        return yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {p}: {exc}") from exc


def load_config(path) -> ScenarioConfig:
    """Parse and validate a scenario config file, resolving all defaults."""
    return ScenarioConfig(read_yaml(path))


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

def _detect(receiver: _Receiver, electrical: ComplexWaveform,
            bits: dict) -> list:
    """Demodulate each signal of ``receiver`` at its IF in its photocurrent
    ``electrical``; their names and bit-error reports against ``bits``."""
    reports = []
    for name, signal, key in receiver.signals:
        rx_bits, evm = _stage(receiver.stage, demodulate_ofdm, signal.ofdm,
                              from_if(electrical, signal.if_freq,
                                      signal.ofdm.sample_rate),
                              max_symbols=signal.symbols)
        reports.append((name, ber_over_sent_bits(bits[key], rx_bits, evm)))
    return reports


def _drive(modulator: Modulator, signals, n: int, sample_rate: float,
           lead: int = 0) -> ComplexWaveform:
    """The drive of ``modulator`` carrying each ``(signal, bits)`` of
    ``signals`` at its IF, ``lead`` samples late: their spectra, summed,
    as a real signal for a single ring and an analytic one for an IQ
    pair."""
    spectra = [s.spectrum(bits, n, sample_rate, lead) for s, bits in signals]
    half = sum(spectra[1:], spectra[0])
    if len(modulator.arms) == 1:
        return ComplexWaveform(fftpack.irfft(half, n), sample_rate)
    return analytic(half, n, sample_rate)


def _run_burst(cfg: ScenarioConfig, rx_power_dbm: float, burst_seed: int,
               acc: _Accumulator, want_spectrum: bool):
    """One burst of the pipeline, carried as one slot record per channel.

    Each slot, ``n_burst / d_slot`` samples at ``sample_rate / d_slot``
    centred on its carrier, runs in its own fork branch, and each stage
    starts once its inputs exist.  A slot's chain (its digital drive, the
    central office, the feeder and the amplifier) runs beside its smart
    edge's drives, and the slots beside the uplink's drive.  Between the
    amplifier and the smart edge the slots hand each other the lines their
    clock generators lift into them (:func:`generator_inputs`); then each
    runs its smart edge and distribution fiber.  The received power is set
    over the slots' summed WDM slot power, the one join before the network
    units.  Each slot's network unit then receives in its own branch,
    beside the report's spectrum, and detects its drops in one fork; its
    receivers demodulate one branch each.  Channel 0's slot alone carries
    the uplink: its downlink is demodulated beside the remodulation and
    the return path.

    Returns the uplink-to-residual ratio, the carrier ledger of channel 0's
    network unit and, if wanted, the report's spectrum after the overlay.
    Each slot record is let go after its last reader.
    """
    rng = np.random.default_rng(burst_seed)
    plan = cfg.plan
    dig = cfg.digital
    # bits by the key a receiver reads, in draw order: (k, 0) for channel
    # k's digital signal, (k, i + 1) for its payload i, the uplink's kind
    channels = range(plan.n_channels)
    bits = {(k, 0): rng.integers(0, 2, dig.n_bits) for k in channels}
    bits.update({(k, j): rng.integers(0, 2, s.n_bits) for k in channels
                 for j, s in enumerate(cfg.payloads, 1)})
    bits.update({kind: rng.integers(0, 2, signal.n_bits)
                 for kind, signal in cfg.uplink.items()})
    units = [[rx for rx in rxs if rx.site == "onu"] for rxs in cfg.receivers]

    # every drive is made on the slot record, the digital and uplink ones
    # after the walk-off guard
    rate = cfg.sample_rate / cfg.d_slot
    n = cfg.n_burst // cfg.d_slot
    guard = int(round(_WALKOFF_GUARD_S * rate))
    centre = plan.ref_freq()

    def chain(k: int) -> ComplexWaveform:
        """Slot ``k`` from its digital drive to the feeder's far end."""
        drive = _drive(cfg.transmitters[k], [(dig, bits[k, 0])], n, rate,
                       guard)
        tx = _stage("olt_transmit", olt_transmit, plan, drive, k,
                    modulators=cfg.transmitters,
                    power_per_tone_dbm=cfg.tx_power_dbm)
        link = _stage("feeder_fiber", propagate_fiber, tx, cfg.feeder, centre)
        if cfg.amplifier is not None:
            link = _stage("amplifier", amplify_ase, link, *cfg.amplifier,
                          seed=[burst_seed + 17, k])
        return link

    def launch(k: int) -> list:
        """Slot ``k``'s chain beside its smart edge's drives."""
        return fork(partial(chain, k), *(
            partial(_drive, m, [(cfg.payloads[i], bits[k, i + 1])
                                for i in idx], n, rate)
            for m, idx in zip(cfg.edge_rings[k][1], cfg.edge_payloads)))

    *launched, up_drive = fork(
        *(partial(launch, k) for k in channels),
        partial(_drive, cfg.onus[0].modulator,
                [(signal, bits[kind]) for kind, signal in cfg.uplink.items()],
                n, rate, guard))
    fields = [link for link, *_ in launched]
    inputs = generator_inputs(fields, cfg.edge_rings)

    def edge(k: int, link: ComplexWaveform, drives: list):
        link = _stage("smart_edge_overlay", smart_edge_overlay, link,
                      cfg.edge_rings, drives, channel=k, inputs=inputs)
        overlaid = link if want_spectrum else None
        link = _stage("distribution_fiber", propagate_fiber, link,
                      cfg.distribution, centre)
        return link, overlaid

    edged = fork(*(partial(edge, k, fields[k], launched[k][1:])
                   for k in channels))
    del launched, fields, inputs
    # the received power is that of the WDM slots: what the records hold
    # between and past them (ASE, far clock harmonics) is left out
    slots = sum(band_power(link, *ch.slot_edges)
                for (link, _), ch in zip(edged, plan.channels))
    if not slots > 0.0:
        raise SimulationError("the WDM slots reach the network units without "
                              "power (see spans and amplifier)")
    gain_db = rx_power_dbm - 10.0 * np.log10(slots * 1e3)
    links = [scale_db(link, gain_db) for link, _ in edged]
    overlaid = [wf for _, wf in edged]
    del edged

    def demods(k: int, unit) -> list:
        """The downlink reports of slot ``k``'s network unit, one branch
        per receiver."""
        return [report for done in fork(*(
            partial(_detect, rx, current, bits)
            for rx, current in zip(units[k], unit.detected)))
            for report in done]

    def receive(k: int, link: ComplexWaveform):
        """Slot ``k``'s network unit and its downlink reports; channel 0's
        are demodulated beside its uplink (:func:`_uplink`)."""
        unit = _stage("onu_receive", onu_receive, link, cfg.onus[k],
                      [replace(cfg.detector, seed=burst_seed + rx.seed)
                       for rx in units[k]])
        if k:
            return demods(k, unit)
        (ratio, up_reports), reports = fork(
            partial(_uplink, cfg, unit.residual, up_drive, bits, burst_seed),
            partial(demods, 0, unit))
        return ratio, unit.ledger, reports + up_reports

    # the report's spectrum is taken beside the network units, by a thread
    # that would otherwise wait
    (ratio, ledger, reports), *received, spectrum = fork(
        *(partial(receive, k, link) for k, link in enumerate(links)),
        partial(_spectrum, overlaid) if want_spectrum else lambda: None)
    for name, report in [*reports, *(r for done in received for r in done)]:
        acc.add(name, report)
    return ratio, ledger, spectrum


def _uplink(cfg: ScenarioConfig, residual: ComplexWaveform,
            drive: ComplexWaveform, bits: dict, burst_seed: int) -> tuple:
    """Channel 0's ``residual`` carrier remodulated with the uplink
    ``drive``, the digital signal and the radio one if any: the
    uplink-to-residual ratio, and the reports of the uplink signals from
    its receivers in turn, the smart edge's, then the central office's."""
    rem = _stage("onu_remodulate", onu_remodulate, residual, cfg.onus[0],
                 drive)
    ch, centre = cfg.plan.channels[0], cfg.plan.ref_freq()
    back = _stage("uplink_distribution", propagate_fiber, rem.waveform,
                  cfg.distribution, centre)
    reports = []
    for rx in [rx for rx in cfg.receivers[0] if rx.site != "onu"]:
        pd = replace(cfg.detector, seed=burst_seed + rx.seed)
        if rx.site == "edge":
            icept = _stage("smart_edge_intercept", smart_edge_intercept_uplink,
                           back, ch, rx.drop, pd=pd)
            back, current = icept.through, icept.rof_electrical
        else:
            co = _stage("uplink_feeder", propagate_fiber, back, cfg.feeder,
                        centre)
            if rx.drop is None:
                current = dc_block(_stage("co_detect", photodetect, co, pd))
            else:
                # central-office demux: the returning channel, without the
                # other WDM channels' carrier/sideband beats in the uplink IF
                co, _ = _stage("co_demux", drop_filter, co, ch.center_freq,
                               rx.drop.bandwidth, rx.drop.order)
                current = _stage("co_detect", detect_drop, co,
                                 ch.center_freq, rx.drop, pd)
        reports += _detect(rx, current, bits)
    return rem.uplink_to_residual_db, reports


def _spectrum(slots: list) -> dict:
    """The report's spectrum: at most 8,192 points of the PSD of the slot
    records side by side."""
    parts = [psd(wf) for wf in slots]
    freqs = np.concatenate([f for f, _ in parts])
    kept = np.argsort(freqs, kind="stable")[::max(1, freqs.size // 4096)]
    return {
        "freq_hz": [float(f) for f in freqs[kept]],
        "psd_dbm_per_hz": [float(10 * np.log10(max(v, 1e-300) * 1e3)) for v
                           in np.concatenate([v for _, v in parts])[kept]],
    }


# ---------------------------------------------------------------------------
# Runner


def run_scenario(cfg: ScenarioConfig, full: bool = False,
                 sweep_override=None) -> dict:
    """Execute the scenario; returns the metrics report (a plain dict)."""
    powers = (cfg.rx_power_dbm if sweep_override is None
              else _convert("--rx-power", list(sweep_override), _sweep))
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
