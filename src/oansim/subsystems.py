"""Composition of the photonic devices into the three network blocks.

Drives in, fields and photocurrents out: every block takes electrical
drives on the simulation grid (real for a single ring, analytic for an
IQ modulator) and returns optical fields or real detected photocurrents;
:mod:`oansim.scenarios` makes and reads every OFDM signal, and builds
every device once: a modulator's record fixes its depth, to which it
scales each drive, its tone window and its band edge.  A field is one
WDM channel's slot record, centred on its carrier.  The central office
and the smart edge are each a bus of one site per channel, which a slot
walks one way (:func:`_bus`): its own channel's devices act by their
time-varying responses and every other channel's by their static ones.

* central-office transmitter: comb source + one IQ microring modulator
  per WDM channel, single-sideband digital drive inside each channel's
  reserved digital subband;
* smart-edge overlay unit: per channel, the devices that add analog
  radio, run one way for both overlay styles: a clock-driven ring that
  splits the carrier into +/-f_s subcarriers and one ring per radio
  tunnel on them, or one IQ pair that puts radio channels next to the
  carrier; a drop ring intercepts the radio uplink on the return path;
* optical network unit: cascade of higher-order drop filters that strips
  the broadband subband (with a calibrated portion of the carrier) and
  the radio subcarriers, then remodulates the residual carrier with the
  uplink on the spectral side opposite the downlink.

Every receiver detects its drop at the rate of its band
(:func:`detect_drop`): the dropped field keeps the carrier and what the
filter passes near its demodulated band, at the lowest power-of-two
fraction of the simulation rate that holds it.

The optical figures of merit (the network unit's carrier ledger, the
uplink-to-residual ratio) are computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .channel import PdParams, dc_block, photodetect
from .devices import (ClockGenerator, Modulator, RingParams, _drop_pair,
                      apply_mrm, drop_filter, generate_subcarriers,
                      iq_mrm_ssb, thermal_tune, undriven_generator,
                      undriven_mrm)
from .errors import ConfigError, SimulationError
from .forkjoin import fork
from .waveform import ComplexWaveform, _band, band_power, crop_to_band

#: Per-device passband insertion loss along an add/drop bus (dB).
BUS_LOSS_DB_PER_STAGE = 0.1
_BUS_GAIN = 10.0 ** (-BUS_LOSS_DB_PER_STAGE / 20.0)

#: Half-width of the spectral window treated as "the carrier" (Hz).
CARRIER_WINDOW_HZ = 0.5e9

#: Uplink-to-residual-downlink ratio that each ONU drop filter's downlink
#: suppression must support (dB).
UPLINK_RATIO_TARGET_DB = 13.0


# ---------------------------------------------------------------------------
# Wavelength plan


@dataclass(frozen=True)
class WdmChannel:
    center_freq: float
    slot_width: float = 50e9
    digital_subband: float = 20e9
    rof_subcarrier_offset: float = 20e9   # f_s

    def __post_init__(self):
        if self.slot_width <= 0 or self.digital_subband <= 0:
            raise ConfigError("slot_width and digital_subband must be > 0")
        f_s = self.rof_subcarrier_offset
        if not self.digital_subband / 2.0 < f_s < self.slot_width / 2.0:
            raise ConfigError(
                "rof_subcarrier_offset must sit between the digital subband "
                "edge and the slot edge"
            )

    @property
    def slot_edges(self) -> tuple:
        """The slot's lowest and highest absolute frequency (Hz)."""
        return (self.center_freq - self.slot_width / 2.0,
                self.center_freq + self.slot_width / 2.0)


@dataclass
class WdmPlan:
    channels: list

    def __post_init__(self):
        if not self.channels:
            raise ConfigError("plan needs at least one channel")
        spans = sorted(c.slot_edges for c in self.channels)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            if lo < hi:
                raise ConfigError("WDM slots overlap")

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def ref_freq(self) -> float:
        lo = min(c.center_freq for c in self.channels)
        hi = max(c.center_freq for c in self.channels)
        return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# Ring construction


def slope_biased_ring(carrier_freq: float, fsr: float = 5e12,
                      coupling: float = 0.9987, amplitude: float = 0.9987,
                      mod_efficiency: float = 2e9,
                      slope_fraction: float = 0.5) -> RingParams:
    """All-pass modulator ring biased on its transmission slope.

    The resonance is tuned ``slope_fraction`` linewidths below the carrier
    so the carrier sits on the near-linear edge of the notch: the drive
    then translates almost linearly into carrier amplitude.
    """
    ring = RingParams(resonance_freq=carrier_freq, fsr=fsr,
                      self_coupling_t1=coupling,
                      roundtrip_amplitude_a=amplitude,
                      mod_efficiency=mod_efficiency)
    return thermal_tune(ring, carrier_freq - slope_fraction * ring.fwhm)


# ---------------------------------------------------------------------------
# Carrier-tap drop filter solver


@dataclass(frozen=True)
class FilterSpec:
    """One drop filter, positioned relative to its channel carrier;
    ``band`` holds the carrier offsets of the band its drop is demodulated
    over, unbounded by default."""
    center_offset: float
    bandwidth: float
    order: int = 3
    band: tuple = (-np.inf, np.inf)

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ConfigError("filter bandwidth must be > 0")
        if self.order < 1:
            raise ConfigError("filter order must be >= 1")


def solve_carrier_tap_filter(band_lo: float, band_hi: float, tap: float,
                             order: int = 3,
                             passband_fraction: float = 0.97) -> FilterSpec:
    """Drop filter that passes a signal band and taps a carrier fraction.

    The band edges are offsets from the carrier and must share a sign.
    The returned filter drops at least ``passband_fraction`` of the power
    across the far band edge while its skirt at the carrier drops exactly
    ``tap`` of the carrier power.
    """
    if not 0.0 < tap < 1.0 or not 0.0 < passband_fraction < 1.0:
        raise ConfigError("tap and passband fraction must be in (0, 1)")
    if order < 1:
        raise ConfigError("filter order must be >= 1")
    if band_lo * band_hi <= 0 or band_lo >= band_hi:
        raise ConfigError("band edges must be ordered and on one carrier side")
    sign = 1.0 if band_lo > 0 else -1.0
    far = max(abs(band_lo), abs(band_hi))
    u_tap = ((1.0 - tap) / tap) ** (1.0 / (2 * order))
    u_pass = ((1.0 - passband_fraction) / passband_fraction) ** (1.0 / (2 * order))
    bandwidth = 2.0 * far / (u_tap + u_pass)
    return FilterSpec(sign * u_tap * bandwidth / 2.0, bandwidth, order,
                      (band_lo, band_hi))


# ---------------------------------------------------------------------------
# ONU configuration


@dataclass
class OnuConfig:
    """The network unit on ``channel``: its drop filters, relative to the
    carrier, and ``modulator``, the IQ pair that puts the uplink on its
    sideband."""
    channel: WdmChannel
    broadband_filter: FilterSpec
    modulator: Modulator
    rof_filters: tuple = ()
    min_residual_carrier_dbm: float = -35.0

    def __post_init__(self):
        for spec in (self.broadband_filter, *self.rof_filters):
            check_drop(spec, self.channel)


def check_drop(spec: FilterSpec, ch: WdmChannel) -> None:
    """Raise ConfigError unless a network unit's drop filter ``spec`` fits
    the slot of ``ch`` and suppresses the downlink enough for the uplink."""
    if abs(spec.center_offset) + spec.bandwidth / 2.0 > ch.slot_width / 2.0:
        raise ConfigError(f"filter at offset {spec.center_offset/1e9:+.2f} "
                          f"GHz extends beyond the ONU slot")
    # downlink left on the bus masks the uplink: a signal in its band's
    # central half leaks by at most 1 / (1 + 4^order), at u = 1/2
    suppression_db = 10.0 * (spec.order * np.log10(4.0)
                             + np.log10(1.0 + 0.25 ** spec.order))
    if suppression_db < UPLINK_RATIO_TARGET_DB:
        raise ConfigError(
            f"drop filter at {spec.center_offset/1e9:+.2f} GHz (order "
            f"{spec.order}) suppresses the downlink by only "
            f"{suppression_db:.1f} dB; uplink target is "
            f"{UPLINK_RATIO_TARGET_DB:.1f} dB")


# ---------------------------------------------------------------------------
# Central office


def olt_transmit(plan: WdmPlan, drive: ComplexWaveform, channel: int,
                 modulators,
                 power_per_tone_dbm: float = 0.0) -> ComplexWaveform:
    """The central office's output in the slot of ``plan.channels[channel]``.

    The slot record is the grid of ``drive``, centred on the channel's
    carrier: its comb line sits on bin 0.  ``drive`` is the channel's
    analytic electrical drive (see :func:`~oansim.devices.iq_mrm_ssb`) at
    its IF.  The comb walks the bus of ``modulators``, one IQ modulator
    per channel of the plan (:func:`_bus`): the channel's own drives it to
    its depth and places it next to the carrier on its sideband, in its
    tone window, and every other one is at rest.  Returns the slot's
    field, of the drive's length.
    """
    if not 0 <= channel < plan.n_channels == len(modulators):
        raise ConfigError(
            f"a drive for channel {channel} of a {plan.n_channels}-channel "
            f"plan with {len(modulators)} modulators")
    ch = plan.channels[channel]
    if ch.slot_width > drive.sample_rate:
        raise ConfigError("the slot record does not hold the slot")
    n = drive.n
    comb = np.zeros(n, dtype=np.complex64)
    comb[0] = np.sqrt(10.0 ** (power_per_tone_dbm / 10.0) * 1e-3) * n
    out = ComplexWaveform(None, drive.sample_rate, ref_freq=ch.center_freq,
                          spectrum=comb)
    return _bus(out, [(None, [m]) for m in modulators], channel, [drive])


def _bus(field: ComplexWaveform, sites, channel, drives=(),
         inputs=None) -> ComplexWaveform:
    """``field`` along the bus of ``sites``, one per channel in plan order,
    each ``(generator or None, [modulator])``, each device costing one bus
    insertion loss.  The site of ``channel`` is driven: its generator makes
    the subcarriers and each modulator takes its drive of ``drives`` (real
    for a ring, analytic for an IQ pair).  Every other site is at rest,
    its generator adding the lines it lifts from its input ``inputs[j]``
    (:func:`generator_inputs`; none without ``inputs``)."""
    for j, (gen, modulators) in enumerate(sites):
        if gen is not None:
            field = (generate_subcarriers(field, gen) if j == channel
                     else undriven_generator(field, gen, inputs and inputs[j]))
            field = field.scaled(_BUS_GAIN)
        for i, m in enumerate(modulators):
            if j != channel:
                field = undriven_mrm(field, m.ring, sum(m.arms))
            elif len(m.arms) == 1:
                field = apply_mrm(field, m, drives[i])
            else:
                field = iq_mrm_ssb(field, m, drives[i])
            field = field.scaled(_BUS_GAIN)
    return field


# ---------------------------------------------------------------------------
# Smart edge


def overlay_rings(ch: WdmChannel, band_edges, depth: float,
                  clock_volt: float, carrier_retain_fraction: float,
                  **ring) -> tuple:
    """The smart edge's rings on channel ``ch``, of the ``ring`` values of
    :func:`slope_biased_ring`, as ``(generator, [modulator])``: the clock
    generator, its clock at f_s of ``clock_volt``, biased off the null so
    that ``carrier_retain_fraction`` of the carrier survives, and one ring
    per entry of ``band_edges`` (its drive's), on the +f_s then the -f_s
    subcarrier, driven to ``depth``."""
    f_s = ch.rof_subcarrier_offset
    gen = slope_biased_ring(ch.center_freq,
                            slope_fraction=_null_offset_fraction(
                                carrier_retain_fraction),
                            **ring)
    # quasi-static window: just the carrier line; anything wider would
    # pull the digital subband into the time-varying path
    generator = ClockGenerator(
        gen, ch.center_freq - gen.effective_resonance + CARRIER_WINDOW_HZ,
        f_s, clock_volt)
    gap = f_s - ch.digital_subband / 2.0
    rings = []
    for sign, edge in zip((+1.0, -1.0), band_edges):
        tuned = slope_biased_ring(ch.center_freq + sign * f_s, **ring)
        # cover the subcarrier line but stay clear of the digital subband
        # edge on the carrier side
        ring_off = abs(ch.center_freq + sign * f_s - tuned.effective_resonance)
        rings.append(Modulator(tuned, depth, ring_off + 0.5 * (gap - ring_off),
                               edge))
    return generator, rings


def smart_edge_overlay(field_in: ComplexWaveform, rings, drives,
                       channel: int = 0, inputs=None) -> ComplexWaveform:
    """Overlay analog radio on the slot of WDM channel ``channel``.

    ``rings`` holds, per channel, its smart edge as ``(generator or None,
    [modulator])``: the clock generator that splits part of the carrier
    into +/-f_s subcarriers and one ring per tunnel on them
    (:func:`overlay_rings`), or the radio channels' IQ pair.  The slot
    walks that bus (:func:`_bus`): its own channel's smart edge runs on
    ``drives``, one per modulator, and every other channel's is at rest,
    its generator adding the lines it lifts from ``inputs[j]``.
    """
    if len(drives) != len(rings[channel][1]):
        raise ConfigError(
            f"{len(drives)} drives for the {len(rings[channel][1])} "
            f"smart-edge modulators of channel {channel}")
    return _bus(field_in, rings, channel, drives, inputs)


def generator_inputs(fields, rings) -> list:
    """Each channel's clock generator's input (None without one), whose
    lines :func:`smart_edge_overlay` lands in the other slots: its tone
    window cut from its slot record in ``fields`` as it enters the smart
    edge (:func:`~oansim.waveform.crop_to_band`), then walked through the
    earlier channels' smart edges in ``rings`` at rest (:func:`_bus`)."""
    inputs = []
    for field, (gen, _) in zip(fields, rings):
        x = None
        if gen is not None:
            res = gen.ring.effective_resonance
            x = _bus(crop_to_band(field, res - gen.window, res + gen.window),
                     rings[:len(inputs)], None, inputs=inputs)
        inputs.append(x)
    return inputs


def _null_offset_fraction(retain: float) -> float:
    """Slope offset (in linewidths) leaving ``retain`` of the carrier power.

    Lorentzian notch model: |H|^2 = d^2/(1+d^2) with d the detuning in
    half-linewidths, so d = sqrt(retain/(1-retain)); returned in FWHM units.
    """
    if not 0.0 < retain < 1.0:
        raise ConfigError("carrier_retain_fraction must be in (0, 1)")
    return 0.5 * np.sqrt(retain / (1.0 - retain))


def detect_drop(dropped: ComplexWaveform, f_c: float, spec: FilterSpec,
                pd: PdParams) -> ComplexWaveform:
    """Photocurrent of the drop port of ``spec``, detected at its band's rate.

    The dropped field is cropped to the carrier at ``f_c`` plus one filter
    bandwidth on each side of the filter centre, no farther from the
    carrier than the far edge of ``spec.band`` plus its width, at the
    lowest power-of-two fraction of the rate that holds it
    (:func:`~oansim.waveform.crop_to_band`), then photodetected and
    dc-blocked.
    """
    return dc_block(photodetect(crop_to_band(dropped,
                                             *detect_band(f_c, spec)), pd))


def detect_band(f_c: float, spec: FilterSpec) -> tuple:
    """The absolute band [f_lo, f_hi] that :func:`detect_drop` crops to."""
    center = f_c + spec.center_offset
    lo, hi = spec.band
    reach = max(abs(lo), abs(hi)) + hi - lo
    return (max(f_c - reach, min(f_c, center - spec.bandwidth)),
            min(f_c + reach, max(f_c, center + spec.bandwidth)))


@dataclass
class InterceptResult:
    rof_electrical: ComplexWaveform
    through: ComplexWaveform


def smart_edge_intercept_uplink(field_in: ComplexWaveform, ch: WdmChannel,
                                spec: FilterSpec,
                                pd: PdParams | None = None) -> InterceptResult:
    """Drop and detect the radio uplink subband of channel ``ch``.

    ``spec`` is the drop ring, solved (:func:`solve_carrier_tap_filter`)
    so that it passes the uplink band and taps a share of the carrier for
    direct detection, leaving the rest of the carrier and the digital
    uplink on the through path.
    """
    if band_power(field_in, *ch.slot_edges) <= 0.0:
        raise SimulationError(
            f"channel at {ch.center_freq/1e12:.4f} THz carries no power; "
            f"nothing to intercept"
        )
    dropped, through = drop_filter(field_in, ch.center_freq + spec.center_offset,
                                   spec.bandwidth, spec.order)
    rof = detect_drop(dropped, ch.center_freq, spec, pd or PdParams())
    return InterceptResult(rof, through)


# ---------------------------------------------------------------------------
# Optical network unit


@dataclass
class OnuReceiveResult:
    detected: list                   # photocurrent of each drop, in order
    residual: ComplexWaveform
    ledger: dict                     # the carrier ledger, by report entry


def onu_receive(field_in: ComplexWaveform, cfg: OnuConfig,
                pds) -> OnuReceiveResult:
    """Strip the broadband subband and radio tunnels off the bus.

    The broadband drop taps the carrier share its filter was solved for;
    once the bus is walked, it and each radio drop are direct-detected,
    in one fork, each by its own seeded detector of ``pds`` (in the order
    of the drops), and their photocurrents returned.  The residual field
    (including the remaining carrier) is returned for remodulation.  The
    ledger holds the carrier level in, after the broadband drop and left
    on the bus, in dBm, and what the radio drops cost it, in dB.
    """
    f_c = cfg.channel.center_freq
    if band_power(field_in, *cfg.channel.slot_edges) <= 0.0:
        raise SimulationError("ONU slot not present in the input field")
    filters = (cfg.broadband_filter, *cfg.rof_filters)
    if len(pds) != len(filters):
        raise ConfigError(f"{len(pds)} detectors for {len(filters)} drops")
    # direct detection beats the SSB content against the tapped carrier,
    # recovering the real IF signal regardless of which optical sideband
    # carried it, so no spectral flip is ever needed here
    bus, dropped = field_in, []
    for spec in filters:
        drop, bus = drop_filter(bus, f_c + spec.center_offset,
                                spec.bandwidth, spec.order)
        bus = bus.scaled(_BUS_GAIN)
        dropped.append(drop)
    detected = fork(*(partial(detect_drop, drop, f_c, spec, pd)
                      for drop, spec, pd in zip(dropped, filters, pds)))
    carriers = _carrier_dbm(field_in, f_c, filters)
    return OnuReceiveResult(detected, bus, {
        "carrier_in_dbm": carriers[0],
        "carrier_after_broadband_dbm": carriers[1],
        "carrier_residual_dbm": carriers[-1],
        "rof_tap_cost_db": carriers[1] - carriers[-1]})


@dataclass
class RemodResult:
    waveform: ComplexWaveform
    uplink_to_residual_db: float


def onu_remodulate(residual: ComplexWaveform, cfg: OnuConfig,
                   drive: ComplexWaveform) -> RemodResult:
    """Remodulate the residual carrier with the uplink, opposite sideband.

    The uplink ``drive`` is an analytic electrical waveform at its IF on
    the residual's grid and of its length (see
    :func:`~oansim.devices.iq_mrm_ssb`), which ``cfg.modulator`` drives to
    its depth and puts on its sideband.  Reports the ratio of uplink power
    to the residual downlink power on the bus.
    """
    f_c = cfg.channel.center_freq
    carrier_dbm, = _carrier_dbm(residual, f_c)
    if carrier_dbm < cfg.min_residual_carrier_dbm:
        raise SimulationError(
            f"residual carrier {carrier_dbm:.1f} dBm is below the "
            f"{cfg.min_residual_carrier_dbm:.1f} dBm remodulation minimum"
        )

    up_side = cfg.modulator.sideband
    down_side = "lower" if up_side == "upper" else "upper"
    out = iq_mrm_ssb(residual, cfg.modulator, drive)

    p_up = _side(out, cfg.channel, up_side)
    p_down = _side(out, cfg.channel, down_side)
    ratio = 10.0 * np.log10(p_up / p_down) if p_down > 0 else np.inf
    return RemodResult(out, float(ratio))


def _carrier_dbm(wf: ComplexWaveform, f_c: float, filters=()) -> list:
    """Power in the carrier window around ``f_c``, in dBm, of ``wf`` and
    after each drop filter of ``filters`` with its bus loss, in double:
    single-precision bus products move the tap cost by 1e-8 dB."""
    _, _, p, f = _band(wf, f_c - CARRIER_WINDOW_HZ, f_c + CARRIER_WINDOW_HZ)
    levels = [np.sum(p)]
    for spec in filters:
        h = _drop_pair(f + wf.ref_freq, f_c + spec.center_offset,
                       spec.bandwidth, spec.order)[1]
        p = p * (h * _BUS_GAIN) ** 2
        levels.append(np.sum(p))
    return [10.0 * np.log10(max(x / wf.n**2, 1e-30) * 1e3) for x in levels]


def _side(wf: ComplexWaveform, ch: WdmChannel, side: str) -> float:
    """Power (W) in one side of a slot, outside the carrier window."""
    lo, hi = ch.slot_edges
    if side == "lower":
        return band_power(wf, lo, ch.center_freq - CARRIER_WINDOW_HZ)
    return band_power(wf, ch.center_freq + CARRIER_WINDOW_HZ, hi)
