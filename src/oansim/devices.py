"""Behavioral models of the silicon-photonic building blocks.

Microrings are modeled by the standard all-pass/add-drop transfer
functions.  Modulation is quasi-static: the electrical drive shifts the
resonance linearly and the field sees the instantaneous through response.
Cavity-lifetime dynamics are out of scope.

A modulator is one record (:class:`Modulator`, :class:`ClockGenerator`)
that alone decides what it does to a field; the drive carries the signal,
which a modulator scales to its record's depth.

Modulation follows the exact limit of a short-block evaluation when the
near-resonance content is a single spectral line: the line in the
record's tone window is multiplied by the per-sample instantaneous
response while the off-resonance remainder sees the static bias-point
response.  A modulator's product is taken at the rate of its window plus
its record's band edge.  A clock-driven generator is built as a
spectrum, its clock on the nearest record bin: each harmonic of the
clock cycle's response lifts the line by its multiple of the clock, and
lands only where it falls inside the record.

Every device keeps its field's precision.  Ring phases are reduced in
double before their cosine and sine are taken in the field's precision;
tone powers and frequencies, drives and clock harmonics stay double.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial, reduce
from operator import iadd

import numpy as np
from scipy import fft as fftpack

from .errors import ConfigError, SimulationError
from .forkjoin import fork
from .waveform import (ComplexWaveform, _band, _cached_fftfreq, _division,
                       _phasor, _runs, band_power)

# ---------------------------------------------------------------------------
# Parameter records


@dataclass(frozen=True)
class RingParams:
    resonance_freq: float          # Hz, at zero tuning
    fsr: float                     # Hz
    self_coupling_t1: float = 0.98
    self_coupling_t2: float = 1.0  # 1 => all-pass ring
    roundtrip_amplitude_a: float = 0.99
    tuning_offset: float = 0.0     # Hz, thermal shift of the resonance
    mod_efficiency: float = 1e9    # Hz of resonance shift per volt

    def __post_init__(self):
        for name in ("self_coupling_t1", "self_coupling_t2",
                     "roundtrip_amplitude_a"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {v}")
        if self.fsr <= 0:
            raise ConfigError("fsr must be > 0")

    @property
    def effective_resonance(self) -> float:
        """Resonance including thermal tuning (no electrical drive)."""
        return self.resonance_freq + self.tuning_offset

    @property
    def fwhm(self) -> float:
        """Loaded linewidth (full width at half maximum) estimate."""
        r = self.self_coupling_t1 * self.self_coupling_t2 * self.roundtrip_amplitude_a
        return self.fsr * (1.0 - r) / (np.pi * np.sqrt(r))


@dataclass(frozen=True)
class Modulator:
    """A ring modulator: its ring, the drive depth (the peak resonance
    excursion, in linewidths, that it scales its drive's real part to;
    see :func:`_modulate`), the half-width (Hz) of its tone window about
    the biased resonance, the top (Hz) of its drive's band (None where
    unknown) and each arm's combining weight: one for a payload ring, two
    for an IQ pair (:func:`iq_arms`)."""
    ring: RingParams
    depth: float
    window: float
    band_edge: float | None = None
    arms: tuple = (1.0,)

    @property
    def sideband(self) -> str:
        """The side an IQ pair puts its drive on: upper if Q leads I."""
        return "upper" if np.angle(self.arms[-1] / self.arms[0]) > 0 \
            else "lower"


def iq_arms(sideband: str = "upper", branch_phase: float = np.pi / 2):
    """The I and Q arms' combining weights of an IQ pair: half each, the Q
    arm's turned by the branch phase, whose sign the sideband sets; Python
    numbers, which leave a single-precision field single (NEP 50)."""
    if sideband not in ("upper", "lower"):
        raise ConfigError("sideband must be 'upper' or 'lower'")
    phase = branch_phase if sideband == "upper" else -branch_phase
    return 0.5, complex(0.5 * np.exp(1j * phase))


@dataclass(frozen=True)
class ClockGenerator:
    """A ring driven by a cosine clock: its ring, its tone window's
    half-width (Hz) about the resonance, clock frequency (Hz) and volts."""
    ring: RingParams
    window: float
    clock_freq: float
    clock_volt: float


# ---------------------------------------------------------------------------
# Elementary responses


def ring_response(params: RingParams, freq):
    """Through- and drop-port complex response of one microring.

    Periodic in the FSR.  Accepts scalar or array frequency (absolute Hz);
    an extra detuning can be folded in via params.tuning_offset.
    """
    t1 = params.self_coupling_t1
    t2 = params.self_coupling_t2
    a = params.roundtrip_amplitude_a
    phi = 2.0 * np.pi * (np.asarray(freq, dtype=float)
                         - params.effective_resonance) / params.fsr
    e = np.exp(1j * phi)
    den = 1.0 - t1 * t2 * a * e
    through = (t1 - t2 * a * e) / den
    drop = (-np.sqrt((1 - t1**2) * (1 - t2**2) * a)
            * np.exp(1j * phi / 2.0) / den)
    return through, drop


def _through_detuned(params: RingParams, freq, detune, dtype=np.complex128):
    """Through response, as ``dtype``, at frequency ``freq`` with an extra
    resonance shift."""
    turns = (freq - params.effective_resonance
             - np.asarray(detune)) / params.fsr
    return _through_from_phasor(params, _phasor(turns, dtype))


def _through_from_phasor(params: RingParams, e: np.ndarray) -> np.ndarray:
    """Through response (t1 - t2 a e) / (1 - t1 t2 a e) for the round-trip
    phasor ``e``, written over ``e`` with one more whole-grid buffer."""
    t1 = params.self_coupling_t1
    t2 = params.self_coupling_t2
    a = params.roundtrip_amplitude_a
    num = np.multiply(t2 * a, e, out=np.empty_like(e))
    np.subtract(t1, num, out=num)
    den = np.multiply(t1 * t2 * a, e, out=e)
    np.subtract(1.0, den, out=den)
    return np.divide(num, den, out=den)


@lru_cache(maxsize=16)
def _cached_unit_phasor(n: int, dt: float, ref: float, fsr: float, dtype):
    # whole FSRs off the reference leave the phasor as it is and would
    # only cost phase round-off
    e = _phasor((_cached_fftfreq(n, dt) + ref % fsr) / fsr, dtype)
    e.setflags(write=False)
    return e


def _through_static_grid(params: RingParams, field: ComplexWaveform,
                         detune: float) -> np.ndarray:
    """Static through response on a waveform's frequency grid: that of
    :func:`_through_detuned` on ``field.abs_freqs()``, in a new array.

    The grid's unit phasor is shared by every ring of its FSR; the bias
    point turns it by one scalar phasor.
    """
    shift = (params.effective_resonance + detune) % params.fsr
    e = _cached_unit_phasor(field.n, 1.0 / field.sample_rate,
                            field.ref_freq, params.fsr, field.spectrum.dtype) \
        * field.spectrum.dtype.type(np.exp(-2j * np.pi * shift / params.fsr))
    return _through_from_phasor(params, e)


def thermal_tune(params: RingParams, target_freq: float) -> RingParams:
    """Set the thermal offset so the resonance sits at target (mod FSR).

    The minimal-magnitude shift is chosen; all other fields are untouched.
    Tuning is idempotent and exact (setpoint model).
    """
    delta = (target_freq - params.resonance_freq + params.fsr / 2.0) \
        % params.fsr - params.fsr / 2.0
    return replace(params, tuning_offset=delta)


# ---------------------------------------------------------------------------
# Microring modulator


def _line(spec: np.ndarray, window: range, m: int, k0: int) -> np.ndarray:
    """The window's bins of ``spec``, moved down by ``k0`` bins into a
    spectrum of ``m`` bins, as samples (written over that spectrum)."""
    line = np.zeros(m, dtype=spec.dtype)
    for i, j in _runs(window, spec.size, m, k0):
        line[j] = spec[i]
    return fftpack.ifft(line, overwrite_x=True)


def _harmonics(params: RingParams, f_tone: float, volt: float):
    """The orders ``j`` and coefficients ``c_j`` of the ring's response
    over one cycle of a cosine clock of ``volt`` amplitude.  The cycle's
    ``m`` points double from 16 until the upper half of the orders holds
    under 1e-6 of the response's power, so that the aliases in the
    ``c_j`` sit below -60 dBc whatever the record's rate."""
    m = 16
    while True:
        x = volt * np.cos(2.0 * np.pi / m * np.arange(m))
        h = _through_detuned(params, f_tone, params.mod_efficiency * x)
        c = fftpack.fft(h) / m
        p = np.abs(c) ** 2
        tail = np.sum(p[m // 4:m - m // 4 + 1])
        if tail <= 1e-6 * np.sum(p) or m >= 1 << 16:
            return list(zip(range(-(m // 2), m // 2),
                            np.concatenate([c[m // 2:], c[:m // 2]])))
        m *= 2


def _land(out: np.ndarray, line: np.ndarray, first: int, step: int,
          harmonics) -> None:
    """Add to the spectrum ``out`` each ``c_j`` of ``harmonics`` times
    ``line``, whose signed bins start at ``first``, lifted by ``j`` steps
    of ``step`` bins, as far as it lands inside the record."""
    n = out.size
    lo, hi = -(n // 2) - first, (n + 1) // 2 - first
    for j, c_j in harmonics:
        i0, i1 = max(0, lo - j * step), min(line.size, hi - j * step)
        if i0 < i1:
            start = first + j * step + i0
            for i, k in _runs(range(start, start + i1 - i0), n, i1 - i0,
                              start):
                out[i] += c_j * line[i0:i1][k]


def _tone(field: ComplexWaveform, centre: float, window_hz: float):
    """The tone window's signed bins around ``centre``, their slices, their
    powers, and the power-weighted mean frequency (nan if they hold
    none)."""
    window, spans, p_line, f = _band(field, centre - window_hz,
                                     centre + window_hz)
    p_res = np.sum(p_line)
    f_tone = (field.ref_freq + float(np.sum(f * p_line) / p_res)
              if p_res > 0 else float("nan"))
    return window, spans, p_res, f_tone


def _modulate(field: ComplexWaveform, modulator: Modulator,
              drives) -> ComplexWaveform:
    """The sum over the modulator's arms of the arm's weight times the
    field through its ring shifted by ``mod_efficiency`` times the arm's
    drive, every drive scaled by the one gain that takes the first arm's
    peak magnitude to the record's depth times its ring's linewidth (an
    all-zero drive is left as it is).  The arms share the record's tone
    window at their mean bias: its line sees each arm's instantaneous
    response and the rest each arm's static response at its bias, as does
    all of the field under constant drives or when the window holds no
    power.

    ``drives`` cover the record.  The product is taken on ``n/d`` bins
    centred on bin ``k0`` mid-window, ``d`` the division of
    :func:`~oansim.waveform._division` whose whole window holds the tone
    window plus twice the record's band edge on each side, in whole bins
    (``d = 1`` and ``k0 = 0`` when there is none or the edge is unknown):
    the line's inverse transform at ``1/d`` of the rate meets the
    responses on every ``d``-th sample, and the transform of the product
    fills its bins.
    """
    params, weights = modulator.ring, modulator.arms
    if len(drives) != len(weights):
        raise ConfigError(f"{len(drives)} drives for {len(weights)} arms")
    n = field.n
    spec = field.spectrum
    eff = params.mod_efficiency
    peak = float(np.max(np.abs(drives[0])))
    if peak:
        gain = modulator.depth * params.fwhm / eff / peak
        drives = [x * gain for x in drives]
    biases = [eff * float(np.mean(x)) for x in drives]
    window, spans, p_res, f_tone = _tone(
        field, params.effective_resonance + np.mean(biases), modulator.window)
    static = (not any(map(np.ptp, drives))
              or p_res <= 1e-15 * n**2 * field.power())
    d, k0, step = 0, (window.start + window.stop) // 2, field.sample_rate / n
    if modulator.band_edge is not None:
        reach = int(np.ceil(2.0 * modulator.band_edge / step))
        d = _division(n, step, k0, (window.start - reach) * step,
                      (window.stop + reach - 1) * step, 1)
    if d < 2:
        d, k0 = 1, 0

    def weighted(weight, response, *args):
        out = response(*args)
        return out if weight == 1.0 else np.multiply(out, weight, out=out)

    # each arm's responses and the resonant line, built in a fork; the
    # line's inverse transform, like the transform back, reuses its input;
    # only the drive samples the product meets are scaled to detunings
    branches = [partial(weighted, w, _through_static_grid, params, field, b)
                for w, b in zip(weights, biases)]
    if not static:
        branches += [partial(weighted, w, _through_detuned, params, f_tone,
                             eff * x[::d], spec.dtype)
                     for w, x in zip(weights, drives)]
        branches.append(partial(_line, spec, window, n // d, k0))
    parts = fork(*branches)
    arms = len(weights)
    off = reduce(iadd, parts[1:arms], parts[0])
    np.multiply(spec, off, out=off)
    if static:
        return field.copy_with(spectrum=off)
    for s in spans:
        off[s] = 0.0
    h = reduce(iadd, parts[arms + 1:2 * arms], parts[arms])
    x_res = parts[-1]
    x_res *= h
    prod = fftpack.fft(x_res, overwrite_x=True)
    m = n // d
    for i, j in _runs(range(k0 - m // 2, k0 - m // 2 + m), n, m, k0):
        off[i] += prod[j]
    return field.copy_with(spectrum=off)


def _check_grid(field: ComplexWaveform, drive: ComplexWaveform) -> None:
    if drive.sample_rate != field.sample_rate or drive.n != field.n:
        raise ConfigError(
            f"drive of {drive.n} samples at {drive.sample_rate:g} S/s does "
            f"not match the field's {field.n} at {field.sample_rate:g} S/s"
        )


def apply_mrm(field: ComplexWaveform, modulator: Modulator,
              drive: ComplexWaveform) -> ComplexWaveform:
    """Modulate an optical field with one microring modulator.

    The drive, scaled so that its peak shifts the resonance by the
    record's depth in linewidths, shifts the resonance by
    ``mod_efficiency`` times itself, and the field is filtered by the
    time-varying through response, inside the tone window that
    ``modulator`` sets.  The drive must be a real electrical waveform on
    the same sample grid and of the same length.
    """
    _check_grid(field, drive)
    if not drive.is_real():
        raise ConfigError("MRM drive must be a real electrical waveform")
    return _modulate(field, modulator, [drive.samples])


def undriven_mrm(field: ComplexWaveform, params: RingParams,
                 gain: complex = 1.0) -> ComplexWaveform:
    """The field through a modulator ring at zero drive: its static
    response times ``gain``, the sum of its arms' weights (see
    :attr:`Modulator.arms`).  This is what a modulator does to a record
    that holds none of its tone window."""
    h = _through_static_grid(params, field, 0.0)
    if gain != 1.0:
        h *= gain
    h *= field.spectrum
    return field.copy_with(spectrum=h)


# ---------------------------------------------------------------------------
# IQ single-sideband modulator


def iq_mrm_ssb(field: ComplexWaveform, modulator: Modulator,
               drive: ComplexWaveform) -> ComplexWaveform:
    """Two-branch microring IQ modulator with interferometric combining.

    ``drive`` is analytic: its real part drives the I ring and its
    imaginary part, the Hilbert transform of the real part, the Q ring, so
    the data sidebands land predominantly on ``modulator.sideband``; the
    carrier is partially retained per the ring bias points.  Both parts
    scale by the gain that takes the real part's peak to the record's
    depth, and the rings share the record's tone window.  The 50/50
    split/combine carries the inherent 3 dB loss of single-output IQ
    recombination.
    """
    _check_grid(field, drive)
    x = drive.samples
    if drive.is_real() or not np.any(x.imag) and np.any(x.real):
        raise ConfigError("IQ drive must be analytic: a real part and its "
                          "Hilbert transform as the imaginary part")
    return _modulate(field, modulator, (x.real, x.imag))


# ---------------------------------------------------------------------------
# Subcarrier generation


def generate_subcarriers(field: ComplexWaveform,
                         generator: ClockGenerator) -> ComplexWaveform:
    """Drive a ring with a sinusoidal clock to split a tone into +/-f_s lines.

    The target tone must lie within one linewidth of the ring's biased
    resonance.  Biased at the through-port null (critically coupled ring
    tuned onto the tone) the carrier is suppressed and the clock harmonics
    at +/-f_s dominate; an off-null bias retains part of the carrier.

    The output is built as a spectrum, with the clock on its nearest
    record bin: the field outside the record's tone window sees the ring's
    static response, and the window's line is replaced by the harmonic
    lines of :func:`subcarrier_lines`.
    """
    params = generator.ring
    if generator.clock_freq >= field.sample_rate / 2.0:
        raise ConfigError("clock frequency beyond Nyquist")
    # verify a tone is present near the biased resonance
    res, near = params.effective_resonance, max(params.fwhm, 1.0)
    if band_power(field, res - near, res + near) <= 1e-9 * field.power():
        raise SimulationError(
            "no tone found within one linewidth of the ring resonance"
        )
    out = _through_static_grid(params, field, 0.0)
    np.multiply(field.spectrum, out, out=out)
    for s in _tone(field, res, generator.window)[1]:
        out[s] = 0.0
    subcarrier_lines(field, generator, out, field.ref_freq)
    return field.copy_with(spectrum=out)


def subcarrier_lines(field: ComplexWaveform, generator: ClockGenerator,
                     out: np.ndarray, ref_freq: float) -> None:
    """Add to ``out`` the lines the generator's clock lifts from the line
    in ``field``'s tone window (none if it is empty): the line times each
    ``c_j`` of :func:`_harmonics` at its power-weighted frequency, moved by
    ``j`` clocks on the nearest record bin, where it lands in ``out``.
    ``out`` is the spectrum of a record of ``field``'s bin spacing whose
    bin 0 sits at ``ref_freq`` (``field``'s own for
    :func:`generate_subcarriers`), a whole number of bins off ``field``'s
    (the nearest, if not)."""
    window, _, _, f_tone = _tone(field, generator.ring.effective_resonance,
                                 generator.window)
    line = field.spectrum[np.arange(window.start, window.stop)]
    if line.any():
        n, fs = field.n, field.sample_rate
        shift = round((field.ref_freq - ref_freq) * n / fs)
        _land(out, line * (out.size / n), window.start + shift,
              round(generator.clock_freq * n / fs),
              _harmonics(generator.ring, f_tone, generator.clock_volt))


def undriven_generator(field: ComplexWaveform, generator: ClockGenerator,
                       source: ComplexWaveform | None) -> ComplexWaveform:
    """The field through a clock generator's ring at rest, plus the lines
    its clock lifts from its own input ``source``, held in another record
    (:func:`subcarrier_lines`; none if ``source`` is None)."""
    out = _through_static_grid(generator.ring, field, 0.0)
    out *= field.spectrum
    if source is not None:
        subcarrier_lines(source, generator, out, field.ref_freq)
    return field.copy_with(spectrum=out)


# ---------------------------------------------------------------------------
# Higher-order drop filter


def _drop_pair(freqs: np.ndarray, center: float, bandwidth: float,
               order: int):
    """Drop and through magnitudes, in double, at ``freqs`` (written over)."""
    u = freqs
    u -= center
    u *= 2.0
    u /= bandwidth
    # u^(2 order) by multiplies (a libm pow per bin costs tenfold), in two
    # whole-grid buffers; |H_thru|^2 = u^(2 order) |H_drop|^2 needs no
    # cancelling 1 - |H_drop|^2
    u2 = np.multiply(u, u, out=u)
    power = u2
    if order > 1:
        power = u2 * u2
        for _ in range(order - 2):
            power *= u2
    mag2 = u2 if order > 1 else np.empty_like(u2)
    np.add(power, 1.0, out=mag2)
    np.divide(1.0, mag2, out=mag2)
    h_thru = np.sqrt(np.multiply(power, mag2, out=power), out=power)
    h_drop = np.sqrt(mag2, out=mag2)
    return h_drop, h_thru


def drop_filter(field: ComplexWaveform, center: float, bandwidth: float,
                order: int = 2):
    """Maximally-flat bandpass drop with a complementary through port.

    Returns (dropped, through).  |H_drop|^2 + |H_thru|^2 = 1 at every
    frequency, so the pair is exactly passive.
    """
    if order < 1:
        raise ConfigError("filter order must be >= 1")
    if bandwidth <= 0:
        raise ConfigError("filter bandwidth must be > 0")
    if abs(center - field.ref_freq) + bandwidth / 2.0 > field.sample_rate / 2.0:
        raise ConfigError(
            f"drop band at {center/1e12:.4f} THz falls outside the simulated "
            f"bandwidth"
        )
    spec = field.spectrum
    return tuple(field.copy_with(spectrum=np.multiply(spec, h,
                                                      dtype=spec.dtype))
                 for h in _drop_pair(field.abs_freqs(), center, bandwidth,
                                     int(order)))

