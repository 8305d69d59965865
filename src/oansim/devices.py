"""Behavioral models of the silicon-photonic building blocks.

Microrings are modeled by the standard all-pass/add-drop transfer
functions.  Modulation is quasi-static: the electrical drive shifts the
resonance linearly and the field sees the instantaneous through response.
Cavity-lifetime dynamics are out of scope.

Modulation follows the exact limit of a short-block evaluation when the
near-resonance content is a single spectral line: the line is multiplied
by the per-sample instantaneous response while the off-resonance
remainder sees the static bias-point response.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np
from scipy import fft as fftpack

from .errors import ConfigError, SimulationError
from .forkjoin import fork
from .waveform import ComplexWaveform, _cached_fftfreq, _tone_phasor

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
class IqMrmConfig:
    ring: RingParams               # the same ring in both branches
    branch_phase: float = np.pi / 2
    sideband: str = "upper"

    def __post_init__(self):
        if self.sideband not in ("upper", "lower"):
            raise ConfigError("sideband must be 'upper' or 'lower'")


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


def _through_detuned(params: RingParams, freq, detune):
    """Through response at frequency ``freq`` with an extra resonance shift."""
    phi = 2.0 * np.pi * (freq - params.effective_resonance
                         - np.asarray(detune)) / params.fsr
    if phi.ndim and phi.size > 4096 and np.ptp(phi) < 0.05:
        # small-angle fast path: third-order expansion around the mean
        # phase (error < ptp^4/384 ~ 2e-8), twice as fast as the full exp;
        # in place where a buffer is dead, in the same operations and order
        phi0 = float(np.mean(phi))
        d = np.subtract(phi, phi0, out=phi)
        d2 = d * d
        re = 1.0 - 0.5 * d2
        im = np.multiply(d2, d, out=d2)
        im = np.subtract(d, np.divide(im, 6.0, out=im), out=im)
        e = re + 1j * im
        del phi, d, d2, re, im
        np.multiply(np.exp(1j * phi0), e, out=e)
    else:
        e = np.exp(1j * phi)
    return _through_from_phasor(params, e)


def _through_from_phasor(params: RingParams, e: np.ndarray) -> np.ndarray:
    """Through response (t1 - t2 a e) / (1 - t1 t2 a e) for the round-trip
    phasor ``e``, written over ``e`` with one more whole-grid buffer."""
    t1 = params.self_coupling_t1
    t2 = params.self_coupling_t2
    a = params.roundtrip_amplitude_a
    num = np.multiply(t2 * a, e)
    np.subtract(t1, num, out=num)
    den = np.multiply(t1 * t2 * a, e, out=e)
    np.subtract(1.0, den, out=den)
    return np.divide(num, den, out=den)


@lru_cache(maxsize=16)
def _cached_unit_phasor(n: int, dt: float, ref: float, fsr: float):
    # whole FSRs off the reference leave the phasor as it is and would
    # only cost phase round-off
    f = _cached_fftfreq(n, dt) + ref % fsr
    e = np.exp(2j * np.pi * f / fsr)
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
                            field.ref_freq, params.fsr) \
        * np.exp(-2j * np.pi * shift / params.fsr)
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


def _static_filter(field: ComplexWaveform, params: RingParams,
                   detune: float) -> ComplexWaveform:
    h = _through_static_grid(params, field, detune)
    return field.copy_with(spectrum=np.multiply(field.spectrum, h, out=h))


def _apply_tone(field: ComplexWaveform, params: RingParams,
                detune: np.ndarray, window_hz: float) -> ComplexWaveform:
    spec = field.spectrum
    f_abs = field.abs_freqs()
    bias_detune = float(np.mean(detune))
    dist = np.subtract(f_abs, params.effective_resonance + bias_detune)
    mask = np.abs(dist, out=dist) <= window_hz
    del dist
    p_res = np.sum(np.abs(spec[mask]) ** 2)
    if p_res <= 1e-15 * np.sum(np.abs(spec) ** 2):
        # nothing resonant: purely static filtering
        return _static_filter(field, params, bias_detune)
    f_tone = float(np.sum(f_abs[mask] * np.abs(spec[mask]) ** 2) / p_res)
    # the resonant line sees the instantaneous response in time, the rest
    # the static response in frequency; each transform reuses its input
    x_res = fftpack.ifft(np.where(mask, spec, 0.0), overwrite_x=True)
    x_res *= _through_detuned(params, f_tone, detune)
    out = fftpack.fft(x_res, overwrite_x=True)
    off = _through_static_grid(params, field, bias_detune)
    np.multiply(spec, off, out=off)
    off[mask] = 0.0
    out += off
    return field.copy_with(spectrum=out)


def apply_mrm(field: ComplexWaveform, params: RingParams,
              drive: ComplexWaveform,
              tone_window_hz: float | None = None) -> ComplexWaveform:
    """Modulate an optical field with one microring modulator.

    The resonance is shifted by ``mod_efficiency * drive(t)`` and the field
    is filtered by the time-varying through response.  The drive must be a
    real electrical waveform on the same sample grid and of the same length.
    """
    if drive.sample_rate != field.sample_rate or drive.n != field.n:
        raise ConfigError(
            f"drive of {drive.n} samples at {drive.sample_rate:g} S/s does "
            f"not match the field's {field.n} at {field.sample_rate:g} S/s"
        )
    if not drive.is_real(tol=1e-6):
        raise ConfigError("MRM drive must be a real electrical waveform")
    detune = params.mod_efficiency * drive.samples.real

    if tone_window_hz is None:
        tone_window_hz = 3.0 * params.fwhm + float(np.ptp(detune)) / 2.0

    if np.ptp(detune) == 0.0:
        return _static_filter(field, params, float(detune[0]))

    return _apply_tone(field, params, detune, tone_window_hz)


# ---------------------------------------------------------------------------
# IQ single-sideband modulator


def hilbert_pair(drive: ComplexWaveform) -> ComplexWaveform:
    """Hilbert transform of a real drive (the quadrature branch for SSB)."""
    from scipy.signal import hilbert

    analytic = hilbert(drive.samples.real)
    return drive.copy_with(samples=np.imag(analytic).astype(np.complex128))


def iq_mrm_ssb(field: ComplexWaveform, config: IqMrmConfig,
               drive: ComplexWaveform,
               tone_window_hz: float | None = None) -> ComplexWaveform:
    """Two-branch microring IQ modulator with interferometric combining.

    The I ring is driven by the real ``drive`` and the Q ring by its
    Hilbert pair, formed in the Q branch, so the data sidebands land
    predominantly on ``config.sideband``; the carrier is partially retained
    per the ring bias points.  The 50/50 split/combine carries the inherent
    3 dB loss of single-output IQ recombination.
    """
    phase = config.branch_phase
    if config.sideband == "lower":
        phase = -phase
    # both arms read the field's spectrum and frequency grid: fill them once
    field.spectrum, field.baseband_freqs()
    arm = partial(apply_mrm, field, tone_window_hz=tone_window_hz)
    out_i, out_q = fork(partial(arm, config.ring, drive),
                        lambda: arm(config.ring, hilbert_pair(drive)))
    return field.copy_with(spectrum=0.5 * (
        out_i.spectrum + np.exp(1j * phase) * out_q.spectrum))


# ---------------------------------------------------------------------------
# Subcarrier generation


def generate_subcarriers(field: ComplexWaveform, params: RingParams,
                         clock_freq: float, clock_amplitude_volt: float = 1.0,
                         tone_window_hz: float | None = None) -> ComplexWaveform:
    """Drive a ring with a sinusoidal clock to split a tone into +/-f_s lines.

    The target tone must lie within one linewidth of the ring's biased
    resonance.  Biased at the through-port null (critically coupled ring
    tuned onto the tone) the carrier is suppressed and the clock harmonics
    at +/-f_s dominate; an off-null bias retains part of the carrier.
    """
    if clock_freq >= field.sample_rate / 2.0:
        raise ConfigError("clock frequency beyond Nyquist")
    # verify a tone is present near the biased resonance
    spec2 = np.abs(field.spectrum) ** 2
    f_abs = field.abs_freqs()
    near = np.abs(f_abs - params.effective_resonance) <= max(params.fwhm, 1.0)
    if not np.any(near) or np.sum(spec2[near]) < 1e-9 * np.sum(spec2):
        raise SimulationError(
            "no tone found within one linewidth of the ring resonance"
        )
    tone = _tone_phasor(clock_freq, field.n, 1.0 / field.sample_rate)
    drive = field.copy_with(
        samples=(clock_amplitude_volt * np.real(tone)).astype(np.complex128),
        ref_freq=0.0,
    )
    if tone_window_hz is None:
        tone_window_hz = max(3.0 * params.fwhm, 0.4 * clock_freq)
    return apply_mrm(field, params, drive, tone_window_hz=tone_window_hz)


# ---------------------------------------------------------------------------
# Higher-order drop filter


def _drop_pair(field: ComplexWaveform, center: float, bandwidth: float,
               order: int):
    """Drop and through magnitude responses on a waveform's grid."""
    u = field.abs_freqs()
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
    h_drop, h_thru = _drop_pair(field, center, bandwidth, int(order))
    spec = field.spectrum
    return (field.copy_with(spectrum=spec * h_drop),
            field.copy_with(spectrum=spec * h_thru))

