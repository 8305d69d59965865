"""Complex-baseband waveform container and spectral helpers.

A :class:`ComplexWaveform` carries both electrical and optical signals.
Samples are complex amplitudes in sqrt(W), so ``|s|**2`` is instantaneous
power in W.  ``ref_freq`` is the absolute frequency of the complex-baseband
origin (0 for electrical signals).  A record is one burst on its own time
axis: bulk propagation delay is not carried.

A waveform holds its samples, their spectrum (the unnormalized DFT in
``scipy.fft`` bin order) or both.  The missing one is computed through
``scipy.fft`` on first read and kept, so linear stages multiply the
spectrum and the stages after them read it without a fresh transform.
Both arrays are read-only: a stage makes a new waveform through
``copy_with(samples=...)`` or ``copy_with(spectrum=...)``, which drops the
other, now stale, representation.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from functools import lru_cache

from scipy import fft as fftpack
from scipy import signal as sig

from .errors import ConfigError


@lru_cache(maxsize=32)
def _cached_fftfreq(n: int, dt: float) -> np.ndarray:
    f = np.fft.fftfreq(n, dt)
    f.setflags(write=False)
    return f


def _tone_phasor(freq: float, n: int, dt: float) -> np.ndarray:
    """exp(2j*pi*freq*t) on the sample grid.

    When freq*dt is a small-denominator rational — true for every carrier,
    IF, and channel offset on the grids used here — one period is evaluated
    and tiled, which is ~20x cheaper than the full-length exponential.  The
    tiling phase error is bounded by 2*pi*1e-12*(freq*n*dt) radians.
    """
    if freq == 0.0:
        return np.ones(n, dtype=np.complex128)
    cyc = freq * dt
    frac = Fraction(cyc).limit_denominator(8192)
    p = frac.denominator
    if p < n and abs(float(frac) - cyc) <= 1e-12 * abs(cyc):
        base = np.exp(2j * np.pi * freq * np.arange(p) * dt)
        return np.tile(base, n // p + 1)[:n]
    return np.exp(2j * np.pi * freq * np.arange(n) * dt)


def _read_only(values) -> np.ndarray:
    a = np.asarray(values, dtype=np.complex128).view()
    a.flags.writeable = False
    return a


class ComplexWaveform:
    """A signal on a uniform grid, as samples, spectrum or both.

    Give ``samples``, ``spectrum`` or both; when both are given they must
    be each other's transform.  The arrays are held, not copied, so the
    caller must not write to them afterwards.
    """

    def __init__(self, samples, sample_rate: float, ref_freq: float = 0.0,
                 spectrum=None):
        if samples is None and spectrum is None:
            raise ConfigError("waveform needs samples or a spectrum")
        self._samples = None if samples is None else _read_only(samples)
        self._spectrum = None if spectrum is None else _read_only(spectrum)
        self.sample_rate = sample_rate
        self.ref_freq = ref_freq
        if self.sample_rate <= 0:
            raise ConfigError("sample_rate must be > 0")
        if self.n == 0:
            raise ConfigError("waveform must contain at least one sample")

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            self._samples = _read_only(fftpack.ifft(self._spectrum))
        return self._samples

    @property
    def spectrum(self) -> np.ndarray:
        """DFT of the samples, unnormalized, in ``scipy.fft`` bin order."""
        if self._spectrum is None:
            self._spectrum = _read_only(fftpack.fft(self._samples))
        return self._spectrum

    @property
    def n(self) -> int:
        return (self._spectrum if self._samples is None else self._samples).size

    def times(self) -> np.ndarray:
        return np.arange(self.n) * (1.0 / self.sample_rate)

    def baseband_freqs(self) -> np.ndarray:
        return _cached_fftfreq(self.n, 1.0 / self.sample_rate)

    def abs_freqs(self) -> np.ndarray:
        return self.baseband_freqs() + self.ref_freq

    def power(self) -> float:
        """Mean power in W (by Parseval when only the spectrum is held)."""
        if self._samples is None:
            return float(np.sum(np.abs(self._spectrum) ** 2) / self.n**2)
        return float(np.mean(np.abs(self._samples) ** 2))

    def power_dbm(self) -> float:
        return 10.0 * np.log10(self.power() * 1e3)

    def energy(self) -> float:
        """Total energy in J: sum |s|^2 / sample_rate."""
        return float(np.sum(np.abs(self.samples) ** 2) / self.sample_rate)

    def is_real(self, tol: float = 1e-9) -> bool:
        scale = np.max(np.abs(self.samples)) or 1.0
        return bool(np.max(np.abs(self.samples.imag)) <= tol * scale)

    def copy_with(self, samples=None, spectrum=None,
                  **attrs) -> ComplexWaveform:
        """A copy with new content or attributes.

        New ``samples`` or a new ``spectrum`` replace both representations;
        without either the copy shares this waveform's arrays.
        """
        if samples is None and spectrum is None:
            samples, spectrum = self._samples, self._spectrum
        kwargs = {"sample_rate": self.sample_rate, "ref_freq": self.ref_freq,
                  **attrs}
        return ComplexWaveform(samples, spectrum=spectrum, **kwargs)

    def scaled(self, gain: float) -> ComplexWaveform:
        """This waveform times ``gain``, in each representation it holds."""
        return self.copy_with(
            samples=None if self._samples is None else self._samples * gain,
            spectrum=None if self._spectrum is None else self._spectrum * gain)


def psd(wf: ComplexWaveform):
    """Two-sided periodogram PSD, |X|^2 / (sample_rate n).

    Returns (freqs, psd) with freqs absolute (ref_freq added) and psd in
    W/Hz, both sorted by frequency.
    """
    p = np.abs(wf.spectrum) ** 2 / (wf.sample_rate * wf.n)
    return (np.fft.fftshift(wf.baseband_freqs()) + wf.ref_freq,
            np.fft.fftshift(p))


def band_power(wf: ComplexWaveform, f_lo: float, f_hi: float) -> float:
    """Mean power (W) contained in [f_lo, f_hi], absolute frequencies."""
    f = wf.abs_freqs()
    mask = (f >= f_lo) & (f <= f_hi)
    return float(np.sum(np.abs(wf.spectrum[mask]) ** 2) / wf.n**2)


def scale_db(wf: ComplexWaveform, gain_db: float) -> ComplexWaveform:
    return wf.scaled(10.0 ** (gain_db / 20.0))


def set_power_dbm(wf: ComplexWaveform, target_dbm: float) -> ComplexWaveform:
    return scale_db(wf, target_dbm - wf.power_dbm())


def resample_to(wf: ComplexWaveform, new_rate: float) -> ComplexWaveform:
    """Polyphase resampling to a new sample rate (rational ratio)."""
    if new_rate == wf.sample_rate:
        return wf.copy_with()
    frac = Fraction(new_rate / wf.sample_rate).limit_denominator(1_000_000)
    out = sig.resample_poly(wf.samples, frac.numerator, frac.denominator)
    return wf.copy_with(samples=out, sample_rate=new_rate)


def crop_to_band(wf: ComplexWaveform, f_lo: float,
                 f_hi: float) -> ComplexWaveform:
    """The content of [f_lo, f_hi] (absolute Hz) at a power-of-two fraction
    of the rate.

    The rate falls to ``sample_rate / d``, with ``d`` the largest power of
    two that divides the record length and whose window of
    ``sample_rate / (2 d)``, centred on the bin nearest the band's middle,
    holds the band.  That bin's frequency becomes the new ``ref_freq``.
    The window's bins, scaled by 1/d so that the samples keep their
    amplitude, fill the middle half of the shorter record's band; the
    empty outer half leaves room for a square law, which doubles the
    span, not to alias.  Without such a ``d`` of at least 2 the waveform
    is returned as it is.
    """
    n, df = wf.n, wf.sample_rate / wf.n
    k0 = int(round(((f_lo + f_hi) / 2.0 - wf.ref_freq) / df))

    def holds(d: int) -> bool:
        w = n // (2 * d)
        first = wf.ref_freq + (k0 - w // 2) * df
        return first <= f_lo and f_hi <= first + (w - 1) * df

    d = 1
    while n % (2 * d) == 0 and holds(2 * d):
        d *= 2
    if d == 1:
        return wf.copy_with()
    m = n // d
    offsets = np.arange(-(m // 4), m // 2 - m // 4)
    spec = np.zeros(m, dtype=np.complex128)
    spec[offsets % m] = wf.spectrum[(k0 + offsets) % n] * (1.0 / d)
    return wf.copy_with(spectrum=spec, sample_rate=wf.sample_rate / d,
                        ref_freq=wf.ref_freq + k0 * df)


def upconvert_real(wf: ComplexWaveform, f_rf: float,
                   half_bw: float) -> ComplexWaveform:
    """Mix a complex baseband signal onto a real RF carrier at f_rf.

    Output is a real-valued passband signal centered at f_rf with the
    input power preserved (sqrt(2) carrier convention).  ``half_bw`` is
    the occupied half-bandwidth, which must stay below Nyquist once
    mixed up.  ``f_rf == 0`` is the degenerate no-op case and returns the
    input unchanged.
    """
    if f_rf == 0.0:
        return wf.copy_with()
    if f_rf + half_bw >= wf.sample_rate / 2:
        raise ConfigError(
            f"upconversion to {f_rf/1e9:.3f} GHz aliases: need f_rf + bw/2 "
            f"< sample_rate/2 = {wf.sample_rate/2e9:.3f} GHz"
        )
    rot = _tone_phasor(f_rf, wf.n, 1.0 / wf.sample_rate)
    out = np.sqrt(2.0) * np.real(wf.samples * rot)
    return wf.copy_with(samples=out.astype(np.complex128))


def downconvert(wf: ComplexWaveform, f_rf: float) -> ComplexWaveform:
    """Digitally downconvert a real passband signal from f_rf to baseband.

    Inverse of :func:`upconvert_real` up to the low-pass filtering done by
    a subsequent resample.
    """
    rot = _tone_phasor(-f_rf, wf.n, 1.0 / wf.sample_rate)
    return wf.copy_with(samples=np.sqrt(2.0) * wf.samples * rot)


def combine(waveforms: list[ComplexWaveform]) -> ComplexWaveform:
    """Sum waveforms sharing the same grid (rate, ref_freq, length)."""
    first = waveforms[0]
    acc = np.zeros(first.n, dtype=np.complex128)
    for wf in waveforms:
        if wf.sample_rate != first.sample_rate or wf.ref_freq != first.ref_freq:
            raise ConfigError("combine: waveform grids differ")
        if wf.n != first.n:
            raise ConfigError("combine: waveform lengths differ")
        acc += wf.samples
    return first.copy_with(samples=acc)


def pad_to(wf: ComplexWaveform, n: int, lead: int = 0) -> ComplexWaveform:
    """``wf`` after ``lead`` zeros, cut or zero-padded to ``n`` samples."""
    if lead == 0 and wf.n >= n:
        return wf.copy_with(samples=wf.samples[:n] if wf.n > n else None)
    out = np.zeros(n, dtype=np.complex128)
    out[lead:lead + wf.n] = wf.samples[:max(n - lead, 0)]
    return wf.copy_with(samples=out)
