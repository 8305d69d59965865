"""Complex-baseband waveform container and spectral helpers.

A :class:`ComplexWaveform` carries both electrical and optical signals.
Samples are complex amplitudes in sqrt(W), so ``|s|**2`` is instantaneous
power in W.  ``ref_freq`` is the absolute frequency of the complex-baseband
origin (0 for electrical signals).  A record is one burst on its own time
axis: bulk propagation delay is not carried.  Real signals (drives,
clocks, photocurrents) are held as real samples and stay real.

A waveform keeps its precision: complex64 and float32 stay single, all
else is held as complex128 or float64.  A burst's fields and photocurrents
are single, its drives and modem double; phases, absolute frequencies and
powers are computed in double whatever the precision.

A waveform holds its samples, their spectrum (the unnormalized DFT in
``scipy.fft`` bin order) or both.  The missing one is computed through
``scipy.fft`` on first read and kept, so linear stages multiply the
spectrum and the stages after them read it without a fresh transform.
Both arrays are read-only: a stage makes a new waveform through
``copy_with(samples=...)`` or ``copy_with(spectrum=...)``, which drops the
other, now stale, representation.

Nothing is resampled: modem bin ``j`` of a signal at its IF is record
bin ``k_IF + j`` (:func:`if_spectrum`, :func:`from_if`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache

import numpy as np
from scipy import fft as fftpack

from .errors import ConfigError


@lru_cache(maxsize=32)
def _cached_fftfreq(n: int, dt: float) -> np.ndarray:
    f = np.fft.fftfreq(n, dt)
    f.setflags(write=False)
    return f


def _read_only(values) -> np.ndarray:
    a = np.asarray(values).view()
    if a.dtype not in (np.float32, np.complex64):
        a = np.asarray(a, np.complex128 if np.iscomplexobj(a) else np.float64)
    a.flags.writeable = False
    return a


def _powers(x) -> np.ndarray:
    """``|x|^2`` in double, whatever the precision of ``x``: a square in
    single precision loses its low digits, and underflows below 1e-38."""
    return np.abs(np.asarray(x, np.promote_types(x.dtype, np.float64))) ** 2


def _phasor(turns: np.ndarray, dtype) -> np.ndarray:
    """``exp(2 pi i turns)`` as ``dtype``: whole turns taken off in double,
    then the cosine and sine in the precision of ``dtype``."""
    rest = (turns - np.rint(turns)) * (2.0 * np.pi)
    phase = rest.astype(np.finfo(dtype).dtype, copy=False)
    e = np.empty(phase.shape, dtype)
    np.cos(phase, out=e.real)
    np.sin(phase, out=e.imag)
    return e


class ComplexWaveform:
    """A signal on a uniform grid, as samples, spectrum or both.

    Give ``samples``, ``spectrum`` or both; when both are given they must
    be each other's transform.  The arrays are held, not copied, so the
    caller must not write to them afterwards.  Single-precision arrays
    stay single, others are held in double, and the transforms keep it.
    """

    def __init__(self, samples, sample_rate: float, ref_freq: float = 0.0,
                 spectrum=None):
        if samples is None and spectrum is None:
            raise ConfigError("waveform needs samples or a spectrum")
        self._samples = None if samples is None else _read_only(samples)
        self._spectrum = None if spectrum is None else _read_only(spectrum)
        self.sample_rate = sample_rate
        self.ref_freq = ref_freq
        self._power = None
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

    def baseband_freqs(self) -> np.ndarray:
        return _cached_fftfreq(self.n, 1.0 / self.sample_rate)

    def abs_freqs(self) -> np.ndarray:
        return self.baseband_freqs() + self.ref_freq

    def power(self) -> float:
        """Mean power in W (by Parseval when only the spectrum is held),
        summed once per waveform."""
        if self._power is None:
            self._power = float(
                np.sum(_powers(self._spectrum)) / self.n**2
                if self._samples is None
                else np.mean(_powers(self._samples)))
        return self._power

    def is_real(self) -> bool:
        """Whether the samples are held as real numbers."""
        return not np.iscomplexobj(self.samples)

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
    p = _powers(wf.spectrum) / (wf.sample_rate * wf.n)
    return (np.fft.fftshift(wf.baseband_freqs()) + wf.ref_freq,
            np.fft.fftshift(p))


def _bins(wf: ComplexWaveform, f_lo: float, f_hi: float) -> range:
    """The signed bins ``k`` (spectrum index ``k % n``) whose absolute
    frequency, as :meth:`ComplexWaveform.abs_freqs` computes it, lies in
    [f_lo, f_hi]: a band is one contiguous range of them."""
    step = 1.0 / (wf.n * (1.0 / wf.sample_rate))  # np.fft.fftfreq's spacing
    bins = range(-(wf.n // 2), (wf.n + 1) // 2)

    def freq(k):
        return k * step + wf.ref_freq

    lo = bisect_left(bins, f_lo, key=freq)
    return bins[lo:max(lo, bisect_right(bins, f_hi, key=freq))]


def _spans(bins: range, n: int) -> list:
    """Slices of a spectrum of ``n`` bins that hold the signed ``bins``, in
    ascending index order, as a boolean mask would take them."""
    if bins.start >= 0 or bins.stop <= 0:
        return [slice(bins.start % n, bins.start % n + len(bins))]
    return [slice(0, bins.stop), slice(bins.start + n, n)]


def _band(wf: ComplexWaveform, f_lo: float, f_hi: float) -> tuple:
    """The signed bins in [f_lo, f_hi] (absolute Hz), their spectrum's
    slices, their powers ``|X_k|^2`` in double and baseband frequencies."""
    window = _bins(wf, f_lo, f_hi)
    spans = _spans(window, wf.n)
    return (window, spans,
            _powers(np.concatenate([wf.spectrum[s] for s in spans])),
            np.concatenate([wf.baseband_freqs()[s] for s in spans]))


def band_power(wf: ComplexWaveform, f_lo: float, f_hi: float) -> float:
    """Mean power (W) contained in [f_lo, f_hi], absolute frequencies."""
    return float(np.sum(_band(wf, f_lo, f_hi)[2]) / wf.n**2)


def scale_db(wf: ComplexWaveform, gain_db: float) -> ComplexWaveform:
    # a Python float keeps a single-precision waveform single (NEP 50)
    return wf.scaled(float(10.0 ** (gain_db / 20.0)))


def _division(n: int, df: float, k0: int, f_lo: float, f_hi: float,
              fill: int) -> int:
    """The largest power of two ``d`` dividing ``n`` whose window of
    ``n / (fill d)`` bins of ``df``, centred on bin ``k0``, holds [f_lo,
    f_hi] (Hz from bin 0); 0 when none does."""
    def holds(d: int) -> bool:
        w = n // (fill * d)
        first = k0 - w // 2
        return first * df <= f_lo and f_hi <= (first + w - 1) * df

    if not holds(1):
        return 0
    d = 1
    while n % (2 * d) == 0 and holds(2 * d):
        d *= 2
    return d


def _runs(bins: range, n: int, m: int, shift: int):
    """Slice pairs that take each signed bin ``k`` of ``bins`` to index
    ``k % n`` of one spectrum and ``(k - shift) % m`` of another."""
    k = bins.start
    while k < bins.stop:
        i, j = k % n, (k - shift) % m
        size = min(bins.stop - k, n - i, m - j)
        yield slice(i, i + size), slice(j, j + size)
        k += size


def crop_window(n: int, sample_rate: float, ref_freq: float, f_lo: float,
                f_hi: float):
    """``(d, k0, lo, hi)`` of :func:`crop_to_band` on a record of ``n``
    samples: ``k0`` the signed bin nearest the band's middle, ``d`` the
    division of :func:`_division` whose half window, ``w = n / (2 d)``
    bins centred on ``k0``, holds [f_lo, f_hi], and [lo, hi] the absolute
    frequencies of the window's first and last bins; None when even half
    the record does not hold the band."""
    df = sample_rate / n
    k0 = int(round(((f_lo + f_hi) / 2.0 - ref_freq) / df))
    d = _division(n, df, k0, f_lo - ref_freq, f_hi - ref_freq, 2)
    if not d:
        return None
    w = n // (2 * d)
    lo = ref_freq + (k0 - w // 2) * sample_rate / n
    return d, k0, lo, lo + (w - 1) * sample_rate / n


def crop_to_band(wf: ComplexWaveform, f_lo: float,
                 f_hi: float) -> ComplexWaveform:
    """The content of [f_lo, f_hi] (absolute Hz) at a power-of-two fraction
    of the rate.

    The rate falls to ``sample_rate / d`` (:func:`crop_window`).  The bin
    nearest the band's middle becomes the new ``ref_freq``.  The window's
    ``n / (2 d)`` bins, scaled by 1/d so that the samples keep their
    amplitude, fill the middle half of the shorter record's band; the
    empty outer half leaves room for a square law, which doubles the
    span, not to alias.  When even half the record cannot hold the band
    the waveform is returned as it is.
    """
    found = crop_window(wf.n, wf.sample_rate, wf.ref_freq, f_lo, f_hi)
    if found is None:
        return wf.copy_with()
    (d, k0, _, _), n = found, wf.n
    m = n // d
    spec = np.zeros(m, dtype=wf.spectrum.dtype)
    for i, j in _runs(range(k0 - m // 4, k0 - m // 4 + m // 2), n, m, k0):
        np.multiply(wf.spectrum[i], 1.0 / d, out=spec[j])
    return wf.copy_with(spectrum=spec, sample_rate=wf.sample_rate / d,
                        ref_freq=wf.ref_freq + k0 * (wf.sample_rate / n))


def _if_bins(n: int, sample_rate: float, rate: float, if_freq: float):
    """The modem grid of ``L = round(n rate / sample_rate)`` samples of a
    signal at ``if_freq`` on a record of ``n`` samples, and the modem bins
    ``j`` it keeps with their record bins ``k_IF + j``: those above 0 Hz
    (``|j| < k_IF``) and below the record's Nyquist frequency."""
    length = int(round(n * rate / sample_rate))
    k_if = int(round(if_freq * n / sample_rate))
    j = np.arange(-(length // 2), (length + 1) // 2)
    j = j[(np.abs(j) < k_if) & (k_if + j < (n + 1) // 2)]
    return length, j, k_if + j


def if_spectrum(modem: ComplexWaveform, if_freq: float, n: int,
                sample_rate: float, lead: float = 0.0) -> np.ndarray:
    """``rfft`` bins of sqrt(2) Re(x(t) exp(2 pi i f_IF t)) on a record of
    ``n`` samples, x being the modem waveform on the bins of
    :func:`_if_bins`, delayed by ``lead`` samples through a phase ramp.
    Spectra of one record add; ``irfft`` makes their real signal and
    :func:`analytic` their analytic one."""
    length, j, k = _if_bins(n, sample_rate, modem.sample_rate, if_freq)
    if modem.n > length:
        raise ConfigError(f"{modem.n} modem samples overrun a record of {n}")
    half = np.zeros(n // 2 + 1, dtype=np.complex128)
    half[k] = fftpack.fft(modem.samples, length)[j] * (
        n / (np.sqrt(2.0) * length) * np.exp(-2j * np.pi * lead / n * k))
    return half


def analytic(half: np.ndarray, n: int, sample_rate: float) -> ComplexWaveform:
    """The analytic signal of ``irfft(half, n)`` (its imaginary part is the
    Hilbert transform of its real part), by one inverse transform; ``half``
    holds nothing at 0 Hz or at the Nyquist frequency."""
    spec = np.zeros(n, dtype=np.complex128)
    np.multiply(half, 2.0, out=spec[:half.size])
    return ComplexWaveform(fftpack.ifft(spec, overwrite_x=True), sample_rate)


def from_if(wf: ComplexWaveform, if_freq: float,
            rate: float) -> ComplexWaveform:
    """The modem waveform at ``rate`` that the real signal ``wf`` carries
    at ``if_freq``: the inverse of :func:`if_spectrum` on the grid of
    ``wf``, by one ``rfft`` and one inverse transform on the modem grid."""
    length, j, k = _if_bins(wf.n, wf.sample_rate, rate, if_freq)
    x = np.zeros(length, dtype=np.complex128)
    x[j] = fftpack.rfft(wf.samples)[k] * (np.sqrt(2.0) * length / wf.n)
    return ComplexWaveform(fftpack.ifft(x, overwrite_x=True), rate)
