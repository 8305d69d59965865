"""Fiber propagation, amplification, and photodetection.

Each function keeps its field's precision, taking phases and noise in double.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.constants import c as C_LIGHT
from scipy.constants import e as Q_ELECTRON
from scipy.constants import h as H_PLANCK

from .errors import ConfigError
from .waveform import ComplexWaveform, _phasor

#: One-way group delay used throughout (100 km round trip = 1 ms).
GROUP_DELAY_US_PER_KM = 5.0
#: The wavelength the dispersion coefficient is quoted at.
REF_WAVELENGTH_NM = 1550.0


@dataclass(frozen=True)
class FiberParams:
    length_km: float
    atten_db_per_km: float = 0.2
    dispersion_ps_nm_km: float = 17.0

    def __post_init__(self):
        if self.length_km < 0:
            raise ConfigError("fiber length must be >= 0")
        if self.atten_db_per_km < 0:
            raise ConfigError("fiber attenuation must be >= 0")

    @property
    def total_loss_db(self) -> float:
        return self.atten_db_per_km * self.length_km

    def one_way_delay_us(self) -> float:
        return GROUP_DELAY_US_PER_KM * self.length_km


@dataclass(frozen=True)
class PdParams:
    responsivity: float = 1.0        # A/W
    thermal_noise_psd: float = 0.0   # A^2/Hz, single-sided
    include_shot: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.responsivity <= 0:
            raise ConfigError("responsivity must be > 0")


def dispersion_phase(fiber: FiberParams, freq_offsets: np.ndarray) -> np.ndarray:
    """All-pass quadratic phase of chromatic dispersion around the carrier."""
    lam = REF_WAVELENGTH_NM * 1e-9
    d = fiber.dispersion_ps_nm_km * 1e-6  # s/m^2
    length = fiber.length_km * 1e3
    return -np.pi * lam**2 * d * length * freq_offsets**2 / C_LIGHT


def propagate_fiber(field: ComplexWaveform, params: FiberParams,
                    centre: float | None = None) -> ComplexWaveform:
    """Apply loss and chromatic dispersion.

    The dispersion phase is taken about the absolute frequency ``centre``
    (the field's ``ref_freq`` by default), so that a slot record centred on
    its channel sees the phase, and the walk-off, that the plan's centre
    gives it.  The operator is exactly all-pass (|H| = 1), so relative
    intra-band delay is fully captured in the phase.  The bulk group delay
    is left out; :meth:`FiberParams.one_way_delay_us` gives it to the
    latency budget.
    """
    if params.length_km == 0:
        return field.copy_with()
    amp = 10.0 ** (-params.total_loss_db / 20.0)
    offset = 0.0 if centre is None else field.ref_freq - centre
    phase = dispersion_phase(params, field.baseband_freqs() + offset)
    h = _phasor(phase / (2.0 * np.pi), field.spectrum.dtype)
    h *= amp
    h *= field.spectrum
    return field.copy_with(spectrum=h)


def amplify_ase(field: ComplexWaveform, gain_db: float, nf_db: float,
                seed=0) -> ComplexWaveform:
    """Flat-gain optical amplifier with seeded ASE noise.

    ASE power spectral density is (G-1) h nu NF / 2 per quadrature, added
    over the record's bandwidth.  It is drawn as a spectrum: each bin's
    quadratures are Gaussian with variance ``n sigma^2``, the distribution
    of the DFT of white noise of variance ``sigma^2`` per sample
    quadrature.  ``seed`` is anything ``numpy.random.default_rng`` takes.
    """
    if gain_db < 0:
        raise ConfigError("amplifier gain must be >= 0 dB")
    g = 10.0 ** (gain_db / 10.0)
    nf = 10.0 ** (nf_db / 10.0)
    nu = field.ref_freq if field.ref_freq > 0 else C_LIGHT / 1550e-9
    psd_per_quad = (g - 1.0) * H_PLANCK * nu * nf / 2.0
    scale = np.sqrt(psd_per_quad * field.sample_rate * field.n)
    rng = np.random.default_rng(seed)
    # each row one bin's two quadratures
    noise = rng.normal(scale=scale, size=(field.n, 2))
    noise = noise.view(np.complex128)[:, 0].astype(field.spectrum.dtype)
    noise += field.spectrum * float(np.sqrt(g))
    return field.copy_with(spectrum=noise)


def photodetect(field: ComplexWaveform, params: PdParams) -> ComplexWaveform:
    """Square-law detection: i(t) = R |E(t)|^2 plus shot and thermal noise.

    Output is a real electrical waveform at the same sample rate.  The
    noise bandwidth is sample_rate / 2, so it follows the rate at which a
    receiver detects while the shot and thermal noise densities stay the
    same.
    """
    if field.ref_freq <= 0:
        raise ConfigError("photodetect expects an optical field (ref_freq > 0)")
    rng = np.random.default_rng(params.seed)
    current = params.responsivity * np.abs(field.samples) ** 2
    bandwidth, real = field.sample_rate / 2.0, current.dtype
    if params.include_shot:
        var = 2.0 * Q_ELECTRON * np.maximum(current, 0.0) * bandwidth
        current += np.sqrt(var) * rng.normal(size=field.n).astype(real)
    if params.thermal_noise_psd > 0:
        sigma = np.sqrt(params.thermal_noise_psd * bandwidth)
        current += rng.normal(scale=sigma, size=field.n).astype(real)
    return ComplexWaveform(current, field.sample_rate)


def dc_block(wf: ComplexWaveform) -> ComplexWaveform:
    """Remove the mean photocurrent, as a bias-tee-coupled receiver does.

    The average term of a direct-detected field is a strong spectral line
    that would otherwise leak into nearby subcarriers after digital
    downconversion.
    """
    return wf.copy_with(samples=wf.samples - np.mean(wf.samples))
