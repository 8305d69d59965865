"""Fiber, amplifier, and photodetector tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oansim.channel import (GROUP_DELAY_US_PER_KM, FiberParams, PdParams,
                            amplify_ase, dc_block, dispersion_phase,
                            photodetect, propagate_fiber)
from oansim.errors import ConfigError
from oansim.waveform import ComplexWaveform, band_power
from waves import power_dbm

F0 = 193.4e12
FS = 64e9
H = 6.62607015e-34
Q = 1.602176634e-19


def carrier(power_w=1e-3, n=65536, fs=FS, ref=F0):
    return ComplexWaveform(np.full(n, np.sqrt(power_w), dtype=np.complex128),
                           fs, ref_freq=ref)


def noise_field(power_w=1e-3, n=65536, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    x *= np.sqrt(power_w / np.mean(np.abs(x) ** 2))
    return ComplexWaveform(x, FS, ref_freq=F0)


# ---------------------------------------------------------------- fiber


def test_zero_length_identity():
    wf = noise_field()
    out = propagate_fiber(wf, FiberParams(0.0))
    assert np.array_equal(out.samples, wf.samples)


def test_loss_and_delay_book_keeping():
    wf = carrier()
    out = propagate_fiber(wf, FiberParams(20.0))
    assert power_dbm(wf) - power_dbm(out) == pytest.approx(4.0, abs=0.01)
    assert FiberParams(20.0).one_way_delay_us() == pytest.approx(
        20.0 * GROUP_DELAY_US_PER_KM)


def test_dispersion_is_all_pass():
    wf = noise_field()
    lossless = FiberParams(80.0, atten_db_per_km=0.0)
    out = propagate_fiber(wf, lossless)
    assert out.power() == pytest.approx(wf.power(), rel=1e-9)
    # per-bin magnitudes unchanged
    a = np.abs(np.fft.fft(wf.samples))
    b = np.abs(np.fft.fft(out.samples))
    assert np.max(np.abs(a - b)) < 1e-9 * np.max(a)


def test_dispersion_composition():
    wf = noise_field(n=16384)
    lossless = lambda km: FiberParams(km, atten_db_per_km=0.0)
    once = propagate_fiber(wf, lossless(25.0))
    twice = propagate_fiber(propagate_fiber(wf, lossless(10.0)), lossless(15.0))
    num = np.max(np.abs(once.samples))
    assert np.max(np.abs(once.samples - twice.samples)) < 1e-9 * num


def test_propagation_matches_the_fft_round_trip():
    wf = noise_field()
    fiber = FiberParams(20.0)
    h = np.exp(1j * dispersion_phase(fiber, np.fft.fftfreq(wf.n, 1 / FS)))
    want = np.fft.ifft(np.fft.fft(wf.samples) * h) \
        * 10.0 ** (-fiber.total_loss_db / 20.0)
    got = propagate_fiber(wf, fiber).samples
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_dispersion_phase_quadratic():
    fiber = FiberParams(20.0)
    f = np.array([0.0, 1e9, 2e9])
    ph = dispersion_phase(fiber, f)
    assert ph[0] == 0.0
    assert ph[2] == pytest.approx(4 * ph[1], rel=1e-9)


def test_negative_length_rejected():
    with pytest.raises(ConfigError):
        FiberParams(-1.0)


# ---------------------------------------------------------------- amplifier


def test_amplifier_gain_and_ase_floor():
    wf = carrier(power_w=1e-5)
    out = amplify_ase(wf, 20.0, 5.0, seed=1)
    sig = band_power(out, F0 - 1e8, F0 + 1e8)
    assert 10 * np.log10(sig / wf.power()) == pytest.approx(20.0, abs=0.1)
    # ASE PSD (both quadratures): (G-1) h nu NF
    g = 100.0
    nf = 10 ** 0.5
    expected_psd = (g - 1.0) * H * F0 * nf
    ase = band_power(out, F0 + 5e9, F0 + 20e9) / 15e9
    assert ase == pytest.approx(expected_psd, rel=0.15)


def test_amplifier_unit_gain_no_nf_is_identity():
    wf = carrier()
    out = amplify_ase(wf, 0.0, -300.0, seed=2)
    assert out.power() == pytest.approx(wf.power(), rel=1e-6)


def test_amplifier_seed_determinism():
    wf = carrier(n=4096)
    a = amplify_ase(wf, 10.0, 5.0, seed=9)
    b = amplify_ase(wf, 10.0, 5.0, seed=9)
    assert np.array_equal(a.samples, b.samples)


# ---------------------------------------------------------------- detector


def test_photodetect_dc_level():
    wf = carrier(power_w=1e-3)
    out = photodetect(wf, PdParams(responsivity=0.8))
    assert np.mean(out.samples.real) == pytest.approx(0.8e-3, rel=1e-9)
    assert out.ref_freq == 0.0


def test_photodetect_two_tone_beat():
    t = np.arange(65536) / FS
    p1, p2 = 1e-3, 0.25e-3
    x = np.sqrt(p1) + np.sqrt(p2) * np.exp(2j * np.pi * 5e9 * t)
    wf = ComplexWaveform(x, FS, ref_freq=F0)
    out = photodetect(wf, PdParams(responsivity=1.0))
    beat = band_power(out, 4.9e9, 5.1e9)
    # i(t) = R(p1 + p2 + 2 sqrt(p1 p2) cos); the positive-frequency band
    # holds half the cosine power: (2 R^2 p1 p2) / 2
    assert beat == pytest.approx(p1 * p2, rel=1e-2)


def test_photodetect_shot_noise_variance():
    wf = carrier(power_w=1e-3, n=262144)
    out = photodetect(wf, PdParams(responsivity=1.0, include_shot=True,
                                   seed=3))
    var = np.var(out.samples.real)
    expected = 2 * Q * 1e-3 * (FS / 2)
    assert var == pytest.approx(expected, rel=0.05)


def test_photodetect_thermal_noise_variance():
    wf = carrier(power_w=0.0, n=262144)
    psd = 1e-22
    out = photodetect(wf, PdParams(thermal_noise_psd=psd, seed=4))
    assert np.var(out.samples.real) == pytest.approx(psd * FS / 2, rel=0.05)


def test_photodetect_requires_optical_input():
    wf = ComplexWaveform(np.ones(64), FS, ref_freq=0.0)
    with pytest.raises(ConfigError):
        photodetect(wf, PdParams())


def test_dc_block_removes_mean():
    wf = photodetect(carrier(), PdParams())
    out = dc_block(wf)
    assert abs(np.mean(out.samples)) < 1e-15


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_photodetect_seed_determinism(seed):
    wf = carrier(n=4096)
    pd = PdParams(responsivity=1.0, thermal_noise_psd=1e-22,
                  include_shot=True, seed=seed)
    a = photodetect(wf, pd)
    b = photodetect(wf, pd)
    assert np.array_equal(a.samples, b.samples)
