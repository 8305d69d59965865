"""Waveform container and spectral-helper tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oansim.errors import ConfigError
from oansim.waveform import (ComplexWaveform, _tone_phasor, band_power,
                             combine, downconvert, pad_to, psd, resample_to,
                             scale_db, set_power_dbm, upconvert_real)

FS = 16e9


def tone(freq, n=4096, fs=FS, amp=1.0, ref=0.0):
    t = np.arange(n) / fs
    return ComplexWaveform(amp * np.exp(2j * np.pi * freq * t), fs, ref_freq=ref)


def test_power_and_energy_of_unit_tone():
    wf = tone(1e9, amp=1.0)
    assert wf.power() == pytest.approx(1.0, rel=1e-12)
    assert wf.power_dbm() == pytest.approx(30.0, abs=1e-9)
    assert wf.energy() == pytest.approx(wf.n / FS, rel=1e-12)


def test_empty_and_bad_rate_rejected():
    with pytest.raises(ConfigError):
        ComplexWaveform(np.array([]), FS)
    with pytest.raises(ConfigError):
        ComplexWaveform(np.ones(4), 0.0)


def test_tone_phasor_matches_direct_exponential():
    n, dt = 200_000, 1.0 / FS
    for freq in (0.0, 1e9, 2.5e9, -3.2e9, 1.234567e9):
        ref = np.exp(2j * np.pi * freq * np.arange(n) * dt)
        got = _tone_phasor(freq, n, dt)
        assert np.max(np.abs(got - ref)) < 1e-7


def test_band_power_parseval():
    wf = tone(1e9, amp=0.5)
    total = band_power(wf, -FS, FS, absolute=False)
    assert total == pytest.approx(wf.power(), rel=1e-9)
    inband = band_power(wf, 0.9e9, 1.1e9, absolute=False)
    assert inband == pytest.approx(wf.power(), rel=1e-6)


def test_psd_peak_at_tone_frequency():
    wf = tone(2e9, ref=193e12)
    f, p = psd(wf)
    assert f[np.argmax(p)] == pytest.approx(193e12 + 2e9, abs=FS / wf.n)


@given(st.floats(-30, 30))
@settings(max_examples=25, deadline=None)
def test_scale_db_roundtrip(g):
    wf = tone(1e9)
    assert scale_db(scale_db(wf, g), -g).power() == pytest.approx(
        wf.power(), rel=1e-9)


def test_set_power_dbm_exact():
    wf = set_power_dbm(tone(1e9, amp=0.1), -3.0)
    assert wf.power_dbm() == pytest.approx(-3.0, abs=1e-9)


def test_resample_identity_and_rate_change():
    wf = tone(1e9)
    same = resample_to(wf, FS)
    assert np.array_equal(same.samples, wf.samples)
    up = resample_to(wf, 2 * FS)
    assert up.sample_rate == 2 * FS
    assert up.n == 2 * wf.n
    assert up.power() == pytest.approx(wf.power(), rel=1e-2)


def test_upconvert_power_preserved_and_real():
    base = tone(0.2e9, amp=0.3)
    rf = upconvert_real(base, 3e9)
    assert rf.is_real(tol=1e-9)
    assert rf.power() == pytest.approx(base.power(), rel=1e-2)


def test_upconvert_zero_is_noop():
    base = tone(0.2e9)
    out = upconvert_real(base, 0.0)
    assert np.array_equal(out.samples, base.samples)


def test_upconvert_alias_guard():
    with pytest.raises(ConfigError):
        upconvert_real(tone(0.5e9), 7.9e9)


def test_up_down_conversion_roundtrip():
    rng = np.random.default_rng(0)
    x = (rng.normal(size=4096) + 1j * rng.normal(size=4096)) * 0.1
    base = ComplexWaveform(x, FS)
    # band-limit to +/-0.5 GHz first so the image is separable
    spec = np.fft.fft(base.samples)
    f = base.baseband_freqs()
    spec[np.abs(f) > 0.5e9] = 0.0
    base = base.copy_with(samples=np.fft.ifft(spec))
    rf = upconvert_real(base, 4e9)
    down = downconvert(rf, 4e9)
    # remove the residual image at -8 GHz
    spec = np.fft.fft(down.samples)
    spec[np.abs(f + 8e9) < 1e9] = 0.0
    spec[np.abs(f - 8e9) < 1e9] = 0.0
    rec = np.fft.ifft(spec)
    assert np.max(np.abs(rec - base.samples)) < 1e-6 * np.max(np.abs(base.samples)) + 1e-9


def test_downconvert_conjugate_flips_spectrum():
    # a lower-sideband tone (baseband -0.3 GHz) recovers at +0.3 GHz
    rf = upconvert_real(tone(-0.3e9), 4e9)
    lower = downconvert(rf, 4e9, conjugate=True)
    f, p = psd(lower)
    peaks = f[np.argsort(p)[-2:]]
    assert np.any(np.abs(peaks - 0.3e9) < 2 * FS / rf.n)


def test_combine_adds_and_validates():
    a, b = tone(1e9, amp=0.5), tone(1e9, amp=0.5)
    s = combine([a, b])
    assert s.power() == pytest.approx(4 * a.power(), rel=1e-12)
    with pytest.raises(ConfigError):
        combine([a, b.copy_with(sample_rate=2 * FS)])
    with pytest.raises(ConfigError):
        combine([a, b.copy_with(samples=b.samples[:-1])])


def test_pad_to_extends_truncates_identity():
    wf = tone(1e9, n=100)
    assert pad_to(wf, 100).n == 100
    longer = pad_to(wf, 150)
    assert longer.n == 150 and np.all(longer.samples[100:] == 0)
    shorter = pad_to(wf, 60)
    assert shorter.n == 60
    assert np.array_equal(shorter.samples, wf.samples[:60])
