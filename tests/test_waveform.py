"""Waveform container and spectral-helper tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sig

from oansim.errors import ConfigError
from oansim.waveform import (ComplexWaveform, _tone_phasor, band_power,
                             combine, crop_to_band, downconvert, pad_to, psd, resample_to,
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


def rel_err(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def noise(n=4096, seed=1):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def test_samples_spectrum_samples_round_trip():
    x = noise()
    spec = ComplexWaveform(x, FS).spectrum
    assert rel_err(spec, np.fft.fft(x)) <= 1e-12
    back = ComplexWaveform(None, FS, spectrum=spec)
    assert back.n == x.size
    assert rel_err(back.samples, x) <= 1e-12
    # Parseval on a spectrum-only waveform
    assert ComplexWaveform(None, FS, spectrum=spec).power() == pytest.approx(
        np.mean(np.abs(x) ** 2), rel=1e-12)


def test_copy_with_never_returns_a_stale_spectrum():
    wf = ComplexWaveform(noise(), FS)
    wf.spectrum  # both representations held from here on
    new = noise(seed=2)
    assert rel_err(wf.copy_with(samples=new).spectrum, np.fft.fft(new)) <= 1e-12
    spec = np.fft.fft(new)
    assert rel_err(wf.copy_with(spectrum=spec).samples, new) <= 1e-12
    moved = wf.copy_with(ref_freq=1e9)
    assert np.shares_memory(moved.samples, wf.samples)
    assert np.shares_memory(moved.spectrum, wf.spectrum)
    half = wf.scaled(0.5)
    assert rel_err(half.spectrum, 0.5 * np.fft.fft(wf.samples)) <= 1e-12
    assert rel_err(half.samples, 0.5 * wf.samples) <= 1e-12


def test_writing_in_place_to_a_cached_array_raises():
    x = noise(n=16)
    wf = ComplexWaveform(x, FS)
    for arr in (wf.samples, wf.spectrum,
                ComplexWaveform(None, FS, spectrum=x).samples):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(ConfigError):
        ComplexWaveform(None, FS)


def test_psd_matches_the_boxcar_periodogram():
    wf = ComplexWaveform(noise(), FS, ref_freq=193e12)
    f_ref, p_ref = sig.periodogram(wf.samples, fs=FS, return_onesided=False,
                                   detrend=False)
    order = np.argsort(f_ref)
    f, p = psd(wf)
    assert np.array_equal(f, f_ref[order] + 193e12)
    assert rel_err(p, p_ref[order]) <= 1e-12


def test_tone_phasor_matches_direct_exponential():
    n, dt = 200_000, 1.0 / FS
    for freq in (0.0, 1e9, 2.5e9, -3.2e9, 1.234567e9):
        ref = np.exp(2j * np.pi * freq * np.arange(n) * dt)
        got = _tone_phasor(freq, n, dt)
        assert np.max(np.abs(got - ref)) < 1e-7


def test_band_power_parseval():
    wf = tone(1e9, amp=0.5)
    total = band_power(wf, -FS, FS)
    assert total == pytest.approx(wf.power(), rel=1e-9)
    inband = band_power(wf, 0.9e9, 1.1e9)
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
    rf = upconvert_real(base, 3e9, half_bw=0.2e9)
    assert rf.is_real(tol=1e-9)
    assert rf.power() == pytest.approx(base.power(), rel=1e-2)


def test_upconvert_zero_is_noop():
    base = tone(0.2e9)
    out = upconvert_real(base, 0.0, half_bw=0.2e9)
    assert np.array_equal(out.samples, base.samples)


def test_upconvert_alias_guard():
    with pytest.raises(ConfigError):
        upconvert_real(tone(0.5e9), 7.9e9, half_bw=0.5e9)


def test_up_down_conversion_roundtrip():
    rng = np.random.default_rng(0)
    x = (rng.normal(size=4096) + 1j * rng.normal(size=4096)) * 0.1
    base = ComplexWaveform(x, FS)
    # band-limit to +/-0.5 GHz first so the image is separable
    spec = np.fft.fft(base.samples)
    f = base.baseband_freqs()
    spec[np.abs(f) > 0.5e9] = 0.0
    base = base.copy_with(samples=np.fft.ifft(spec))
    rf = upconvert_real(base, 4e9, half_bw=0.5e9)
    down = downconvert(rf, 4e9)
    # remove the residual image at -8 GHz
    spec = np.fft.fft(down.samples)
    spec[np.abs(f + 8e9) < 1e9] = 0.0
    spec[np.abs(f - 8e9) < 1e9] = 0.0
    rec = np.fft.ifft(spec)
    assert np.max(np.abs(rec - base.samples)) < 1e-6 * np.max(np.abs(base.samples)) + 1e-9


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


def test_pad_to_leads_with_silence():
    wf = tone(1e9, n=100)
    late = pad_to(wf, 150, lead=20)
    assert np.all(late.samples[:20] == 0) and np.all(late.samples[120:] == 0)
    assert np.array_equal(late.samples[20:120], wf.samples)
    cut = pad_to(wf, 90, lead=20)
    assert np.array_equal(cut.samples[20:], wf.samples[:70])


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 11), st.integers(0, 4), st.floats(-1.0, 1.0),
       st.floats(0.0, 0.9))
def test_cropped_window_holds_the_band(twos, odd, where, width):
    n = (2 * odd + 1) << twos
    ref = 193.4e12
    rng = np.random.default_rng(n)
    wf = ComplexWaveform(None, FS, ref_freq=ref, spectrum=rng.normal(size=n)
                         + 1j * rng.normal(size=n))
    mid = ref + where * (0.45 - width / 2.0) * FS
    lo, hi = mid - width * FS / 2.0, mid + width * FS / 2.0
    out = crop_to_band(wf, lo, hi)
    d = n // out.n
    df = FS / n
    assert d * out.n == n and d & (d - 1) == 0
    assert out.sample_rate == FS / d
    # every bin of the band reappears at its frequency, scaled by 1/d
    f_in = wf.abs_freqs()
    band = np.flatnonzero((f_in >= lo) & (f_in <= hi))
    k = np.round((f_in[band] - out.ref_freq) / df).astype(int) % out.n
    assert np.array_equal(out.spectrum[k], wf.spectrum[band] / d)
    if d > 1:
        # only the middle half of the new band holds content
        held = np.flatnonzero(out.spectrum)
        assert np.all(np.abs(out.baseband_freqs()[held]) <= FS / d / 4.0)
    # and a window half as wide would not surely hold the band
    assert not (n % (2 * d) == 0 and hi - lo <= (n // (4 * d) - 3) * df)
