"""Waveform container and spectral-helper tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sig

from oansim.errors import ConfigError
from oansim.waveform import (ComplexWaveform, _bins, _division, _if_bins,
                             _spans, band_power, crop_to_band, crop_window,
                             from_if, if_spectrum, psd, scale_db)
from waves import power_dbm

FS = 16e9


def tone(freq, n=4096, fs=FS, amp=1.0, ref=0.0):
    t = np.arange(n) / fs
    return ComplexWaveform(amp * np.exp(2j * np.pi * freq * t), fs, ref_freq=ref)


def test_power_of_unit_tone():
    wf = tone(1e9, amp=1.0)
    assert wf.power() == pytest.approx(1.0, rel=1e-12)
    assert power_dbm(wf) == pytest.approx(30.0, abs=1e-9)


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


def test_band_power_parseval():
    wf = tone(1e9, amp=0.5)
    total = band_power(wf, -FS, FS)
    assert total == pytest.approx(wf.power(), rel=1e-9)
    inband = band_power(wf, 0.9e9, 1.1e9)
    assert inband == pytest.approx(wf.power(), rel=1e-6)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 300), fs=st.sampled_from([1.0, 64e9, 160e9]),
       ref=st.sampled_from([0.0, 1e9, 193.4e12]),
       edges=st.tuples(*[st.one_of(st.integers(-400, 400),
                                   st.floats(-1.5, 1.5),
                                   st.sampled_from([-np.inf, np.inf]))] * 2))
def test_band_bins_take_what_the_boolean_mask_takes(n, fs, ref, edges):
    """A band's bin range holds, in the mask's order, the bins whose
    ``abs_freqs`` lie in [f_lo, f_hi]; an integer edge falls exactly on a
    bin's frequency, a float one anywhere on or off the grid."""
    wf = ComplexWaveform(np.zeros(n, dtype=complex), fs, ref_freq=ref)
    f = wf.abs_freqs()
    f_lo, f_hi = (f[e % n] if isinstance(e, int) else ref + e * fs
                  for e in edges)
    got = np.concatenate([np.arange(n)[s]
                          for s in _spans(_bins(wf, f_lo, f_hi), n)])
    np.testing.assert_array_equal(got, np.flatnonzero((f >= f_lo)
                                                      & (f <= f_hi)))


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


def test_real_samples_stay_real():
    wf = ComplexWaveform(np.cos(np.arange(64.0)), FS)
    assert wf.samples.dtype == np.float64 and wf.is_real()
    assert wf.scaled(2.0).is_real()
    assert not ComplexWaveform(np.exp(1j * np.arange(64.0)), FS).is_real()
    # a spectrum alone says nothing of realness: its samples are complex
    assert not ComplexWaveform(None, FS, spectrum=wf.spectrum).is_real()


RATE = 1e9  # modem rate: 256 modem samples per 4096 record samples at FS


def modem_noise(n=256, rate=RATE, seed=3):
    return ComplexWaveform(noise(n, seed), rate)


def test_upconvert_power_preserved_and_real():
    # a modem tone on the modem grid at 3 GHz: sqrt(2) Re(x e^(2 pi i f t))
    # keeps the modem's unit power and is real
    n = 4096
    x = np.exp(2j * np.pi * 0.125 * np.arange(256))
    half = if_spectrum(ComplexWaveform(x, RATE), 3e9, n, FS)
    drive = ComplexWaveform(np.fft.irfft(half, n), FS)
    assert drive.is_real()
    assert drive.power() == pytest.approx(1.0, rel=1e-12)
    t = np.arange(n) / FS
    want = np.sqrt(2.0) * np.cos(2 * np.pi * (3e9 + 0.125e9) * t)
    assert rel_err(drive.samples, want) <= 1e-12


def test_up_down_conversion_roundtrip():
    n = 4096
    x = modem_noise()
    # every modem bin lies above 0 Hz at a 1 GHz IF: the round trip is exact
    half = if_spectrum(x, 1e9, n, FS)
    drive = ComplexWaveform(np.fft.irfft(half, n), FS)
    back = from_if(drive, 1e9, RATE)
    assert back.sample_rate == RATE and back.n == x.n
    assert rel_err(back.samples, x.samples) <= 1e-10
    # a 2 ns lead at 1 GS/s delays the modem samples by two, circularly
    late = from_if(ComplexWaveform(
        np.fft.irfft(if_spectrum(x, 1e9, n, FS, lead=32), n), FS), 1e9, RATE)
    assert rel_err(late.samples, np.roll(x.samples, 2)) <= 1e-10
    # the same bins of the signal detected at half the rate
    half_rate = ComplexWaveform(np.fft.irfft(half[:n // 4 + 1], n // 2) / 2,
                                FS / 2)
    assert rel_err(from_if(half_rate, 1e9, RATE).samples, x.samples) <= 1e-10
    # at a 0.25 GHz IF only the modem bins above 0 Hz come back
    length, j, _ = _if_bins(n, FS, RATE, 0.25e9)
    assert length == 256 and list(j) == list(range(-63, 64))
    spec = np.zeros(256, dtype=np.complex128)
    spec[j] = np.fft.fft(x.samples)[j]
    low = from_if(ComplexWaveform(
        np.fft.irfft(if_spectrum(x, 0.25e9, n, FS), n), FS), 0.25e9, RATE)
    assert rel_err(low.samples, np.fft.ifft(spec)) <= 1e-10


def test_upconvert_alias_guard():
    n = 4096
    for f_if in (0.25e9, 1e9, 7.9e9):
        length, j, k = _if_bins(n, FS, RATE, f_if)
        assert length == 256
        assert np.all(k >= 1) and np.all(k < n // 2)
        assert np.array_equal(k - j, np.full(j.size, round(f_if * n / FS)))
    # at 7.9 GHz the upper modem bins would pass the 8 GHz Nyquist frequency
    assert _if_bins(n, FS, RATE, 7.9e9)[1].max() < 127
    with pytest.raises(ConfigError, match="overrun"):
        if_spectrum(modem_noise(300), 1e9, n, FS)


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
    found = crop_window(n, FS, ref, lo, hi)
    if found is not None:
        # the band crop_window names: the kept window's first and last bins
        _, _, first, last = found
        assert first <= lo and hi <= last
        assert first == pytest.approx(out.ref_freq - out.n // 4 * df,
                                      abs=1e-3 * df)
        assert round((last - first) / df) == out.n // 2 - 1


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8), st.integers(0, 3), st.integers(0, 2),
       st.sampled_from([1, 2]), st.data())
def test_division_is_the_largest_power_of_two_whose_window_holds(
        twos, threes, fives, fill, data):
    """Against a search over every power of two dividing ``n``, in exact
    bin arithmetic, with band edges on bins and between them."""
    n = 2**twos * 3**threes * 5**fives
    df = 160e9 / n
    k0 = data.draw(st.integers(-(n // 2), n // 2))
    lo = k0 + data.draw(st.integers(-n // 2, n // 2))
    hi = lo + data.draw(st.integers(0, n))
    lo_frac, hi_frac = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5]),
                                          min_size=2, max_size=2))
    want, d = 0, 1
    while n % d == 0:
        w = n // (fill * d)
        first = k0 - w // 2
        if first <= lo + lo_frac and hi + hi_frac <= first + w - 1:
            want = d
        d *= 2
    assert _division(n, df, k0, (lo + lo_frac) * df, (hi + hi_frac) * df,
                     fill) == want
