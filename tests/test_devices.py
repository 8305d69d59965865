"""Microring device model tests: responses, modulators, filters."""

from dataclasses import replace

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import hilbert

import oansim.devices
from oansim.devices import (ClockGenerator, Modulator, RingParams,
                            _drop_pair, _through_detuned, apply_mrm,
                            drop_filter, generate_subcarriers, iq_arms,
                            iq_mrm_ssb, ring_response, subcarrier_lines,
                            thermal_tune)
from oansim.errors import ConfigError, SimulationError
from oansim.scenarios import _drive, builtin_config_path, load_config
from oansim.subsystems import _null_offset_fraction, slope_biased_ring
from oansim.waveform import (ComplexWaveform, analytic, band_power,
                             if_spectrum, psd)
from waves import power_dbm, times

F0 = 193.4e12
FS = 64e9


def carrier(power_w=1e-3, n=65536, fs=FS, ref=F0):
    amp = np.sqrt(power_w)
    return ComplexWaveform(np.full(n, amp, dtype=np.complex128), fs, ref_freq=ref)


def add_drop_ring(t=0.98, a=0.995, res=F0, fsr=5e12):
    return RingParams(resonance_freq=res, fsr=fsr, self_coupling_t1=t,
                      self_coupling_t2=t, roundtrip_amplitude_a=a)


def tone_window(ring, *drives):
    """3 linewidths plus half the larger peak-to-peak detuning of the
    drives' sample arrays: a tone window that holds the drives' swing."""
    return 3.0 * ring.fwhm + ring.mod_efficiency * max(map(np.ptp,
                                                           drives)) / 2.0


def own_depth(ring, x):
    """The peak resonance excursion of the drive samples ``x`` on
    ``ring``, in linewidths: as a record's depth, it leaves the drive as
    it is to within an ulp."""
    return ring.mod_efficiency * float(np.max(np.abs(x))) / ring.fwhm


def one_ring(ring, drive, window=None):
    """``ring`` as a payload ring's record driven by ``drive`` as it is,
    in volts (the device scales a drive to its record's depth, here the
    drive's own), its tone window ``window`` or that :func:`tone_window`
    sets for ``drive``."""
    x = drive.samples.real
    return Modulator(ring, own_depth(ring, x),
                     tone_window(ring, x) if window is None else window)


def at_depth(drive, modulator):
    """``drive`` scaled as ``modulator`` scales it: the peak resonance
    excursion of its real part is the record's depth in linewidths."""
    ring = modulator.ring
    return drive.scaled(modulator.depth * ring.fwhm / ring.mod_efficiency
                        / float(np.max(np.abs(drive.samples.real))))


def clock(ring, f_clk, volt=1.0, window=None):
    """``ring`` driven by a clock at ``f_clk`` of ``volt`` amplitude, its
    tone window ``window`` or 3 linewidths and at least 0.4 clocks."""
    if window is None:
        window = max(3.0 * ring.fwhm, 0.4 * f_clk)
    return ClockGenerator(ring, window, f_clk, volt)


# ---------------------------------------------------------------- response


def test_through_null_at_critical_coupling():
    # all-pass ring with t1 = a is critically coupled: exact null on resonance
    ring = RingParams(resonance_freq=F0, fsr=5e12, self_coupling_t1=0.995,
                     self_coupling_t2=1.0, roundtrip_amplitude_a=0.995)
    through, _ = ring_response(ring, F0)
    assert abs(through) < 1e-12


def test_far_from_resonance_transparent():
    ring = add_drop_ring()
    through, drop = ring_response(ring, F0 + ring.fsr / 2)
    assert abs(through) ** 2 > 0.99
    assert abs(drop) ** 2 < 0.01


def test_fsr_periodicity():
    ring = add_drop_ring()
    rng = np.random.default_rng(3)
    f = F0 + rng.uniform(-2e12, 2e12, 200)
    t0, d0 = ring_response(ring, f)
    t1, d1 = ring_response(ring, f + ring.fsr)
    assert np.max(np.abs(t1 - t0)) < 1e-12
    # the drop port carries a half-roundtrip phase factor, so its complex
    # value repeats every two FSRs while its magnitude repeats every FSR
    assert np.max(np.abs(np.abs(d1) - np.abs(d0))) < 1e-12
    _, d2 = ring_response(ring, f + 2 * ring.fsr)
    assert np.max(np.abs(d2 - d0)) < 1e-12


def test_passivity_at_random_frequencies():
    rng = np.random.default_rng(7)
    for _ in range(10):
        ring = RingParams(
            resonance_freq=F0, fsr=5e12,
            self_coupling_t1=rng.uniform(0.5, 0.999),
            self_coupling_t2=rng.uniform(0.5, 0.999),
            roundtrip_amplitude_a=rng.uniform(0.5, 0.9999))
        f = F0 + rng.uniform(-5e12, 5e12, 1000)
        through, drop = ring_response(ring, f)
        total = np.abs(through) ** 2 + np.abs(drop) ** 2
        assert np.all(total <= 1.0 + 1e-12)


def test_lossless_ring_is_unitary():
    ring = RingParams(resonance_freq=F0, fsr=5e12, self_coupling_t1=0.97,
                     self_coupling_t2=0.97, roundtrip_amplitude_a=1.0)
    f = F0 + np.linspace(-1e12, 1e12, 501)
    through, drop = ring_response(ring, f)
    total = np.abs(through) ** 2 + np.abs(drop) ** 2
    assert np.max(np.abs(total - 1.0)) < 1e-10


def test_parameter_validation():
    with pytest.raises(ConfigError):
        RingParams(resonance_freq=F0, fsr=5e12, self_coupling_t1=1.2)
    with pytest.raises(ConfigError):
        RingParams(resonance_freq=F0, fsr=-1.0)


# ---------------------------------------------------------------- tuning


def test_thermal_tune_exact_and_minimal():
    ring = add_drop_ring()
    target = F0 + 0.3e12
    tuned = thermal_tune(ring, target)
    assert tuned.effective_resonance == pytest.approx(target, abs=1e-3)
    assert abs(tuned.tuning_offset) <= ring.fsr / 2
    # a target one FSR away needs no shift beyond numerical zero
    wrapped = thermal_tune(ring, F0 + ring.fsr)
    assert abs(wrapped.tuning_offset) < 1e-3


def test_thermal_tune_idempotent():
    ring = thermal_tune(add_drop_ring(), F0 + 1e11)
    again = thermal_tune(ring, F0 + 1e11)
    assert again.tuning_offset == pytest.approx(ring.tuning_offset, abs=1e-6)


# ---------------------------------------------------------------- modulator


def test_mrm_zero_drive_is_static_filter():
    ring = slope_biased_ring(F0)
    field = carrier()
    drive = ComplexWaveform(np.zeros(field.n), FS)
    out = apply_mrm(field, one_ring(ring, drive), drive)
    expected, _ = ring_response(ring, F0)
    # the static path meets the closed form to round-off (2.3e-13 here)
    assert out.power() == pytest.approx(abs(expected) ** 2 * field.power(),
                                        rel=1e-12)


def test_mrm_far_detuned_carrier_passes():
    ring = thermal_tune(add_drop_ring(), F0 + 2.4e12)
    field = carrier()
    drive = ComplexWaveform(0.05 * np.cos(2 * np.pi * 2e9 * times(field)),
                            FS)
    out = apply_mrm(field, one_ring(ring, drive), drive)
    loss_db = power_dbm(field) - power_dbm(out)
    assert loss_db < 0.1


def test_mrm_creates_symmetric_sidebands():
    ring = slope_biased_ring(F0)
    field = carrier()
    f_m = 5e9
    drive = ComplexWaveform(0.05 * np.cos(2 * np.pi * f_m * times(field)),
                            FS)
    out = apply_mrm(field, one_ring(ring, drive), drive)
    up = band_power(out, F0 + f_m - 1e9, F0 + f_m + 1e9)
    dn = band_power(out, F0 - f_m - 1e9, F0 - f_m + 1e9)
    assert up > 1e-9 * field.power()
    assert up / dn < 10 ** 0.6  # intensity modulator: near-symmetric sidebands
    assert dn / up < 10 ** 0.6


def test_mrm_rejects_bad_drive():
    field = carrier(n=4096)
    ring = one_ring(slope_biased_ring(F0),
                    ComplexWaveform(np.zeros(field.n), FS), window=8e9)
    complex_drive = field.copy_with(
        samples=1j * np.ones(field.n), ref_freq=0.0)
    with pytest.raises(ConfigError):
        apply_mrm(field, ring, complex_drive)
    wrong_rate = field.copy_with(samples=np.zeros(field.n, dtype=complex),
                                 sample_rate=2 * FS, ref_freq=0.0)
    with pytest.raises(ConfigError):
        apply_mrm(field, ring, wrong_rate)
    # a drive of another length is neither padded nor cut
    for n in (field.n - 1, field.n + 1):
        short = ComplexWaveform(np.zeros(n, dtype=complex), FS)
        with pytest.raises(ConfigError, match="samples"):
            apply_mrm(field, ring, short)


def _drive_bandwidth(drive, fs):
    """99%-power spectral extent of the AC part of the drive."""
    ac = drive - np.mean(drive)
    spec = np.abs(np.fft.rfft(ac)) ** 2
    f = np.fft.rfftfreq(ac.size, 1.0 / fs)
    cum = np.cumsum(spec)
    k = int(np.searchsorted(cum, 0.99 * cum[-1]))
    return float(f[min(k, f.size - 1)])


def _memory_samples(params, fs):
    r = (params.self_coupling_t1 * params.self_coupling_t2
         * params.roundtrip_amplitude_a)
    tau = -1.0 / (params.fsr * np.log(r)) if r < 1.0 else 0.0
    return int(min(max(32, np.ceil(10.0 * tau * fs)), 1 << 14))


def block_mrm(field, params, drive):
    """The quasi-static ring by short-block overlap-save: each block of at
    most 1/(10 x drive bandwidth) sees the through response at its own
    mean detuning.  The oracle of the tone path."""
    fs = field.sample_rate
    n = field.n
    detune = params.mod_efficiency * drive.samples.real
    block_len = max(1, int(fs / (10.0 * _drive_bandwidth(detune, fs))))
    # the sampled ring response has tails on both time sides (sub-sample
    # roundtrip delay), so each block carries context before and after
    mem = _memory_samples(params, fs)
    nfft = 1 << int(np.ceil(np.log2(block_len + 2 * mem)))
    f_abs = np.fft.fftfreq(nfft, 1.0 / fs) + field.ref_freq
    x = np.concatenate([np.zeros(mem, dtype=np.complex128), field.samples,
                        np.zeros(mem + block_len, dtype=np.complex128)])
    out = np.empty(n, dtype=np.complex128)
    for lo in range(0, n, block_len):
        hi = min(lo + block_len, n)
        h = _through_detuned(params, f_abs, np.mean(detune[lo:hi]))
        seg = x[lo: lo + 2 * mem + block_len]
        seg = np.concatenate([seg, np.zeros(nfft - seg.size,
                                            dtype=np.complex128)])
        out[lo:hi] = np.fft.ifft(np.fft.fft(seg) * h)[mem: mem + hi - lo]
    return field.copy_with(samples=out)


def test_block_and_tone_methods_agree():
    ring = slope_biased_ring(F0)
    field = carrier(n=32768)
    drive = ComplexWaveform(0.05 * np.cos(2 * np.pi * 2.5e9 * times(field)),
                            FS)
    a = block_mrm(field, ring, drive)
    b = apply_mrm(field, one_ring(ring, drive, window=20e9), drive)
    # compare in the modulated band only
    pa = band_power(a, F0 - 10e9, F0 + 10e9)
    pb = band_power(b, F0 - 10e9, F0 + 10e9)
    assert pa == pytest.approx(pb, rel=0.02)


# ---------------------------------------------------------------- IQ SSB


def ssb_setup(branch_phase=np.pi / 2, f_m=5e9, depth=0.05):
    field = carrier()
    ring = slope_biased_ring(F0)
    drive = ComplexWaveform(
        depth * np.exp(2j * np.pi * f_m * times(field)), FS)
    x = drive.samples
    cfg = Modulator(ring, own_depth(ring, x.real),
                    tone_window(ring, x.real, x.imag),
                    arms=iq_arms("upper", branch_phase))
    out = iq_mrm_ssb(field, cfg, drive)
    up = band_power(out, F0 + f_m - 1e9, F0 + f_m + 1e9)
    dn = band_power(out, F0 - f_m - 1e9, F0 - f_m + 1e9)
    return 10 * np.log10(up / dn)


def test_ssb_image_rejection_ideal():
    assert ssb_setup() >= 30.0


def test_ssb_degrades_to_dsb_without_quadrature():
    assert abs(ssb_setup(branch_phase=0.0)) < 1.0


def test_hilbert_pair_quadrature():
    """An IQ modulator's analytic drive: its imaginary part, on the Q ring,
    is the Hilbert transform of its real part, on the I ring."""
    n, rate = 8192, 1e9
    rng = np.random.default_rng(4)
    modem = ComplexWaveform(rng.normal(size=n // 64)
                            + 1j * rng.normal(size=n // 64), rate)
    half = if_spectrum(modem, 3e9, n, FS)
    drive = analytic(half, n, FS)
    i, q = np.fft.irfft(half, n), hilbert(np.fft.irfft(half, n)).imag
    assert np.linalg.norm(drive.samples.real - i) <= 1e-12 * np.linalg.norm(i)
    assert np.linalg.norm(drive.samples.imag - q) <= 1e-12 * np.linalg.norm(q)


def test_iq_ssb_needs_an_analytic_drive():
    field = carrier(n=4096)
    cfg = Modulator(slope_biased_ring(F0), 1.0, 8e9, arms=iq_arms())
    for samples in (np.zeros(field.n), np.ones(field.n, dtype=complex)):
        with pytest.raises(ConfigError, match="analytic"):
            iq_mrm_ssb(field, cfg, ComplexWaveform(samples, FS))


# ---------------------------------------------------------------- subcarriers


def test_subcarrier_zero_clock_is_static():
    ring = RingParams(resonance_freq=F0, fsr=5e12, self_coupling_t1=0.995,
                     self_coupling_t2=1.0, roundtrip_amplitude_a=0.995)
    field = carrier()
    out = generate_subcarriers(field, clock(ring, 20e9, volt=0.0))
    # on-resonance critically coupled: the carrier is killed
    assert out.power() < 1e-6 * field.power()


def test_subcarrier_needs_a_tone():
    ring = thermal_tune(add_drop_ring(), F0 + 1e12)
    with pytest.raises(SimulationError):
        generate_subcarriers(carrier(), clock(ring, 20e9))


def test_subcarrier_nyquist_guard():
    ring = add_drop_ring()
    with pytest.raises(ConfigError):
        generate_subcarriers(carrier(), clock(ring, FS))


# ---------------------------------------------------------------- drop filter


def test_drop_filter_exact_passivity():
    rng = np.random.default_rng(11)
    x = rng.normal(size=16384) + 1j * rng.normal(size=16384)
    field = ComplexWaveform(0.01 * x, FS, ref_freq=F0)
    dropped, through = drop_filter(field, F0 + 5e9, 4e9, order=3)
    total = dropped.power() + through.power()
    assert total == pytest.approx(field.power(), rel=1e-9)


def test_drop_filter_white_input_fraction():
    rng = np.random.default_rng(13)
    x = rng.normal(size=65536) + 1j * rng.normal(size=65536)
    field = ComplexWaveform(0.01 * x, FS, ref_freq=F0)
    bw = 4e9
    dropped, _ = drop_filter(field, F0, bw, order=4)
    assert dropped.power() / field.power() == pytest.approx(bw / FS, rel=0.1)


def test_drop_filter_far_tone_untouched():
    field = carrier()
    _, through = drop_filter(field, F0 + 20e9, 2e9, order=3)
    assert power_dbm(field) - power_dbm(through) < 0.05


def test_drop_filter_order_sharpens_skirts():
    field = carrier()  # tone at F0, filter centered 4 GHz away
    d1, _ = drop_filter(field, F0 + 4e9, 4e9, order=1)
    d4, _ = drop_filter(field, F0 + 4e9, 4e9, order=4)
    assert d4.power() < d1.power()


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_drop_pair_by_multiplies_matches_the_pow_form(order):
    n, dt, center, bandwidth = 1 << 14, 1.0 / FS, F0 + 7e9, 9e9
    u = 2.0 * (np.fft.fftfreq(n, dt) + F0 - center) / bandwidth
    p = u ** (2 * order)
    field = ComplexWaveform(np.zeros(n, dtype=np.complex128), FS, ref_freq=F0)
    h_drop, h_thru = _drop_pair(field.abs_freqs(), center, bandwidth, order)
    np.testing.assert_allclose(h_drop, np.sqrt(1.0 / (1.0 + p)),
                               rtol=1e-14, atol=0)
    np.testing.assert_allclose(h_thru, np.sqrt(p / (1.0 + p)),
                               rtol=1e-14, atol=0)


def test_drop_filter_validation():
    field = carrier(n=4096)
    with pytest.raises(ConfigError):
        drop_filter(field, F0 + FS, 1e9)
    with pytest.raises(ConfigError):
        drop_filter(field, F0, -1e9)
    with pytest.raises(ConfigError):
        drop_filter(field, F0, 1e9, order=0)


# ------------------------------------------- spectrum stages vs FFT round trips
#
# The linear stages multiply the field's cached spectrum.  Each must match
# the round trip ifft(fft(x) * H) it replaced to FFT round-off.  The static
# ring response on the expected side is the public closed form
# ring_response, detuned by the drive's mean.


def two_tone_field(n=65536):
    """Carrier plus a weak line at +15 GHz, outside any tone window."""
    t = np.arange(n) / FS
    x = np.sqrt(1e-3) * (1.0 + 0.1 * np.exp(2j * np.pi * 15e9 * t))
    return ComplexWaveform(x, FS, ref_freq=F0)


def cos_drive(field, f_m=5e9, depth=0.05, mean=0.0):
    return ComplexWaveform(
        mean + depth * np.cos(2 * np.pi * f_m * times(field)), FS)


def assert_round_off(got, want):
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def static_through(ring, field, bias):
    """Closed-form through response on the field's grid at the bias point."""
    f_abs = np.fft.fftfreq(field.n, 1 / field.sample_rate) + field.ref_freq
    shifted = replace(ring, tuning_offset=ring.tuning_offset + bias)
    return ring_response(shifted, f_abs)[0]


def round_trip_tone(field, ring, drive, window, through=_through_detuned):
    """The tone path as a pair of inverse transforms and a time-domain sum;
    ``through(ring, f, detune)`` is the per-sample response."""
    detune = ring.mod_efficiency * drive.samples.real
    spec = np.fft.fft(field.samples)
    f_abs = np.fft.fftfreq(field.n, 1 / field.sample_rate) + field.ref_freq
    bias = float(np.mean(detune))
    mask = np.abs(f_abs - (ring.effective_resonance + bias)) <= window
    p2 = np.abs(spec[mask]) ** 2
    f_tone = float(np.sum(f_abs[mask] * p2) / np.sum(p2))
    x_res = np.fft.ifft(np.where(mask, spec, 0.0))
    x_off = np.fft.ifft(np.where(mask, 0.0, spec)
                        * static_through(ring, field, bias))
    return x_off + through(ring, f_tone, detune) * x_res


def test_drop_filter_matches_the_fft_round_trip():
    field = two_tone_field()
    center, bandwidth, order = F0 + 12e9, 10e9, 3
    u = 2.0 * (np.fft.fftfreq(field.n, 1 / FS) + F0 - center) / bandwidth
    mag2 = 1.0 / (1.0 + u ** (2 * order))
    spec = np.fft.fft(field.samples)
    dropped, through = drop_filter(field, center, bandwidth, order)
    assert_round_off(dropped.samples, np.fft.ifft(spec * np.sqrt(mag2)))
    assert_round_off(through.samples, np.fft.ifft(spec * np.sqrt(1 - mag2)))


def test_static_ring_filter_matches_the_fft_round_trip():
    ring = slope_biased_ring(F0)
    field = two_tone_field()
    for volt in (0.0, 0.3):
        flat = cos_drive(field, depth=0.0, mean=volt)
        h = static_through(ring, field, ring.mod_efficiency * volt)
        assert_round_off(apply_mrm(field, one_ring(ring, flat), flat).samples,
                         np.fft.ifft(np.fft.fft(field.samples) * h))


def test_tone_mrm_matches_the_fft_round_trip():
    """The record decides the depth: a drive scaled by 3.7 modulates as
    the drive whose peak the record's depth is."""
    ring = slope_biased_ring(F0)
    field = two_tone_field()
    for mean in (0.0, 0.02):
        drive = cos_drive(field, mean=mean)
        window = tone_window(ring, drive.samples)
        modulator = one_ring(ring, drive, window)
        want = round_trip_tone(field, ring, drive, window)
        for gain in (1.0, 3.7):
            got = apply_mrm(field, modulator, drive.scaled(gain))
            assert_round_off(got.samples, want)


def test_iq_ssb_matches_the_fft_round_trip():
    """Both arms share the record's tone window and scale by one gain,
    which the record's depth and the I arm's peak set: a drive scaled by
    3.7 modulates as the drive whose I peak the record's depth is."""
    ring = slope_biased_ring(F0)
    field = two_tone_field()
    i = cos_drive(field)
    q = cos_drive(field, depth=0.08).copy_with(
        samples=0.08 * np.sin(2 * np.pi * 5e9 * times(field)))
    drive = ComplexWaveform(i.samples + 1j * q.samples, FS)
    window = 8e9
    cfg = Modulator(ring, own_depth(ring, i.samples), window,
                    arms=iq_arms("lower"))
    want = 0.5 * (round_trip_tone(field, ring, i, window)
                  + np.exp(-1j * np.pi / 2)
                  * round_trip_tone(field, ring, q, window))
    for gain in (1.0, 3.7):
        assert_round_off(iq_mrm_ssb(field, cfg, drive.scaled(gain)).samples,
                         want)


# ------------------------------------------- band-rate and spectral products
#
# A modulator whose record knows its drive's band edge takes its line's
# product at a fraction of the rate; a clock whose sampled period divides
# the record has it taken as a spectrum.  Both are checked against the
# full-rate round_trip_tone.


def line_lengths(monkeypatch):
    """The spectrum length of each line transform the modulators take."""
    lengths = []
    line = oansim.devices._line

    def recorded(spec, window, m, k0):
        lengths.append(m)
        return line(spec, window, m, k0)

    monkeypatch.setattr(oansim.devices, "_line", recorded)
    return lengths


def relative_error(got, want):
    return np.sum(np.abs(got - want) ** 2) / np.sum(np.abs(want) ** 2)


@pytest.mark.parametrize("case", ["transmitter", "uplink", "tunnel"])
def test_band_rate_product_matches_the_full_rate_tone(case, monkeypatch):
    """Scenario A's modulators on channel 0, as its config builds them, on
    its 160 GS/s grid, each with a drive the pipeline makes: the digital
    transmitter at depth 0.12, the uplink at depth 0.5 and a tunnel ring,
    each with its record's tone window.  With the record's band edge, that
    of the drive, the product is taken at a fraction of the rate within
    -60 dB of the full-rate tone path; with the edge unknown it is that
    path, to round-off."""
    cfg = load_config(builtin_config_path("scenario_a"))
    fs, n = cfg.sample_rate, 1 << 16
    f0 = cfg.plan.channels[0].center_freq
    rng = np.random.default_rng(5)
    t = np.arange(n) / fs
    signals = {"transmitter": [cfg.digital], "uplink": cfg.uplink.values(),
               "tunnel": cfg.payloads[:1]}[case]
    signals = [(s._replace(symbols=10),
                rng.integers(0, 2, 10 * s.ofdm.bits_per_symbol))
               for s in signals]
    if case == "tunnel":
        # the +f_s ring and the overlay's window: the subcarrier, clear of
        # the digital band
        _, (modulator, _) = cfg.edge_rings[0]
        drive = _drive(modulator, signals, n, fs)
        field = ComplexWaveform(1e-2 * (1.0 + np.exp(2j * np.pi * 20e9 * t)),
                                fs, ref_freq=f0)
        modulate = partial(apply_mrm, field)
        want = round_trip_tone(field, modulator.ring,
                               at_depth(drive, modulator), modulator.window)
    else:
        modulator, phase = (
            (cfg.transmitters[0], np.pi / 2) if case == "transmitter" else
            (cfg.onus[0].modulator, -np.pi / 2))
        ring = modulator.ring
        drive = _drive(modulator, signals, n, fs)
        field = ComplexWaveform(
            1e-2 * (1.0 + 0.1 * np.exp(2j * np.pi * 25e9 * t)), fs,
            ref_freq=f0)
        scaled = at_depth(drive, modulator).samples
        i = ComplexWaveform(scaled.real, fs)
        q = ComplexWaveform(scaled.imag, fs)
        window = modulator.window
        modulate = partial(iq_mrm_ssb, field)
        want = 0.5 * (round_trip_tone(field, ring, i, window)
                      + np.exp(1j * phase) * round_trip_tone(field, ring, q,
                                                             window))
    assert modulator.band_edge == max(s.edges()[1] for s, _ in signals)
    lengths = line_lengths(monkeypatch)
    assert relative_error(modulate(modulator, drive).samples, want) < 1e-6
    assert lengths[-1] < n
    assert_round_off(modulate(replace(modulator, band_edge=None),
                              drive).samples, want)
    assert lengths[-1] == n


def criterion_5_ring():
    """Criterion 5's generator: null bias, resonance on the tone."""
    return RingParams(resonance_freq=F0, fsr=5e12, self_coupling_t1=0.995,
                      self_coupling_t2=1.0, roundtrip_amplitude_a=0.995,
                      mod_efficiency=2e9)


def exact_through(ring, f, detune):
    """The closed-form through response at ``f`` of the ring shifted by
    ``detune``."""
    e = np.exp(2j * np.pi * (f - ring.effective_resonance - detune)
               / ring.fsr)
    t1, t2a = ring.self_coupling_t1, (ring.self_coupling_t2
                                      * ring.roundtrip_amplitude_a)
    return (t1 - t2a * e) / (1.0 - t1 * t2a * e)


def sampled_clock_product(field, ring, f_clk, through=exact_through,
                          volt=0.25):
    """The generator's product on every sample of the record."""
    drive = ComplexWaveform(
        volt * np.cos(2.0 * np.pi * f_clk / field.sample_rate
                      * np.arange(field.n)),
        field.sample_rate)
    return round_trip_tone(field, ring, drive, clock(ring, f_clk).window,
                           through)


def oversampled_clock_product(field, ring, f_clk, volt, up=8):
    """The product sampled at ``up`` times the rate, on the record's
    spectrum padded with zeros, then cut back to the record's bins: what
    lands outside the record is dropped, not folded."""
    n, big = field.n, field.n * up
    k = np.fft.fftfreq(n, 1.0 / n).astype(int)
    spec = np.zeros(big, dtype=np.complex128)
    spec[k % big] = field.spectrum * up
    fine = ComplexWaveform(None, field.sample_rate * up,
                           ref_freq=field.ref_freq, spectrum=spec)
    out = np.fft.fft(sampled_clock_product(fine, ring, f_clk, volt=volt))
    return np.fft.ifft(out[k % big] / up)


@pytest.mark.parametrize("f_clk", [10e9, 15e9, 20e9])
def test_spectral_generator_equals_the_sampled_product(f_clk, monkeypatch):
    """Criterion 5's clocks sit on record bins: one clock cycle of the
    ring's response gives the output as a spectrum, with no line
    transform.  It equals the product sampled at 8 times the rate and cut
    back to the record, where the harmonics past the record's Nyquist
    frequency (the 2nd of 20 GHz at 64 GS/s) are dropped, to -60 dB: the
    generator's aliases sit below it.  So does scenario A's generator at
    its off-null bias and 1.2 V clock, whose harmonics fall 9 dB an order."""
    gen = slope_biased_ring(F0, slope_fraction=_null_offset_fraction(0.6))
    for ring, volt in ((criterion_5_ring(), 0.25), (gen, 1.2)):
        field = two_tone_field(1 << 14)
        lengths = line_lengths(monkeypatch)
        got = generate_subcarriers(field, clock(ring, f_clk, volt))
        assert lengths == []
        want = oversampled_clock_product(field, ring, f_clk, volt)
        assert relative_error(got.samples, want) < 1e-6


def test_clock_cycle_is_sampled_until_its_harmonics_fade(monkeypatch):
    """A clock that swings the ring over many linewidths needs more points
    per cycle than 16: the cycle doubles until the upper half of its
    orders holds under 1e-6 of the response's power."""
    ring = criterion_5_ring()
    sizes = []
    through = oansim.devices._through_detuned

    def recorded(params, f, detune):
        sizes.append(np.size(detune))
        return through(params, f, detune)

    monkeypatch.setattr(oansim.devices, "_through_detuned", recorded)
    for volt in (0.25, 20.0):
        sizes.clear()
        field = two_tone_field(1 << 14)
        got = generate_subcarriers(field, clock(ring, 1e9, volt))
        assert sizes[0] == 16 and sizes == [16 << i for i in range(len(sizes))]
        want = oversampled_clock_product(field, ring, 1e9, volt, up=2)
        assert relative_error(got.samples, want) < 1e-6
    assert sizes[-1] >= 128


def test_off_bin_clock_sits_on_its_nearest_bin():
    """A clock between record bins (9.9 GHz is bin 2534.4 of 2^14 at
    64 GS/s) drives the ring as the clock on its nearest bin does: the
    output equals that clock's product sampled at 8 times the rate and cut
    back to the record."""
    ring = criterion_5_ring()
    field = two_tone_field(1 << 14)
    f_bin = round(9.9e9 * field.n / FS) * FS / field.n
    got = generate_subcarriers(field, clock(ring, 9.9e9, 0.25))
    want = oversampled_clock_product(field, ring, f_bin, 0.25)
    assert relative_error(got.samples, want) < 1e-6


@pytest.mark.parametrize("f_clk", [20e9, 19.9e9])
def test_lines_lifted_into_the_next_slot_match_one_wide_record(f_clk):
    """Channel 0's generator on its own slot record (64 GS/s about
    F0 - 32 GHz) lifts its 2nd to 4th harmonics into the next slot's
    record (64 GS/s about F0 + 32 GHz).  They equal, to -60 dB, what one
    record spanning both slots at the same bin spacing holds at that
    slot's bins, with the clock on its nearest bin."""
    n, fs, half, volt = 1 << 13, 64e9, 32e9, 1.2
    gen = slope_biased_ring(F0 - half,
                            slope_fraction=_null_offset_fraction(0.6))
    slot = carrier(n=n, fs=fs, ref=F0 - half)
    lines = np.zeros(n, dtype=np.complex128)
    subcarrier_lines(slot, clock(gen, f_clk, volt), lines, F0 + half)
    # the wide record's carrier sits on its bin -n/2, the next slot's
    # bins -n/2 .. n/2 - 1 are its bins 0 .. n - 1
    spec = np.zeros(2 * n, dtype=np.complex128)
    spec[-n // 2] = np.sqrt(1e-3) * 2 * n
    wide = ComplexWaveform(None, 2 * fs, ref_freq=F0, spectrum=spec)
    f_bin = round(f_clk * n / fs) * fs / n
    want = np.fft.fft(oversampled_clock_product(wide, gen, f_bin, volt))
    assert relative_error(np.fft.fftshift(lines), want[:n] / 2) < 1e-6
