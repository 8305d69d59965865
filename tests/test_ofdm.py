"""OFDM modem tests: QAM mapping, framing, loopback, noise loading."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from oansim.channel import FiberParams, propagate_fiber
from oansim.errors import ConfigError, SyncError
from oansim.metrics import analytic_awgn_ber, ber_evm_metrics
from oansim.ofdm import (_CORR_BLOCK, OfdmConfig, _correlate, _synchronize,
                         _to_time, add_awgn, bandwidth_for_bit_rate,
                         demodulate_ofdm, generate_ofdm, qam_demodulate,
                         qam_modulate)


def bits_for(cfg, n_symbols, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, n_symbols * cfg.bits_per_symbol)


# ---------------------------------------------------------------- QAM


@pytest.mark.parametrize("order", [4, 16, 64])
def test_qam_roundtrip_and_unit_energy(order):
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, 6000 * int(np.log2(order)) // int(np.log2(order))
                        * int(np.log2(order)))
    syms = qam_modulate(bits, order)
    assert np.mean(np.abs(syms) ** 2) == pytest.approx(1.0, rel=2e-2)
    back = qam_demodulate(syms, order)
    assert np.array_equal(back, bits)


def test_qam_gray_neighbor_property():
    # adjacent constellation points along one axis differ in exactly one bit
    bits = np.array([[a, b, c, d] for a in (0, 1) for b in (0, 1)
                     for c in (0, 1) for d in (0, 1)]).ravel()
    syms = qam_modulate(bits, 16)
    levels = sorted(set(np.round(syms.real, 6)))
    by_point = {}
    for i in range(16):
        by_point[(round(syms[i].real, 6), round(syms[i].imag, 6))] = bits[4 * i:4 * i + 4]
    for (re, im), b in by_point.items():
        for re2 in levels:
            if abs(re2 - re) == pytest.approx(levels[1] - levels[0], rel=1e-6):
                b2 = by_point[(round(re2, 6), im)]
                assert np.sum(b != b2) == 1


def test_qam_rejects_bad_order_and_length():
    with pytest.raises(ConfigError):
        qam_modulate(np.zeros(4, dtype=int), 8)
    with pytest.raises(ConfigError):
        qam_modulate(np.zeros(3, dtype=int), 16)


# ---------------------------------------------------------------- config


def test_config_geometry():
    cfg = OfdmConfig(n_subcarriers=64, qam_order=4, cp_fraction=1 / 16,
                     occupied_bandwidth=2e9, pilot_spacing=8)
    assert cfg.nfft == 64 * cfg.oversampling
    assert cfg.n_cp == cfg.nfft // 16
    assert 0 not in cfg.occupied_bins
    assert len(cfg.occupied_bins) == 64
    assert cfg.n_data + len(cfg.pilot_positions) == 64


def test_bandwidth_for_bit_rate_inverts_bit_rate():
    for rate in (10e9, 16e9, 0.25e9):
        bw = bandwidth_for_bit_rate(rate, qam_order=16, pilot_spacing=16)
        cfg = OfdmConfig(qam_order=16, pilot_spacing=16, occupied_bandwidth=bw)
        assert cfg.bit_rate() == pytest.approx(rate, rel=1e-9)


# ---------------------------------------------------------------- loopback


def test_loopback_identity():
    cfg = OfdmConfig(occupied_bandwidth=2e9, qam_order=16, seed=3)
    tx = bits_for(cfg, 40)
    wf = generate_ofdm(cfg, tx)
    assert wf.power() == pytest.approx(1.0, rel=0.15)
    rx, evm = demodulate_ofdm(cfg, wf)
    rep = ber_evm_metrics(tx, rx, evm_rms=evm)
    assert rep.bit_errors == 0
    assert evm < 1e-6


def _one_symbol_at_a_time(cfg, bits):
    """The frame of ``bits``, each symbol filled, transformed and given its
    cyclic prefix on its own: the reference for :func:`generate_ofdm`."""
    preamble, pilots = cfg._known_symbols()
    rows = [preamble]
    for symbols in qam_modulate(bits, cfg.qam_order).reshape(-1, cfg.n_data):
        row = np.empty(cfg.n_subcarriers, dtype=complex)
        row[cfg.pilot_positions], row[cfg.data_positions] = pilots, symbols
        rows.append(row)
    frame = []
    for row in rows:
        full = np.zeros(cfg.nfft, dtype=complex)
        full[cfg.occupied_bins % cfg.nfft] = row
        td = scipy.fft.ifft(full) * cfg.nfft
        frame += [td[cfg.nfft - cfg.n_cp:], td]
    x = np.concatenate(frame)
    return x / np.sqrt(np.mean(np.abs(x) ** 2))


@pytest.mark.parametrize("kwargs", [
    {}, {"qam_order": 64, "cp_fraction": 0.0, "oversampling": 3},
    {"n_subcarriers": 16, "qam_order": 16, "cp_fraction": 0.5}])
def test_frame_equals_the_symbol_by_symbol_reference(kwargs):
    cfg = OfdmConfig(occupied_bandwidth=2e9, seed=4, **kwargs)
    bits = bits_for(cfg, 25, seed=8)
    assert np.array_equal(generate_ofdm(cfg, bits).samples,
                          _one_symbol_at_a_time(cfg, bits))


def test_payload_length_validation():
    cfg = OfdmConfig(occupied_bandwidth=2e9)
    with pytest.raises(ConfigError):
        generate_ofdm(cfg, np.zeros(cfg.bits_per_symbol + 1, dtype=int))
    with pytest.raises(ConfigError):
        generate_ofdm(cfg, np.zeros(0, dtype=int))


def test_occupied_bandwidth_containment():
    cfg = OfdmConfig(occupied_bandwidth=2e9, seed=5)
    wf = generate_ofdm(cfg, bits_for(cfg, 60))
    spec2 = np.abs(np.fft.fft(wf.samples)) ** 2
    f = np.fft.fftfreq(wf.n, 1.0 / wf.sample_rate)
    inband = spec2[np.abs(f) <= 0.55 * cfg.occupied_bandwidth].sum()
    assert inband / spec2.sum() > 0.99


def test_sync_failure_on_noise():
    cfg = OfdmConfig(occupied_bandwidth=2e9)
    rng = np.random.default_rng(7)
    wf = generate_ofdm(cfg, bits_for(cfg, 10))
    noise = wf.copy_with(samples=rng.normal(size=wf.n)
                         + 1j * rng.normal(size=wf.n))
    with pytest.raises(SyncError):
        demodulate_ofdm(cfg, noise)


# ---------------------------------------------------------------- sync


def _complex(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_block_correlation_matches_numpy(data):
    """Overlap-save blocks give ``np.correlate``'s valid lags: on records
    shorter than a block, of one block and of many blocks with a ragged
    tail, for preambles from one sample to more than a block."""
    m = data.draw(st.one_of(*(st.integers(max(1, k - 8), k + 400) for k in (
        0, _CORR_BLOCK // 2, _CORR_BLOCK))), label="preamble")
    n = data.draw(st.one_of(
        st.integers(m, max(m, _CORR_BLOCK - 1)), st.just(max(m, _CORR_BLOCK)),
        st.integers(3 * _CORR_BLOCK, 5 * _CORR_BLOCK)), label="record")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rx, p = _complex(rng, n), _complex(rng, m)
    got = _correlate(rx, p)
    want = np.correlate(rx, p, "valid")
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _fftconvolve_start(cfg, rx):
    """The preamble start by one whole-record correlation."""
    preamble = _to_time(cfg, cfg._known_symbols()[0][np.newaxis])
    return int(np.argmax(np.abs(fftconvolve(rx, np.conj(preamble[::-1]),
                                            mode="valid"))))


@given(st.integers(0, 3000), st.sampled_from([0.0, 4.0, 10.0]),
       st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_sync_matches_a_whole_record_correlation(lead, ebn0, seed):
    cfg = OfdmConfig(occupied_bandwidth=2e9, pilot_spacing=16, seed=seed)
    wf = generate_ofdm(cfg, bits_for(cfg, 30, seed))
    rng = np.random.default_rng(seed)
    delayed = wf.copy_with(samples=np.concatenate(
        [0.1 * _complex(rng, lead), wf.samples]))
    rx = add_awgn(delayed, ebn0, cfg, seed=seed).samples
    start = _synchronize(cfg, rx)
    assert start == _fftconvolve_start(cfg, rx)
    assert start == lead


def test_loopback_through_dispersive_fiber():
    cfg = OfdmConfig(occupied_bandwidth=2e9, qam_order=16, seed=11)
    tx = bits_for(cfg, 40)
    wf = generate_ofdm(cfg, tx).copy_with(ref_freq=193.4e12)
    out = propagate_fiber(wf, FiberParams(20.0, atten_db_per_km=0.0))
    rx, evm = demodulate_ofdm(cfg, out.copy_with(ref_freq=0.0))
    rep = ber_evm_metrics(tx, rx, evm_rms=evm)
    assert rep.bit_errors == 0
    assert evm < 0.02  # pilot equalizer absorbs the quadratic phase


# ---------------------------------------------------------------- noise


def test_evm_tracks_configured_snr():
    cfg = OfdmConfig(occupied_bandwidth=2e9, qam_order=4, seed=13)
    tx = bits_for(cfg, 200)
    wf = generate_ofdm(cfg, tx)
    ebn0 = 14.0
    esn0 = 10 ** (ebn0 / 10) * 2
    noisy = add_awgn(wf, ebn0, cfg, seed=17)
    _, evm = demodulate_ofdm(cfg, noisy)
    assert evm == pytest.approx(1.0 / np.sqrt(esn0), rel=0.1)


@pytest.mark.parametrize("order,ebn0", [(4, 5.0), (16, 9.0)])
def test_monte_carlo_ber_matches_analytic(order, ebn0):
    cfg = OfdmConfig(occupied_bandwidth=2e9, qam_order=order, seed=19,
                     pilot_spacing=8)
    target = analytic_awgn_ber(order, ebn0)
    assert target > 1e-3  # keep the Monte Carlo cheap
    errors = bits = 0
    for trial in range(4):
        tx = bits_for(cfg, 150, seed=100 + trial)
        wf = generate_ofdm(cfg, tx)
        rx, _ = demodulate_ofdm(cfg, add_awgn(wf, ebn0, cfg, seed=trial))
        rep = ber_evm_metrics(tx, rx)
        errors += rep.bit_errors
        bits += rep.total_bits
    ber = errors / bits
    assert target / 2 < ber < target * 2


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_awgn_seed_determinism(seed):
    cfg = OfdmConfig(occupied_bandwidth=2e9, seed=1)
    wf = generate_ofdm(cfg, bits_for(cfg, 5))
    a = add_awgn(wf, 10.0, cfg, seed=seed)
    b = add_awgn(wf, 10.0, cfg, seed=seed)
    assert np.array_equal(a.samples, b.samples)
