"""BER/EVM reporting and analytic AWGN reference tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from oansim.errors import ConfigError
from oansim.metrics import analytic_awgn_ber, ber_evm_metrics, qfunc


def test_identical_streams_zero_ber():
    bits = np.random.default_rng(0).integers(0, 2, 10_000)
    rep = ber_evm_metrics(bits, bits)
    assert rep.bit_errors == 0
    assert rep.total_bits == 10_000


def test_single_flip_counted():
    bits = np.zeros(1000, dtype=int)
    rx = bits.copy()
    rx[123] = 1
    rep = ber_evm_metrics(bits, rx)
    assert rep.bit_errors == 1
    assert rep.total_bits == 1000


def test_independent_streams_half_ber():
    rng = np.random.default_rng(42)
    tx = rng.integers(0, 2, 1_000_000)
    rx = rng.integers(0, 2, 1_000_000)
    rep = ber_evm_metrics(tx, rx)
    assert rep.bit_errors / rep.total_bits == pytest.approx(0.5, abs=5e-3)


def test_empty_input_is_zero_bits():
    rep = ber_evm_metrics(np.array([]), np.array([]))
    assert rep.total_bits == 0 and rep.bit_errors == 0


def test_length_mismatch_rejected():
    with pytest.raises(ConfigError):
        ber_evm_metrics(np.zeros(5, dtype=int), np.zeros(4, dtype=int))


# ---------------------------------------------------------------- analytic


def test_qfunc_anchors():
    assert qfunc(0.0) == pytest.approx(0.5)
    assert qfunc(np.inf) == 0.0
    assert qfunc(3.0) == pytest.approx(1.349898e-3, rel=1e-4)


def test_analytic_qpsk_anchor():
    # QPSK at Eb/N0 = 9.6 dB sits near 1e-5
    ber = analytic_awgn_ber(4, 9.6)
    assert ber == pytest.approx(qfunc(np.sqrt(2 * 10 ** 0.96)), rel=1e-12)
    assert 5e-6 < ber < 2e-5
    # exact Q(sqrt(2 Eb/N0)) at the 1e-5 crossing, 10*log10(erfcinv(2e-5)^2)
    crossing = 10 * np.log10(special.erfcinv(2e-5) ** 2)
    assert analytic_awgn_ber(4, crossing) == pytest.approx(
        0.5 * special.erfc(np.sqrt(10 ** (crossing / 10))), rel=1e-12)
    assert analytic_awgn_ber(4, crossing) == pytest.approx(1e-5, rel=1e-9)
    # criterion 8d's 9.5 dB keeps its oracle above 1e-5; 9.588 dB would not
    assert analytic_awgn_ber(4, 9.588) < 1e-5 < analytic_awgn_ber(4, 9.5)


def test_analytic_ordering_and_limits():
    for ebn0 in (0.0, 5.0, 10.0):
        assert analytic_awgn_ber(4, ebn0) < analytic_awgn_ber(16, ebn0) \
            < analytic_awgn_ber(64, ebn0)
    assert analytic_awgn_ber(4, np.inf) == 0.0


@given(st.floats(-5, 20), st.floats(0.01, 5.0))
@settings(max_examples=50, deadline=None)
def test_analytic_monotone_in_snr(ebn0, step):
    assert analytic_awgn_ber(16, ebn0 + step) <= analytic_awgn_ber(16, ebn0)
