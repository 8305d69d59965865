"""BER/EVM accounting and the closed-form AWGN BER oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ConfigError

#: Hard-decision FEC limit for 7%-overhead codes; a scenario's default.
DEFAULT_FEC_THRESHOLD = 3.8e-3

_SQUARE_QAM = (4, 16, 64)


@dataclass
class BerReport:
    """Bit errors over bits counted, and the RMS EVM; the scenario report
    pools these and judges FEC."""
    bit_errors: int
    total_bits: int
    evm_rms: float


def ber_evm_metrics(tx_bits, rx_bits,
                    evm_rms: float | None = None) -> BerReport:
    """Exact bit-error count, with the demodulator's RMS EVM if given."""
    tx = np.asarray(tx_bits, dtype=np.int64).ravel()
    rx = np.asarray(rx_bits, dtype=np.int64).ravel()
    if tx.size != rx.size:
        raise ConfigError(f"bit sequences differ in length: {tx.size} vs {rx.size}")
    evm = float("nan") if evm_rms is None else float(evm_rms)
    return BerReport(int(np.sum(tx != rx)), int(tx.size), evm)


def ber_over_sent_bits(tx_bits, rx_bits, evm_rms: float) -> BerReport:
    """BER over every sent bit, when the demodulator may return fewer.

    Sent bits that were never demodulated count as errors, so a short
    demodulation cannot make the BER look better than it is.
    """
    tx = np.asarray(tx_bits).ravel()
    rx = np.asarray(rx_bits).ravel()
    rep = ber_evm_metrics(tx[: rx.size], rx, evm_rms=evm_rms)
    return BerReport(rep.bit_errors + tx.size - rep.total_bits, int(tx.size),
                     rep.evm_rms)


def qfunc(x):
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def analytic_awgn_ber(qam_order: int, ebn0_db: float) -> float:
    """Gray-coded square-QAM BER over AWGN.

    Evaluates 4/k * (1 - 1/sqrt(M)) * Q(sqrt(3k Eb/N0 / (M - 1))), with
    k = log2(M). For QPSK this is exactly Q(sqrt(2 Eb/N0)); for 16- and
    64-QAM it is the nearest-neighbor approximation.
    """
    if qam_order not in _SQUARE_QAM:
        raise ConfigError(f"unsupported QAM order {qam_order}")
    if np.isinf(ebn0_db) and ebn0_db > 0:
        return 0.0
    m = qam_order
    k = np.log2(m)
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    arg = np.sqrt(3.0 * k * ebn0 / (m - 1.0))
    return float(4.0 / k * (1.0 - 1.0 / np.sqrt(m)) * qfunc(arg))
