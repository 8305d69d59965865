"""OFDM modem: Gray-QAM mapping, frame generation, pilot-aided detection.

Framing: one known preamble symbol followed by payload symbols, each with a
cyclic prefix.  Comb pilots every ``pilot_spacing``-th occupied subcarrier
support a one-tap least-squares equalizer; the channel estimate is averaged
over the preamble and all pilot observations and smoothed across
subcarriers, so estimator noise is negligible against data noise.

The receiver finds the preamble by an overlap-save correlation in blocks
of 8192 points (:func:`_correlate`), not by transforms of the whole
record.  Each symbol keeps its own transform call, although one call
over all symbols gives the same values: the benchmark (``perfbench``)
counts one per symbol.  Around those calls, a frame's spectra are
filled, and their occupied bins taken, as one array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as fftpack

from .errors import ConfigError, SyncError
from .waveform import ComplexWaveform

_SQUARE_QAM = (4, 16, 64)


# ---------------------------------------------------------------------------
# Gray-coded square QAM

def _gray_tables(order: int):
    """Per-axis level table indexed by bit value, and its inverse."""
    levels_per_axis = int(np.sqrt(order))
    idx = np.arange(levels_per_axis)
    gray = idx ^ (idx >> 1)
    bits_to_idx = np.empty(levels_per_axis, dtype=np.int64)
    bits_to_idx[gray] = idx
    amps = 2 * idx - (levels_per_axis - 1)
    return amps, bits_to_idx, gray


def qam_modulate(bits: np.ndarray, order: int) -> np.ndarray:
    """Map bits to unit-average-energy Gray-coded square QAM symbols."""
    if order not in _SQUARE_QAM:
        raise ConfigError(f"unsupported QAM order {order}; use one of {_SQUARE_QAM}")
    bits = np.asarray(bits, dtype=np.int64).ravel()
    bps = int(np.log2(order))
    if bits.size % bps:
        raise ConfigError(f"bit count {bits.size} not a multiple of {bps}")
    half = bps // 2
    amps, bits_to_idx, _ = _gray_tables(order)
    grouped = bits.reshape(-1, bps)
    weights = 1 << np.arange(half - 1, -1, -1)
    vi = grouped[:, :half] @ weights
    vq = grouped[:, half:] @ weights
    scale = np.sqrt(2.0 * (order - 1) / 3.0)
    return (amps[bits_to_idx[vi]] + 1j * amps[bits_to_idx[vq]]) / scale


def qam_demodulate(symbols: np.ndarray, order: int) -> np.ndarray:
    """Hard-decision Gray demapping of (possibly noisy) QAM symbols."""
    if order not in _SQUARE_QAM:
        raise ConfigError(f"unsupported QAM order {order}; use one of {_SQUARE_QAM}")
    levels_per_axis = int(np.sqrt(order))
    bps = int(np.log2(order))
    half = bps // 2
    _, _, gray = _gray_tables(order)
    scale = np.sqrt(2.0 * (order - 1) / 3.0)

    def axis_bits(vals):
        idx = np.clip(
            np.round((vals * scale + (levels_per_axis - 1)) / 2.0),
            0, levels_per_axis - 1,
        ).astype(np.int64)
        g = gray[idx]
        out = np.empty((vals.size, half), dtype=np.int64)
        for b in range(half):
            out[:, b] = (g >> (half - 1 - b)) & 1
        return out

    symbols = np.asarray(symbols).ravel()
    bi = axis_bits(symbols.real)
    bq = axis_bits(symbols.imag)
    return np.concatenate([bi, bq], axis=1).ravel()


# ---------------------------------------------------------------------------
# OFDM configuration

@dataclass
class OfdmConfig:
    n_subcarriers: int = 64
    qam_order: int = 4
    cp_fraction: float = 1.0 / 16.0
    occupied_bandwidth: float = 2e9
    pilot_spacing: int = 8
    seed: int = 0
    oversampling: int = 4

    def __post_init__(self):
        n = self.n_subcarriers
        if n < 2 or (n & (n - 1)):
            raise ConfigError("n_subcarriers must be a power of two >= 2")
        if self.qam_order not in _SQUARE_QAM:
            raise ConfigError(f"qam_order must be one of {_SQUARE_QAM}")
        if not 0.0 <= self.cp_fraction <= 0.5:
            raise ConfigError("cp_fraction must be in [0, 0.5]")
        if self.occupied_bandwidth <= 0:
            raise ConfigError("occupied_bandwidth must be > 0")
        if self.pilot_spacing < 2:
            raise ConfigError("pilot_spacing must be >= 2")
        if self.oversampling < 2:
            raise ConfigError("oversampling must be >= 2")

    # derived geometry -----------------------------------------------------
    @property
    def nfft(self) -> int:
        return self.oversampling * self.n_subcarriers

    @property
    def n_cp(self) -> int:
        return int(round(self.cp_fraction * self.nfft))

    @property
    def sample_rate(self) -> float:
        return self.oversampling * self.occupied_bandwidth

    @property
    def occupied_bins(self) -> np.ndarray:
        n = self.n_subcarriers
        return np.concatenate([np.arange(-n // 2, 0), np.arange(1, n // 2 + 1)])

    @property
    def pilot_positions(self) -> np.ndarray:
        """Indices into occupied_bins that carry pilots."""
        return np.arange(0, self.n_subcarriers, self.pilot_spacing)

    @property
    def data_positions(self) -> np.ndarray:
        mask = np.ones(self.n_subcarriers, dtype=bool)
        mask[self.pilot_positions] = False
        return np.nonzero(mask)[0]

    @property
    def n_data(self) -> int:
        return self.data_positions.size

    @property
    def bits_per_symbol(self) -> int:
        return self.n_data * int(np.log2(self.qam_order))

    def bit_rate(self) -> float:
        """Net payload bit rate implied by the configuration."""
        frac = self.n_data / self.n_subcarriers
        return (self.occupied_bandwidth * np.log2(self.qam_order) * frac
                / (1.0 + self.cp_fraction))

    def frame_duration(self) -> float:
        return (self.nfft + self.n_cp) / self.sample_rate

    def _known_symbols(self):
        rng = np.random.default_rng(self.seed)
        qpsk = np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(
            0, 4, size=2 * self.n_subcarriers)))
        preamble = qpsk[: self.n_subcarriers]
        pilots = qpsk[self.n_subcarriers:][self.pilot_positions]
        return preamble, pilots


def bandwidth_for_bit_rate(target_bps: float, qam_order: int = 4,
                           cp_fraction: float = 1.0 / 16.0,
                           pilot_spacing: int = 8,
                           n_subcarriers: int = 64) -> float:
    """Occupied bandwidth that yields the target net bit rate."""
    probe = OfdmConfig(n_subcarriers=n_subcarriers, qam_order=qam_order,
                       cp_fraction=cp_fraction, occupied_bandwidth=1.0,
                       pilot_spacing=pilot_spacing)
    return target_bps / probe.bit_rate()


# ---------------------------------------------------------------------------
# Generation

def _to_time(cfg: OfdmConfig, occupied: np.ndarray) -> np.ndarray:
    """The samples of the symbols whose occupied bins (in ``occupied_bins``
    order) are the rows of ``occupied``, each behind its cyclic prefix:
    one inverse transform per symbol, written into one array."""
    nfft, n_cp = cfg.nfft, cfg.n_cp
    spec = np.zeros((len(occupied), nfft), dtype=np.complex128)
    spec[:, cfg.occupied_bins % nfft] = occupied
    frames = np.empty((len(occupied), n_cp + nfft), dtype=np.complex128)
    for row, out in zip(spec, frames[:, n_cp:]):
        np.multiply(fftpack.ifft(row), nfft, out=out)
    frames[:, :n_cp] = frames[:, nfft:]
    return frames.ravel()


def generate_ofdm(config: OfdmConfig, payload_bits: np.ndarray) -> ComplexWaveform:
    """Build a unit-average-power baseband OFDM waveform from payload bits.

    The payload length must be a multiple of ``config.bits_per_symbol``.
    """
    bits = np.asarray(payload_bits, dtype=np.int64).ravel()
    bps = config.bits_per_symbol
    if bits.size == 0 or bits.size % bps:
        raise ConfigError(
            f"payload length {bits.size} must be a non-zero multiple of "
            f"{bps} bits (one OFDM frame)"
        )
    n_sym = bits.size // bps
    preamble, pilots = config._known_symbols()
    occupied = np.empty((n_sym + 1, config.n_subcarriers), dtype=np.complex128)
    occupied[0] = preamble
    occupied[1:, config.pilot_positions] = pilots
    occupied[1:, config.data_positions] = qam_modulate(
        bits, config.qam_order).reshape(n_sym, -1)
    samples = _to_time(config, occupied)
    samples /= np.sqrt(np.mean(np.abs(samples) ** 2))
    return ComplexWaveform(samples, config.sample_rate)


# ---------------------------------------------------------------------------
# Detection

#: Points of each block of the preamble search's overlap-save correlation.
_CORR_BLOCK = 8192


def _correlate(rx: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """``np.correlate(rx, kernel, "valid")`` by overlap-save: the record is
    cut into blocks of ``_CORR_BLOCK`` points (more for a kernel over half
    a block) that overlap by the kernel's length less one; each block's
    circular correlation with the zero-padded kernel holds the valid lags
    of its first ``block - kernel.size + 1`` points."""
    m = kernel.size
    size = max(_CORR_BLOCK, 1 << (2 * m - 1).bit_length())
    step = size - m + 1
    valid = rx.size - m + 1
    count = -(-valid // step)
    padded = np.zeros((count - 1) * step + size,
                      dtype=np.result_type(rx, kernel, np.complex64))
    padded[:rx.size] = rx
    blocks = np.lib.stride_tricks.sliding_window_view(padded, size)[::step]
    spec = fftpack.fft(blocks)
    spec *= np.conj(fftpack.fft(kernel, size))
    return fftpack.ifft(spec, overwrite_x=True)[:, :step].ravel()[:valid]


def _synchronize(cfg: OfdmConfig, rx: np.ndarray) -> int:
    """The first sample of the preamble: the lag where the magnitude of the
    record's correlation with the preamble symbol, cyclic prefix included,
    peaks, at least five times its mean, a floor found in one pass.  The
    correlation runs in overlap-save blocks (:func:`_correlate`): the
    preamble's few hundred samples need no transform as long as the
    record."""
    preamble_td = _to_time(cfg, cfg._known_symbols()[0][np.newaxis])
    if rx.size < preamble_td.size:
        raise SyncError("received waveform shorter than one preamble symbol")
    corr = np.abs(_correlate(rx, preamble_td))
    peak = int(np.argmax(corr))
    floor = np.mean(corr) + 1e-30
    if corr[peak] < 5.0 * floor:
        raise SyncError("preamble not found (correlation peak below threshold)")
    return peak


def demodulate_ofdm(config: OfdmConfig, waveform: ComplexWaveform,
                    max_symbols: int | None = None):
    """Detect an OFDM waveform; returns (bits, evm_rms).

    The waveform must be at the modem rate ``config.sample_rate``; a
    signal carried at an IF is brought there by
    :func:`~oansim.waveform.from_if`.  Synchronization is by preamble
    correlation.
    """
    if waveform.sample_rate != config.sample_rate:
        raise ConfigError(
            f"waveform at {waveform.sample_rate:g} S/s is not at the modem "
            f"rate {config.sample_rate:g} S/s")
    rx = waveform.samples
    start = _synchronize(config, rx)

    nfft, n_cp = config.nfft, config.n_cp
    sym_len = nfft + n_cp
    preamble, pilots = config._known_symbols()
    ppos, dpos = config.pilot_positions, config.data_positions

    n_sym = (rx.size - start) // sym_len - 1
    if max_symbols is not None:
        n_sym = min(n_sym, max_symbols)
    if n_sym < 1:
        raise SyncError("no payload symbols after the preamble")

    # the preamble and each payload symbol, past its cyclic prefix
    frames = rx[start:start + (n_sym + 1) * sym_len].reshape(-1, sym_len)
    spec = np.stack([fftpack.fft(seg) for seg in frames[:, n_cp:]])
    occupied = spec[:, config.occupied_bins % nfft] / nfft
    y_pre, payload = occupied[0], occupied[1:]

    # channel estimate: preamble everywhere, plus time-averaged pilots,
    # weight-smoothed across subcarriers (channel is smooth in frequency)
    h_obs = y_pre / preamble
    wgt = np.ones(config.n_subcarriers)
    h_pil = np.mean(payload[:, ppos] / pilots, axis=0)
    h_obs[ppos] = (h_obs[ppos] + n_sym * h_pil) / (1 + n_sym)
    wgt[ppos] = 1 + n_sym
    win = np.ones(min(2 * config.pilot_spacing + 1, config.n_subcarriers))
    h_est = (np.convolve(h_obs * wgt, win, mode="same")
             / np.convolve(wgt, win, mode="same"))

    eq = payload / h_est[np.newaxis, :]
    data = eq[:, dpos].ravel()
    bits = qam_demodulate(data, config.qam_order)
    decided = qam_modulate(bits, config.qam_order)   # nearest points
    evm = float(np.sqrt(np.mean(np.abs(data - decided) ** 2)
                        / np.mean(np.abs(decided) ** 2)))
    return bits, evm


# ---------------------------------------------------------------------------
# AWGN helper (test oracle support)

def add_awgn(wf: ComplexWaveform, ebn0_db: float, config: OfdmConfig,
             seed: int = 0) -> ComplexWaveform:
    """Add complex white Gaussian noise for a target per-bit SNR.

    Eb is defined per data-subcarrier bit at the receiver FFT (CP and pilot
    overhead are rate overhead, not an energy rescaling).
    """
    esn0 = 10.0 ** (ebn0_db / 10.0) * np.log2(config.qam_order)
    p = wf.power()
    sigma2 = p * config.nfft / (config.n_subcarriers * esn0)
    rng = np.random.default_rng(seed)
    noise = rng.normal(scale=np.sqrt(sigma2 / 2), size=(2, wf.n))
    samples = np.empty(wf.n, dtype=np.complex128)
    np.add(wf.samples.real, noise[0], out=samples.real)
    np.add(wf.samples.imag, noise[1], out=samples.imag)
    return wf.copy_with(samples=samples)
