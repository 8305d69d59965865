"""Waveform readings that only the tests need."""

import numpy as np


def times(wf) -> np.ndarray:
    """The instants (s) of a waveform's samples, from 0."""
    return np.arange(wf.n) * (1.0 / wf.sample_rate)


def power_dbm(wf) -> float:
    """A waveform's mean power in dBm."""
    return 10.0 * np.log10(wf.power() * 1e3)
