"""The precision contract: a burst carries its optical fields as complex64
and its photocurrents as float32, set by the comb line alone, while every
device, fiber, filter and crop keeps the precision it is given."""

import numpy as np
import pytest

import oansim.scenarios
import oansim.subsystems
from gate import scenario_config
from oansim.channel import (FiberParams, PdParams, amplify_ase, photodetect,
                            propagate_fiber)
from oansim.devices import (ClockGenerator, Modulator, _tone, apply_mrm,
                            drop_filter, generate_subcarriers, iq_arms,
                            iq_mrm_ssb, undriven_mrm)
from oansim.scenarios import run_scenario
from oansim.subsystems import OnuReceiveResult, slope_biased_ring
from oansim.waveform import ComplexWaveform, crop_to_band

F0 = 193.4e12
FS = 160e9
N = 1 << 12


def test_a_burst_carries_single_precision_fields(monkeypatch):
    """On cut A, every field the pipeline's optical stages return is
    complex64 and every photocurrent float32."""
    fields, currents = [], []

    def recorded(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out, OnuReceiveResult):
                fields.append(out.residual)
                currents.extend(out.detected)
            else:
                fields.append(out)
            return out
        return wrapper

    def detected(*args, **kwargs):
        out = photodetect(*args, **kwargs)
        currents.append(out)
        return out

    for name in ("olt_transmit", "propagate_fiber", "amplify_ase",
                 "smart_edge_overlay", "onu_receive"):
        monkeypatch.setattr(oansim.scenarios, name,
                            recorded(getattr(oansim.scenarios, name)))
    monkeypatch.setattr(oansim.subsystems, "photodetect", detected)
    run_scenario(scenario_config("scenario_a", 1, cut=True))
    # per slot: transmitter, feeder, amplifier, overlay, distribution and
    # network unit; the uplink's distribution and feeder on slot 0
    assert len(fields) == 2 * 6 + 2
    assert {wf.samples.dtype for wf in fields} == {np.dtype(np.complex64)}
    # each network unit's three drops, as detected and as returned, then
    # the smart edge's intercept and the central office
    assert len(currents) == 2 * 3 * 2 + 2
    assert {wf.samples.dtype for wf in currents} == {np.dtype(np.float32)}


def _field(dtype):
    """A carrier with a weak line 7 GHz above it and some noise, F0 on bin
    0, as ``dtype``."""
    rng = np.random.default_rng(5)
    t = np.arange(N) / FS
    x = np.sqrt(1e-3) * (1.0 + 0.1 * np.exp(2j * np.pi * 7e9 * t)) \
        + 1e-5 * (rng.normal(size=N) + 1j * rng.normal(size=N))
    return ComplexWaveform(x.astype(dtype), FS, ref_freq=F0)


def _drive(real: bool):
    t = np.arange(N) / FS
    x = 0.05 * np.exp(2j * np.pi * 5e9 * t)
    return ComplexWaveform(x.real if real else x, FS)


def _stages():
    ring = slope_biased_ring(F0)
    payload = Modulator(ring, 0.12, 3.12 * ring.fwhm)
    pair = Modulator(ring, 0.12, 3.12 * ring.fwhm, 9e9, iq_arms())
    gen = slope_biased_ring(F0, slope_fraction=0.6)
    generator = ClockGenerator(gen, F0 - gen.effective_resonance + 0.5e9,
                               20e9, 1.2)
    return {
        "apply_mrm": lambda f: apply_mrm(f, payload, _drive(real=True)),
        "iq_mrm_ssb": lambda f: iq_mrm_ssb(f, pair, _drive(real=False)),
        "undriven_mrm": lambda f: undriven_mrm(f, ring, 0.5 + 0.5j),
        "generate_subcarriers": lambda f: generate_subcarriers(f, generator),
        "drop_filter": lambda f: drop_filter(f, F0 + 7e9, 12e9, 3)[1],
        "propagate_fiber": lambda f: propagate_fiber(f, FiberParams(20.0),
                                                     F0 - 50e9),
        "amplify_ase": lambda f: amplify_ase(f, 4.0, 4.5, seed=2),
        "crop_to_band": lambda f: crop_to_band(f, F0, F0 + 15e9),
    }


@pytest.mark.parametrize("name", sorted(_stages()))
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_each_stage_keeps_its_fields_precision(name, dtype):
    out = _stages()[name](_field(dtype))
    assert out.spectrum.dtype == dtype and out.samples.dtype == dtype


@pytest.mark.parametrize("dtype, real", [(np.complex128, np.float64),
                                         (np.complex64, np.float32)])
def test_photodetect_keeps_its_fields_precision(dtype, real):
    pd = PdParams(thermal_noise_psd=5e-24, include_shot=True, seed=3)
    assert photodetect(_field(dtype), pd).samples.dtype == real


def test_tone_frequency_holds_in_single_precision():
    """The power-weighted tone frequency, some 193 THz, of a complex64
    field lies within 1 kHz of the complex128 one: the powers and the
    baseband offsets are weighed in double and F0 added afterwards."""
    ring = slope_biased_ring(F0)
    tones = [_tone(_field(dtype), ring.effective_resonance, 10e9)[3]
             for dtype in (np.complex128, np.complex64)]
    assert abs(tones[1] - tones[0]) < 1e3
