"""Site-level composition tests: transmitter, overlay, network unit."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from oansim.channel import PdParams
from oansim.devices import (Modulator, drop_filter, iq_arms, ring_response,
                            undriven_mrm)
from oansim.errors import ConfigError, SimulationError
from oansim.metrics import ber_over_sent_bits
from oansim.ofdm import OfdmConfig, demodulate_ofdm, generate_ofdm
import oansim.subsystems
from oansim.subsystems import (BUS_LOSS_DB_PER_STAGE, FilterSpec, OnuConfig,
                               WdmChannel, WdmPlan, detect_drop, olt_transmit,
                               onu_receive, onu_remodulate, overlay_rings,
                               slope_biased_ring, smart_edge_intercept_uplink,
                               smart_edge_overlay, solve_carrier_tap_filter)
from oansim.waveform import (ComplexWaveform, analytic, band_power, from_if,
                             if_spectrum)
from waves import power_dbm

F0 = 193.4e12
FS = 64e9


def single_plan(center=F0):
    return WdmPlan([WdmChannel(center)])


def ofdm_cfg(seed=1):
    return OfdmConfig(occupied_bandwidth=2e9, qam_order=4, pilot_spacing=16,
                      seed=seed)


def modulators(plan, depth=0.25, sideband="upper"):
    """One IQ modulator per channel of ``plan``, driven to ``depth`` on
    ``sideband``, its tone window 3 linewidths plus its depth's."""
    rings = [slope_biased_ring(ch.center_freq) for ch in plan.channels]
    return [Modulator(r, depth, (3.0 + depth) * r.fwhm, arms=iq_arms(sideband))
            for r in rings]


def onu_cfg(center=F0, depth=0.2, **kw):
    broadband = solve_carrier_tap_filter(4e9, 10e9, 0.25, order=3,
                                         passband_fraction=0.995)
    defaults = dict(channel=WdmChannel(center), broadband_filter=broadband,
                    modulator=modulators(single_plan(center), depth)[0])
    defaults.update(kw)
    return OnuConfig(**defaults)


def bits_for(cfg, n_symbols, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, n_symbols * cfg.bits_per_symbol)


def if_drive(cfg, bits, f_if, fs):
    """``rfft`` bins of the OFDM signal of ``bits`` at ``f_if`` on a record
    of its own duration at ``fs``, and that record's length."""
    modem = generate_ofdm(cfg, bits)
    n = int(round(modem.n * fs / cfg.sample_rate))
    return if_spectrum(modem, f_if, n, fs), n


def drive_for(cfg, bits, f_if=7e9, fs=FS):
    """The analytic OFDM drive of ``bits`` at ``f_if`` on the simulation
    grid, for an IQ modulator."""
    return analytic(*if_drive(cfg, bits, f_if, fs), fs)


def payload_for(cfg, bits, f_if, fs=FS):
    """The real OFDM drive of ``bits`` at ``f_if``, for a single ring."""
    half, n = if_drive(cfg, bits, f_if, fs)
    return ComplexWaveform(np.fft.irfft(half, n), fs)


def transmit(plan, cfg, payloads, fs=FS, depth=0.25, **kw):
    """The central office's slot fields for one bit array per channel,
    each driven to ``depth``."""
    return [olt_transmit(plan, drive_for(cfg, bits, fs=fs), k,
                         modulators(plan, depth), **kw)
            for k, bits in enumerate(payloads)]


def demodulated(cfg, photocurrent, tx, f_if=7e9):
    """The bit-error report of a photocurrent carrying ``tx`` at ``f_if``."""
    rx, evm = demodulate_ofdm(cfg, from_if(photocurrent, f_if,
                                           cfg.sample_rate),
                              max_symbols=tx.size // cfg.bits_per_symbol)
    return ber_over_sent_bits(tx, rx, evm)


def filter_drop_fraction(spec, offset):
    """|H_drop|^2 of a maximally flat filter at a carrier offset: the
    analytic oracle of :func:`solve_carrier_tap_filter`."""
    u = 2.0 * (offset - spec.center_offset) / spec.bandwidth
    return 1.0 / (1.0 + u ** (2 * spec.order))


# ---------------------------------------------------------------- plan


def test_plan_rejects_overlapping_slots():
    with pytest.raises(ConfigError):
        WdmPlan([WdmChannel(F0), WdmChannel(F0 + 40e9)])


def test_plan_accepts_100ghz_spacing():
    plan = WdmPlan([WdmChannel(F0 - 50e9), WdmChannel(F0 + 50e9)])
    assert plan.n_channels == 2
    assert plan.ref_freq() == pytest.approx(F0)


def test_slope_biased_ring_half_transmission():
    ring = slope_biased_ring(F0)
    through, _ = ring_response(ring, F0)
    assert 0.3 < abs(through) ** 2 < 0.7


# ---------------------------------------------------------------- filters


def test_carrier_tap_filter_exact_tap():
    for tap in (0.1, 0.25, 0.5, 0.9):
        spec = solve_carrier_tap_filter(4e9, 10e9, tap, order=3)
        assert filter_drop_fraction(spec, 0.0) == pytest.approx(tap, rel=1e-9)


def test_carrier_tap_filter_passes_band():
    spec = solve_carrier_tap_filter(4e9, 10e9, 0.25, order=3,
                                    passband_fraction=0.99)
    assert filter_drop_fraction(spec, 10e9) >= 0.99
    assert spec.center_offset > 0


def test_carrier_tap_filter_lower_side():
    spec = solve_carrier_tap_filter(-10e9, -4e9, 0.25, order=3)
    assert spec.center_offset < 0
    assert filter_drop_fraction(spec, 0.0) == pytest.approx(0.25, rel=1e-9)


def test_carrier_tap_filter_validation():
    with pytest.raises(ConfigError):
        solve_carrier_tap_filter(-1e9, 4e9, 0.25)  # straddles the carrier
    with pytest.raises(ConfigError):
        solve_carrier_tap_filter(4e9, 10e9, 1.5)
    with pytest.raises(ConfigError):
        solve_carrier_tap_filter(4e9, 10e9, 0.25, order=0)
    with pytest.raises(ConfigError):
        solve_carrier_tap_filter(4e9, 10e9, 0.25, passband_fraction=1.5)


# ---------------------------------------------------------------- ONU config


def test_onu_config_validation():
    with pytest.raises(ConfigError):  # no such sideband
        onu_cfg(modulator=Modulator(slope_biased_ring(F0), 0.2, 8e9,
                                    arms=iq_arms("both")))
    with pytest.raises(ConfigError):  # filter beyond the slot
        onu_cfg(broadband_filter=FilterSpec(24e9, 5e9, 3))
    with pytest.raises(ConfigError):  # order-1 skirt cannot hold 13 dB
        onu_cfg(broadband_filter=FilterSpec(7e9, 8e9, 1))


@pytest.mark.parametrize("order", [3, 16, 30, 1000])
def test_steep_filter_passes_the_extinction_check_quietly(order):
    """A skirt leaks 1 / (1 + 4^order) at u = 1/2.  Taken as 1 - 1 / (1 +
    4^-order), that rounds to 0 from order 27 on, and 4^order overflows a
    float past order 511; the check, as order log10(4) + log10(1 +
    4^-order) in dB, neither warns nor fails at any order."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        onu_cfg(broadband_filter=FilterSpec(7e9, 8e9, order))


# ---------------------------------------------------------------- downlink


def test_olt_to_onu_loopback_error_free():
    plan = single_plan()
    cfg = ofdm_cfg()
    tx = bits_for(cfg, 30)
    (field,) = transmit(plan, cfg, [tx], power_per_tone_dbm=3.0,
                        depth=0.12)
    res = onu_receive(field, onu_cfg(), [PdParams()])
    report = demodulated(cfg, res.detected[0], tx)
    assert report.bit_errors == 0
    assert report.evm_rms < 0.1
    # the tap leaves most of the carrier on the bus for remodulation
    ledger = res.ledger
    assert ledger["carrier_residual_dbm"] > ledger["carrier_in_dbm"] - 3.0


def test_olt_spectral_containment():
    plan = single_plan()
    cfg = ofdm_cfg()
    (field,) = transmit(plan, cfg, [bits_for(cfg, 20)],
                        power_per_tone_dbm=0.0, depth=0.12)
    in_slot = band_power(field, F0 - 25e9, F0 + 25e9)
    out_slot = field.power() - in_slot
    assert 10 * np.log10(out_slot / in_slot) < -30.0


@pytest.mark.parametrize("n, k", [(1 << 14, 5120), (10001, 3125)])
def test_comb_lines_sit_on_their_record_bins(n, k, monkeypatch):
    """Each slot record is centred on its channel's carrier, whose comb
    line it holds on bin 0: +/-50 GHz at 160 GS/s is +/-5,120 bins of a
    2^14-sample record of the plan, and falls between bins of one of
    10,001, where the slot's carrier stays exact."""
    fs = 160e9
    plan = WdmPlan([WdmChannel(F0 - 50e9), WdmChannel(F0 + 50e9)])
    seen = []
    monkeypatch.setattr(oansim.subsystems, "iq_mrm_ssb",
                        lambda field, config, drive: seen.append(field)
                        or field)
    monkeypatch.setattr(oansim.subsystems, "undriven_mrm",
                        lambda field, ring, gain=1.0: field)
    drive = ComplexWaveform(np.zeros(n, dtype=complex), fs)
    for channel in range(2):
        olt_transmit(plan, drive, channel, modulators(plan),
                     power_per_tone_dbm=0.0)
    for j, (field, ch) in enumerate(zip(seen, plan.channels)):
        assert field.ref_freq == ch.center_freq
        assert list(np.flatnonzero(field.spectrum)) == [0]
        # after the bus loss of the modulators before it, in the record's
        # precision
        want = field.spectrum.dtype.type(np.sqrt(1e-3) * n)
        for _ in range(j):
            want *= 10.0 ** (-0.1 / 20.0)
        assert field.spectrum[0] == pytest.approx(want, rel=1e-12)
    apart = (seen[1].ref_freq - seen[0].ref_freq) * n / fs
    assert abs(apart - 2 * k) < 1.0


def test_olt_payload_count_mismatch():
    cfg = ofdm_cfg()
    with pytest.raises(ConfigError, match="channel 1"):
        olt_transmit(single_plan(), drive_for(cfg, bits_for(cfg, 5)), 1,
                     modulators(single_plan()))


def test_overlay_devices_each_cost_the_bus_loss():
    """A channel with no smart-edge devices passes its slot unchanged; the
    other channel's generator and two tunnel rings, at rest 100 GHz away,
    act by their static responses and cost one bus loss each."""
    plan = WdmPlan([WdmChannel(F0 - 50e9), WdmChannel(F0 + 50e9)])
    cfg = ofdm_cfg()
    field = transmit(plan, cfg, [bits_for(cfg, 10)], depth=0.12)[0]
    bare = (None, [])
    out = smart_edge_overlay(field, [bare, bare], [])
    assert np.array_equal(out.spectrum, field.spectrum)
    gen, tunnels = overlay_rings(plan.channels[1], [None] * 2, 0.25, 0.4, 0.6)
    out = smart_edge_overlay(field, [bare, (gen, tunnels)], [])
    want = field
    for ring in (gen.ring, *(t.ring for t in tunnels)):
        want = undriven_mrm(want, ring).scaled(
            10.0 ** (-BUS_LOSS_DB_PER_STAGE / 20.0))
    np.testing.assert_allclose(out.spectrum, want.spectrum, rtol=1e-12,
                               atol=1e-12 * np.abs(want.spectrum).max())
    assert power_dbm(field) - power_dbm(out) == pytest.approx(
        3 * BUS_LOSS_DB_PER_STAGE, abs=0.01)


def test_overlay_creates_subcarriers():
    plan = single_plan()
    cfg = ofdm_cfg()
    (field,) = transmit(plan, cfg, [bits_for(cfg, 10)],
                        power_per_tone_dbm=3.0, depth=0.12)
    rof_cfg = OfdmConfig(occupied_bandwidth=2e9, qam_order=4, pilot_spacing=16,
                         seed=9)
    payload = payload_for(rof_cfg, bits_for(rof_cfg, 10, 5), f_if=3e9)
    payload = payload.scaled(0.1)
    rings = [overlay_rings(ch, [None], 0.25, 1.2, 0.6)
             for ch in plan.channels]
    out = smart_edge_overlay(field, rings, [payload])
    up = band_power(out, F0 + 15e9, F0 + 25e9)
    dn = band_power(out, F0 - 25e9, F0 - 15e9)
    carrier = band_power(out, F0 - 1e9, F0 + 1e9)
    assert up > 0.01 * carrier
    assert dn > 0.01 * carrier


def test_overlay_rejects_three_tunnels():
    """Three drives for a smart edge of two tunnel rings."""
    plan = single_plan()
    cfg = ofdm_cfg()
    field = transmit(plan, cfg, [bits_for(cfg, 5)])[0]
    drive = payload_for(cfg, bits_for(cfg, 5), f_if=3e9)
    with pytest.raises(ConfigError, match="3 drives for the 2 smart-edge"):
        smart_edge_overlay(field,
                           [overlay_rings(plan.channels[0], [None] * 2, 0.25,
                                          0.4, 0.6)],
                           [drive] * 3)


# ---------------------------------------------------------------- uplink


def uplink_setup(n_symbols=25):
    plan = single_plan()
    cfg = ofdm_cfg()
    (field,) = transmit(plan, cfg, [bits_for(cfg, n_symbols)],
                        power_per_tone_dbm=3.0, depth=0.12)
    ocfg = onu_cfg(depth=0.5)
    res = onu_receive(field, ocfg, [PdParams()])
    return plan, cfg, ocfg, res


def test_remodulate_reports_sideband_ratio():
    plan, cfg, ocfg, res = uplink_setup()
    up = drive_for(cfg, bits_for(cfg, 25, seed=7))
    remod = onu_remodulate(res.residual, ocfg, up)
    assert remod.uplink_to_residual_db is not None
    assert remod.uplink_to_residual_db >= 13.0


def test_remodulate_needs_a_drive():
    """An analytic drive on the residual's grid: neither a real one nor
    one of another length."""
    plan, cfg, ocfg, res = uplink_setup(n_symbols=10)
    drive = drive_for(cfg, bits_for(cfg, 10))
    for wrong in (ComplexWaveform(drive.samples.real, drive.sample_rate),
                  drive.copy_with(samples=drive.samples[:-1])):
        with pytest.raises(ConfigError, match="drive"):
            onu_remodulate(res.residual, ocfg, wrong)


def test_remodulate_requires_carrier():
    plan, cfg, ocfg, res = uplink_setup(n_symbols=10)
    starved = res.residual.copy_with(samples=res.residual.samples * 1e-6)
    with pytest.raises(SimulationError):
        onu_remodulate(starved, ocfg, drive_for(cfg, bits_for(cfg, 10)))


def test_intercept_returns_uplink_band():
    plan, cfg, ocfg, res = uplink_setup()
    remod = onu_remodulate(res.residual, ocfg,
                           drive_for(cfg, bits_for(cfg, 25, seed=7)))
    # uplink is on the upper sideband here, so intercept the upper band
    spec = solve_carrier_tap_filter(1e9, 3e9, 0.25, order=4)
    result = smart_edge_intercept_uplink(remod.waveform, plan.channels[0],
                                         spec)
    assert result.rof_electrical.ref_freq == 0.0
    assert result.through.power() < remod.waveform.power()


@pytest.mark.parametrize("offset", [-20e9, -3e9, 0.0, 5e9, 12e9])
@pytest.mark.parametrize("bandwidth", [1e9, 4e9, 10e9])
def test_detection_window_holds_carrier_and_passband(offset, bandwidth,
                                                     monkeypatch):
    crops = []
    crop = oansim.subsystems.crop_to_band

    def recorded(wf, f_lo, f_hi):
        crops.append(crop(wf, f_lo, f_hi))
        return crops[-1]

    monkeypatch.setattr(oansim.subsystems, "crop_to_band", recorded)
    n = 5 << 13
    rng = np.random.default_rng(5)
    field = ComplexWaveform(rng.normal(size=n) + 1j * rng.normal(size=n), FS,
                            ref_freq=F0 - 2e9)
    spec = FilterSpec(offset, bandwidth, 3)
    electrical = detect_drop(field, F0, spec, PdParams())
    band = crops[0]
    assert electrical.sample_rate == band.sample_rate
    m, df = band.n, band.sample_rate / band.n
    if m < n:
        lo = band.ref_freq - (m // 4) * df
        hi = band.ref_freq + (m // 2 - m // 4 - 1) * df
        assert lo <= min(F0, F0 + offset - bandwidth / 2.0)
        assert max(F0, F0 + offset + bandwidth / 2.0) <= hi
    # a band near the carrier is detected at a fraction of the rate
    if abs(offset) + bandwidth <= 6e9:
        assert m < n


# ---------------------------------------------------------------- colorless


def test_colorless_onu_retunes_across_channels():
    plan = WdmPlan([WdmChannel(F0 - 50e9), WdmChannel(F0 + 50e9)])
    cfg = ofdm_cfg()
    tx0, tx1 = bits_for(cfg, 20, 1), bits_for(cfg, 20, 2)
    fields = transmit(plan, cfg, [tx0, tx1], fs=160e9, power_per_tone_dbm=3.0,
                      depth=0.12)
    base = onu_cfg(center=F0 - 50e9)
    for field, center, tx in zip(fields, (F0 - 50e9, F0 + 50e9), (tx0, tx1)):
        ch_field, _ = drop_filter(field, center, 45e9, order=4)
        res = onu_receive(ch_field, replace(base, channel=WdmChannel(center)),
                          [PdParams()])
        assert demodulated(cfg, res.detected[0], tx).bit_errors == 0


def test_onu_receive_needs_power_in_slot():
    cfg = ofdm_cfg()
    plan = single_plan()
    field = transmit(plan, cfg, [bits_for(cfg, 5)])[0]
    empty = field.copy_with(samples=np.zeros(field.n, dtype=np.complex128))
    with pytest.raises(SimulationError):
        onu_receive(empty, onu_cfg(), [PdParams()])
