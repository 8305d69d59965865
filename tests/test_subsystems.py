"""Site-level composition tests: transmitter, overlay, network unit."""

import numpy as np
import pytest

from oansim.channel import FiberParams, PdParams, propagate_fiber
from oansim.errors import ConfigError, SimulationError
from oansim.metrics import ber_evm_metrics
from oansim.ofdm import OfdmConfig, generate_ofdm
import oansim.subsystems
from oansim.subsystems import (FilterSpec, OnuConfig, WdmChannel, WdmPlan,
                               detect_drop, filter_drop_fraction, olt_transmit,
                               onu_receive, onu_remodulate, slope_biased_ring,
                               smart_edge_intercept_uplink,
                               smart_edge_overlay, solve_carrier_tap_filter)
from oansim.waveform import ComplexWaveform, band_power, upconvert_real

F0 = 193.4e12
FS = 64e9


def single_plan(center=F0):
    return WdmPlan([WdmChannel(center)])


def ofdm_cfg(seed=1):
    return OfdmConfig(occupied_bandwidth=2e9, qam_order=4, pilot_spacing=16,
                      seed=seed)


def onu_cfg(center=F0, **kw):
    broadband = solve_carrier_tap_filter(4e9, 10e9, 0.25, order=3,
                                         passband_fraction=0.995)
    defaults = dict(channel_center=center, broadband_filter=broadband,
                    digital_if=7e9)
    defaults.update(kw)
    return OnuConfig(**defaults)


def bits_for(cfg, n_symbols, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, n_symbols * cfg.bits_per_symbol)


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
    from oansim.devices import ring_response
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


# ---------------------------------------------------------------- ONU config


def test_onu_config_validation():
    with pytest.raises(ConfigError):
        onu_cfg(carrier_tap_fraction=1.5)
    with pytest.raises(ConfigError):  # filter beyond the slot
        onu_cfg(broadband_filter=FilterSpec(24e9, 5e9, 3))
    with pytest.raises(ConfigError):  # order-1 skirt cannot hold 13 dB
        onu_cfg(broadband_filter=FilterSpec(7e9, 8e9, 1))


def test_onu_config_retune_preserves_everything_else():
    cfg = onu_cfg()
    moved = cfg.retuned(F0 + 100e9)
    assert moved.channel_center == F0 + 100e9
    assert moved.broadband_filter == cfg.broadband_filter


# ---------------------------------------------------------------- downlink


def test_olt_to_onu_loopback_error_free():
    plan = single_plan()
    cfg = ofdm_cfg()
    tx = bits_for(cfg, 30)
    field = olt_transmit(plan, [tx], cfg, FS, power_per_tone_dbm=3.0,
                         digital_if=7e9, drive_depth=0.12)
    res = onu_receive(field, onu_cfg(), cfg, tx_bits=tx)
    assert res.broadband.bit_errors == 0
    assert res.broadband.evm_rms < 0.1
    # the tap leaves most of the carrier on the bus for remodulation
    assert res.carrier_residual_dbm > res.carrier_in_dbm - 3.0


def test_olt_spectral_containment():
    plan = single_plan()
    cfg = ofdm_cfg()
    field = olt_transmit(plan, [bits_for(cfg, 20)], cfg, FS,
                         power_per_tone_dbm=0.0, digital_if=7e9,
                         drive_depth=0.12)
    in_slot = band_power(field, F0 - 25e9, F0 + 25e9)
    out_slot = field.power() - in_slot
    assert 10 * np.log10(out_slot / in_slot) < -30.0


def test_olt_payload_count_mismatch():
    with pytest.raises(ConfigError):
        olt_transmit(single_plan(), [], ofdm_cfg(), FS)


def test_olt_rejects_oversized_payload():
    cfg = OfdmConfig(occupied_bandwidth=12e9, qam_order=4, pilot_spacing=16)
    with pytest.raises(ConfigError):
        olt_transmit(single_plan(), [bits_for(cfg, 10)], cfg, FS,
                     digital_if=7e9)


def test_overlay_empty_payloads_only_insertion_loss():
    plan = single_plan()
    cfg = ofdm_cfg()
    field = olt_transmit(plan, [bits_for(cfg, 10)], cfg, FS, digital_if=7e9,
                         drive_depth=0.12)
    out = smart_edge_overlay(field, plan, [[]])
    assert field.power_dbm() - out.power_dbm() == pytest.approx(0.3, abs=0.02)


def test_overlay_creates_subcarriers():
    plan = single_plan()
    cfg = ofdm_cfg()
    field = olt_transmit(plan, [bits_for(cfg, 10)], cfg, FS, digital_if=7e9,
                         power_per_tone_dbm=3.0, drive_depth=0.12)
    rof_cfg = OfdmConfig(occupied_bandwidth=2e9, qam_order=4, pilot_spacing=16,
                         seed=9)
    from oansim.waveform import resample_to
    payload = resample_to(generate_ofdm(rof_cfg, bits_for(rof_cfg, 10, 5)), FS)
    payload = upconvert_real(payload, 3e9)
    payload = payload.copy_with(samples=payload.samples * 0.1)
    out = smart_edge_overlay(field, plan, [[payload]],
                             subcarrier_clock_volt=1.2, drive_depth=0.25)
    up = band_power(out, F0 + 15e9, F0 + 25e9)
    dn = band_power(out, F0 - 25e9, F0 - 15e9)
    carrier = band_power(out, F0 - 1e9, F0 + 1e9)
    assert up > 0.01 * carrier
    assert dn > 0.01 * carrier


def test_overlay_rejects_three_tunnels():
    plan = single_plan()
    cfg = ofdm_cfg()
    field = olt_transmit(plan, [bits_for(cfg, 5)], cfg, FS, digital_if=7e9)
    with pytest.raises(ConfigError):
        smart_edge_overlay(field, plan, [[field, field, field]])


# ---------------------------------------------------------------- uplink


def uplink_setup(n_symbols=25):
    plan = single_plan()
    cfg = ofdm_cfg()
    tx = bits_for(cfg, n_symbols)
    field = olt_transmit(plan, [tx], cfg, FS, power_per_tone_dbm=3.0,
                         digital_if=7e9, drive_depth=0.12)
    ocfg = onu_cfg(uplink_drive_depth=0.5)
    res = onu_receive(field, ocfg, cfg, tx_bits=tx)
    return plan, cfg, ocfg, res


def test_remodulate_reports_sideband_ratio():
    plan, cfg, ocfg, res = uplink_setup()
    up_bits = bits_for(cfg, 25, seed=7)
    remod = onu_remodulate(res.residual, ocfg, uplink_bits=up_bits,
                           ofdm_cfg=cfg)
    assert remod.uplink_to_residual_db is not None
    assert remod.uplink_to_residual_db >= 13.0
    # uplink rides the configured sideband, residual downlink the other
    assert remod.uplink_centroid_offset > 0
    assert remod.downlink_centroid_offset < 0


def test_remodulate_without_drive_keeps_carrier():
    plan, cfg, ocfg, res = uplink_setup(n_symbols=10)
    remod = onu_remodulate(res.residual, ocfg)
    assert remod.uplink_to_residual_db is None
    carrier = band_power(remod.waveform, F0 - 0.5e9, F0 + 0.5e9)
    assert carrier > 0


def test_remodulate_requires_carrier():
    plan, cfg, ocfg, res = uplink_setup(n_symbols=10)
    starved = res.residual.copy_with(samples=res.residual.samples * 1e-6)
    with pytest.raises(SimulationError):
        onu_remodulate(starved, ocfg, uplink_bits=bits_for(cfg, 10),
                       ofdm_cfg=cfg)


def test_intercept_returns_uplink_band():
    plan, cfg, ocfg, res = uplink_setup()
    remod = onu_remodulate(res.residual, ocfg,
                           uplink_bits=bits_for(cfg, 25, seed=7), ofdm_cfg=cfg)
    # uplink is on the upper sideband here, so intercept the upper band
    result = smart_edge_intercept_uplink(remod.waveform, plan, 0,
                                         band_offsets=(1e9, 3e9))
    assert result.rof_electrical.ref_freq == 0.0
    assert result.through.power() < remod.waveform.power()
    assert np.isfinite(result.dropped_power_dbm)


def test_intercept_rejects_missing_channel():
    plan, cfg, ocfg, res = uplink_setup(n_symbols=10)
    with pytest.raises(ConfigError):
        smart_edge_intercept_uplink(res.residual, plan, 5)


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
    field = olt_transmit(plan, [tx0, tx1], cfg, 160e9, power_per_tone_dbm=3.0,
                         digital_if=7e9, drive_depth=0.12)
    base = onu_cfg(center=F0 - 50e9)
    for center, tx in ((F0 - 50e9, tx0), (F0 + 50e9, tx1)):
        from oansim.devices import drop_filter
        ch_field, _ = drop_filter(field, center, 45e9, order=4)
        res = onu_receive(ch_field, base.retuned(center), cfg, tx_bits=tx)
        assert res.broadband.bit_errors == 0


def test_onu_receive_needs_power_in_slot():
    cfg = ofdm_cfg()
    plan = single_plan()
    field = olt_transmit(plan, [bits_for(cfg, 5)], cfg, FS, digital_if=7e9)
    empty = field.copy_with(samples=np.zeros(field.n, dtype=np.complex128))
    with pytest.raises(SimulationError):
        onu_receive(empty, onu_cfg(), cfg)
