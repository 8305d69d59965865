"""Scenario config loading, execution, and report emission tests."""

import copy
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import yaml
from scipy.signal import resample_poly

import oansim.devices
import oansim.ofdm
import oansim.scenarios
import oansim.subsystems
import oansim.waveform
from oansim.channel import PdParams
from oansim.devices import (ClockGenerator, Modulator, subcarrier_lines,
                            undriven_mrm)
from oansim.errors import ConfigError
from oansim.metrics import DEFAULT_FEC_THRESHOLD, BerReport
from oansim.ofdm import generate_ofdm
from oansim.scenarios import (ScenarioConfig, builtin_config_path,
                              emit_reports, load_config, run_scenario)
from oansim.subsystems import OnuConfig
from oansim.waveform import ComplexWaveform, _if_bins, crop_to_band, from_if

MINI = {
    "name": "mini",
    "seed": 77,
    "sample_rate": 64.0e9,
    "center_freq": 193.4e12,
    "overlay_style": "subcarrier_tunnels",
    "wdm": {"channel_offsets": [0.0]},
    "digital": {"occupied_bandwidth": 2.0e9, "qam_order": 4, "if_freq": 7.0e9,
                "pilot_spacing": 16},
    "tunnels": [],
    "uplink": {"drive_depth": 0.5, "rof": None},
    "devices": {"drive_depth": 0.12, "tx_power_dbm": 3.0},
    "spans": {"feeder_km": 20.0, "distribution_km": 5.0},
    "onu": {"broadband_passband_fraction": 0.995,
            "pd": {"responsivity": 1.0, "thermal_noise_psd": 1.0e-22,
                   "include_shot": True}},
    "sweep": {"rx_power_dbm": [-6.0, 0.0], "bits_per_point": 4000,
              "top_bits": 4000, "burst_symbols": 60},
    "output": "reports",
}


def mini_config(tmp_path, **overrides):
    raw = copy.deepcopy(MINI)
    raw.update(overrides)
    p = tmp_path / "mini.yaml"
    p.write_text(yaml.safe_dump(raw))
    return load_config(p)


# ---------------------------------------------------------------- loading


def test_shipped_config_echoes_two_channels_at_100ghz():
    cfg = load_config(builtin_config_path("scenario_a"))
    plan = cfg.plan
    assert plan.n_channels == 2
    spacing = plan.channels[1].center_freq - plan.channels[0].center_freq
    assert spacing == pytest.approx(100e9)


def test_shipped_scenario_b_loads():
    cfg = load_config(builtin_config_path("scenario_b"))
    assert cfg.style == "adjacent_rf"
    assert len(cfg.raw["rf_channels"]) == 5


def test_missing_file_and_unknown_builtin():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.yaml")
    with pytest.raises(ConfigError):
        builtin_config_path("scenario_z")


def test_empty_file_lists_required_sections(tmp_path):
    p = tmp_path / "empty.yaml"
    p.write_text("")
    with pytest.raises(ConfigError, match="required sections"):
        load_config(p)


def test_parse_error_reported(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("foo: [unclosed")
    with pytest.raises(ConfigError, match="parse error"):
        load_config(p)


def test_overlapping_slots_rejected(tmp_path):
    with pytest.raises(ConfigError, match="overlap"):
        mini_config(tmp_path, wdm={"channel_offsets": [0.0, 30.0e9]})


def test_seed_must_be_integer(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        mini_config(tmp_path, seed="abc")


def test_unknown_overlay_style_rejected(tmp_path):
    with pytest.raises(ConfigError, match="overlay_style"):
        mini_config(tmp_path, overlay_style="mesh")


@pytest.mark.parametrize("overrides, key", [
    ({"amplifier": {"gain_db": -1.0, "nf_db": 4.0}}, "amplifier.gain_db"),
    # 9.5 GHz + 1 GHz half-bandwidth runs past the 10 GHz subband edge
    ({"digital": {**MINI["digital"], "if_freq": 9.5e9}}, "digital.if_freq"),
    # two 50 GHz slots 50 GHz apart need more than 64 GS/s
    ({"wdm": {"channel_offsets": [0.0, 50.0e9]}}, "wdm.channel_offsets"),
    # 3 GHz + 0.55 x 4 GHz passes the 5 GHz between subcarrier and slot edge
    ({"tunnels": [{"if_freq": 3.0e9, "occupied_bandwidth": 4.0e9,
                   "qam_order": 16}]}, "tunnels.0"),
    # a ring 18 GHz wide: the transmitter's tone window, 3 linewidths and
    # more, does not fit in the slot record at 64 GS/s
    ({"devices": {**MINI["devices"], "ring": {"coupling": 0.99}}},
     "sample_rate"),
    # at 50 GS/s the generator's -f_s line, with its 3 GHz tone window,
    # runs past the record's edge
    ({"sample_rate": 50.0e9,
      "tunnels": [{"if_freq": 2.0e9, "occupied_bandwidth": 1.0e9}]},
     "sample_rate"),
    # a ring 10 GHz wide: channel 0's transmitter window reaches into the
    # neighbouring slot, which channel 0's slot record leaves out
    ({"sample_rate": 160.0e9, "wdm": {"channel_offsets": [0.0, 50.0e9]},
      "devices": {**MINI["devices"], "ring": {"coupling": 0.995}}},
     "wdm.channel_offsets"),
])
def test_values_checked_in_bursts_are_rejected_at_load(tmp_path, overrides,
                                                       key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        mini_config(tmp_path, **overrides)


@pytest.mark.parametrize("key", ["bits_per_point", "top_bits", "full_bits"])
def test_bit_targets_take_at_most_10000_bursts(tmp_path, key):
    """A sweep point runs bursts until its least-counted signal reaches
    the bit target: a target of more than 10,000 bursts fails at load."""
    cfg = mini_config(tmp_path)
    most = 10_000 * min(s.n_bits for s in (cfg.digital, *cfg.payloads,
                                          *cfg.uplink.values()))
    sweep = {**MINI["sweep"], key: most}
    assert getattr(mini_config(tmp_path, sweep=sweep), key) == most
    with pytest.raises(ConfigError, match=f"sweep.{key}"):
        mini_config(tmp_path, sweep={**sweep, key: most + 1})


@pytest.mark.parametrize("section, key, default", [
    ("digital", "qam_order", 4), ("spans", "feeder_km", 20.0)])
def test_null_takes_the_default(tmp_path, section, key, default):
    """Null is absent: the key takes its default, which the manifest
    records."""
    cfg = mini_config(tmp_path, **{section: {**MINI[section], key: None}})
    assert cfg.raw[section][key] == default


@pytest.mark.parametrize("name", ["scenario_a", "scenario_b"])
def test_config_takes_a_parsed_yaml_dict(name):
    path = builtin_config_path(name)
    raw = yaml.safe_load(path.read_text())
    assert ScenarioConfig(raw).raw == load_config(path).raw
    assert "fec_threshold" not in raw  # the manifest is a copy
    with pytest.raises(ConfigError, match="required sections"):
        ScenarioConfig([raw])


def test_defaults_echoed_into_manifest(tmp_path):
    cfg = mini_config(tmp_path)
    # values never mentioned in the file arrive resolved from defaults
    assert cfg.raw["onu"]["carrier_tap_fraction"] == 0.25
    assert cfg.raw["fec_threshold"] == 3.8e-3


# ---------------------------------------------------------------- running


@pytest.fixture(scope="module")
def mini_report(tmp_path_factory):
    cfg = mini_config(tmp_path_factory.mktemp("cfg"))
    return run_scenario(cfg)


def test_mini_run_structure(mini_report):
    assert mini_report["name"] == "mini"
    assert mini_report["seed"] == 77
    assert len(mini_report["points"]) == 2
    for point in mini_report["points"]:
        assert set(point["signals"]) == {"ch0:digital", "uplink:digital"}
        for sig in point["signals"].values():
            assert sig["bits"] >= 4000
    # manifest carries the fully resolved config
    assert mini_report["config"]["devices"]["tx_power_dbm"] == 3.0


def test_mini_run_reaches_low_ber(mini_report):
    top = mini_report["points"][-1]
    assert all(s["passes_fec"] for s in top["signals"].values())


def test_run_deterministic_byte_identical(tmp_path):
    cfg = mini_config(tmp_path)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_fec_verdict_is_strict_at_the_threshold():
    n = 10_000
    k = int(DEFAULT_FEC_THRESHOLD * n)  # 38 errors -> exactly at threshold
    acc = oansim.scenarios._Accumulator(DEFAULT_FEC_THRESHOLD)
    acc.add("at", BerReport(k, n, 0.1))
    acc.add("below", BerReport(k - 1, n, 0.1))
    summary = acc.summary()
    assert summary["at"]["ber"] == DEFAULT_FEC_THRESHOLD
    assert not summary["at"]["passes_fec"]  # strict less-than
    assert summary["below"]["passes_fec"]


def test_seed_changes_report(tmp_path):
    a = run_scenario(mini_config(tmp_path))
    b = run_scenario(mini_config(tmp_path, seed=78))
    assert json.dumps(a["points"], sort_keys=True) != \
        json.dumps(b["points"], sort_keys=True)


def test_neighbouring_config_seeds_share_no_burst(tmp_path, monkeypatch):
    seeds = []

    def recorded(cfg, power, burst_seed, acc, want_spectrum):
        seeds.append(burst_seed)
        acc.add("digital", BerReport(0, 1000, 0.0))
        return 0.0, {"carrier": 0.0}, None

    monkeypatch.setattr(oansim.scenarios, "_run_burst", recorded)
    cfg = mini_config(tmp_path)  # four bursts at each of two points
    for seed in (1, 2):
        run_scenario(cfg.with_seed(seed))
    assert len(seeds) == 16 and len(set(seeds)) == 16


def test_undemodulated_bits_count_as_errors(tmp_path, monkeypatch,
                                            mini_report):
    # a demodulator one symbol short: every sent bit it never returned
    # must count as a bit and as an error, the ONU's broadband included
    real = oansim.ofdm.demodulate_ofdm

    def short(config, waveform, max_symbols=None):
        bits, evm = real(config, waveform, max_symbols=max_symbols)
        return bits[:-config.bits_per_symbol], evm

    monkeypatch.setattr(oansim.ofdm, "demodulate_ofdm", short)
    monkeypatch.setattr(oansim.scenarios, "demodulate_ofdm", short)
    cfg = mini_config(tmp_path)
    per_symbol = cfg.digital.ofdm.bits_per_symbol
    report = run_scenario(cfg)
    top, ref = report["points"][-1], mini_report["points"][-1]
    assert top["bursts"] == ref["bursts"]
    assert set(top["signals"]) == {"ch0:digital", "uplink:digital"}
    for name, sig in top["signals"].items():
        assert ref["signals"][name]["errors"] == 0
        assert sig["bits"] == ref["signals"][name]["bits"]
        assert sig["errors"] == top["bursts"] * per_symbol


def _shipped_top(name):
    raw = copy.deepcopy(load_config(builtin_config_path(name)).raw)
    raw["sweep"].update(rx_power_dbm=raw["sweep"]["rx_power_dbm"][-1:],
                        burst_symbols=200, top_bits=1000)
    return ScenarioConfig(raw)


@pytest.mark.parametrize("name, signals", [
    ("scenario_a", {"ch0:digital", "ch0:tunnel1", "ch0:tunnel2",
                    "ch1:digital", "ch1:tunnel1", "ch1:tunnel2",
                    "uplink:digital", "uplink:rof"}),
    ("scenario_b", {"broadband", "rf1", "rf2", "rf3", "rf4", "rf5",
                    "uplink:digital"}),
])
def test_both_overlay_styles_run_reproducibly(name, signals):
    cfg = _shipped_top(name)
    first = run_scenario(cfg)
    assert set(first["points"][0]["signals"]) == signals
    second = run_scenario(cfg)
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)


@pytest.mark.parametrize("name", ["scenario_a", "scenario_b"])
def test_bursts_reuse_the_smart_edge_built_at_load(name, monkeypatch):
    """Every device is built once, with the config: the transmitters, the
    smart edge's rings and uplink drop, and the network units with their
    remodulators, each modulator a record of its depth, tone window and
    band edge.  A burst builds none again: each device constructor is
    refused in every module of the package that binds it, each record's
    class refuses to be made, and a network unit refuses its checks,
    which ``dataclasses.replace`` runs through the class, not a module's
    name."""
    cfg = _shipped_top(name)

    def refused(*args, **kwargs):
        raise AssertionError("a device built during a burst")

    bound = set()
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] != "oansim":
            continue
        for constructor in ("slope_biased_ring", "overlay_rings",
                            "solve_carrier_tap_filter", "iq_arms",
                            "Modulator", "ClockGenerator"):
            if hasattr(module, constructor):
                monkeypatch.setattr(module, constructor, refused)
                bound.add((module.__name__, constructor))
    assert {("oansim.scenarios", "slope_biased_ring"),
            ("oansim.scenarios", "Modulator"),
            ("oansim.subsystems", "ClockGenerator"),
            ("oansim.devices", "Modulator")} <= bound
    for record in (Modulator, ClockGenerator):
        monkeypatch.setattr(record, "__init__", refused)
    monkeypatch.setattr(OnuConfig, "__post_init__", refused)
    assert run_scenario(cfg)["points"][0]["bursts"] == 1


@pytest.mark.parametrize("name", ["scenario_a", "scenario_b"])
def test_slot_check_holds_the_windows_the_bursts_use(name):
    """Each modulator's band in ``_slot_spans`` is exactly its resonance
    -/+ the tone window of its record, the one its bursts modulate in; the
    transmitter's and the remodulator's are 3 linewidths plus the depth."""
    cfg = load_config(builtin_config_path(name))
    for k in range(cfg.plan.n_channels):
        bands = {(lo, hi) for lo, hi, _, _ in cfg._slot_spans(k)}
        iq_pairs = [cfg.transmitters[k]] + ([cfg.onus[0].modulator]
                                            if k == 0 else [])
        gen, modulators = cfg.edge_rings[k]
        records = iq_pairs + modulators + ([gen] if gen else [])
        for m in records:
            res = m.ring.effective_resonance
            assert (res - m.window, res + m.window) in bands
        for m in iq_pairs:
            assert m.window == (3.0 + m.depth) * m.ring.fwhm


@pytest.mark.parametrize("name, n", [("scenario_a", 524_880),
                                     ("scenario_b", 262_440)])
def test_burst_sizes_the_record(name, n, monkeypatch):
    """The burst grows the power-of-two window to hold the walk-off guard
    and the digital drive at an FFT-friendly length, and carries it as one
    slot record per channel: every drive reaches the central office at
    ``1/d_slot`` of that length, 2 for scenario A's two 50 GHz slots at
    160 GS/s and 1 for B's single one."""
    class Sized(Exception):
        pass

    def sized(plan, drive, channel, **kwargs):
        raise Sized(drive.n, drive.sample_rate)

    monkeypatch.setattr(oansim.scenarios, "olt_transmit", sized)
    cfg = _shipped_top(name)
    with pytest.raises(Sized) as caught:
        run_scenario(cfg)
    d = {"scenario_a": 2, "scenario_b": 1}[name]
    assert cfg.n_burst == n and cfg.d_slot == d
    assert caught.value.args == (n // d, cfg.sample_rate / d)
    assert cfg.n_record < n


def _signals(cfg):
    """Each signal type of a scenario with its lead in record samples."""
    guard = int(round(oansim.scenarios._WALKOFF_GUARD_S * cfg.sample_rate))
    return [(cfg.digital, guard), (cfg.payloads[0], 0),
            *((s, guard) for s in cfg.uplink.values())]


def _polyphase_drive(signal, bits, n, fs, lead):
    """The test-side oracle of the drive synthesis: the modem waveform
    resampled onto the record's grid by a polyphase filter, cut to the
    modem band that lands above 0 Hz, and mixed onto a real carrier at the
    IF's record bin, ``lead`` samples late.  Without the cut, content
    below -IF would fold back over the band once mixed."""
    ratio = Fraction(fs / signal.ofdm.sample_rate).limit_denominator(1000000)
    up = np.fft.fft(resample_poly(generate_ofdm(signal.ofdm, bits).samples,
                                  ratio.numerator, ratio.denominator))
    f_if = round(signal.if_freq * n / fs) / n
    up[np.abs(np.fft.fftfreq(up.size)) >= f_if] = 0.0
    drive = np.zeros(n)
    drive[lead:lead + up.size] = np.sqrt(2.0) * np.real(
        np.fft.ifft(up) * np.exp(2j * np.pi * f_if * np.arange(up.size)))[
            :n - lead]
    return drive


@pytest.mark.parametrize("name", ["scenario_a", "scenario_b"])
def test_drives_match_the_polyphase_oracle(name):
    """Each signal type's drive, made from its spectrum on the record's
    bins, matches polyphase resampling and real mixing to within -40 dB
    over its occupied band.  The oracle's record is the shortest that the
    modem grid meets exactly (``L = n r / fs`` whole), so the comparison
    sees the interpolation alone, not the at most half a modem sample by
    which the rounding of ``L`` stretches a burst."""
    cfg = _shipped_top(name)
    fs = cfg.sample_rate
    rng = np.random.default_rng(1)
    for signal, lead in _signals(cfg):
        bits = rng.integers(0, 2, signal.n_bits)
        step = Fraction(fs / signal.ofdm.sample_rate).limit_denominator(
            1000000).numerator
        n = -(-(lead + signal.record_samples(fs)) // step) * step
        got = np.fft.rfft(np.fft.irfft(signal.spectrum(bits, n, fs, lead), n))
        want = np.fft.rfft(_polyphase_drive(signal, bits, n, fs, lead))
        f = np.fft.rfftfreq(n, 1.0 / fs)
        band = np.abs(f - signal.if_freq) <= signal.ofdm.occupied_bandwidth / 2
        err = (np.sum(np.abs(got[band] - want[band]) ** 2)
               / np.sum(np.abs(want[band]) ** 2))
        assert err <= 1e-4, (signal.if_freq, err)


@pytest.mark.parametrize("name, n", [("scenario_a", 524_880),
                                     ("scenario_b", 262_440)])
def test_drive_round_trip_returns_the_modem_samples(name, n):
    """With no optics between them, reading a drive back from its record's
    bins returns the modem samples of the bins it carries."""
    cfg = _shipped_top(name)
    fs = cfg.sample_rate
    rng = np.random.default_rng(2)
    for signal, _ in _signals(cfg):
        bits = rng.integers(0, 2, signal.n_bits)
        drive = ComplexWaveform(
            np.fft.irfft(signal.spectrum(bits, n, fs), n), fs)
        rate = signal.ofdm.sample_rate
        length, j, _ = _if_bins(n, fs, rate, signal.if_freq)
        spec = np.zeros(length, dtype=np.complex128)
        spec[j] = np.fft.fft(generate_ofdm(signal.ofdm, bits).samples,
                             length)[j]
        got = from_if(drive, signal.if_freq, rate).samples
        want = np.fft.ifft(spec)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


_TRANSFORMS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2",
               "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


@pytest.mark.parametrize("name, most", [("scenario_a", 13.52),
                                        ("scenario_b", 7.01)])
def test_whole_record_transforms_per_burst(name, most, monkeypatch):
    """Linear stages multiply the cached field spectrum, every receiver
    detects at a fraction of the rate, each drive is one inverse transform
    of its spectrum, the comb and the clock-driven generator are made as
    spectra, each modulator takes its time-varying product at its band's
    rate, the amplifier draws its noise as a spectrum, and scenario A runs
    as two slot records at half its rate.  The transforms at least one
    slot record long, summed by length in units of ``n_record``, stay
    within ``most``; none is longer than a slot record, so A runs none of
    its whole record's length."""
    lengths = []

    def counted(transform):
        def wrapper(x, *args, **kwargs):
            out = transform(x, *args, **kwargs)
            lengths.append(max(np.shape(x)[-1], np.shape(out)[-1]))
            return out
        return wrapper

    for module in (scipy.fft, np.fft):
        for fn in _TRANSFORMS:
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, counted(getattr(module, fn)))
    cfg = _shipped_top(name)
    report = run_scenario(cfg)
    assert report["points"][0]["bursts"] == 1
    slot = cfg.n_burst // cfg.d_slot
    whole = [n for n in lengths if n >= slot]
    assert max(whole) == slot
    assert sum(whole) / cfg.n_record <= most


def test_static_responses_per_burst(monkeypatch):
    """A modulator builds one static response per distinct bias point and
    none when its field holds nothing outside its tone window: the
    central office's IQ transmitters, fed one comb line each, build none,
    and the network unit's IQ pair, whose drives have no mean, shares
    one.  A burst of scenario A at its top point builds 18."""
    built = []
    original = oansim.devices._through_static_grid

    def counted(params, field, detune):
        built.append(field.n)
        return original(params, field, detune)

    monkeypatch.setattr(oansim.devices, "_through_static_grid", counted)
    report = run_scenario(_shipped_top("scenario_a"))
    assert report["points"][0]["bursts"] == 1
    assert len(built) == 18


def _demodulated_bands(cfg):
    """The IF bands each receiver of a burst demodulates, by drop filter."""
    bands = {cfg.onus[0].broadband_filter: [cfg.digital.edges()]}
    for spec, group in zip(cfg.onus[0].rof_filters, cfg.groups):
        bands[spec] = [cfg.payloads[k].edges() for k in group]
    if cfg.intercept is not None:
        bands[cfg.intercept] = [cfg.uplink[cfg.edge_uplink].edges()]
    bands[cfg.demux] = [cfg.uplink["digital"].edges()]
    return bands


@pytest.mark.parametrize("name, divisors", [
    ("scenario_a", [1, 1, 1, 1, 1, 1, 1, 4]),
    ("scenario_b", [2, 2, 8, 8]),
])
def test_receivers_match_full_rate_detection(name, divisors, monkeypatch):
    """With detector noise off, each receiver's photocurrent in the bands
    it demodulates matches full-rate detection to within -40 dB."""
    cfg = _shipped_top(name)
    calls = []
    detect = oansim.subsystems.detect_drop

    def recorded(dropped, f_c, spec, pd):
        calls.append((dropped, f_c, spec))
        return detect(dropped, f_c, spec, pd)

    monkeypatch.setattr(oansim.subsystems, "detect_drop", recorded)
    monkeypatch.setattr(oansim.scenarios, "detect_drop", recorded)
    run_scenario(cfg)
    bands = _demodulated_bands(cfg)
    quiet = PdParams()
    found = []
    for dropped, f_c, spec in calls:
        fast = detect(dropped, f_c, spec, quiet)
        with monkeypatch.context() as m:
            m.setattr(oansim.subsystems, "crop_to_band",
                      lambda wf, f_lo, f_hi: wf)
            full = detect(dropped, f_c, spec, quiet)
        d = full.n // fast.n
        found.append(d)
        for lo, hi in bands[spec]:
            # both grids share one bin spacing; the rate fell by d, and so
            # did the unnormalized spectrum
            want = full.spectrum[(full.baseband_freqs() >= lo)
                                 & (full.baseband_freqs() <= hi)]
            got = d * fast.spectrum[(fast.baseband_freqs() >= lo)
                                    & (fast.baseband_freqs() <= hi)]
            err = np.sum(np.abs(got - want) ** 2) / np.sum(np.abs(want) ** 2)
            assert err <= 1e-4, (spec, d, err)
    assert sorted(found) == divisors


def test_crops_lie_inside_their_slot_records(monkeypatch):
    """Every receiver of scenario A crops a window inside its slot record,
    never one that wraps past its edge: clock harmonics that land in no
    slot record (and so are dropped), and the ASE a slot record holds
    past the plan's record or lacks between the slots, reach no crop."""
    cfg = _shipped_top("scenario_a")
    crops = []
    crop = oansim.subsystems.crop_to_band

    def recorded(wf, f_lo, f_hi):
        crops.append(oansim.waveform.crop_window(wf.n, wf.sample_rate,
                                                  wf.ref_freq, f_lo, f_hi)
                     + (wf.n,))
        return crop(wf, f_lo, f_hi)

    monkeypatch.setattr(oansim.subsystems, "crop_to_band", recorded)
    run_scenario(cfg)
    assert len(crops) == 10  # eight receivers and two generators' inputs
    for d, k0, _, _, n in crops:
        w = n // (2 * d)
        assert -(n // 2) <= k0 - w // 2 and k0 - w // 2 + w <= (n + 1) // 2


class _Recorded(Exception):
    """Ends a burst once a test has what it reads."""


def test_generator_inputs_replay_the_smart_edge_before_them(monkeypatch):
    """Generator 1's input on cut A at seed 1 is slot 1 walked through
    channel 0's smart edge at rest on the whole slot record, its generator
    adding the lines it lifts from its own input, then cut to generator
    1's tone window.  The replay cuts first and walks the short record; the
    two agree to round-off (-297.6 dB measured, bound -270 dB)."""
    cfg = _shipped_top("scenario_a").with_seed(1)
    seen = []
    replay = oansim.scenarios.generator_inputs

    def recorded(fields, rings):
        seen.append((fields, replay(fields, rings)))
        raise _Recorded

    monkeypatch.setattr(oansim.scenarios, "generator_inputs", recorded)
    with pytest.raises(_Recorded):
        run_scenario(cfg)
    ((fields, inputs),) = seen
    (gen0, tunnels0), (gen1, _) = cfg.edge_rings
    gain = 10.0 ** (-oansim.subsystems.BUS_LOSS_DB_PER_STAGE / 20.0)
    walked = undriven_mrm(fields[1], gen0.ring)
    lines = np.array(walked.spectrum)
    subcarrier_lines(inputs[0], gen0, lines, walked.ref_freq)
    walked = walked.copy_with(spectrum=lines).scaled(gain)
    for tunnel in tunnels0:
        walked = undriven_mrm(walked, tunnel.ring).scaled(gain)
    res = gen1.ring.effective_resonance
    want = crop_to_band(walked, res - gen1.window, res + gen1.window)
    got = inputs[1]
    assert (got.n, got.sample_rate, got.ref_freq) == (
        want.n, want.sample_rate, want.ref_freq)
    err = (np.sum(np.abs(got.spectrum - want.spectrum) ** 2)
           / np.sum(np.abs(want.spectrum) ** 2))
    assert err < 10.0 ** (-270.0 / 10.0), 10.0 * np.log10(err)


def test_neighbour_slot_leaks_through_an_onu_drop_below_its_bound():
    """What the slot records leave out of each network unit: the other
    channel's slot, 100 GHz off, through scenario A's 10 GHz third-order
    radio drops.  The neighbour's same subcarrier, 100 GHz from the drop's
    centre, leaks at 1/(1 + 20^6), -78 dB, and nothing of its slot at more
    than -62 dB."""
    cfg = load_config(builtin_config_path("scenario_a"))
    fs, n = 400e9, 1 << 14
    ch0, ch1 = cfg.plan.channels
    for spec in cfg.onus[0].rof_filters:
        centre = ch0.center_freq + spec.center_offset
        probe = ComplexWaveform(None, fs, ref_freq=centre,
                                spectrum=np.ones(n, dtype=np.complex128))
        dropped, _ = oansim.devices.drop_filter(probe, centre, spec.bandwidth,
                                                spec.order)
        f = dropped.abs_freqs()
        leak = np.abs(dropped.spectrum) ** 2
        same = np.argmin(np.abs(f - (centre + 100e9)))
        assert 10 * np.log10(leak[same]) == pytest.approx(
            -10 * np.log10(1 + 20.0 ** 6), abs=0.01)
        slot = np.abs(f - ch1.center_freq) <= ch1.slot_width / 2
        assert 10 * np.log10(leak[slot].max()) < -62.0


def test_descending_sweep_rejected(tmp_path):
    cfg = mini_config(tmp_path)
    with pytest.raises(ConfigError, match="ascending"):
        run_scenario(cfg, sweep_override=[0.0, -6.0])


# ---------------------------------------------------------------- reports


def test_emit_reports_files_and_roundtrip(mini_report, tmp_path):
    paths = emit_reports(mini_report, tmp_path)
    names = {Path(p).name for p in paths}
    assert names == {"mini_metrics.json", "mini_waterfall.csv",
                     "mini_spectrum.csv"}
    loaded = json.loads((tmp_path / "mini_metrics.json").read_text())
    assert loaded == json.loads(json.dumps(mini_report, sort_keys=True))

    waterfall = (tmp_path / "mini_waterfall.csv").read_text().splitlines()
    assert waterfall[0] == "signal,rx_power_dbm,ber"
    assert len(waterfall) == 1 + 2 * 2  # 2 signals x 2 points

    spectrum = (tmp_path / "mini_spectrum.csv").read_text().splitlines()
    assert spectrum[0] == "freq_hz,psd_dbm_per_hz"
    assert len(spectrum) > 100


def test_waterfall_monotone_non_increasing(mini_report):
    by_signal = {}
    for point in mini_report["points"]:
        for name, sig in point["signals"].items():
            by_signal.setdefault(name, []).append(sig["ber"])
    for name, series in by_signal.items():
        assert series == sorted(series, reverse=True) or \
            max(series) - min(series) < 5e-4


def test_emit_reports_json_only(mini_report, tmp_path):
    paths = emit_reports(mini_report, tmp_path, formats=("json",))
    assert len(paths) == 1 and str(paths[0]).endswith(".json")


def test_emit_reports_unwritable_path(mini_report):
    with pytest.raises(ConfigError, match="output directory"):
        emit_reports(mini_report, "/proc/forbidden/dir")
