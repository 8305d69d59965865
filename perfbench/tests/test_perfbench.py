"""Self-tests of the benchmark's tracer, operation counter and FFT counter.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.signal

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import oansim  # noqa: E402
import oansim.ofdm  # noqa: E402
import oansim.scenarios  # noqa: E402
import oansim.subsystems  # noqa: E402
import oansim.waveform  # noqa: E402
from child import run_calls  # noqa: E402
from run import per_layer_metrics  # noqa: E402
from tracer import ROOT_SPAN, DemodOps, Rebinder, Trace  # noqa: E402
from workloads import ModemAwgn, run_problems  # noqa: E402


def _bindings():
    return {
        "waveform.band_power": oansim.waveform.band_power,
        "subsystems.band_power": oansim.subsystems.band_power,
        "package.band_power": oansim.band_power,
        "scenarios.drop_filter": oansim.scenarios.drop_filter,
        "ofdm.demodulate_ofdm": oansim.ofdm.demodulate_ofdm,
        "scenarios.demodulate_ofdm": oansim.scenarios.demodulate_ofdm,
        "scipy.fft.fft": scipy.fft.fft,
        "numpy.fft.rfft": np.fft.rfft,
    }


def test_tracer_replaces_every_binding_and_restores_them():
    before = _bindings()
    trace = Trace()
    with trace:
        during = _bindings()
        # one wrapper per function, wherever the name was imported
        assert during["waveform.band_power"] is during["subsystems.band_power"]
        assert during["waveform.band_power"] is during["package.band_power"]
        assert during["ofdm.demodulate_ofdm"] is during["scenarios.demodulate_ofdm"]
        for key, fn in during.items():
            assert fn is not before[key], key
    assert _bindings() == before
    for key, fn in _bindings().items():
        assert fn is before[key], key


def test_function_local_import_sees_the_wrapper():
    # onu_receive imports demodulate_ofdm inside its body at call time
    seen = []
    rebinder = Rebinder()
    original = oansim.ofdm.demodulate_ofdm
    rebinder.install({original: lambda *a, **k: seen.append(1)})
    try:
        from oansim.ofdm import demodulate_ofdm
        demodulate_ofdm()
    finally:
        rebinder.restore()
    assert seen == [1]
    assert oansim.ofdm.demodulate_ofdm is original


def test_self_times_and_outside_time_sum_to_traced_run_s():
    workload = ModemAwgn(seed=3, chunk_symbols=40, call_bits=10_000)
    trace = Trace()
    with trace:
        _, run_s = trace.run(workload.call, 0)
    assert trace.calls("ofdm.demodulate_ofdm") == workload.chunks
    assert trace.calls("fft") > 0
    total = sum(trace.self_s(name) for name in trace.totals)
    assert total == pytest.approx(run_s, rel=1e-9, abs=1e-9)
    assert trace.self_s(ROOT_SPAN) < run_s


def test_short_or_raising_demodulation_is_a_failed_operation():
    cfg = oansim.ofdm.OfdmConfig(occupied_bandwidth=1e9)

    def stub(missing):
        def demodulate(config, waveform, max_symbols=None):
            if missing is None:
                raise oansim.SyncError("preamble not found")
            return np.zeros(max_symbols * config.bits_per_symbol - missing), 0.1
        return demodulate

    ops = DemodOps()
    ops.wrap(stub(0))(cfg, None, max_symbols=10)
    ops.wrap(stub(5))(cfg, None, max_symbols=10)
    with pytest.raises(oansim.SyncError):
        ops.wrap(stub(None))(cfg, None, max_symbols=10)
    assert ops.attempted == 3
    assert ops.failed == 2
    assert ops.shortfall_bits == 5
    assert ops.symbols == 10 + 9


def test_short_demodulation_fails_the_run(monkeypatch):
    real = oansim.ofdm.demodulate_ofdm

    def truncating(config, waveform, max_symbols=None, track_phase=False):
        bits, evm = real(config, waveform, max_symbols=max_symbols)
        return bits[:-config.bits_per_symbol], evm

    monkeypatch.setattr(oansim.ofdm, "demodulate_ofdm", truncating)
    workload = ModemAwgn(seed=3, chunk_symbols=40, call_bits=10_000)
    out = run_calls(workload, 0.0, traced=False)
    assert out["ops"]["attempted"] == workload.chunks
    assert out["ops"]["failed"] == workload.chunks
    assert out["ops"]["shortfall_bits"] == (workload.chunks
                                            * workload.cfg.bits_per_symbol)


def test_fft_counter_classifies_whole_record_calls():
    record_n = 1 << 13
    x = np.ones(record_n)
    trace = Trace()
    with trace:
        scipy.fft.fft(x)                      # whole record, scipy
        np.fft.rfft(x)                        # whole record, numpy
        scipy.signal.hilbert(x)               # fft + ifft through scipy.signal
        scipy.fft.ifft(np.ones(256))          # one small transform
        scipy.fft.fft(np.ones((8, 256)), axis=-1)   # eight small, batched
        oansim.waveform.psd(oansim.waveform.ComplexWaveform(x, 1e9))
    fft = trace.fft_summary(record_n)
    assert fft["whole_record"] == 4           # scipy.fft and numpy.fft alike
    assert fft["snapshot"] == 1               # the periodogram inside psd
    assert fft["small"] == 2                  # calls, not transforms
    assert trace.calls("fft") == 7
    flops = 5 * record_n * 13 * 5 + 5 * 256 * 8 * 9
    assert fft["flops"] == pytest.approx(flops)


def test_traced_modem_call_reports_layer_metrics():
    workload = ModemAwgn(seed=3, chunk_symbols=40, call_bits=10_000)
    out = run_calls(workload, 0.0, traced=True)
    assert not out["raised"]
    call = out["calls"][0]
    metrics = out["metrics"]
    assert metrics["ofdm.symbols_demodulated"][0] == 40 * workload.chunks
    assert metrics["ofdm.bit_shortfall"][0] == 0
    assert metrics["fft.whole_record_per_burst"][0] == 0
    assert metrics["fft.small_per_burst"][0] == 2 * 41 + 1
    assert metrics["devices.apply_mrm.calls"][0] == 0
    assert call["record_n"] == 41 * (256 + 16)


def test_modem_ber_check():
    info = {"analytic_ber": 1e-3}
    good = [{"bits": 100_000, "errors": 150}]
    bad = [{"bits": 100_000, "errors": 30}]
    assert run_problems("modem_awgn", good, info) == []
    assert run_problems("modem_awgn", bad, info)
    assert run_problems("scenario_a_top", bad, info) == []


def test_traced_metrics_are_the_per_layer_metrics_of_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workload = ModemAwgn(seed=3, chunk_symbols=40, call_bits=10_000)
    metrics = per_layer_metrics(run_calls(workload, 0.0, traced=False),
                                run_calls(workload, 0.0, traced=True))
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
