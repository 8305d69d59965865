"""Workload process of the benchmark; started by ``run.py``.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/child.py --workload NAME --seed N --setup

``--setup`` imports ``oansim``, builds and validates the workload config
and exits: ``run.py`` times it from a fresh interpreter.  Otherwise the
child makes whole calls to the workload's bit target until ``--seconds``
have passed (at least one) and prints one JSON object on stdout.  Lazy
caches are cleared before every call, because every ``oansim run`` pays
for filling them.  With ``--trace 1`` the calls run under the tracer and
the object also holds the per-layer metrics; ``run.py`` asks a traced
child for exactly one call.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYERS, ROOT_SPAN, DemodOps, Rebinder, Trace  # noqa: E402

#: Per-layer self times and call counts reported from a traced call.
SPAN_METRICS = {
    "self_s": (
        "ofdm.demodulate_ofdm", "ofdm.generate_ofdm", "ofdm.add_awgn",
        "waveform.band_power", "waveform.resample_to",
        "waveform.upconvert_real", "waveform.downconvert", "waveform.psd",
        "devices.iq_mrm_ssb", "devices.apply_mrm",
        "devices.generate_subcarriers", "devices.drop_filter",
        "devices.hilbert_pair", "channel.propagate_fiber",
        "channel.photodetect", "channel.amplify_ase",
        "subsystems.olt_transmit", "subsystems.smart_edge_overlay",
        "subsystems.onu_receive", "subsystems.onu_remodulate",
        "subsystems.smart_edge_intercept_uplink", "scenarios.run_scenario",
        "metrics.ber_evm_metrics"),
    "calls": (
        "waveform.band_power", "waveform.resample_to", "devices.apply_mrm",
        "devices.drop_filter", "channel.propagate_fiber",
        "channel.photodetect", "metrics.ber_evm_metrics"),
}


def import_package():
    """Import ``oansim`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import oansim

    if not Path(oansim.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"oansim imported from {oansim.__file__}, "
                          f"not from {src}")
    return oansim


def environment() -> dict:
    import numpy as np
    import scipy
    import scipy.fft

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_env": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")},
            "scipy_fft_workers": scipy.fft.get_workers()}


def clear_lazy_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name.startswith("oansim"):
            for val in list(vars(mod).values()):
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()


def _usage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + kids.ru_utime, own.ru_stime + kids.ru_stime,
            own.ru_minflt + kids.ru_minflt)


def layer_metrics(trace: Trace, call: dict, ops: dict) -> dict:
    """Per-layer metrics of one traced call, as {name: [value, unit]}."""
    units = max(1, call["units"])
    fft = trace.fft_summary(call["record_n"])
    metrics = {
        "fft.whole_record_per_burst": [fft["whole_record"] / units,
                                       "count/burst"],
        "fft.small_per_burst": [fft["small"] / units, "count/burst"],
        "fft.snapshot_whole_record": [fft["snapshot"], "count"],
        "fft.self_s": [trace.self_s("fft"), "s"],
        "fft.flops_computed": [fft["flops"], "flop"],
        "fft.bytes_computed": [fft["bytes"], "B"],
        "ofdm.symbols_demodulated": [ops["symbols"], "count"],
        "ofdm.bit_shortfall": [ops["shortfall_bits"], "bit"],
        "waveform.resample_to.samples_in": [
            trace.samples_in("waveform.resample_to"), "samples"],
        "scenarios.bursts": [call["bursts"], "count"],
        "trace.outside_s": [trace.self_s(ROOT_SPAN), "s"],
    }
    for name in SPAN_METRICS["self_s"]:
        metrics[f"{name}.self_s"] = [trace.self_s(name), "s"]
    for name in SPAN_METRICS["calls"]:
        metrics[f"{name}.calls"] = [trace.calls(name), "count"]
    return metrics


def one_call(workload, index: int, trace: Trace | None) -> dict:
    """Make one call; returns its outcome, timings and counters."""
    clear_lazy_caches()
    gc.collect()
    user0, sys0, faults0 = _usage()
    t0 = time.perf_counter()
    if trace is None:
        result = workload.call(index)
        run_s = time.perf_counter() - t0
    else:
        result, run_s = trace.run(workload.call, index)
    user1, sys1, faults1 = _usage()
    return dict(dataclasses.asdict(result), run_s=run_s, user_s=user1 - user0,
                sys_s=sys1 - sys0, minor_faults=faults1 - faults0,
                record_n=workload.record_n)


def run_calls(workload, seconds: float, traced: bool) -> dict:
    """Whole calls until ``seconds`` have passed; stops at a raised call."""
    import oansim.ofdm

    ops = DemodOps()
    counter = Rebinder()
    counter.install({oansim.ofdm.demodulate_ofdm:
                     ops.wrap(oansim.ofdm.demodulate_ofdm)})
    trace = Trace() if traced else None
    observers = Rebinder()
    calls, raised, metrics = [], False, {}
    start = time.perf_counter()
    try:
        if trace is not None:
            trace.install()
        observers.install(workload.observers())
        while not calls or time.perf_counter() - start < seconds:
            calls.append(one_call(workload, len(calls), trace))
        if trace is not None:
            metrics = layer_metrics(trace, calls[0], ops.snapshot())
    except Exception:
        # the boundary of a run: report the failure as a result
        traceback.print_exc()
        raised = True
    finally:
        observers.restore()
        if trace is not None:
            trace.restore()
        counter.restore()
    return {"calls": calls, "raised": raised, "ops": ops.snapshot(),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup", action="store_true")
    args = parser.parse_args(argv)

    import_package()
    workload = workloads.make(args.workload, args.seed)
    if args.setup:
        return 0
    out = run_calls(workload, args.seconds, bool(args.trace))
    out["info"] = dict(workload.info, environment=environment(),
                       layers=list(LAYERS))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
