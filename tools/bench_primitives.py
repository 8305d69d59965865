"""Time the pipeline's primitives at fixed record sizes.

    PYTHONPATH=src python3 tools/bench_primitives.py [--parent DIR]
        [--sizes 20 22] [--repeat 5] [--label change]
        [--out BENCH_primitives.json]

Each primitive runs on a record of 2^k samples (k from ``--sizes``) at
scenario A's 160 GS/s, with inputs built once outside the timing and
holding their spectrum, as a field does between the pipeline's stages.
The fields are single precision (complex64, the photocurrent float32),
as a burst carries them, and the drives double.  Each tree runs in its
own worker process, which imports ``oansim`` from that tree's ``src``
and builds the inputs of one size once: this tree under ``--label`` and,
with ``--parent``, the checkout ``DIR`` under ``parent``.  The two
workers take turns on each primitive, ``--repeat`` rounds, the first to
run alternating from round to round, and each keeps its best wall time,
so that a drift of the machine falls on both alike.  The results are
merged into the JSON file under their labels, next to the other labels
already there.  Each device is built as the record the pipeline builds
at load, which fixes its depth, tone window and band edge, and is given
a raw drive that it scales to its depth itself.

Primitives:

* ``apply_mrm``: one ring on the tone path at the full rate (no band
  edge), a carrier driven by a 5 GHz tone at depth 0.12, its tone window
  3 linewidths plus that depth;
* ``generate_subcarriers``: the overlay's clock-driven ring splitting a
  carrier with a 20 GHz clock, its tone window the carrier line;
* ``drop_filter``: a third-order 12 GHz drop of a noise field;
* ``propagate_fiber``: 20 km of loss and dispersion;
* ``amplify_ase``: 4 dB of gain with ASE at a 4.5 dB noise figure;
* ``photodetect``: square law with shot and thermal noise;
* ``generate_ofdm``: a 10 Gb/s QPSK OFDM waveform of 2^k modem samples,
  made from its bits;
* ``demodulate_ofdm``: that waveform detected;
* ``iq_drive``: one analytic drive of that signal at a 7 GHz IF, from a
  modem-rate waveform as long as the record (``if_spectrum`` and
  ``analytic``);
* ``real_drive``: the same signal as a real drive (``if_spectrum`` and
  ``irfft``);
* ``iq_mrm_ssb``: the transmitter's IQ modulator on a carrier, driven at
  depth 0.12 by the analytic drive of ``iq_drive``; its record holds the
  tone window of that depth and the band edge of that signal, as the
  pipeline's does;
* ``receive``: the modem waveform read back from a photocurrent at half
  the record's rate (``from_if``);
* ``crop_to_band``: a receiver's crop of the noise field to the carrier
  and 15 GHz above it, which falls to a quarter of the rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy import fft as fftpack

ROOT = Path(__file__).resolve().parents[1]
FS = 160e9
F0 = 193.4e12
IF = 7e9


def primitives(n: int) -> dict:
    """Zero-argument callables, by name, each timing one primitive on a
    record of ``n`` samples."""
    import oansim
    from oansim import waveform
    from oansim.channel import FiberParams, PdParams
    from oansim.devices import ClockGenerator, Modulator, iq_arms
    from oansim.ofdm import OfdmConfig, bandwidth_for_bit_rate
    from oansim.subsystems import slope_biased_ring

    rng = np.random.default_rng(1)
    t = np.arange(n) / FS
    carrier = oansim.ComplexWaveform(np.full(n, 1e-2, dtype=np.complex64),
                                     FS, ref_freq=F0)
    tone = oansim.ComplexWaveform(0.05 * np.cos(2 * np.pi * 5e9 * t), FS)
    ring = slope_biased_ring(F0)
    tone_ring = Modulator(ring, 0.12, (3.0 + 0.12) * ring.fwhm)
    gen = slope_biased_ring(F0, slope_fraction=0.6)
    generator = ClockGenerator(gen, F0 - gen.effective_resonance + 0.5e9,
                               20e9, 1.2)
    noise = oansim.ComplexWaveform(
        (1e-3 * (rng.normal(size=n) + 1j * rng.normal(size=n))).astype(
            np.complex64), FS, ref_freq=F0)
    ofdm = OfdmConfig(occupied_bandwidth=bandwidth_for_bit_rate(10e9),
                      pilot_spacing=16)
    iq_pair = Modulator(ring, 0.12, (3.0 + 0.12) * ring.fwhm,
                        IF + 0.55 * ofdm.occupied_bandwidth, iq_arms())

    def payload(samples: int):
        """The bits of a waveform of at most ``samples`` modem samples."""
        symbols = samples // (ofdm.nfft + ofdm.n_cp) - 1
        return rng.integers(0, 2, symbols * ofdm.bits_per_symbol)

    bits = payload(n)
    long = oansim.generate_ofdm(ofdm, bits)
    drive = oansim.generate_ofdm(ofdm, payload(int(n * ofdm.sample_rate / FS)))
    iq = waveform.analytic(waveform.if_spectrum(drive, IF, n, FS), n, FS)
    current = oansim.ComplexWaveform(np.fft.irfft(
        waveform.if_spectrum(drive, IF, n // 2, FS / 2), n // 2).astype(
            np.float32), FS / 2)
    carrier.spectrum, noise.spectrum
    fiber = FiberParams(20.0)
    pd = PdParams(thermal_noise_psd=5e-24, include_shot=True, seed=3)
    return {
        "apply_mrm": lambda: oansim.apply_mrm(carrier, tone_ring, tone),
        "drop_filter": lambda: oansim.drop_filter(noise, F0 + IF, 12e9, 3),
        "propagate_fiber": lambda: oansim.propagate_fiber(noise, fiber),
        "amplify_ase": lambda: oansim.amplify_ase(noise, 4.0, 4.5, seed=2),
        "photodetect": lambda: oansim.photodetect(noise, pd),
        "generate_ofdm": lambda: oansim.generate_ofdm(ofdm, bits),
        "demodulate_ofdm": lambda: oansim.demodulate_ofdm(ofdm, long),
        "crop_to_band": lambda: waveform.crop_to_band(noise, F0, F0 + 15e9),
        "generate_subcarriers": lambda: oansim.generate_subcarriers(
            carrier, generator),
        "iq_drive": lambda: waveform.analytic(
            waveform.if_spectrum(drive, IF, n, FS), n, FS),
        "real_drive": lambda: fftpack.irfft(
            waveform.if_spectrum(drive, IF, n, FS), n),
        "iq_mrm_ssb": lambda: oansim.iq_mrm_ssb(carrier, iq_pair, iq),
        "receive": lambda: waveform.from_if(current, IF, ofdm.sample_rate),
    }


def _worker(k: int) -> int:
    """Build the inputs of 2^k samples, write their primitives' names on
    one line, then time each primitive named on stdin once."""
    fns = primitives(1 << k)
    print(" ".join(fns), flush=True)
    for line in sys.stdin:
        fn = fns[line.strip()]
        start = time.perf_counter()
        fn()
        print(time.perf_counter() - start, flush=True)
    return 0


class _Tree:
    """A worker process timing the primitives of the tree at ``src``."""

    def __init__(self, src: Path, k: int):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(k)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        self.names = self.proc.stdout.readline().split()

    def time(self, name: str) -> float:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def best_of(trees: dict, k: int, repeat: int) -> dict:
    """Per label of ``trees`` (its ``src``), the best of ``repeat`` wall
    times of each primitive at 2^k samples, the trees taking turns."""
    workers = {}
    try:
        for label, src in trees.items():
            workers[label] = _Tree(src, k)
        best = {label: {} for label in workers}
        for name in next(iter(workers.values())).names:
            for r in range(repeat):
                for label in list(workers)[::1 if r % 2 == 0 else -1]:
                    t = workers[label].time(name)
                    best[label][name] = min(best[label].get(name, t), t)
        return best
    finally:
        for worker in workers.values():
            worker.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[20, 22],
                        help="record sizes as powers of two")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--label", default="change")
    parser.add_argument("--parent", help="a checkout to time alongside")
    parser.add_argument("--out", default="BENCH_primitives.json")
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        return _worker(args.worker)
    trees = {args.label: ROOT / "src"}
    if args.parent:
        trees["parent"] = Path(args.parent).resolve() / "src"
    out = Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {"runs": {}}
    seconds = {label: {} for label in trees}
    for k in args.sizes:
        for label, best in best_of(trees, k, args.repeat).items():
            seconds[label][f"2^{k}"] = {name: round(t, 4)
                                       for name, t in best.items()}
            print(f"{label} 2^{k}: {seconds[label][f'2^{k}']}", flush=True)
    for label in trees:
        report["runs"][label] = {
            "seconds_best_of": args.repeat, "sample_rate": FS,
            "alternated": sorted(trees),
            "machine": {"cpus": os.cpu_count(),
                        "python": platform.python_version(),
                        "numpy": np.__version__, "scipy": scipy.__version__},
            "seconds": seconds[label]}
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
