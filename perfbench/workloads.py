"""The benchmark's workloads, built from the package's public API.

Each workload is made from a seed, and one *call* runs it to a fixed bit
target.  ``oansim`` is imported lazily, so the runner can list workload
names without the package on the path.

Why these three:

* ``scenario_a_top`` -- the shipped scenario A at its top sweep point:
  two WDM channels of 2^22 samples at 160 GS/s with the subcarrier
  tunnel overlay.  Most time is in devices, channel, waveform and
  subsystems; it shows whole-record FFT and memory changes.
* ``scenario_b_top`` -- the shipped scenario B at its top sweep point:
  one channel of 2^20 samples at 64 GS/s through the other burst
  pipeline (adjacent RF), with five 125 MHz radios resampled 128:1; the
  modem and ``resample_to`` weigh about a quarter of a burst.
* ``modem_awgn`` -- the OFDM modem over AWGN only, with no optical layer:
  per-symbol FFT changes show here, optical-layer changes must not.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

# Bit targets fix whole bursts at today's bits per burst.  They are bit
# counts, not burst counts, so a change that alters the bits a burst
# carries changes the bursts needed and shows in run_s.
#   scenario A: least-counted signal is uplink:rof, 258,720 bits a burst
#     -> 1 burst (about 55 s; a traced run makes two such calls and
#        must end within 180 s)
#   scenario B: least-counted signals are rf1..rf5, 6,960 bits a burst
#     -> 1 burst (about 6 s; a run repeats it)
SCENARIOS = {
    "scenario_a_top": ("scenario_a", 258_720),
    "scenario_b_top": ("scenario_b", 6_960),
}

MODEM_EBN0_DB = 8.0
MODEM_CHUNK_SYMBOLS = 2000
MODEM_CALL_BITS = 2_000_000
# Monte-Carlo BER must fall within this factor of the analytic AWGN BER
MODEM_BER_FACTOR = 2.0

NAMES = tuple(SCENARIOS) + ("modem_awgn",)


@dataclass
class CallResult:
    """Outcome of one call: bits on the least-counted signal, work units
    (bursts or chunks), and the reasons it is wrong, if any."""
    bits: int
    units: int
    bursts: int = 0
    problems: list = field(default_factory=list)
    errors: int = 0


def make(name: str, seed: int):
    """Build (and validate) the named workload for ``seed``."""
    if name in SCENARIOS:
        shipped, target = SCENARIOS[name]
        return ScenarioTop(shipped, target, seed)
    if name == "modem_awgn":
        return ModemAwgn(seed)
    raise ValueError(f"unknown workload {name!r}; known: {list(NAMES)}")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class ScenarioTop:
    """A shipped scenario cut to its top sweep point and a bit target.

    Only ``sweep`` and ``seed`` differ from the shipped YAML, whose hash
    is recorded so that a physics change to it is visible.
    """

    def __init__(self, shipped: str, bit_target: int, seed: int):
        from oansim import scenarios

        path = scenarios.builtin_config_path(shipped)
        raw = copy.deepcopy(scenarios.load_config(path).raw)
        top = raw["sweep"]["rx_power_dbm"][-1]
        raw["sweep"]["rx_power_dbm"] = [top]
        raw["sweep"]["top_bits"] = bit_target
        raw["seed"] = seed
        self.cfg = scenarios.ScenarioConfig(raw)
        self.bit_target = bit_target
        self.record_n = 0
        self.info = {"shipped": path.name, "shipped_sha256": _sha256(path),
                     "rx_power_dbm": top, "bit_target": bit_target,
                     "seed": seed}

    def call(self, index: int) -> CallResult:
        """Run the scenario once; every call uses the same inputs."""
        import oansim.scenarios

        report = oansim.scenarios.run_scenario(self.cfg)
        point = report["points"][0]
        signals = point["signals"]
        bits = min(s["bits"] for s in signals.values())
        problems = [f"{name} BER {s['ber']:.3g} not below FEC threshold"
                    for name, s in sorted(signals.items())
                    if not s["passes_fec"]]
        # run_scenario stops on this very count, so this only restates its
        # stopping rule; a short demodulation is caught by DemodOps
        if bits < self.bit_target:
            problems.append(f"{bits} bits counted, target {self.bit_target}")
        return CallResult(bits, point["bursts"], point["bursts"], problems,
                          sum(s["errors"] for s in signals.values()))

    def observers(self):
        """Replacements that observe the record length of each burst."""
        import oansim.subsystems

        transmit = oansim.subsystems.olt_transmit

        def observed(*args, **kwargs):
            field_out = transmit(*args, **kwargs)
            self.record_n = field_out.n
            return field_out

        return {transmit: observed}


class ModemAwgn:
    """OFDM QPSK over AWGN: generate -> add_awgn -> demodulate -> count.

    One call covers at least ``MODEM_CALL_BITS`` in chunks of
    ``chunk_symbols`` OFDM symbols; chunk inputs derive from the seed,
    the call index and the chunk index.
    """

    def __init__(self, seed: int, chunk_symbols: int = MODEM_CHUNK_SYMBOLS,
                 call_bits: int = MODEM_CALL_BITS):
        from oansim.metrics import analytic_awgn_ber
        from oansim.ofdm import OfdmConfig

        self.seed = seed
        self.cfg = OfdmConfig(n_subcarriers=64, qam_order=4,
                              cp_fraction=1.0 / 16.0, occupied_bandwidth=1e9,
                              pilot_spacing=16, oversampling=4, seed=seed)
        self.chunk_symbols = chunk_symbols
        chunk_bits = chunk_symbols * self.cfg.bits_per_symbol
        self.chunks = max(1, math.ceil(call_bits / chunk_bits))
        self.analytic_ber = analytic_awgn_ber(4, MODEM_EBN0_DB)
        self.record_n = 0
        self.info = {"qam_order": 4, "ebn0_db": MODEM_EBN0_DB,
                     "chunk_symbols": chunk_symbols, "chunks_per_call":
                     self.chunks, "analytic_ber": self.analytic_ber,
                     "seed": seed}

    def call(self, index: int) -> CallResult:
        import oansim.metrics
        import oansim.ofdm

        ofdm = oansim.ofdm
        per_chunk = self.chunk_symbols * self.cfg.bits_per_symbol
        bits = errors = 0
        for chunk in range(self.chunks):
            rng = np.random.default_rng([self.seed, index, chunk])
            tx = rng.integers(0, 2, per_chunk)
            wf = ofdm.generate_ofdm(self.cfg, tx)
            self.record_n = wf.n
            noisy = ofdm.add_awgn(wf, MODEM_EBN0_DB, self.cfg,
                                  seed=int(rng.integers(1 << 62)))
            rx, evm = ofdm.demodulate_ofdm(self.cfg, noisy,
                                           max_symbols=self.chunk_symbols)
            n = min(rx.size, tx.size)
            report = oansim.metrics.ber_evm_metrics(tx[:n], rx[:n],
                                                    evm_rms=evm)
            bits += report.total_bits
            errors += report.bit_errors
        return CallResult(bits, self.chunks, 0, [], errors)

    def observers(self):
        return {}


def run_problems(name: str, calls: list, info: dict) -> list:
    """Run-level correctness over all calls of a run (call dicts), given
    the ``info`` of the workload that made them.

    ``modem_awgn``: the Monte-Carlo BER of the whole run must lie within
    ``MODEM_BER_FACTOR`` of the analytic AWGN BER.  The scenarios are
    checked per call (FEC threshold and bit target).
    """
    if name != "modem_awgn" or not calls:
        return []
    bits = sum(c["bits"] for c in calls)
    analytic = info["analytic_ber"]
    ber = sum(c["errors"] for c in calls) / bits if bits else float("nan")
    if not 1.0 / MODEM_BER_FACTOR <= ber / analytic <= MODEM_BER_FACTOR:
        return [f"Monte-Carlo BER {ber:.3g} over {bits} bits is not within "
                f"x{MODEM_BER_FACTOR:g} of analytic {analytic:.3g}"]
    return []
