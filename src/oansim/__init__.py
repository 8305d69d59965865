"""oansim: simulation and budgeting toolkit for analog radio-over-fiber
5G fronthaul over a WDM optical access network.

The package is organized in layers:

- :mod:`oansim.waveform` — complex-baseband waveform container and
  spectral helpers shared by every other module.
- :mod:`oansim.ofdm` — OFDM modem (QAM mapping, framing, pilot-assisted
  equalization) and AWGN loading.
- :mod:`oansim.metrics` — bit-error and EVM counting and analytic AWGN
  references.
- :mod:`oansim.devices` — microring resonator models: through/drop
  response, modulators (intensity and IQ single-sideband), optical
  subcarrier generation and drop filters.
- :mod:`oansim.channel` — fiber propagation (loss and chromatic
  dispersion), amplified-spontaneous-emission loading, and square-law
  photodetection.
- :mod:`oansim.subsystems` — composition of the above into the three
  network sites: central-office transmitter, smart-edge overlay/intercept,
  and the colorless optical network unit with carrier-reuse uplink.
  Electrical drives go in, fields and photocurrents come out.
- :mod:`oansim.budget` — network-level latency, coordination-feasibility,
  fronthaul-dimensioning, and optical power budgets (no waveform
  simulation).
- :mod:`oansim.scenarios` — YAML-configured end-to-end scenario runner
  with JSON/CSV report emission; it makes and reads every OFDM signal.
- :mod:`oansim.cli` — ``oansim`` command-line entry point.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    OansimError,
    SimulationError,
    StageError,
    SyncError,
)
from .waveform import (
    ComplexWaveform,
    analytic,
    band_power,
    from_if,
    if_spectrum,
    psd,
    scale_db,
)
from .ofdm import (
    OfdmConfig,
    add_awgn,
    bandwidth_for_bit_rate,
    demodulate_ofdm,
    generate_ofdm,
    qam_demodulate,
    qam_modulate,
)
from .metrics import (
    DEFAULT_FEC_THRESHOLD,
    BerReport,
    analytic_awgn_ber,
    ber_evm_metrics,
    qfunc,
)
from .devices import (
    ClockGenerator,
    Modulator,
    RingParams,
    apply_mrm,
    drop_filter,
    generate_subcarriers,
    iq_arms,
    iq_mrm_ssb,
    ring_response,
    thermal_tune,
)
from .channel import (
    FiberParams,
    PdParams,
    amplify_ase,
    dc_block,
    dispersion_phase,
    photodetect,
    propagate_fiber,
)
from .subsystems import (
    OnuConfig,
    WdmChannel,
    WdmPlan,
    olt_transmit,
    onu_receive,
    onu_remodulate,
    slope_biased_ring,
    smart_edge_intercept_uplink,
    smart_edge_overlay,
)
from .budget import (
    FRONTHAUL_PRESETS,
    SERVICE_CATALOG,
    FronthaulSpec,
    LinkSpec,
    NodeSpec,
    ServiceRequirement,
    TopologySpec,
    comp_feasibility,
    fronthaul_dimension,
    latency_budget,
    power_budget,
    propagation_delay,
)
from .scenarios import (
    ScenarioConfig,
    builtin_config_path,
    emit_reports,
    load_config,
    run_scenario,
)

__version__ = "0.1.0"

# the public API is every name imported above
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
