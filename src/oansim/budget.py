"""Tree-topology latency, synchronization, power, and fronthaul budgeting.

Operates on an immutable topology value; all reports are itemized ledgers
serializable to dicts.  Delay and loss figures follow the access-network
anchors: 5 us/km one-way group delay, 0.2 dB/km attenuation, CoMP limits
of 150 us one-way latency and +/-1.5 us synchronization skew.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import GROUP_DELAY_US_PER_KM, FiberParams
from .errors import ConfigError

NODE_KINDS = ("central_office", "smart_edge", "splitter", "onu", "ru")

#: CoMP joint-processing constraints.
COMP_MAX_ONE_WAY_US = 150.0
COMP_MAX_SKEW_US = 1.5

#: Chip facet coupling loss defaults (dB per facet).
COUPLING_DB_PER_FACET = {"packaged": 2.5, "bare": 6.0}

DEFAULT_RX_SENSITIVITY_DBM = -20.0


@dataclass(frozen=True)
class NodeSpec:
    id: str
    kind: str
    processing_delay_us: float = 0.0
    sync_compensation: bool = False

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ConfigError(f"unknown node kind '{self.kind}'")


@dataclass(frozen=True)
class LinkSpec:
    from_id: str
    to_id: str
    fiber: FiberParams
    component_losses: tuple = ()   # (label, dB) pairs


@dataclass
class TopologySpec:
    nodes: list
    links: list

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate node ids")
        self._by_id = {n.id: n for n in self.nodes}
        roots = [n for n in self.nodes if n.kind == "central_office"]
        if len(roots) != 1:
            raise ConfigError("topology needs exactly one central_office root")
        self.root = roots[0]
        self._adj: dict[str, list[LinkSpec]] = {n.id: [] for n in self.nodes}
        for link in self.links:
            for end in (link.from_id, link.to_id):
                if end not in self._by_id:
                    raise ConfigError(f"link references unknown node '{end}'")
            self._adj[link.from_id].append(link)
            self._adj[link.to_id].append(link)
        if len(self.links) != len(self.nodes) - 1:
            raise ConfigError("topology must be a strict tree (|E| = |V| - 1)")
        if len(self._reachable(self.root.id)) != len(self.nodes):
            raise ConfigError("topology must be connected")

    def _reachable(self, start: str) -> set:
        seen = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for link in self._adj[cur]:
                nxt = link.to_id if link.from_id == cur else link.from_id
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def node(self, node_id: str) -> NodeSpec:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise ConfigError(f"unknown node '{node_id}'") from None

    def link_between(self, a: str, b: str) -> LinkSpec:
        for link in self._adj[a]:
            if {link.from_id, link.to_id} == {a, b}:
                return link
        raise ConfigError(f"no link between '{a}' and '{b}'")

    def path(self, a: str, b: str) -> list:
        """Node ids along the unique tree path from a to b."""
        self.node(a), self.node(b)
        prev = {a: None}
        frontier = [a]
        while frontier:
            cur = frontier.pop()
            if cur == b:
                break
            for link in self._adj[cur]:
                nxt = link.to_id if link.from_id == cur else link.from_id
                if nxt not in prev:
                    prev[nxt] = cur
                    frontier.append(nxt)
        if b not in prev:
            raise ConfigError(f"no path between '{a}' and '{b}'")
        out = [b]
        while prev[out[-1]] is not None:
            out.append(prev[out[-1]])
        return out[::-1]


@dataclass(frozen=True)
class ServiceRequirement:
    name: str
    one_way_latency_limit_ms: float
    dl_rate_bps: float = 0.0
    ul_rate_bps: float = 0.0

    def __post_init__(self):
        if self.one_way_latency_limit_ms <= 0:
            raise ConfigError("latency limit must be > 0")


#: IMT-2020 service anchors plus catalog-only media entries.
SERVICE_CATALOG = {
    "embb_dense_urban": ServiceRequirement("embb_dense_urban", 4.0, 100e6, 50e6),
    "embb_peak": ServiceRequirement("embb_peak", 4.0, 20e9, 10e9),
    "urllc": ServiceRequirement("urllc", 0.5),
    "vr_strong_interactive": ServiceRequirement("vr_strong_interactive", 10.0,
                                                200e6, 50e6),
    "vr_human_limit": ServiceRequirement("vr_human_limit", 10.0, 5.2e9, 50e6),
}


@dataclass(frozen=True)
class FronthaulSpec:
    kind: str                        # CPRI | eCPRI | ARoF
    rf_bandwidth: float
    sample_rate: float = 0.0
    bit_width: int = 0
    n_antenna_streams: int = 1
    control_overhead: float = 16.0 / 15.0
    line_coding: float = 10.0 / 8.0
    ecpri_split_factor: float = 1.0
    guard: float = 0.0

    def __post_init__(self):
        if self.kind not in ("CPRI", "eCPRI", "ARoF"):
            raise ConfigError(f"unknown fronthaul kind '{self.kind}'")
        if self.rf_bandwidth <= 0:
            raise ConfigError("rf_bandwidth must be > 0")
        if self.kind in ("CPRI", "eCPRI"):
            if self.sample_rate <= 0 or self.bit_width <= 0:
                raise ConfigError(
                    f"{self.kind} needs sample_rate and bit_width")
            if self.control_overhead < 1 or self.line_coding < 1:
                raise ConfigError("overhead ratios must be >= 1")


#: Standard LTE/NR digitized-fronthaul presets and analog counterparts.
FRONTHAUL_PRESETS = {
    "cpri_lte5": FronthaulSpec("CPRI", 5e6, sample_rate=7.68e6, bit_width=15),
    "cpri_lte10": FronthaulSpec("CPRI", 10e6, sample_rate=15.36e6, bit_width=15),
    "cpri_lte20": FronthaulSpec("CPRI", 20e6, sample_rate=30.72e6, bit_width=15),
    "cpri_nr100": FronthaulSpec("CPRI", 100e6, sample_rate=122.88e6,
                                bit_width=15),
    "ecpri_lte20": FronthaulSpec("eCPRI", 20e6, sample_rate=30.72e6,
                                 bit_width=15, ecpri_split_factor=0.25),
    "arof_nr100": FronthaulSpec("ARoF", 100e6, guard=0.10),
    "arof_nr400": FronthaulSpec("ARoF", 400e6, guard=0.20),
}


# ---------------------------------------------------------------------------
# Operations


def propagation_delay(length_km: float, round_trip: bool = False,
                      us_per_km: float = GROUP_DELAY_US_PER_KM) -> float:
    """Fiber group delay in microseconds."""
    if length_km < 0:
        raise ConfigError("length must be >= 0")
    return length_km * us_per_km * (2.0 if round_trip else 1.0)


@dataclass
class LatencyReport:
    items: list                      # (label, us)
    total_us: float
    limit_us: float
    passes: bool

    def to_dict(self):
        return {"items": [list(i) for i in self.items],
                "total_us": self.total_us, "limit_us": self.limit_us,
                "passes": self.passes}


def latency_budget(topology: TopologySpec, path: list,
                   service: ServiceRequirement) -> LatencyReport:
    """One-way latency ledger along a node path, checked against a service.

    Passes when the total is at or below the service limit.
    """
    items = []
    for node_id in path:
        node = topology.node(node_id)
        if node.processing_delay_us:
            items.append((f"processing:{node_id}", node.processing_delay_us))
    for a, b in zip(path, path[1:]):
        link = topology.link_between(a, b)
        items.append((f"fiber:{a}->{b}",
                      propagation_delay(link.fiber.length_km,
                                        us_per_km=link.fiber.group_delay_us_per_km)))
    total = sum(us for _, us in items)
    limit = service.one_way_latency_limit_ms * 1e3
    return LatencyReport(items, total, limit, total <= limit)


@dataclass
class FeasibilityReport:
    passes: bool
    per_ru_latency_us: dict
    max_skew_us: float
    offending_pairs: list
    compensated: bool

    def to_dict(self):
        return {"passes": self.passes,
                "per_ru_latency_us": self.per_ru_latency_us,
                "max_skew_us": self.max_skew_us,
                "offending_pairs": [list(p) for p in self.offending_pairs],
                "compensated": self.compensated}


def comp_feasibility(topology: TopologySpec, ru_ids, controller: str,
                     max_one_way_us: float = COMP_MAX_ONE_WAY_US,
                     max_skew_us: float = COMP_MAX_SKEW_US) -> FeasibilityReport:
    """CoMP joint-processing feasibility over a set of remote units.

    Passes iff every RU's one-way latency to the controller is at or below
    the limit, as in :func:`latency_budget`, and either the pairwise
    differential delay fits the sync window or the controller compensates
    skew.
    """
    ru_ids = sorted(ru_ids)
    latency = {}
    for ru in ru_ids:
        path = topology.path(controller, ru)
        total = 0.0
        for a, b in zip(path, path[1:]):
            link = topology.link_between(a, b)
            total += propagation_delay(link.fiber.length_km,
                                       us_per_km=link.fiber.group_delay_us_per_km)
        latency[ru] = total
    compensated = topology.node(controller).sync_compensation
    offending = []
    max_skew = 0.0
    for i, a in enumerate(ru_ids):
        for b in ru_ids[i + 1:]:
            skew = abs(latency[a] - latency[b])
            max_skew = max(max_skew, skew)
            if skew > max_skew_us:
                offending.append((a, b, skew))
    latency_ok = all(v <= max_one_way_us for v in latency.values())
    skew_ok = compensated or not offending
    return FeasibilityReport(latency_ok and skew_ok, latency, max_skew,
                             offending, compensated)


def fronthaul_dimension(spec: FronthaulSpec) -> dict:
    """Line rate (or occupied optical bandwidth) and RF expansion factor."""
    if spec.kind == "CPRI":
        rate = (spec.sample_rate * 2 * spec.bit_width * spec.n_antenna_streams
                * spec.control_overhead * spec.line_coding)
        return {"kind": spec.kind, "line_rate_bps": rate,
                "expansion_factor": rate / spec.rf_bandwidth}
    if spec.kind == "eCPRI":
        stream = (spec.sample_rate * 2 * spec.bit_width
                  * spec.n_antenna_streams * spec.control_overhead
                  * spec.line_coding)
        rate = stream * spec.ecpri_split_factor
        return {"kind": spec.kind, "line_rate_bps": rate,
                "expansion_factor": rate / spec.rf_bandwidth}
    # ARoF: occupied optical bandwidth with a guard ratio
    bw = spec.rf_bandwidth * (1.0 + spec.guard)
    return {"kind": spec.kind, "optical_bandwidth_hz": bw,
            "expansion_factor": bw / spec.rf_bandwidth}


@dataclass
class PowerReport:
    items: list                      # (label, dB, negative = loss)
    total_db: float
    received_dbm: float
    sensitivity_dbm: float
    margin_db: float
    passes: bool

    def to_dict(self):
        return {"items": [list(i) for i in self.items],
                "total_db": self.total_db, "received_dbm": self.received_dbm,
                "sensitivity_dbm": self.sensitivity_dbm,
                "margin_db": self.margin_db, "passes": self.passes}


def power_budget(topology: TopologySpec, path: list,
                 tx_power_dbm: float = 0.0,
                 coupling: str = "packaged", n_facets: int = 2,
                 bus_stages: int = 0, bus_loss_db_per_stage: float = 0.1,
                 rx_sensitivity_dbm: float = DEFAULT_RX_SENSITIVITY_DBM) -> PowerReport:
    """Itemized optical power ledger along a path.

    Includes fiber attenuation, per-link component losses (splitters etc.),
    chip facet coupling (packaged 2.5 dB or bare 6 dB per facet), and bus
    insertion loss; margin is against the configured receiver sensitivity.
    """
    if coupling not in COUPLING_DB_PER_FACET:
        raise ConfigError(f"coupling must be one of {list(COUPLING_DB_PER_FACET)}")
    items = []
    for a, b in zip(path, path[1:]):
        link = topology.link_between(a, b)
        if link.fiber.total_loss_db:
            items.append((f"fiber:{a}->{b}", -link.fiber.total_loss_db))
        for label, db in link.component_losses:
            items.append((f"{label}:{a}->{b}", -db))
    if n_facets:
        per = COUPLING_DB_PER_FACET[coupling]
        items.append((f"coupling:{n_facets}x{coupling}", -per * n_facets))
    if bus_stages:
        items.append((f"bus:{bus_stages}stages",
                      -bus_stages * bus_loss_db_per_stage))
    total = sum(db for _, db in items)
    received = tx_power_dbm + total
    margin = received - rx_sensitivity_dbm
    return PowerReport(items, total, received, rx_sensitivity_dbm, margin,
                       margin >= 0.0)
