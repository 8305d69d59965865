"""Tree-topology latency, synchronization, power, and fronthaul budgeting.

Operates on an immutable topology value; all reports are itemized ledgers
that ``dataclasses.asdict`` serializes.  Delay and loss figures follow the
access-network anchors: 5 us/km one-way group delay, 0.2 dB/km
attenuation, CoMP limits of 150 us one-way latency and +/-1.5 us
synchronization skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .channel import FiberParams
from .errors import ConfigError
from .subsystems import BUS_LOSS_DB_PER_STAGE

NODE_KINDS = ("central_office", "smart_edge", "splitter", "onu", "ru")

#: CoMP joint-processing constraints.
COMP_MAX_ONE_WAY_US = 150.0
COMP_MAX_SKEW_US = 1.5

#: Chip facet coupling loss defaults (dB per facet).
COUPLING_DB_PER_FACET = {"packaged": 2.5, "bare": 6.0}

DEFAULT_RX_SENSITIVITY_DBM = -20.0

#: CPRI's control-word overhead (one word in 16) and 8b/10b line coding,
#: from the CPRI specification (v7.0, 2015).
CPRI_CONTROL_OVERHEAD = 16.0 / 15.0
CPRI_LINE_CODING = 10.0 / 8.0


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


class TreeError(ConfigError):
    """A topology that is not a tree.  ``key`` names the node or link at
    fault, as a config lays them out: ``nodes.<i>.id``, ``nodes.<i>.kind``,
    ``links.<i>.from`` or ``links.<i>.to``; None where no one item is."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


@dataclass
class TopologySpec:
    """A tree rooted at its one central office, walked once at
    construction for each node's parent and the link up to it.  A topology
    that is not a tree raises :class:`TreeError`: a duplicate id, other
    than one root, a link to no node, |E| != |V| - 1 or a node the walk
    does not reach, checked in that order."""
    nodes: list
    links: list

    def __post_init__(self):
        self._by_id = {}
        for i, node in enumerate(self.nodes):
            if node.id in self._by_id:
                raise TreeError(f"duplicate node id '{node.id}'",
                                f"nodes.{i}.id")
            self._by_id[node.id] = node
        roots = [i for i, n in enumerate(self.nodes)
                 if n.kind == "central_office"]
        if len(roots) != 1:
            raise TreeError("topology needs exactly one central_office root",
                            f"nodes.{roots[1]}.kind" if roots else None)
        self.root = self.nodes[roots[0]]
        adj: dict[str, list[LinkSpec]] = {n.id: [] for n in self.nodes}
        for i, link in enumerate(self.links):
            for end, node in (("from", link.from_id), ("to", link.to_id)):
                if node not in self._by_id:
                    raise TreeError(f"link references unknown node '{node}'",
                                    f"links.{i}.{end}")
            adj[link.from_id].append(link)
            adj[link.to_id].append(link)
        if len(self.links) != len(self.nodes) - 1:
            raise TreeError("topology must be a strict tree (|E| = |V| - 1)")
        # node id -> (parent id, link to the parent); the root's are None
        self._up = {self.root.id: (None, None)}
        frontier = [self.root.id]
        while frontier:
            cur = frontier.pop()
            for link in adj[cur]:
                nxt = link.to_id if link.from_id == cur else link.from_id
                if nxt not in self._up:
                    self._up[nxt] = (cur, link)
                    frontier.append(nxt)
        if len(self._up) != len(self.nodes):
            raise TreeError("topology must be connected")

    def node(self, node_id: str) -> NodeSpec:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise ConfigError(f"unknown node '{node_id}'") from None

    def link_between(self, a: str, b: str) -> LinkSpec:
        self.node(a), self.node(b)
        for child, parent in ((a, b), (b, a)):
            if self._up[child][0] == parent:
                return self._up[child][1]
        raise ConfigError(f"no link between '{a}' and '{b}'")

    def _ancestors(self, node_id: str) -> list:
        """``node_id`` and each node above it, up to the root."""
        chain = [self.node(node_id).id]
        while self._up[chain[-1]][0] is not None:
            chain.append(self._up[chain[-1]][0])
        return chain

    def path(self, a: str, b: str) -> list:
        """Node ids along the unique tree path from a to b: up from a to
        the lowest ancestor it shares with b, then down to b."""
        up_a, up_b = self._ancestors(a), self._ancestors(b)
        meet = next(node for node in up_a if node in up_b)
        return up_a[:up_a.index(meet) + 1] + up_b[:up_b.index(meet)][::-1]


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
    ecpri_split_factor: float = 1.0
    guard: float = 0.0

    def __post_init__(self):
        if self.kind not in ("CPRI", "eCPRI", "ARoF"):
            raise ConfigError(f"unknown fronthaul kind '{self.kind}'")
        if self.rf_bandwidth <= 0:
            raise ConfigError("rf_bandwidth must be > 0")
        if self.kind != "ARoF" and (self.sample_rate <= 0
                                    or self.bit_width <= 0):
            raise ConfigError(f"{self.kind} needs sample_rate and bit_width")


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


def propagation_delay(length_km: float, round_trip: bool = False) -> float:
    """Group delay in microseconds over ``length_km`` of fiber, one way or
    there and back: :meth:`FiberParams.one_way_delay_us`, the figure both
    ledgers charge per link."""
    return FiberParams(length_km).one_way_delay_us() * (
        2.0 if round_trip else 1.0)


@dataclass
class LatencyReport:
    items: list                      # (label, us)
    total_us: float
    limit_us: float
    passes: bool


def latency_budget(topology: TopologySpec, path: list,
                   service: ServiceRequirement) -> LatencyReport:
    """One-way latency ledger along a node path, checked against a service.

    Passes when the total is at or below the service limit.
    """
    delays = [(node, topology.node(node).processing_delay_us) for node in path]
    items = [(f"processing:{node}", us) for node, us in delays if us]
    items += [(f"fiber:{a}->{b}",
               topology.link_between(a, b).fiber.one_way_delay_us())
              for a, b in zip(path, path[1:])]
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
        latency[ru] = 0.0
        for a, b in zip(path, path[1:]):
            latency[ru] += topology.link_between(a, b).fiber.one_way_delay_us()
    compensated = topology.node(controller).sync_compensation
    skews = [(a, b, abs(latency[a] - latency[b]))
             for a, b in combinations(ru_ids, 2)]
    offending = [pair for pair in skews if pair[2] > max_skew_us]
    max_skew = max((skew for _, _, skew in skews), default=0.0)
    latency_ok = all(v <= max_one_way_us for v in latency.values())
    skew_ok = compensated or not offending
    return FeasibilityReport(latency_ok and skew_ok, latency, max_skew,
                             offending, compensated)


def fronthaul_dimension(spec: FronthaulSpec) -> dict:
    """The fiber capacity a fronthaul stream takes, and its expansion
    factor over the RF band: ARoF its band plus a guard ratio of optical
    bandwidth; CPRI I and Q samples of ``bit_width`` bits per antenna
    stream with control words and line coding; eCPRI its split of that."""
    if spec.kind == "ARoF":
        bw = spec.rf_bandwidth * (1.0 + spec.guard)
        return {"kind": spec.kind, "optical_bandwidth_hz": bw,
                "expansion_factor": bw / spec.rf_bandwidth}
    rate = (spec.sample_rate * 2 * spec.bit_width * spec.n_antenna_streams
            * CPRI_CONTROL_OVERHEAD * CPRI_LINE_CODING)
    if spec.kind == "eCPRI":
        rate *= spec.ecpri_split_factor
    return {"kind": spec.kind, "line_rate_bps": rate,
            "expansion_factor": rate / spec.rf_bandwidth}


@dataclass
class PowerReport:
    items: list                      # (label, dB, negative = loss)
    total_db: float
    received_dbm: float
    sensitivity_dbm: float
    margin_db: float
    passes: bool


def power_budget(topology: TopologySpec, path: list,
                 tx_power_dbm: float = 0.0,
                 coupling: str = "packaged", n_facets: int = 2,
                 bus_stages: int = 0,
                 bus_loss_db_per_stage: float = BUS_LOSS_DB_PER_STAGE,
                 rx_sensitivity_dbm: float = DEFAULT_RX_SENSITIVITY_DBM) -> PowerReport:
    """Itemized optical power ledger along a path.

    Includes fiber attenuation, per-link component losses (splitters etc.),
    chip facet coupling (packaged 2.5 dB or bare 6 dB per facet), and bus
    insertion loss, by default the loss a burst charges per device; margin
    is against the configured receiver sensitivity.
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
