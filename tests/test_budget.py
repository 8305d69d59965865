"""Latency, coordination, fronthaul-dimensioning, and power-budget tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oansim.budget import (FRONTHAUL_PRESETS, SERVICE_CATALOG, FronthaulSpec,
                           LinkSpec, NodeSpec, ServiceRequirement,
                           TopologySpec, comp_feasibility, fronthaul_dimension,
                           latency_budget, power_budget, propagation_delay)
from oansim.channel import FiberParams
from oansim.errors import ConfigError


def tree(ru1_km=20.0, ru2_km=20.0, compensated=False, proc_us=0.0):
    nodes = [
        NodeSpec("co", "central_office", processing_delay_us=proc_us,
                 sync_compensation=compensated),
        NodeSpec("edge", "smart_edge"),
        NodeSpec("ru1", "ru"),
        NodeSpec("ru2", "ru"),
    ]
    links = [
        LinkSpec("co", "edge", FiberParams(10.0)),
        LinkSpec("edge", "ru1", FiberParams(ru1_km - 10.0)),
        LinkSpec("edge", "ru2", FiberParams(ru2_km - 10.0)),
    ]
    return TopologySpec(nodes, links)


# ---------------------------------------------------------------- delay


def test_propagation_delay_anchors():
    assert propagation_delay(20.0, round_trip=True) == 200.0
    assert propagation_delay(100.0, round_trip=True) == 1000.0
    assert propagation_delay(1.0) == 5.0
    assert propagation_delay(0.0) == 0.0
    with pytest.raises(ConfigError):
        propagation_delay(-1.0)


@given(st.floats(0, 500), st.floats(0, 500))
@settings(max_examples=40, deadline=None)
def test_propagation_delay_additive(a, b):
    assert propagation_delay(a) + propagation_delay(b) == pytest.approx(
        propagation_delay(a + b), rel=1e-12, abs=1e-9)


# ---------------------------------------------------------------- topology


def test_topology_validation():
    with pytest.raises(ConfigError):
        NodeSpec("x", "router")
    with pytest.raises(ConfigError):
        TopologySpec([NodeSpec("a", "ru"), NodeSpec("a", "ru")], [])
    with pytest.raises(ConfigError):  # link to unknown node
        TopologySpec([NodeSpec("a", "ru")],
                     [LinkSpec("a", "b", FiberParams(1.0))])


def test_topology_path_lookup():
    topo = tree()
    assert topo.path("co", "ru1") == ["co", "edge", "ru1"]
    assert topo.link_between("co", "edge").fiber.length_km == 10.0


def test_topology_path_meets_the_ancestor_chains():
    topo = tree()
    assert topo.path("ru1", "ru2") == ["ru1", "edge", "ru2"]
    assert topo.path("ru2", "co") == ["ru2", "edge", "co"]
    assert topo.path("edge", "edge") == ["edge"]
    assert topo.link_between("ru1", "edge") is topo.link_between("edge", "ru1")
    for a, b in (("co", "nope"), ("nope", "co"), ("co", "ru1"), ("co", "co")):
        with pytest.raises(ConfigError):
            topo.link_between(a, b)
    with pytest.raises(ConfigError):
        topo.path("co", "nope")


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=12), st.data())
@settings(max_examples=60, deadline=None)
def test_topology_path_is_the_tree_walk(draws, data):
    # node i hangs off an earlier node, its link written either way round
    nodes = [NodeSpec("n0", "central_office"),
             *(NodeSpec(f"n{i}", "ru") for i in range(1, len(draws) + 1))]
    links = []
    for i, draw in enumerate(draws, start=1):
        ends = (f"n{draw % i}", f"n{i}")[::1 if draw % 2 else -1]
        links.append(LinkSpec(*ends, FiberParams(1.0)))
    topo = TopologySpec(nodes, links)
    a, b = (data.draw(st.sampled_from([n.id for n in nodes])) for _ in "ab")
    path = topo.path(a, b)
    assert (path[0], path[-1]) == (a, b) and len(set(path)) == len(path)
    for x, y in zip(path, path[1:]):
        link = topo.link_between(x, y)
        assert {link.from_id, link.to_id} == {x, y}


# ---------------------------------------------------------------- latency


def test_latency_budget_ledger():
    topo = tree(proc_us=10.0)
    rep = latency_budget(topo, ["co", "edge", "ru1"],
                         SERVICE_CATALOG["embb_dense_urban"])
    assert rep.total_us == pytest.approx(10.0 + 50.0 + 50.0)
    assert rep.limit_us == 4000.0
    assert rep.passes


def test_latency_at_the_limit_passes():
    # 10 km + 20 km at 5 us/km is exactly the 150 us CoMP limit
    topo = tree(ru1_km=30.0, ru2_km=30.0)
    svc = ServiceRequirement("at_limit", 0.15)
    rep = latency_budget(topo, ["co", "edge", "ru1"], svc)
    assert rep.total_us == rep.limit_us == 150.0
    assert rep.passes
    comp = comp_feasibility(topo, ["ru1", "ru2"], "co")
    assert comp.per_ru_latency_us["ru1"] == 150.0
    assert comp.passes
    assert not comp_feasibility(topo, ["ru1", "ru2"], "co",
                                max_one_way_us=149.999).passes


def test_latency_budget_fail_case():
    topo = tree(ru1_km=150.0)
    svc = ServiceRequirement("tight", 0.5)  # 500 us limit
    rep = latency_budget(topo, ["co", "edge", "ru1"], svc)
    assert rep.total_us == pytest.approx(750.0)
    assert not rep.passes


def test_service_catalog_limits():
    assert SERVICE_CATALOG["urllc"].one_way_latency_limit_ms == 0.5
    assert SERVICE_CATALOG["embb_dense_urban"].one_way_latency_limit_ms == 4.0
    with pytest.raises(ConfigError):
        ServiceRequirement("bad", 0.0)


# ---------------------------------------------------------------- comp


def test_comp_passes_at_20km():
    rep = comp_feasibility(tree(), ["ru1", "ru2"], "co")
    assert rep.passes
    assert rep.per_ru_latency_us["ru1"] == pytest.approx(100.0)
    assert rep.max_skew_us == pytest.approx(0.0)


def test_comp_fails_on_differential_delay():
    # 2 km differential -> 10 us skew, far beyond the 1.5 us sync window
    rep = comp_feasibility(tree(ru2_km=22.0), ["ru1", "ru2"], "co")
    assert not rep.passes
    assert rep.max_skew_us == pytest.approx(10.0)
    assert rep.offending_pairs


def test_comp_compensation_restores_feasibility():
    rep = comp_feasibility(tree(ru2_km=22.0, compensated=True),
                           ["ru1", "ru2"], "co")
    assert rep.passes and rep.compensated


def test_comp_fails_beyond_reach():
    rep = comp_feasibility(tree(ru1_km=40.0, ru2_km=40.0), ["ru1", "ru2"],
                           "co")
    assert not rep.passes  # 200 us one-way > 150 us limit


def test_comp_skew_boundary():
    # 0.2 km differential = 1.0 us skew: inside the window
    rep = comp_feasibility(tree(ru2_km=20.2), ["ru1", "ru2"], "co")
    assert rep.passes


# ---------------------------------------------------------------- fronthaul


def test_cpri_lte20_rate_and_expansion():
    dim = fronthaul_dimension(FRONTHAUL_PRESETS["cpri_lte20"])
    assert dim["line_rate_bps"] == pytest.approx(1.2288e9, rel=1e-6)
    assert dim["expansion_factor"] == pytest.approx(61.44, rel=1e-6)


def test_all_cpri_presets_expand_at_least_tenfold():
    for name, spec in FRONTHAUL_PRESETS.items():
        if spec.kind == "CPRI":
            assert fronthaul_dimension(spec)["expansion_factor"] >= 10.0


def test_ecpri_split_reduces_rate():
    full = fronthaul_dimension(FRONTHAUL_PRESETS["cpri_lte20"])
    split = fronthaul_dimension(FRONTHAUL_PRESETS["ecpri_lte20"])
    assert split["line_rate_bps"] == pytest.approx(
        0.25 * full["line_rate_bps"], rel=1e-9)


def test_arof_expansion_near_unity():
    for name in ("arof_nr100", "arof_nr400"):
        dim = fronthaul_dimension(FRONTHAUL_PRESETS[name])
        assert dim["expansion_factor"] <= 1.2
        assert dim["optical_bandwidth_hz"] >= FRONTHAUL_PRESETS[name].rf_bandwidth


def test_fronthaul_validation():
    with pytest.raises(ConfigError):
        FronthaulSpec("OBSAI", 20e6)
    with pytest.raises(ConfigError):
        FronthaulSpec("CPRI", 20e6)  # missing sample_rate/bit_width


def test_antenna_streams_scale_rate():
    base = FRONTHAUL_PRESETS["cpri_lte20"]
    mimo = FronthaulSpec("CPRI", base.rf_bandwidth,
                         sample_rate=base.sample_rate,
                         bit_width=base.bit_width, n_antenna_streams=4)
    assert fronthaul_dimension(mimo)["line_rate_bps"] == pytest.approx(
        4 * fronthaul_dimension(base)["line_rate_bps"], rel=1e-12)


# ---------------------------------------------------------------- power


def test_power_budget_ledger():
    topo = TopologySpec(
        [NodeSpec("co", "central_office"), NodeSpec("onu", "onu")],
        [LinkSpec("co", "onu", FiberParams(20.0),
                  component_losses=(("splitter", 6.0),))])
    rep = power_budget(topo, ["co", "onu"], tx_power_dbm=10.0,
                       coupling="packaged", n_facets=2, bus_stages=4)
    # 4 dB fiber + 6 dB splitter + 5 dB coupling + 0.4 dB bus
    assert rep.total_db == pytest.approx(-15.4)
    assert rep.received_dbm == pytest.approx(-5.4)
    assert rep.margin_db == pytest.approx(14.6)
    assert rep.passes


def test_bare_facets_cost_seven_db_more():
    topo = TopologySpec(
        [NodeSpec("a", "central_office"), NodeSpec("b", "onu")],
        [LinkSpec("a", "b", FiberParams(0.0))])
    packaged = power_budget(topo, ["a", "b"], coupling="packaged", n_facets=2)
    bare = power_budget(topo, ["a", "b"], coupling="bare", n_facets=2)
    assert packaged.received_dbm - bare.received_dbm == pytest.approx(7.0)


def test_power_budget_fail_when_below_sensitivity():
    topo = TopologySpec(
        [NodeSpec("a", "central_office"), NodeSpec("b", "onu")],
        [LinkSpec("a", "b", FiberParams(100.0))])
    rep = power_budget(topo, ["a", "b"], tx_power_dbm=0.0)
    assert not rep.passes and rep.margin_db < 0


def test_power_budget_coupling_validation():
    topo = TopologySpec([NodeSpec("a", "central_office"),
                         NodeSpec("b", "onu")],
                        [LinkSpec("a", "b", FiberParams(1.0))])
    with pytest.raises(ConfigError):
        power_budget(topo, ["a", "b"], coupling="taped")


@given(st.floats(0, 50), st.integers(0, 32))
@settings(max_examples=30, deadline=None)
def test_power_budget_monotone_in_length_and_stages(km, stages):
    topo = TopologySpec([NodeSpec("a", "central_office"),
                         NodeSpec("b", "onu")],
                        [LinkSpec("a", "b", FiberParams(km))])
    rep = power_budget(topo, ["a", "b"], bus_stages=stages)
    longer = TopologySpec([NodeSpec("a", "central_office"),
                           NodeSpec("b", "onu")],
                          [LinkSpec("a", "b", FiberParams(km + 5.0))])
    rep2 = power_budget(longer, ["a", "b"], bus_stages=stages)
    assert rep2.received_dbm <= rep.received_dbm
    assert rep.received_dbm == pytest.approx(
        0.0 - 0.2 * km - 5.0 - 0.1 * stages, abs=1e-9)
