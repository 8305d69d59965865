"""Generative checks over the key tables of the scenario and budget
configs: every key of a table, replaced by a value of every class or
misspelt by one letter, is accepted or rejected with a ConfigError that
names it (a budget's tree of a shape that no one key sets by its
sections, a renamed node by the link that still names it), and an
accepted MINI config runs to an exit code, never a traceback or a
hang."""

import copy
import dataclasses
import math
import re
import signal
import string

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oansim.budget import FRONTHAUL_PRESETS, SERVICE_CATALOG
from oansim.cli import _BUDGET, _FRONTHAUL, _SERVICE, main, run_budget
from oansim.errors import ConfigError
from oansim.scenarios import (_KEYS, ScenarioConfig, builtin_config_path,
                              load_config)
from test_cli import MINI, _shipped_cut

# one or more values of each class: null, boolean, string, list, mapping,
# non-finite, zero, negative, huge, large and tiny
VALUES = [None, True, False, "", "x", "2.5", [], [1.0], ["x"], {},
          {"x": 1.0}, math.nan, math.inf, -math.inf, 0, -1, 1e30, 1e3, 1e6,
          1e-3, 1e-30]


def _dotted(table: dict, key: str = ""):
    """Every dotted key of a key table, a list's items at index 0."""
    for name, spec in table.items():
        yield key + name
        sub = spec if isinstance(spec, dict) else spec[0]
        if isinstance(sub, dict):
            yield from _dotted(sub, f"{key}{name}.0." if isinstance(
                spec, list) else f"{key}{name}.")


def _parent(raw, key: str):
    """The mapping that holds the last part of ``key`` in ``raw``, or None
    where ``raw`` has no such mapping."""
    for part in key.split(".")[:-1]:
        if isinstance(raw, list) and part.isdigit() and int(part) < len(raw):
            raw = raw[int(part)]
        elif isinstance(raw, dict):
            raw = raw.get(part)
        else:
            return None
    return raw if isinstance(raw, dict) else None


def _bases():
    """The scenario configs the keys are drawn on, merged: MINI and the
    two shipped scenarios cut as the rows of test_cli cut them."""
    return {"mini": ScenarioConfig(copy.deepcopy(MINI)).raw,
            "a": ScenarioConfig(_shipped_cut("subcarrier_tunnels")).raw,
            "b": ScenarioConfig(_shipped_cut("adjacent_rf")).raw}


BASES = _bases()
KEYS = {name: [k for k in _dotted(_KEYS) if _parent(raw, k) is not None]
        for name, raw in BASES.items()}


def _budget_base() -> dict:
    """budget_example, with a second copy of its last latency check and
    of its last fronthaul entry that spells its named service or preset
    out as a mapping."""
    raw = yaml.safe_load(builtin_config_path("budget_example").read_text())
    latency, preset = raw["latency"][-1], raw["fronthaul"][-1]
    service = dataclasses.asdict(SERVICE_CATALOG[latency["service"]])
    spec = dataclasses.asdict(FRONTHAUL_PRESETS[preset])
    raw["latency"].append({**latency, "service": {
        k: service[k] for k in _SERVICE}})
    raw["fronthaul"].append({k: spec[k] for k in _FRONTHAUL})
    return raw


BUDGET = _budget_base()
BUDGET_KEYS = [*_dotted(_BUDGET), *(f"latency.2.service.{k}" for k in _SERVICE),
               *(f"fronthaul.3.{k}" for k in _FRONTHAUL)]
#: The budget keys that list node ids, drawn also as a pair of a value of
#: VALUES and a node of BUDGET.
NODE_LISTS = ("latency.0.path", "comp.0.rus", "power.0.path")


def _names(table):
    """The known names of the section of ``table`` that holds a dotted
    key."""
    def names(key):
        spec = table
        for part in key.split(".")[:-1]:
            if not part.isdigit():
                spec = spec[part]
            spec = spec if isinstance(spec, dict) else spec[0]
        return spec
    return names


def _budget_names(key):
    if ".service." in key:
        return _SERVICE
    return _FRONTHAUL if key.startswith("fronthaul.") else _names(_BUDGET)(key)


def test_every_table_key_is_drawn():
    """Each key of the tables is drawn on at least one base."""
    assert {k for keys in KEYS.values() for k in keys} == set(_dotted(_KEYS))
    assert all(_parent(BUDGET, k) is not None for k in BUDGET_KEYS)


def _edit(data, base: dict, keys: list, names):
    """``base`` with one drawn change, the dotted key that names it, and
    whether that key is unknown: a value of :data:`VALUES` for a key of
    ``keys`` (for a key of :data:`NODE_LISTS`, or that value and a known
    node as a two-item list, in either order), or the key's last part
    misspelt by one letter."""
    key = data.draw(st.sampled_from(keys), label="key")
    raw = copy.deepcopy(base)
    section, name = _parent(raw, key), key.rsplit(".", 1)[-1]
    if name in section and data.draw(st.booleans(), label="misspell"):
        at = data.draw(st.integers(0, len(name) - 1), label="at")
        wrong = name[:at] + data.draw(st.sampled_from(
            [c for c in string.ascii_lowercase if c != name[at]])) \
            + name[at + 1:]
        section[wrong] = section.pop(name)
        return raw, key[:-len(name)] + wrong, wrong not in names(key)
    value = data.draw(st.sampled_from(VALUES), label="value")
    if key in NODE_LISTS and data.draw(st.booleans(), label="paired"):
        node = data.draw(st.sampled_from([n["id"] for n in BUDGET["nodes"]]),
                         label="node")
        value = [value, node] if data.draw(st.booleans(), label="first") \
            else [node, value]
    section[name] = value
    return raw, key, False


def _alarm(signum, frame):
    raise TimeoutError("a run took more than 60 s")


@pytest.mark.parametrize("base", ["mini", "a", "b"])
@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_drawn_key_loads_or_names_itself(base, data, tmp_path):
    raw, key, unknown = _edit(data, BASES[base], KEYS[base], _names(_KEYS))
    path = tmp_path / "drawn.yaml"
    path.write_text(yaml.safe_dump(raw))
    try:
        load_config(path)
    except ConfigError as exc:
        assert key in str(exc)
        return
    assert not unknown, f"{key} was accepted"
    if base != "mini":
        return
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(60)
    try:
        code = main(["run", "--config", str(path), "--out", str(tmp_path)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3)


#: Trees of a shape that no one key sets, named by their sections.
TREE_SHAPES = ("nodes, links: topology must be a strict tree",
               "nodes, links: topology must be connected")


def _names_the_tree(key: str, value, message: str) -> bool:
    """Whether ``message`` rightly names a tree fault other than ``key``,
    drawn as ``value``: a shape of :data:`TREE_SHAPES`, or, for a node's id
    drawn as a string, the end of a link that still names the node's id in
    :data:`BUDGET`."""
    if message.startswith(TREE_SHAPES):
        return True
    section, index, name = (key.split(".") + ["", ""])[:3]
    if (section, name) != ("nodes", "id") or not isinstance(value, str):
        return False
    old = re.escape(BUDGET["nodes"][int(index)]["id"])
    return re.fullmatch(rf"links\.\d+\.(from|to): link references unknown "
                        rf"node '{old}'", message) is not None


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_a_drawn_budget_key_runs_or_names_itself(data):
    raw, key, unknown = _edit(data, BUDGET, BUDGET_KEYS, _budget_names)
    try:
        run_budget(yaml.safe_load(yaml.safe_dump(raw)))
    except ConfigError as exc:
        value = _parent(raw, key)[key.rsplit(".", 1)[-1]]
        assert key in str(exc) or _names_the_tree(key, value, str(exc))
        return
    assert not unknown, f"{key} was accepted"

