"""Fork-join inside a burst: a threaded run reports exactly what a serial
one does, a branch's error reaches the caller naming its stage, and nested
forks complete."""

import json
import os
import sys
import threading

import pytest
import yaml

import oansim.devices
import oansim.forkjoin
import oansim.scenarios
from gate import scenario_config
from oansim.cli import main
from oansim.errors import SimulationError, StageError
from oansim.forkjoin import branch_threads, fork
from oansim.scenarios import run_scenario
from test_scenarios import _shipped_top, mini_config


@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def _in_thread(fn, timeout=60.0):
    """``fn()`` on a fresh thread that must end within ``timeout``."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive()
    return out[0]


def test_fork_uses_two_threads_only_inside_the_block(two_cores):
    """Inside the block two branches meet at a barrier, which only a fork
    that hands one of them to the worker passes; outside it they run in
    turn on one thread."""
    assert len(set(fork(threading.get_ident, threading.get_ident,
                        threading.get_ident))) == 1
    barrier = threading.Barrier(2, timeout=10.0)

    def met():
        barrier.wait()
        return threading.get_ident()

    def threaded():
        with branch_threads():
            return fork(met, met)

    assert len(set(_in_thread(threaded))) == 2


def test_fork_is_serial_on_one_core(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    with branch_threads():
        assert len(set(fork(threading.get_ident, threading.get_ident))) == 1


def test_nested_fork_completes(two_cores):
    def nested():
        with branch_threads():
            return fork(lambda: fork(lambda: 1, lambda: 2),
                        lambda: fork(lambda: 3, lambda: 4), lambda: 5)

    assert _in_thread(nested) == [[1, 2], [3, 4], 5]


def test_first_error_in_order_reaches_the_caller(two_cores):
    def fail(i):
        def branch():
            raise SimulationError(f"branch {i}")
        return branch

    with branch_threads():
        with pytest.raises(SimulationError, match="branch 1"):
            fork(lambda: 0, fail(1), fail(2), fail(3))


def test_a_fork_on_the_worker_hands_a_branch_to_the_waiting_caller(
        two_cores):
    """The worker runs the second branch, which the first waits for, and
    forks there: the caller, done with its branch and waiting on the
    worker's, takes one of that nested fork's branches, which meet at a
    barrier."""
    started, barrier = threading.Event(), threading.Barrier(2, timeout=10.0)

    def first():
        assert started.wait(10.0)
        return threading.get_ident()

    def met():
        barrier.wait()
        return threading.get_ident()

    def second():
        started.set()
        return threading.get_ident(), fork(met, met)

    def threaded():
        with branch_threads():
            return fork(first, second)

    caller, (worker, inner) = _in_thread(threaded)
    assert caller != worker
    assert set(inner) == {caller, worker}


def test_an_error_with_branches_queued_leaves_no_thread(two_cores):
    """A branch raises while later ones are still queued: the first error
    in order reaches the caller, and once the block exits no thread of it
    is left."""
    def fail(i):
        def branch():
            raise SimulationError(f"branch {i}")
        return branch

    def threaded():
        before = threading.enumerate()
        with branch_threads():
            with pytest.raises(SimulationError, match="branch 2"):
                fork(lambda: 0, lambda: 1, fail(2), *map(fail, range(3, 9)))
        return before, threading.enumerate()

    before, after = _in_thread(threaded)
    assert after == before


@pytest.mark.parametrize("name", ["mini", "scenario_a", "scenario_b"])
def test_threaded_and_serial_runs_give_identical_reports(name, tmp_path,
                                                         monkeypatch):
    cfg = mini_config(tmp_path) if name == "mini" else _shipped_top(name)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    threaded = json.dumps(run_scenario(cfg), sort_keys=True)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert json.dumps(run_scenario(cfg), sort_keys=True) == threaded


def test_branch_error_names_its_stage(tmp_path, monkeypatch, capsys,
                                      two_cores):
    cfg = _shipped_top("scenario_a")
    second = cfg.plan.channels[1].center_freq
    receive = oansim.scenarios.onu_receive

    def dark_second_channel(field, onu, *args, **kwargs):
        if onu.channel.center_freq == second:
            raise SimulationError("no light on channel 1")
        return receive(field, onu, *args, **kwargs)

    monkeypatch.setattr(oansim.scenarios, "onu_receive", dark_second_channel)
    with pytest.raises(StageError, match="no light") as info:
        run_scenario(cfg)
    assert info.value.stage == "onu_receive"
    path = tmp_path / "scenario_a.yaml"
    path.write_text(yaml.safe_dump(cfg.raw))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert "onu_receive" in capsys.readouterr().err


def test_every_fork_reaches_the_second_thread(two_cores, monkeypatch):
    """Each call site of fork with two or more branches finds the worker
    in one burst of cut A or cut B at least: a fork that only ever runs
    inside a forked branch runs its branches in turn, as plain calls do."""
    found = {}

    def watched(*branches):
        if len(branches) > 1:
            caller = sys._getframe(1)
            code = caller.f_code
            site = (f"{os.path.basename(code.co_filename)}:{caller.f_lineno}"
                    f" {code.co_qualname}")
            parallel = oansim.forkjoin._WORKER.get() is not None
            found[site] = found.get(site, False) or parallel
        return fork(*branches)

    for module in (oansim.scenarios, oansim.devices):
        monkeypatch.setattr(module, "fork", watched)
    for name in ("scenario_a", "scenario_b"):
        (point,) = run_scenario(scenario_config(name, 1, cut=True))["points"]
        assert point["bursts"] == 1
    assert found
    assert all(found.values()), sorted(s for s, ok in found.items() if not ok)
