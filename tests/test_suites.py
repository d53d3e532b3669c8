"""run_suites: suites in forked workers give the serial run's report and error, and leave no process behind."""

import multiprocessing
import os
import pickle
import time

import pytest

from qrel import suites
from qrel.cli import main
from qrel.config import SUITE_NAMES, ScenarioConfig
from qrel.errors import ConfigurationError, QrelError, ResolutionGuardError
from qrel.report import dumps17


def _family(cls):
    return [cls] + [member for sub in cls.__subclasses__() for member in _family(sub)]


#: Constructor arguments beyond the message, for the errors that carry fields.
ERROR_FIELDS = {ResolutionGuardError: {"steps_completed": 3, "member": 1}}


@pytest.mark.parametrize("cls", _family(QrelError), ids=lambda cls: cls.__name__)
def test_error_survives_pickling(cls):
    # a suite's error comes back from its worker pickled
    err = cls("m", **ERROR_FIELDS.get(cls, {}))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls and str(back) == "m" and back.args == err.args and vars(back) == vars(err)


def test_longest_first_lists_every_suite_once():
    assert sorted(suites.LONGEST_FIRST) == sorted(SUITE_NAMES)


def test_pool_report_equals_the_serial_report(monkeypatch):
    # report order is not longest first, so the pool's results must be put back by position
    cfg = ScenarioConfig(suites=("functionals", "classical-limit", "group"))
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)
    serial = suites.run_suites(cfg)
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
    pooled = suites.run_suites(cfg)
    assert pooled == serial
    assert dumps17(pooled.to_obj()) == dumps17(serial.to_obj())


def test_pool_runs_suites_in_workers_and_leaves_none(monkeypatch):
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
    for name in ("group", "classical-limit"):
        monkeypatch.setitem(suites._SUITES, name, lambda cfg: ([], [os.getpid()]))
    report = suites.run_suites(ScenarioConfig(suites=("group", "classical-limit")))
    assert len(report.notes) == 2 and os.getpid() not in report.notes
    assert multiprocessing.active_children() == []


def _refusal(message, delay_s=0.0):
    def suite(cfg):
        time.sleep(delay_s)
        raise ConfigurationError(message)

    return suite


@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "pool"])
def test_first_error_in_report_order_is_raised(monkeypatch, capsys, tmp_path, cpus):
    # longest first, dynamics goes to the pool first, and its error comes back first
    monkeypatch.setattr(suites, "_usable_cpus", lambda: cpus)
    monkeypatch.setitem(suites._SUITES, "group", _refusal("grid.n: the first", delay_s=0.2))
    monkeypatch.setitem(suites._SUITES, "dynamics", _refusal("flow.step: the second"))
    with pytest.raises(ConfigurationError, match="^grid.n: the first$"):
        suites.run_suites(ScenarioConfig(suites=("group", "dynamics")))
    assert multiprocessing.active_children() == []
    out = tmp_path / "o"
    assert main(["verify", "--suite", "group,dynamics", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: grid.n: the first\n"
    assert not (out / "report.json").exists()


def test_a_pool_worker_counts_one_usable_cpu():
    # a daemonic process may not fork, so suites run inside a pool worker run serially
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(suites._usable_cpus) == 1


def test_a_killed_worker_ends_the_run_with_an_error(run_python):
    # a worker killed mid-suite, as by the out-of-memory killer, breaks the pool: the run raises, not waits
    done = run_python(
        "import multiprocessing, os, signal\n"
        "from qrel import suites\n"
        "from qrel.config import ScenarioConfig\n"
        "suites._usable_cpus = lambda: 2\n"
        "suites._SUITES['group'] = lambda cfg: os.kill(os.getpid(), signal.SIGKILL)\n"
        "try:\n"
        "    suites.run_suites(ScenarioConfig(suites=('group', 'classical-limit')))\n"
        "except Exception as err:\n"
        "    print(type(err).__name__, multiprocessing.active_children())\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "BrokenProcessPool []"
