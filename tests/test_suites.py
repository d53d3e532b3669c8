"""The suites' subject table, and run_suites: suite parts in forked workers give the serial run's report and
error, and leave no process behind."""

import multiprocessing
import os
import pickle
import time

import pytest

from qrel import functionals as fn
from qrel import suites
from qrel.cli import main
from qrel.config import SUITE_NAMES, ScenarioConfig
from qrel.errors import ConfigurationError, QrelError, ResolutionGuardError
from qrel.report import dumps17
from qrel.states import make_gaussian

UNITS = [(1.0, 1.0), (0.7, 1.3)]


@pytest.fixture(scope="module", params=UNITS, ids=["default-units", "hbar0.7-m1.3"])
def table(request):
    hbar, mass = request.param
    return suites.subjects(ScenarioConfig(hbar=hbar, mass=mass))


def test_each_gaussian_subject_is_the_state_its_params_make(table):
    gaussians = [s for s in table.values() if s.params is not None]
    assert len(gaussians) == len(table) - 1 == 21
    for s in gaussians:
        made = make_gaussian(s.params, s.state.grid, s.state.hbar, s.state.mass)
        assert made.rho.tobytes() == s.state.rho.tobytes() and made.s.tobytes() == s.state.s.tobytes(), s.label
        assert (made.grid, made.hbar, made.mass) == (s.state.grid, s.state.hbar, s.state.mass), s.label


def test_labels_are_unique_and_the_battery_comes_in_params_order(table):
    assert [s.label for s in table.values()] == list(table)
    assert [s.params for s in suites.battery(table)] == suites.battery_params()
    assert list(table)[:18] == [suites.battery_label(p) for p in suites.battery_params()]
    assert list(table)[18:] == ["contracting", "other", "wide", "bimodal"]
    assert table["bimodal"].params is None


def test_each_gaussian_subject_matches_its_own_closed_form(table):
    # contracting, other and wide included: no suite check compares them with their closed form
    for s in (s for s in table.values() if s.params is not None):
        expect = s.observables()
        for name in ("h_q", "k_q", "delta_p2_q", "sigma_x2", "s_gen"):
            assert abs(getattr(fn, name)(s.state) - expect[name]) < 1e-10, (s.label, name)


def test_subject_flow_at_zero_is_its_params(table):
    for s in (s for s in table.values() if s.params is not None):
        for flow in ("t", "tau"):
            sigma2, b, c = s.flow(flow, 0.0)
            assert (float(sigma2), float(b), float(c)) == pytest.approx((s.params.sigma2, s.params.b, s.params.c),
                                                                          abs=1e-15), (s.label, flow)


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
    # by its parts, each once
    assert sorted(suites._SUITES) == sorted(SUITE_NAMES)
    parts = [(name, index) for name, suite in suites._SUITES.items() for index in range(len(suite.parts))]
    assert sorted(suites.LONGEST_FIRST) == sorted(parts) and len(set(parts)) == len(parts) == 6


def test_pool_report_equals_the_serial_report(monkeypatch):
    # report order is not longest first, so the pool's results must be put back by position
    cfg = ScenarioConfig(suites=("functionals", "classical-limit", "group"))
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)
    serial = suites.run_suites(cfg)
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
    pooled = suites.run_suites(cfg)
    assert pooled == serial
    assert dumps17(pooled.to_obj()) == dumps17(serial.to_obj())


def test_pool_and_serial_default_verify_write_the_same_bytes(default_verify, monkeypatch, capsys, tmp_path):
    # every suite, the dynamics suite's two parts too: the shared default verify ran on this process's CPUs,
    # so this side runs the other way, serially where that one pooled, and pooled where it ran serially
    cpus = 1 if suites._usable_cpus() > 1 else 2
    monkeypatch.setattr(suites, "_usable_cpus", lambda: cpus)
    assert main(["verify", "--out", str(tmp_path)]) == 0 == default_verify.returncode
    assert (tmp_path / "report.json").read_bytes() == (default_verify.out / "report.json").read_bytes()
    # the check lines: both runs then name their own report, and the shared run lists its scipy modules
    checks = default_verify.stdout.splitlines()[:-2]
    assert capsys.readouterr().out.splitlines()[:-1] == checks and len(checks) == 62


def test_pool_runs_suites_in_workers_and_leaves_none(monkeypatch):
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
    for name in ("group", "classical-limit"):
        monkeypatch.setitem(suites._SUITES, name, suites.Suite((lambda cfg: ([], [os.getpid()]),)))
    report = suites.run_suites(ScenarioConfig(suites=("group", "classical-limit")))
    assert len(report.notes) == 2 and os.getpid() not in report.notes
    assert multiprocessing.active_children() == []


def test_the_dynamics_parts_run_in_two_workers(monkeypatch):
    # --suite dynamics alone is two tasks: each part waits for the other, so they must run at once
    barrier = multiprocessing.get_context("fork").Barrier(2, timeout=30)

    def part(cfg):
        barrier.wait()
        return os.getpid()

    monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
    monkeypatch.setitem(suites._SUITES, "dynamics", suites.Suite((part, part), lambda a, b: ([], [a, b])))
    report = suites.run_suites(ScenarioConfig(suites=("dynamics",)))
    assert len(set(report.notes)) == 2 and os.getpid() not in report.notes
    assert multiprocessing.active_children() == []


def _refusal(message, delay_s=0.0):
    def suite(cfg):
        time.sleep(delay_s)
        raise ConfigurationError(message)

    return suite


@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "pool"])
def test_first_error_in_report_order_is_raised(monkeypatch, capsys, tmp_path, cpus):
    # longest first, the dynamics parts go to the pool first, and the rest part's error comes back first
    monkeypatch.setattr(suites, "_usable_cpus", lambda: cpus)
    monkeypatch.setitem(suites._SUITES, "group", suites.Suite((_refusal("grid.n: the first", delay_s=0.2),)))
    parts = (_refusal("flow.step: the battery", delay_s=0.2), _refusal("flow.step: the rest"))
    monkeypatch.setitem(suites._SUITES, "dynamics", suites._SUITES["dynamics"]._replace(parts=parts))
    with pytest.raises(ConfigurationError, match="^grid.n: the first$"):
        suites.run_suites(ScenarioConfig(suites=("group", "dynamics")))
    assert multiprocessing.active_children() == []
    # within a suite, the battery part's refusal comes first, as it does serially
    with pytest.raises(ConfigurationError, match="^flow.step: the battery$"):
        suites.run_suites(ScenarioConfig(suites=("dynamics",)))
    assert multiprocessing.active_children() == []
    out = tmp_path / "o"
    assert main(["verify", "--suite", "group,dynamics", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: grid.n: the first\n"
    assert not (out / "report.json").exists()


def test_a_refusal_ends_the_other_parts(monkeypatch):
    # the battery part refuses at once while the rest part would run for a minute: the run raises
    # without waiting for it, and leaves no worker behind
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
    parts = (_refusal("flow.step: the battery", delay_s=0.2), _refusal("flow.step: the rest", delay_s=60.0))
    monkeypatch.setitem(suites._SUITES, "dynamics", suites._SUITES["dynamics"]._replace(parts=parts))
    start = time.perf_counter()
    with pytest.raises(ConfigurationError, match="^flow.step: the battery$"):
        suites.run_suites(ScenarioConfig(suites=("dynamics",)))
    assert time.perf_counter() - start < 20.0
    assert multiprocessing.active_children() == []


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
        "suites._SUITES['group'] = suites.Suite((lambda cfg: os.kill(os.getpid(), signal.SIGKILL),))\n"
        "try:\n"
        "    suites.run_suites(ScenarioConfig(suites=('group', 'classical-limit')))\n"
        "except Exception as err:\n"
        "    print(type(err).__name__, multiprocessing.active_children())\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "BrokenProcessPool []"
