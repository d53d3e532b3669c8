"""Acceptance suite: one test per criterion, read from the verification catalogue.

Each suite of ``qrel verify`` (``qrel.suites``) runs once on the default
scenario (desk scale: 1-D, n=512, L=40, hbar = m = 1), and the group
suite once more under the paper-literal convention.  A criterion names
the suite checks that make it up and asserts that they passed; where the
criterion is stricter than a suite tolerance, it also bounds the check's
measured value.  Each runtime bound applies to the elapsed time of the
suites that hold the criterion's checks.

Run with ``pytest tests/test_acceptance.py -v -s`` to stream one
PASS/FAIL line per criterion.
"""

import math
import time
from types import SimpleNamespace

import pytest

from qrel import GaussianParams, make_gaussian
from qrel.config import SUITE_NAMES, ScenarioConfig
from qrel.report import Report
from qrel.suites import oracle_field_error, run_suites


#: (name, tolerance, expected, asserted) of every check of the default run, in
#: report order.  Measured values move with rounding and are not pinned.
CATALOGUE = [
    ("group: product-law fixed point hbar^2/4 (50 alphas)", 1e-14, None, True),
    ("group: composition T_a.T_b = T_{a+b} (20x20 lattice)", 1e-12, None, True),
    ("group: dilatation consistency: delta_x2 vs arithmetic law (battery x alphas)", 1e-09, None, True),
    ("group: dilatation consistency: delta_p2_q vs arithmetic law (battery x alphas)", 1e-09, None, True),
    ("group: classical scaling: delta_p2_cl * e^alpha invariant", 1e-10, None, True),
    ("group: dispersion scaling: delta_x2 * e^alpha invariant", 1e-12, None, True),
    ("group: generator mixing: (h_q,k_q)(dilated) vs hyperbolic mix", 1e-10, None, True),
    ("group: mixing invariant h^2 - k^2", 1e-10, None, True),
    ("group: time-plane mixing invariant t^2 - tau^2", 1e-12, None, True),
    ("group: dilatation group law (metadata arithmetic)", 1e-12, None, True),
    ("functionals: fisher(sigma2=1)", 1e-10, 0.5, True),
    ("functionals: fisher(sigma2=4)", 1e-10, 0.125, True),
    ("functionals: delta_x2 consistent (sigma2=1)", 1e-10, 1.0, True),
    ("functionals: delta_x2 paper-literal (sigma2=1)", 1e-10, 2.0, False),
    ("functionals: sigma_x2 (sigma2=1)", 1e-10, 1.0, True),
    ("functionals: delta_p2_cl (p0=2)", 1e-10, 4.0, True),
    ("functionals: delta_p2_q (minimal)", 1e-10, 0.25, True),
    ("functionals: minimal product delta_x2 * delta_p2_q", 1e-10, 0.25, True),
    ("functionals: h_q (b=1)", 1e-10, 0.625, True),
    ("functionals: k_q (b=1)", 1e-10, 0.375, True),
    ("functionals: s_gen (b=1)", 1e-10, 0.5, True),
    ("functionals: h_q = delta_p2_q / 2m (battery)", 1e-14, None, True),
    ("functionals: h_q - k_q >= 0 (battery)", 0.0, None, True),
    ("functionals: Cramer-Rao on battery (sigma_x2 >= delta_x2)", 1e-09, None, True),
    ("functionals: Cramer-Rao equality on Gaussians", 1e-09, None, True),
    ("functionals: bimodal sigma_x2 (a=3, sigma2=1)", 1e-08, 10.0, True),
    ("functionals: Cramer-Rao strict on bimodal", 0.0, None, True),
    ("functionals: dH_q/drho quantum potential field (minimal Gaussian)", 1e-08, None, True),
    ("brackets: antisymmetry over tag pairs", 1e-12, None, True),
    ("brackets: {S, H_q} = K_q (battery, beyond max(1e-8, 1e-6 rel))", 0.0, None, True),
    ("brackets: {S, K_q} = H_q (battery, beyond max(1e-8, 1e-6 rel))", 0.0, None, True),
    ("brackets: {P, H_q} = 0 (battery)", 1e-08, None, True),
    ("brackets: closed-form vs oracle derivative fields (rho > 1e-10)", 1e-06, None, True),
    ("brackets: bracket value: closed vs oracle", 1.0, None, True),
    ("brackets: generator check residual (relative)", 1e-06, None, True),
    ("brackets: generator check second-order shrink (ratio ~4)", 0.5, 4.0, True),
    ("brackets: Jacobi identity spot check |{S, {H_q, K_q}}|", 1e-06, None, True),
    ("dynamics: t-flow norm drift", 1e-14, None, True),
    ("dynamics: t-flow delta_p2_q drift", 1e-12, None, True),
    ("dynamics: t-flow packet spreading law (to t=4)", 1e-08, None, True),
    ("dynamics: tau-flow vs Gaussian ODE oracle (sigma2+b at tau=0.5)", 1e-06, None, True),
    ("dynamics: tau-flow order-2 convergence (error ratio)", 0.4, 4.0, True),
    ("dynamics: Lyapunov: s_gen nondecreasing (battery tau-runs)", 1e-12, None, True),
    ("dynamics: Lyapunov: d(s_gen)/dtau = h_q (relative, battery)", 1e-05, None, True),
    ("dynamics: continuity residual (battery tau-runs)", 1e-05, None, True),
    ("dynamics: h_q >= 0 along tau-runs", 0.0, None, True),
    ("dynamics: tau-flow norm drift (battery)", 1e-10, None, True),
    ("dynamics: tau-flow vs Gaussian closed form (battery records, relative)", 1e-05, None, True),
    ("dynamics: rate product (b=1 tau-flow)", 0.0001, -2.0, True),
    ("dynamics: rate product <= 0 across battery (tau-flow)", 1e-08, None, True),
    ("dynamics: boundary case b=0: rate product (strict claim saturates)", math.inf, None, False),
    ("dynamics: t-flow d(delta_x2)/dt for contracting packet b=-0.5 (counterexample)", math.inf, None, False),
    ("dynamics: t-flow d(delta_p2_q)/dt = 0", 1e-08, None, True),
    ("dynamics: d(k_q)/dt along t-flow (b=1, sigma2=1)", 1e-05, 0.5, True),
    ("dynamics: cross-flow holomorphy defect", 1e-06, None, True),
    ("dynamics: tau-flow conserves its generator k_q", 1e-06, None, True),
    ("dynamics: tau-flow conserves translation generator", 1e-08, None, True),
    ("dynamics: nonunitarity probe: |<psi1|psi2>| drift under tau-flow", math.inf, None, False),
    ("classical-limit: hbar->0: |h_q - h_cl| log-log slope (minimal)", 0.01, 2.0, True),
    ("classical-limit: hbar->0: |k_q - h_cl| log-log slope (minimal)", 0.01, 2.0, True),
    ("classical-limit: hbar->0: |h_q - h_cl| log-log slope (chirped)", 0.01, 2.0, True),
    ("classical-limit: hbar->0: |k_q - h_cl| log-log slope (chirped)", 0.01, 2.0, True),
]


def _timed_run(cfg):
    start = time.perf_counter()
    report = run_suites(cfg)
    return time.perf_counter() - start, report


@pytest.fixture(scope="module")
def catalogue():
    """Each suite run once on the default scenario: the report, its checks by name, seconds per suite."""
    report, elapsed = Report(title="verification", convention="consistent"), {}
    for name in SUITE_NAMES:
        elapsed[name], part = _timed_run(ScenarioConfig(suites=(name,)))
        report.extend(part.checks, part.notes)
    # the group suite records the factor-2 ratio only under the paper-literal convention
    seconds, literal = _timed_run(ScenarioConfig(suites=("group",), convention="paper-literal"))
    elapsed["group"] += seconds
    # a check both group runs record is read from the consistent run
    checks = {c.name: c for c in literal.checks + report.checks}
    return SimpleNamespace(report=report, checks=checks, elapsed=elapsed)


def criterion(catalogue, number, description, runtime_limit, names, stricter=(), spent=0.0, extra=()):
    """Print the acceptance line with each named check's measured value, then assert them all."""
    checks = [catalogue.checks[name] for name in names]
    conditions = [(c.passed, f"{c.name}: measured {c.measured:.3e}, tolerance {c.tolerance:g}")
                  for c in checks] + list(stricter)
    elapsed = sum(catalogue.elapsed[suite] for suite in {name.split(": ")[0] for name in names}) + spent
    ok = all(passed for passed, _ in conditions) and elapsed < runtime_limit
    measured = "; ".join([f"{c.name.split(': ', 1)[1]} {c.measured:.6g}" for c in checks] + list(extra))
    print(f"ACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}] {description} "
          f"(runtime {elapsed:.2f}s < {runtime_limit:g}s) | {measured}")
    for passed, message in conditions:
        assert passed, f"criterion {number}: {message}"
    assert elapsed < runtime_limit, f"criterion {number}: runtime {elapsed:.2f}s over {runtime_limit}s"


def test_00_default_verify_passes(catalogue):
    failed = [c.name for c in catalogue.report.checks if c.asserted and not c.passed]
    assert not failed, f"failed checks: {failed}"
    assert catalogue.report.status == "pass"


def test_check_catalogue_is_pinned(catalogue):
    # a dropped, renamed, loosened or unasserted check fails here
    entries = [(c.name, c.tolerance, c.expected, c.asserted) for c in catalogue.report.checks]
    assert entries == CATALOGUE


def test_01_product_law_fixed_point(catalogue):
    criterion(catalogue, 1, "product-law fixed point hbar^2/4 within 1e-14 over 50 alphas", 1.0,
              ["group: product-law fixed point hbar^2/4 (50 alphas)"])


def test_02_group_composition_lattice(catalogue):
    criterion(catalogue, 2, "composition law T_a.T_b = T_{a+b} within 1e-12 on a 20x20 lattice", 1.0,
              ["group: composition T_a.T_b = T_{a+b} (20x20 lattice)"])


def test_03_central_consistency_theorem(catalogue):
    literal = "group: paper-literal convention: measured/predicted added term (expect ~2)"
    ratio = catalogue.checks[literal].measured
    # the paper-literal convention misses the added term by exactly a factor 2
    criterion(catalogue, 3, "dilatation consistency vs arithmetic law within 1e-9 (18 states x 13 alphas)", 30.0,
              ["group: dilatation consistency: delta_x2 vs arithmetic law (battery x alphas)",
               "group: dilatation consistency: delta_p2_q vs arithmetic law (battery x alphas)", literal],
              stricter=[(abs(ratio - 2.0) < 1e-6, f"factor-2 discrepancy not reproduced (ratio {ratio})")])


def test_04_bracket_identities_and_oracle(catalogue, grid):
    start = time.perf_counter()
    # two oracle states beyond the suite's one: too slow to add to every verify run
    worst = oracle_field_error([make_gaussian(GaussianParams(sigma2=0.5, b=1.0, p0=2.0), grid),
                                make_gaussian(GaussianParams(sigma2=2.0, p0=2.0), grid)])
    criterion(catalogue, 4, "bracket identities, antisymmetry, and derivative oracle agreement", 300.0,
              ["brackets: {S, H_q} = K_q (battery, beyond max(1e-8, 1e-6 rel))",
               "brackets: {S, K_q} = H_q (battery, beyond max(1e-8, 1e-6 rel))",
               "brackets: antisymmetry over tag pairs",
               "brackets: closed-form vs oracle derivative fields (rho > 1e-10)"],
              stricter=[(worst <= 1e-6, f"closed-form vs oracle relative error {worst:.3e} > 1e-6 on rho > 1e-10")],
              spent=time.perf_counter() - start, extra=[f"oracle fields on two more states {worst:.6g}"])


def test_05_generator_check(catalogue):
    criterion(catalogue, 5, "infinitesimal generator check at dalpha=1e-4 with second-order shrinkage", 10.0,
              ["brackets: generator check residual (relative)",
               "brackets: generator check second-order shrink (ratio ~4)"])


def test_06_lorentz_mixing(catalogue):
    criterion(catalogue, 6, "generator pair mixes hyperbolically within 1e-10 with invariant h^2-k^2", 30.0,
              ["group: generator mixing: (h_q,k_q)(dilated) vs hyperbolic mix", "group: mixing invariant h^2 - k^2"])


def test_07_t_flow(catalogue):
    criterion(catalogue, 7, "t-flow: norm 1e-14, delta_p2_q 1e-12, spreading law 1e-8 out to t=4", 10.0,
              ["dynamics: t-flow norm drift", "dynamics: t-flow delta_p2_q drift",
               "dynamics: t-flow packet spreading law (to t=4)"])


def test_08_tau_flow_oracle_and_order(catalogue):
    criterion(catalogue, 8, "tau-flow matches the closed-form Gaussian flow within 1e-6 at order 2, "
              "and every battery record within 1e-5", 60.0,
              ["dynamics: tau-flow vs Gaussian ODE oracle (sigma2+b at tau=0.5)",
               "dynamics: tau-flow order-2 convergence (error ratio)",
               "dynamics: tau-flow vs Gaussian closed form (battery records, relative)"])


def test_09_lyapunov(catalogue):
    monotone = "dynamics: Lyapunov: s_gen nondecreasing (battery tau-runs)"
    decrease = catalogue.checks[monotone].measured
    criterion(catalogue, 9, "Lyapunov generator: s_gen nondecreasing, rate = h_q within 1e-5, h_q >= 0", 60.0,
              [monotone, "dynamics: Lyapunov: d(s_gen)/dtau = h_q (relative, battery)",
               "dynamics: h_q >= 0 along tau-runs"],
              stricter=[(decrease <= 0.0, f"s_gen decreased by {decrease:.3e}")])


def test_10_continuity(catalogue):
    criterion(catalogue, 10, "continuity residual < 1e-5 at dtau=1e-3 across battery tau-runs", 60.0,
              ["dynamics: continuity residual (battery tau-runs)"])


def test_11_uncertainty_rates(catalogue):
    criterion(catalogue, 11, "tau-flow rate product: -2 on the b=1 Gaussian, <= 0 across the battery", 30.0,
              ["dynamics: rate product (b=1 tau-flow)", "dynamics: rate product <= 0 across battery (tau-flow)",
               "dynamics: boundary case b=0: rate product (strict claim saturates)",
               "dynamics: t-flow d(delta_x2)/dt for contracting packet b=-0.5 (counterexample)"])


def test_12_classical_limit(catalogue):
    criterion(catalogue, 12, "classical limit: |h_q - h_cl| and |k_q - h_cl| scale as hbar^2 (slope 2 +- 0.01)",
              10.0, [f"classical-limit: hbar->0: |{g} - h_cl| log-log slope ({state})"
                     for state in ("minimal", "chirped") for g in ("h_q", "k_q")])


def test_13_cramer_rao(catalogue):
    strict = "functionals: Cramer-Rao strict on bimodal"
    gap = -catalogue.checks[strict].measured
    criterion(catalogue, 13, "Cramer-Rao: sigma_x2 >= delta_x2 with Gaussian equality within 1e-9", 5.0,
              ["functionals: Cramer-Rao on battery (sigma_x2 >= delta_x2)",
               "functionals: Cramer-Rao equality on Gaussians", strict],
              stricter=[(gap > 0.0, f"bimodal state gap {gap:.3e} not positive")])


def test_unit_dependent_expectations_follow_hbar_and_mass():
    """The checks whose expected values carry hbar and m pass away from hbar = m = 1."""
    hbar, mass = 0.7, 1.3
    report = run_suites(ScenarioConfig(hbar=hbar, mass=mass, suites=("functionals", "dynamics")))
    checks = {c.name: c for c in report.checks}
    field = checks["functionals: dH_q/drho quantum potential field (minimal Gaussian)"]
    rate = checks["dynamics: rate product (b=1 tau-flow)"]
    dk_dt = checks["dynamics: d(k_q)/dt along t-flow (b=1, sigma2=1)"]
    assert field.passed, field
    assert rate.passed and rate.expected == pytest.approx(-2.0 * hbar**2 / mass**2), rate
    assert dk_dt.passed and dk_dt.expected == pytest.approx(hbar**2 / (2.0 * mass**2)), dk_dt
