"""Verification suites: every identity the package asserts, as check lists.

Each suite function returns (checks, notes) and reads its states from one
table, :func:`subjects`, on the scenario's grid and units (1-D, n=512,
L=40, hbar=m=1 by default): the 18-state Gaussian battery sigma2 in
{0.5, 1, 2} x b in {-1, 0, 1} x p0 in {0, 2} (labels like ``s2=1,b=0,p0=0``),
``contracting`` (sigma2=1, b=-0.5), ``other`` (x0=1.5), ``wide`` (sigma2=4
on an L=64 box) and the ``bimodal`` mixture.  Each :class:`Subject` keeps
the :class:`GaussianParams` it was made from, and offers the Gaussian
closed forms exactly when it has them.

A suite is one or more parts that share nothing (:class:`Suite`), and
:func:`run_suites` runs each part as one task.  The dynamics suite has two:
:func:`dynamics_battery` marches the battery and checks its runs, and
:func:`dynamics_rest` runs the t-flow, the step-halving re-march, the rate
probes and the trio.  :func:`join_dynamics` puts their checks back in report
order, from check lists and two floats only.

Documented discrepancies (the factor-2 reading of the Fisher dispersion,
the sign of the position-spread rate under the t-flow, the strictness of
the rate-product claim at b=0) are always reported informationally and
never asserted.
"""

import dataclasses
import math
import os
from typing import Callable, NamedTuple

import numpy as np

from . import brackets as br
from . import dynamics as dyn
from . import functionals as fn
from . import group as gr
from . import oracles as orc
from .config import ScenarioConfig
from .errors import ConfigurationError, ResolutionGuardError
from .grid import Grid
from .report import Report, bound, compare, info
from .states import (GaussianParams, HydroState, WaveField, make_double_gaussian, make_gaussian, reduced_current,
                     to_wave)

ORIENTATION_NOTE = ("orientation: parameter flows follow dA/dalpha = {A, S}, "
                    "with {S, H_q} = K_q and {S, K_q} = H_q")


def battery_params():
    return [GaussianParams(sigma2=s2, b=b, p0=p0)
            for s2 in (0.5, 1.0, 2.0) for b in (-1.0, 0.0, 1.0) for p0 in (0.0, 2.0)]


def battery_label(p: GaussianParams) -> str:
    return f"s2={p.sigma2:g},b={p.b:g},p0={p.p0:g}"


#: Offset and sigma2 of the bimodal mixture's two equal bumps.
BIMODAL = (3.0, 1.0)


@dataclasses.dataclass(frozen=True)
class Subject:
    """A state the catalogue verifies, with the Gaussian parameters it was made from (None for the mixture)."""

    label: str
    state: HydroState
    params: GaussianParams | None

    def observables(self) -> dict:
        """The Gaussian closed form's functional values at this subject's params and units."""
        p = self.params
        return orc.gaussian_observables(p.sigma2, p.b, p.c, self.state.hbar, self.state.mass, p.p0)

    def flow(self, flow: str, theta) -> tuple:
        """(sigma2, b, c) of this subject's Gaussian at time ``theta`` of ``flow``, in closed form."""
        p = self.params
        return orc.gaussian_flow(p.sigma2, p.b, p.c, flow, theta, self.state.hbar, self.state.mass)


def subjects(cfg: ScenarioConfig) -> dict:
    """Every state the catalogue verifies, by label, on the scenario's grid and units; the battery comes first."""
    grid, hb, m = cfg.grid, cfg.hbar, cfg.mass
    gaussians = [(battery_label(p), p, grid) for p in battery_params()] + [
        ("contracting", GaussianParams(sigma2=1.0, b=-0.5), grid),
        ("other", GaussianParams(sigma2=1.0, x0=1.5), grid),
        # sigma2=4 needs a wider box to honor the 1e-12 tail precondition
        ("wide", GaussianParams(sigma2=4.0), Grid(grid.n, 64.0, grid.dim))]
    table = {label: Subject(label, make_gaussian(p, box, hb, m), p) for label, p, box in gaussians}
    table["bimodal"] = Subject("bimodal", make_double_gaussian(*BIMODAL, grid, hb, m), None)
    return table


def battery(table: dict) -> list:
    """The battery's subjects in ``table``, in :func:`battery_params` order."""
    return [table[battery_label(p)] for p in battery_params()]


#: Columns of the dilatation sweep table that ``qrel transform`` writes.
TRANSFORM_COLUMNS = ("alpha", "delta_x2", "delta_p2_q", "h_q", "k_q",
                     "predicted_dx2", "predicted_dp2", "predicted_h_q", "predicted_k_q", "residual")


def _dilatation_sweep(state, alphas, convention: str = "consistent") -> list:
    """One row per alpha: the dilated state's values beside the arithmetic laws' predictions.

    A row maps each of ``TRANSFORM_COLUMNS`` (``residual`` is the worst gap
    of delta_x2, delta_p2_q, h_q and k_q to their predictions) and the
    group suite's gaps: ``dx2_gap`` and ``dp2_gap`` to the uncertainty law,
    ``mix_gap`` of (h_q, k_q) to the hyperbolic mix, ``classical_gap`` of
    delta_p2_cl and ``scale_gap`` of delta_x2 to e^-alpha times their
    undilated values, and ``invariant_gap`` of h_q^2 - k_q^2.
    """
    pair = fn.uncertainty_pair(state, convention)
    h0, k0 = fn.h_q(state), fn.k_q(state)
    dp_cl0 = fn.delta_p2_cl(state)
    rows = []
    for a in alphas:
        dil = gr.dilate(state, a)
        predicted = gr.transform_uncertainty(pair, a, state.hbar)
        mix_h, mix_k = gr.mix_hk(h0, k0, a)
        dx2, dp2, hq, kq = fn.delta_x2(dil, convention), fn.delta_p2_q(dil), fn.h_q(dil), fn.k_q(dil)
        gaps = {"dx2_gap": abs(dx2 - predicted.dx2), "dp2_gap": abs(dp2 - predicted.dp2),
                "mix_gap": max(abs(hq - mix_h), abs(kq - mix_k))}
        rows.append({"alpha": a, "delta_x2": dx2, "delta_p2_q": dp2, "h_q": hq, "k_q": kq,
                     "predicted_dx2": predicted.dx2, "predicted_dp2": predicted.dp2,
                     "predicted_h_q": mix_h, "predicted_k_q": mix_k, "residual": max(gaps.values()), **gaps,
                     "classical_gap": abs(fn.delta_p2_cl(dil) - math.exp(-a) * dp_cl0),
                     "scale_gap": abs(dx2 - math.exp(-a) * pair.dx2),
                     "invariant_gap": abs((hq**2 - kq**2) - (h0**2 - k0**2))})
    return rows


def suite_group(cfg: ScenarioConfig):
    hb, table = cfg.hbar, subjects(cfg)
    checks, notes = [], [ORIENTATION_NOTE]

    fixed = hb**2 / 4.0
    worst = max(abs(gr.product_law(fixed, a, hb) - fixed) for a in np.linspace(-3, 3, 50))
    checks.append(bound("product-law fixed point hbar^2/4 (50 alphas)", worst, 1e-14,
                        provenance="fixed-point arithmetic"))

    pairs = [fn.UncertaintyPair(1.0, 0.25 * hb**2), fn.UncertaintyPair(0.7, 1.3),
             fn.UncertaintyPair(1.0, 0.8)]
    lattice = np.linspace(-3, 3, 20)
    worst = 0.0
    for u in pairs:
        for a in lattice:
            ua = gr.transform_uncertainty(u, a, hb)
            for b in lattice:
                two = gr.transform_uncertainty(ua, b, hb)
                one = gr.transform_uncertainty(u, a + b, hb)
                worst = max(worst, abs(two.dx2 - one.dx2), abs(two.dp2 - one.dp2))
    checks.append(bound("composition T_a.T_b = T_{a+b} (20x20 lattice)", worst, 1e-12, provenance="group law"))

    alphas = cfg.alphas
    # alpha by alpha, so that the battery's states dilate onto each box one after another
    rows = [row for a in alphas for s in battery(table) for row in _dilatation_sweep(s.state, [a])]
    worst_gap = lambda gap: max((row[gap] for row in rows), default=0.0)
    checks.append(bound("dilatation consistency: delta_x2 vs arithmetic law (battery x alphas)",
                        worst_gap("dx2_gap"), 1e-9, provenance="dilatation consistency"))
    checks.append(bound("dilatation consistency: delta_p2_q vs arithmetic law (battery x alphas)",
                        worst_gap("dp2_gap"), 1e-9, provenance="dilatation consistency"))
    checks.append(bound("classical scaling: delta_p2_cl * e^alpha invariant", worst_gap("classical_gap"), 1e-10,
                        provenance="classical transformation"))
    checks.append(bound("dispersion scaling: delta_x2 * e^alpha invariant", worst_gap("scale_gap"), 1e-12,
                        provenance="classical transformation"))
    checks.append(bound("generator mixing: (h_q,k_q)(dilated) vs hyperbolic mix", worst_gap("mix_gap"), 1e-10,
                        provenance="generator mixing"))
    checks.append(bound("mixing invariant h^2 - k^2", worst_gap("invariant_gap"), 1e-10, provenance="generator mixing"))

    if cfg.convention == "paper-literal":
        state = table["s2=1,b=0,p0=0"].state
        pair_lit = fn.uncertainty_pair(state, "paper-literal")
        a = math.log(4.0)
        dil = gr.dilate(state, a)
        predicted = gr.transform_uncertainty(pair_lit, a, hb)
        measured_add = fn.delta_p2_q(dil) - math.exp(-a) * fn.delta_p2_q(state)
        predicted_add = predicted.dp2 - math.exp(-a) * pair_lit.dp2
        checks.append(info("paper-literal convention: measured/predicted added term (expect ~2)",
                           measured_add / predicted_add, provenance="documented discrepancy"))
        notes.append("paper-literal delta_x2 breaks the dilatation consistency law by a factor 2 "
                     "in the added term; recorded informationally")

    mt_worst = 0.0
    for (t, tau) in ((1.0, 0.0), (0.3, -1.2), (2.0, 1.5)):
        for a in alphas:
            tp, taup = gr.mix_times(t, tau, a)
            mt_worst = max(mt_worst, abs((tp**2 - taup**2) - (t**2 - tau**2)))
    checks.append(bound("time-plane mixing invariant t^2 - tau^2", mt_worst, 1e-12, provenance="time mixing"))

    state = table["s2=2,b=1,p0=0"].state
    one = gr.dilate(gr.dilate(state, 0.7), -1.9)
    two = gr.dilate(state, 0.7 - 1.9)
    worst = max(abs(fn.delta_x2(one) - fn.delta_x2(two)), abs(fn.delta_p2_q(one) - fn.delta_p2_q(two)))
    checks.append(bound("dilatation group law (metadata arithmetic)", worst, 1e-12, provenance="group law"))
    return checks, notes


def suite_functionals(cfg: ScenarioConfig):
    hb, m, table = cfg.hbar, cfg.mass, subjects(cfg)
    labels = ("s2=1,b=0,p0=0", "s2=1,b=1,p0=0", "s2=1,b=0,p0=2", "wide")
    minimal, chirped, moving, wide = (table[label] for label in labels)

    at_minimal, closed, state = minimal.observables(), "Gaussian closed form", minimal.state
    rows = [("fisher(sigma2=1)", fn.fisher_information(state), at_minimal["fisher"], closed),
            ("fisher(sigma2=4)", fn.fisher_information(wide.state), wide.observables()["fisher"], closed),
            ("delta_x2 consistent (sigma2=1)", fn.delta_x2(state), at_minimal["delta_x2"], closed),
            ("delta_x2 paper-literal (sigma2=1)", fn.delta_x2(state, "paper-literal"), 2.0 * at_minimal["delta_x2"],
             "documented discrepancy"),
            ("sigma_x2 (sigma2=1)", fn.sigma_x2(state), at_minimal["sigma_x2"], closed),
            ("delta_p2_cl (p0=2)", fn.delta_p2_cl(moving.state), moving.observables()["delta_p2_cl"], closed),
            ("delta_p2_q (minimal)", fn.delta_p2_q(state), at_minimal["delta_p2_q"], closed),
            ("minimal product delta_x2 * delta_p2_q", fn.delta_x2(state) * fn.delta_p2_q(state),
             at_minimal["delta_x2"] * at_minimal["delta_p2_q"], "minimal uncertainty")]
    rows += [(f"{name} (b=1)", getattr(fn, name)(chirped.state), chirped.observables()[name], closed)
             for name in ("h_q", "k_q", "s_gen")]
    # a documented discrepancy is reported, never asserted
    checks = [compare(name, measured, expected, 1e-10, provenance=provenance,
                      asserted=provenance != "documented discrepancy") for name, measured, expected, provenance in rows]

    states = [s.state for s in battery(table)]
    worst_identity = max(abs(fn.h_q(s) - fn.delta_p2_q(s) / (2 * m)) for s in states)
    checks.append(bound("h_q = delta_p2_q / 2m (battery)", worst_identity, 1e-14, provenance="energy identity"))
    worst_gap = min(fn.h_q(s) - fn.k_q(s) for s in states)
    checks.append(bound("h_q - k_q >= 0 (battery)", -worst_gap, 0.0, provenance="Fisher positivity"))
    margins = [fn.sigma_x2(s) - fn.delta_x2(s, "consistent") for s in states]
    checks.append(bound("Cramer-Rao on battery (sigma_x2 >= delta_x2)", -min(margins), 1e-9, provenance="Cramer-Rao"))
    checks.append(bound("Cramer-Rao equality on Gaussians", max(map(abs, margins)), 1e-9, provenance="Cramer-Rao"))
    bimodal, (offset, sigma2) = table["bimodal"].state, BIMODAL
    checks.append(compare("bimodal sigma_x2 (a=3, sigma2=1)", fn.sigma_x2(bimodal), offset**2 + sigma2, 1e-8,
                          provenance="mixture moments"))
    checks.append(bound("Cramer-Rao strict on bimodal", fn.delta_x2(bimodal) - fn.sigma_x2(bimodal),
                        0.0, provenance="Cramer-Rao"))

    # the Gaussian's quantum potential, -(hbar^2/2m) ((x - x0)^2 / (4 sigma2^2) - 1 / (2 sigma2))
    p, x = minimal.params, cfg.grid.coords[0]
    expected_field = -(hb**2 / (2.0 * m)) * ((x - p.x0)**2 / (4.0 * p.sigma2**2) - 0.5 / p.sigma2)
    measured_field = fn.variational_derivative(fn.FunctionalTag.H_Q, state, "rho")
    mask = state.rho > 1e-12
    checks.append(bound("dH_q/drho quantum potential field (minimal Gaussian)",
                        float(np.abs((measured_field - expected_field)[mask]).max()), 1e-8,
                        provenance="Gaussian quantum potential"))
    return checks, []


def oracle_field_gap(tag, state, comp: str) -> float:
    """Relative gap of the closed-form derivative field d(tag)/d(comp) to the bump oracle's.

    Compared on rho > 1e-10 of ``state``, a d/drho field with its gauge
    constant removed, relative to the closed field's maximum (floor 1e-2).
    """
    region = state.rho > 1e-10
    closed = fn.variational_derivative(tag, state, comp)
    numeric = br.fd_functional_derivative(tag, state, comp, where=region)
    if comp == "rho":
        closed = br.subtract_rho_mean(closed, state, where=region)
        numeric = br.subtract_rho_mean(numeric, state, where=region)
    scale = max(float(np.abs(closed[region]).max()), 1e-2)
    return float(np.abs((closed - numeric)[region]).max()) / scale


def oracle_field_error(states) -> float:
    """Worst :func:`oracle_field_gap` of the S, H_q and K_q fields, both components, over ``states``."""
    T = fn.FunctionalTag
    return max((oracle_field_gap(tag, state, comp)
                for state in states for tag in (T.S_GEN, T.H_Q, T.K_Q) for comp in ("rho", "s")), default=0.0)


def suite_brackets(cfg: ScenarioConfig):
    checks, table = [], subjects(cfg)
    T = fn.FunctionalTag

    sample, moving, minimal = (table[label].state for label in ("s2=1,b=1,p0=2", "s2=1,b=0,p0=2", "s2=1,b=0,p0=0"))
    tags = (T.S_GEN, T.H_Q, T.K_Q, T.H_CL, T.DELTA_P2_Q, T.P_TRANSLATION)
    worst = max(abs(br.poisson_bracket(a, b, state) + br.poisson_bracket(b, a, state))
                for state in (sample, moving) for a in tags for b in tags)
    checks.append(bound("antisymmetry over tag pairs", worst, 1e-12, provenance="bracket algebra"))

    beyond_sh = beyond_sk = worst_ph = 0.0
    for state in (s.state for s in battery(table)):
        kq, hq = fn.k_q(state), fn.h_q(state)
        sh, sk = br.poisson_bracket(T.S_GEN, T.H_Q, state), br.poisson_bracket(T.S_GEN, T.K_Q, state)
        beyond_sh = max(beyond_sh, abs(sh - kq) - max(1e-8, 1e-6 * abs(kq)))
        beyond_sk = max(beyond_sk, abs(sk - hq) - max(1e-8, 1e-6 * abs(hq)))
        worst_ph = max(worst_ph, abs(br.poisson_bracket(T.P_TRANSLATION, T.H_Q, state)))
    checks.append(bound("{S, H_q} = K_q (battery, beyond max(1e-8, 1e-6 rel))",
                        beyond_sh, 0.0, provenance="bracket identity"))
    checks.append(bound("{S, K_q} = H_q (battery, beyond max(1e-8, 1e-6 rel))",
                        beyond_sk, 0.0, provenance="bracket identity"))
    checks.append(bound("{P, H_q} = 0 (battery)", worst_ph, 1e-8, provenance="translation invariance"))

    # closed form vs oracle fields on a representative state
    state = table["s2=1,b=-1,p0=0"].state
    checks.append(bound("closed-form vs oracle derivative fields (rho > 1e-10)",
                        oracle_field_error([state]), 1e-6, provenance="finite-difference oracle"))

    value_closed = br.poisson_bracket(T.S_GEN, T.H_Q, state)
    value_oracle = br.poisson_bracket(T.S_GEN, T.H_Q, state, method="finite-difference-oracle")
    checks.append(bound("bracket value: closed vs oracle",
                        abs(value_closed - value_oracle) / max(1e-8, 1e-6 * abs(value_closed)),
                        1.0, provenance="finite-difference oracle"))

    gen = br.generator_check(minimal, dalpha=1e-4)
    checks.append(bound("generator check residual (relative)",
                        gen.residual / abs(gen.bracket_closed_form), 1e-6,
                        provenance="infinitesimal dilatation"))
    gen2 = br.generator_check(minimal, dalpha=5e-5)
    checks.append(compare("generator check second-order shrink (ratio ~4)",
                          gen.residual / gen2.residual, 4.0, 0.5,
                          provenance="infinitesimal dilatation"))

    defect, inner = br.jacobi_defect(sample)
    checks.append(bound("Jacobi identity spot check |{S, {H_q, K_q}}|",
                        abs(defect), 1e-6 * max(1.0, abs(inner)),
                        provenance="Lie algebra"))
    return checks, []


def gaussian_fit(w) -> tuple:
    """(sigma2, b) of a Gaussian-family field: its variance and its phase gradient's slope on the first axis.

    b = hbar * integral (x - mean) j / sigma2, with j = rho grad(s) / hbar its reduced current.
    """
    sigma2 = fn.sigma_x2(w)
    x = w.grid.coords[0]
    mean = w.grid.quadrature(w.rho * x)
    return sigma2, w.hbar * w.grid.quadrature((x - mean) * reduced_current(w)[0]) / sigma2


def tau_record_gap(traj, subject: Subject) -> float:
    """Worst relative gap of the tau-run records of a Gaussian ``subject`` to its closed-form flow.

    delta_x2 (a record's is consistent) is compared with its expected
    value; delta_p2_q, h_q and k_q with the expected delta_p2_q, which
    bounds |h_q| and |k_q|.
    """
    sigma2, b, _ = subject.flow("tau", traj.column("time"))
    expect = orc.gaussian_observables(sigma2, b, 0.0, subject.state.hbar, subject.state.mass, subject.params.p0)
    gaps = [np.abs(traj.column("delta_x2") - expect["delta_x2"]) / expect["delta_x2"]]
    gaps += [np.abs(traj.column(key) - expect[key]) / expect["delta_p2_q"] for key in ("delta_p2_q", "h_q", "k_q")]
    return float(np.max(gaps))


def _battery_stack(cfg: ScenarioConfig, members) -> WaveField:
    """The battery ``members``' wave fields as one stack, in battery order."""
    return WaveField(grid=cfg.grid, psi=np.stack([to_wave(s.state).psi for s in members]), hbar=cfg.hbar,
                     mass=cfg.mass)


def _tau_end(cfg: ScenarioConfig) -> tuple:
    """(steps, tau) of the battery's tau-runs: the oracle is read where an integration ends, steps * dtau,
    which is 0.5 only when dtau divides it."""
    steps = int(round(0.5 / cfg.step))
    return steps, steps * cfg.step


def _closed_form_error(subject: Subject, tau: float, w: WaveField) -> float:
    """sigma2 + b error of a tau-run's last field ``w`` of ``subject`` against the closed form at ``tau``."""
    sigma2_flow, b_flow, _ = subject.flow("tau", tau)
    sigma2, b = gaussian_fit(w)
    return abs(sigma2 - sigma2_flow) + abs(b - b_flow)


def dynamics_battery(cfg: ScenarioConfig) -> dict:
    """The dynamics suite's battery part: the battery's tau-runs, marched as one stack, and what reads them.

    Returns the checks on the runs (``march``), the k_q-conservation check
    on ``minimal``'s run (``k_q``), the guard-trip note (``notes``) and
    ``error``, the sigma2 + b error of ``minimal``'s last field.  A
    scenario the runs cannot verify is refused here, by field; serially
    this part runs first, and nothing the other part refuses comes before.
    """
    grid, table = cfg.grid, subjects(cfg)
    members, minimal = battery(table), table["s2=1,b=0,p0=0"]
    steps, tau = _tau_end(cfg)
    try:
        trajectories = dyn.run_trajectories(_battery_stack(cfg, members), "tau", cfg.step, steps)
    except ResolutionGuardError as err:
        if not err.steps_completed:  # the battery state itself trips, before any step
            raise ConfigurationError(
                f"grid.n: {grid.n} samples over grid.length {grid.length!r} leave the battery state "
                f"{members[err.member].label} unresolved before its first tau-step ({err})") from err
        raise ConfigurationError(
            f"flow.step: {cfg.step!r} leaves the battery tau-run {members[err.member].label} with no "
            f"certified record ({err})") from err

    runs = {s.label: traj for s, traj in zip(members, trajectories)}
    for label, traj in runs.items():
        if traj.last_valid_step < 4:
            raise ConfigurationError(
                f"flow.step: {cfg.step!r} leaves the battery tau-run {label} with {traj.last_valid_step + 1} "
                "certified records; the 4th-order rate stencil needs 5")
    minimal_run = runs[minimal.label]
    if minimal_run.guard_tripped:
        raise ConfigurationError(
            f"flow.step: {cfg.step!r} leaves the battery tau-run {minimal.label} short of "
            f"tau = {tau:g} ({minimal_run.guard_reason})")

    s_gens = [traj.column("s_gen") for traj in trajectories]
    h_qs = [traj.column("h_q") for traj in trajectories]
    march = [bound("Lyapunov: s_gen nondecreasing (battery tau-runs)",
                   -min(float(np.diff(s).min()) for s in s_gens), 1e-12, provenance="Lyapunov generator")]
    rel = max(float(np.abs((dyn.measured_rates(s, cfg.step) - h[2:-2]) / h[2:-2]).max())
              for s, h in zip(s_gens, h_qs))
    march.append(bound("Lyapunov: d(s_gen)/dtau = h_q (relative, battery)", rel, 1e-5,
                       provenance="Lyapunov generator"))
    march.append(bound("continuity residual (battery tau-runs)",
                       max(float(traj.column("continuity_residual").max()) for traj in trajectories), 1e-5,
                       provenance="continuity"))
    march.append(bound("h_q >= 0 along tau-runs", -min(float(h.min()) for h in h_qs), 0.0,
                       provenance="energy positivity"))
    march.append(bound("tau-flow norm drift (battery)",
                       max(float(np.abs(traj.column("norm") - 1.0).max()) for traj in trajectories), 1e-10,
                       provenance="norm conservation"))
    march.append(bound("tau-flow vs Gaussian closed form (battery records, relative)",
                       max(tau_record_gap(traj, s) for traj, s in zip(trajectories, members)), 1e-5,
                       provenance="Gaussian closed form"))
    note = (f"tau-run guards tripped on {sum(traj.guard_tripped for traj in trajectories)} of {len(runs)} "
            "battery states (contracting/wide-spectrum packets; windows certified by guards)")
    kq = minimal_run.column("k_q")
    k_q = bound("tau-flow conserves its generator k_q", float(np.abs(kq - kq[0]).max()), 1e-6,
                provenance="generator conservation")
    return {"error": _closed_form_error(minimal, tau, minimal_run.final), "march": march, "k_q": [k_q],
            "notes": [note]}


def dynamics_rest(cfg: ScenarioConfig) -> dict:
    """The dynamics suite's other part: the t-run, the step-halving re-march, the rates, probes and trio.

    Returns the t-run's checks (``t-run``), the rate and probe checks
    (``rates``), the trio's (``trio``), their notes and ``error``, the
    sigma2 + b error of the re-march's last field.
    """
    grid, hb, m, table = cfg.grid, cfg.hbar, cfg.mass, subjects(cfg)
    minimal, chirped = table["s2=1,b=0,p0=0"], table["s2=1,b=1,p0=0"]
    wave, notes = to_wave(minimal.state), []

    traj = dyn.run_trajectory(wave, "t", 0.05, 80)
    t_run = [bound("t-flow norm drift", float(np.abs(traj.column("norm") - 1.0).max()), 1e-14,
                   provenance="unitary propagator")]
    dp2 = traj.column("delta_p2_q")
    t_run.append(bound("t-flow delta_p2_q drift", float(np.abs(dp2 - dp2[0]).max()), 1e-12,
                       provenance="free-flow conservation"))
    times = traj.column("time")
    spreads, _, _ = minimal.flow("t", times)
    measured = [fn.sigma_x2(dyn.evolve_t(wave, t)) for t in times]
    t_run.append(bound("t-flow packet spreading law (to t=4)", float(np.abs(measured - spreads).max()), 1e-8,
                       provenance="spreading oracle"))

    steps, tau = _tau_end(cfg)
    half = 0.5 * cfg.step  # 2 * steps half-steps end where the battery runs do
    try:
        halved = dyn.evolve_tau(wave, half, 2 * steps)
    except ResolutionGuardError as err:
        raise ConfigurationError(
            f"flow.step: {cfg.step!r} leaves the re-march of {minimal.label} at step {half!r} "
            f"short of tau = {tau:g} ({err})") from err

    members = battery(table)
    rdx2, rdp2 = dyn.uncertainty_rates(_battery_stack(cfg, members), "tau")
    products = {s.label: product for s, product in zip(members, rdx2 * rdp2)}
    # a Gaussian's tau-rates of delta_x2 and delta_p2_q multiply to -2 b^2 hbar^2 / m^2
    rates = [compare("rate product (b=1 tau-flow)", products[chirped.label],
                     -2.0 * chirped.params.b**2 * hb**2 / m**2, 1e-4, provenance="Gaussian rate algebra"),
             bound("rate product <= 0 across battery (tau-flow)", max(products.values()), 1e-8,
                   provenance="rate sign"),
             info("boundary case b=0: rate product (strict claim saturates)", products[minimal.label],
                  provenance="documented boundary case")]
    tdx2, _ = dyn.uncertainty_rates(table["contracting"].state, "t")
    rates.append(info("t-flow d(delta_x2)/dt for contracting packet b=-0.5 (counterexample)",
                      tdx2, provenance="documented discrepancy"))
    notes.append("the strict positivity claim for d(delta_x2)/dt under the t-flow fails for "
                 "contracting packets; measured and reported, never asserted")
    _, tdp2 = dyn.uncertainty_rates(chirped.state, "t")
    rates.append(bound("t-flow d(delta_p2_q)/dt = 0", abs(tdp2), 1e-8, provenance="free-flow conservation"))

    dk_dt, dh_dtau, defect = dyn.cross_flow_defect(chirped.state)
    # a Gaussian's k_q grows at b hbar^2 / (2 m^2 sigma2) along the t-flow
    p = chirped.params
    rates.append(compare("d(k_q)/dt along t-flow (b=1, sigma2=1)", dk_dt, p.b * hb**2 / (2.0 * m**2 * p.sigma2),
                         1e-5, provenance="Gaussian rate algebra"))
    rates.append(bound("cross-flow holomorphy defect", abs(defect), 1e-6, provenance="holomorphic pair"))

    mover, other = to_wave(table["s2=1,b=0,p0=2"].state), to_wave(table["other"].state)
    trio = WaveField(grid=grid, psi=np.stack([mover.psi, wave.psi, other.psi]), hbar=hb, mass=m)
    marched = dyn.evolve_tau(trio, cfg.step, 200)
    trio_checks = [bound("tau-flow conserves translation generator",
                         abs(fn.wave_p_translation(marched.take(0)) - fn.wave_p_translation(mover)), 1e-8,
                         provenance="translation invariance")]
    before = dyn.inner_product(wave, other)
    after = dyn.inner_product(marched.take(1), marched.take(2))
    trio_checks.append(info("nonunitarity probe: |<psi1|psi2>| drift under tau-flow",
                            abs(abs(after) - abs(before)), provenance="nonunitarity probe"))
    notes.append("tau-flow conserves each state's norm while inner products between distinct "
                 "states drift: norm-preserving but nonunitary")
    return {"error": _closed_form_error(minimal, tau, halved), "t-run": t_run, "rates": rates, "trio": trio_checks,
            "notes": notes}


def join_dynamics(march: dict, rest: dict):
    """The dynamics suite's (checks, notes) in report order, from its parts' check lists and two errors.

    The two sigma2 + b errors at the runs' last tau give the closed-form
    check and the order-2 convergence ratio of the step halving.
    """
    err1, err2 = march["error"], rest["error"]
    joint = [bound("tau-flow vs Gaussian closed form (sigma2+b at tau=0.5)", err1, 1e-6,
                   provenance="Gaussian closed form"),
             compare("tau-flow order-2 convergence (error ratio)", err1 / err2, 4.0, 0.4, provenance="step halving")]
    checks = rest["t-run"] + joint + march["march"] + rest["rates"] + march["k_q"] + rest["trio"]
    return checks, march["notes"] + rest["notes"]


def suite_dynamics(cfg: ScenarioConfig):
    """The dynamics suite: its two parts run here, one after the other, and joined."""
    return join_dynamics(dynamics_battery(cfg), dynamics_rest(cfg))


def suite_classical_limit(cfg: ScenarioConfig):
    checks, table = [], subjects(cfg)
    hbars = np.array([1.0, 0.5, 0.25, 0.125])
    for label, subject in (("minimal", table["s2=1,b=0,p0=0"]), ("chirped", table["s2=1,b=1,p0=2"])):
        states = [make_gaussian(subject.params, cfg.grid, hbar=hb, mass=cfg.mass) for hb in hbars]
        for name in ("h_q", "k_q"):
            gaps = [abs(getattr(fn, name)(state) - fn.h_cl(state)) for state in states]
            slope = np.polyfit(np.log(hbars), np.log(gaps), 1)[0]
            checks.append(compare(f"hbar->0: |{name} - h_cl| log-log slope ({label})", slope, 2.0, 0.01,
                                  provenance="classical limit"))
    return checks, []


def _only(result):
    """The join of a suite of one part: the part's own (checks, notes)."""
    return result


class Suite(NamedTuple):
    """A suite as parts that share nothing, each a function of the scenario run as one task, and the join that
    makes the suite's (checks, notes) of its parts' results, given in part order."""

    parts: tuple
    join: Callable = _only


_SUITES = {
    "group": Suite((suite_group,)),
    "functionals": Suite((suite_functionals,)),
    "brackets": Suite((suite_brackets,)),
    "dynamics": Suite((dynamics_battery, dynamics_rest), join_dynamics),
    "classical-limit": Suite((suite_classical_limit,)),
}

#: The parts, as (suite, index), longest first: the order in which they go to
#: the worker pool.  In process on the default scenario (2-core VM, min of 5):
#: dynamics battery 412 ms, dynamics rest 158, brackets 133, group 29,
#: functionals 3, classical-limit 2.  With two workers the battery part holds
#: one while the others share the other (about 325 ms together), so a verify
#: takes about as long as its battery march (Graham, SIAM J. Appl. Math.
#: 17:416, 1969).
LONGEST_FIRST = (("dynamics", 0), ("dynamics", 1), ("brackets", 0), ("group", 0), ("functionals", 0),
                 ("classical-limit", 0))


def _run_part(name: str, index: int, cfg: ScenarioConfig):
    """The result of part ``index`` of suite ``name``."""
    return _SUITES[name].parts[index](cfg)


def _usable_cpus() -> int:
    """The CPUs this process may run on: 1 where the platform cannot say, and in a
    daemonic process (a ``multiprocessing.Pool`` worker), which may not start workers."""
    import multiprocessing

    if not hasattr(os, "sched_getaffinity") or multiprocessing.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


def run_suites(cfg: ScenarioConfig) -> Report:
    """Run the selected suites into one report, in the order of ``cfg.suites``.

    The parts of the suites share no state, so they run in forked workers,
    one per usable CPU, longest first; with one worker they run here, one
    after another.  Their results are read in report order and joined per
    suite here, so either way the report is the same, and the first failing
    part in report order raises its own error.  No worker outlives the
    call.  A scenario state that cannot be built is refused first; no suite
    verifies it yet.
    """
    cfg.make_state()
    tasks = [(name, index) for name in cfg.suites for index in range(len(_SUITES[name].parts))]
    workers = min(len(tasks), _usable_cpus())
    if workers <= 1:
        results = {task: _run_part(*task, cfg) for task in tasks}
    else:
        # Imported here, so that importing qrel loads no pool.  Fork, not spawn: a spawned
        # worker imports numpy and qrel again on every verify, and the pool forks its workers
        # before it starts its own thread.  An executor, not a multiprocessing.Pool: a worker
        # killed mid-part breaks the executor, where a Pool waits for its result forever.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            pending = {task: pool.submit(_run_part, *task, cfg) for task in sorted(tasks, key=LONGEST_FIRST.index)}
            try:
                results = {task: pending[task].result() for task in tasks}
            except BaseException:
                # the run ends here: drop the queued parts and end the running ones, so that
                # leaving the pool waits for no part (Python 3.11's executor has no public
                # call that ends its workers; it joins them on the way out)
                for future in pending.values():
                    future.cancel()
                for process in list(pool._processes.values()):
                    process.terminate()
                raise
    report = Report(title="verification", convention=cfg.convention)
    for name in cfg.suites:
        suite = _SUITES[name]
        checks, notes = suite.join(*(results[name, index] for index in range(len(suite.parts))))
        report.extend([dataclasses.replace(c, name=f"{name}: {c.name}") for c in checks], notes)
    return report
