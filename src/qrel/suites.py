"""Verification suites: every identity the package asserts, as check lists.

Each suite function returns (checks, notes).  The standard test battery
is the 18-state Gaussian family sigma2 in {0.5, 1, 2} x b in {-1, 0, 1}
x p0 in {0, 2} on the desk-scale grid (1-D, n=512, L=40, hbar=m=1 unless
a scenario overrides the units).

Documented discrepancies (the factor-2 reading of the Fisher dispersion,
the sign of the position-spread rate under the t-flow, the strictness of
the rate-product claim at b=0) are always reported informationally and
never asserted.
"""

import dataclasses
import math

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
from .states import GaussianParams, WaveField, make_double_gaussian, make_gaussian, to_wave

ORIENTATION_NOTE = ("orientation: parameter flows follow dA/dalpha = {A, S}, "
                    "with {S, H_q} = K_q and {S, K_q} = H_q")


def battery_params():
    return [GaussianParams(sigma2=s2, b=b, p0=p0)
            for s2 in (0.5, 1.0, 2.0) for b in (-1.0, 0.0, 1.0) for p0 in (0.0, 2.0)]


def battery_states(grid, hbar=1.0, mass=1.0):
    return [(f"s2={p.sigma2:g},b={p.b:g},p0={p.p0:g}", make_gaussian(p, grid, hbar, mass))
            for p in battery_params()]


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


# ---------------------------------------------------------------------------


def suite_group(cfg: ScenarioConfig):
    grid = cfg.make_grid()
    hb = cfg.hbar
    checks = []
    notes = [ORIENTATION_NOTE]

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
    checks.append(bound("composition T_a.T_b = T_{a+b} (20x20 lattice)", worst, 1e-12,
                        provenance="group law"))

    alphas = cfg.alphas
    rows = [row for _, state in battery_states(grid, hb, cfg.mass) for row in _dilatation_sweep(state, alphas)]
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
    checks.append(bound("mixing invariant h^2 - k^2", worst_gap("invariant_gap"), 1e-10,
                        provenance="generator mixing"))

    if cfg.convention == "paper-literal":
        state = make_gaussian(GaussianParams(sigma2=1.0), grid, hb, cfg.mass)
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
    checks.append(bound("time-plane mixing invariant t^2 - tau^2", mt_worst, 1e-12,
                        provenance="time mixing"))

    state = make_gaussian(GaussianParams(sigma2=2.0, b=1.0), grid, hb, cfg.mass)
    one = gr.dilate(gr.dilate(state, 0.7), -1.9)
    two = gr.dilate(state, 0.7 - 1.9)
    worst = max(abs(fn.delta_x2(one) - fn.delta_x2(two)), abs(fn.delta_p2_q(one) - fn.delta_p2_q(two)))
    checks.append(bound("dilatation group law (metadata arithmetic)", worst, 1e-12,
                        provenance="group law"))
    return checks, notes


def suite_functionals(cfg: ScenarioConfig):
    grid = cfg.make_grid()
    hb, m = cfg.hbar, cfg.mass
    checks = []

    minimal = make_gaussian(GaussianParams(sigma2=1.0), grid, hb, m)
    chirped = make_gaussian(GaussianParams(sigma2=1.0, b=1.0), grid, hb, m)
    moving = make_gaussian(GaussianParams(sigma2=1.0, p0=2.0), grid, hb, m)
    # sigma2=4 needs a wider box to honor the 1e-12 tail precondition
    wide = make_gaussian(GaussianParams(sigma2=4.0), Grid(grid.n, 64.0, grid.dim), hb, m)

    checks.append(compare("fisher(sigma2=1)", fn.fisher_information(minimal), 0.5, 1e-10,
                          provenance="Gaussian closed form"))
    checks.append(compare("fisher(sigma2=4)", fn.fisher_information(wide), 0.125, 1e-10,
                          provenance="Gaussian closed form"))
    checks.append(compare("delta_x2 consistent (sigma2=1)", fn.delta_x2(minimal), 1.0, 1e-10,
                          provenance="Gaussian closed form"))
    checks.append(compare("delta_x2 paper-literal (sigma2=1)", fn.delta_x2(minimal, "paper-literal"),
                          2.0, 1e-10, provenance="documented discrepancy", asserted=False))
    checks.append(compare("sigma_x2 (sigma2=1)", fn.sigma_x2(minimal), 1.0, 1e-10,
                          provenance="Gaussian closed form"))
    checks.append(compare("delta_p2_cl (p0=2)", fn.delta_p2_cl(moving), 4.0, 1e-10,
                          provenance="Gaussian closed form"))
    checks.append(compare("delta_p2_q (minimal)", fn.delta_p2_q(minimal), 0.25 * hb**2, 1e-10,
                          provenance="Gaussian closed form"))
    checks.append(compare("minimal product delta_x2 * delta_p2_q",
                          fn.delta_x2(minimal) * fn.delta_p2_q(minimal), 0.25 * hb**2, 1e-10,
                          provenance="minimal uncertainty"))
    expect = orc.gaussian_observables(1.0, 1.0, hbar=hb, mass=m)
    checks.append(compare("h_q (b=1)", fn.h_q(chirped), expect["h_q"], 1e-10,
                          provenance="Gaussian closed form"))
    checks.append(compare("k_q (b=1)", fn.k_q(chirped), expect["k_q"], 1e-10,
                          provenance="Gaussian closed form"))
    checks.append(compare("s_gen (b=1)", fn.s_gen(chirped), expect["s_gen"], 1e-10,
                          provenance="Gaussian closed form"))

    battery = battery_states(grid, hb, m)
    worst_identity = max(abs(fn.h_q(s) - fn.delta_p2_q(s) / (2 * m)) for _, s in battery)
    checks.append(bound("h_q = delta_p2_q / 2m (battery)", worst_identity, 1e-14,
                        provenance="energy identity"))
    worst_gap = min(fn.h_q(s) - fn.k_q(s) for _, s in battery)
    checks.append(bound("h_q - k_q >= 0 (battery)", -worst_gap, 0.0,
                        provenance="Fisher positivity"))

    cr_margin = min(fn.sigma_x2(s) - fn.delta_x2(s, "consistent") for _, s in battery)
    checks.append(bound("Cramer-Rao on battery (sigma_x2 >= delta_x2)", -cr_margin, 1e-9,
                        provenance="Cramer-Rao"))
    gauss_eq = max(abs(fn.sigma_x2(s) - fn.delta_x2(s, "consistent")) for _, s in battery)
    checks.append(bound("Cramer-Rao equality on Gaussians", gauss_eq, 1e-9,
                        provenance="Cramer-Rao"))
    bimodal = make_double_gaussian(3.0, 1.0, grid, hb, m)
    checks.append(compare("bimodal sigma_x2 (a=3, sigma2=1)", fn.sigma_x2(bimodal), 10.0, 1e-8,
                          provenance="mixture moments"))
    checks.append(bound("Cramer-Rao strict on bimodal", fn.delta_x2(bimodal) - fn.sigma_x2(bimodal),
                        0.0, provenance="Cramer-Rao"))

    x = grid.coords[0]
    expected_field = -(hb**2 / (2.0 * m)) * (x**2 / 4.0 - 0.5)
    measured_field = fn.variational_derivative(fn.FunctionalTag.H_Q, minimal, "rho")
    mask = minimal.rho > 1e-12
    checks.append(bound("dH_q/drho quantum potential field (minimal Gaussian)",
                        float(np.abs((measured_field - expected_field)[mask]).max()), 1e-8,
                        provenance="Gaussian quantum potential"))
    return checks, []


def oracle_field_error(states) -> float:
    """Worst relative gap of the closed-form S, H_q, K_q derivative fields to the oracle's.

    Compared on rho > 1e-10 of each state, d/drho fields with their gauge
    constant removed, relative to the closed field's maximum (floor 1e-2).
    """
    T = fn.FunctionalTag
    worst = 0.0
    for state in states:
        region = state.rho > 1e-10
        for tag in (T.S_GEN, T.H_Q, T.K_Q):
            for comp in ("rho", "s"):
                closed = fn.variational_derivative(tag, state, comp)
                numeric = br.fd_functional_derivative(tag, state, comp, where=region)
                if comp == "rho":
                    closed = br.subtract_rho_mean(closed, state, where=region)
                    numeric = br.subtract_rho_mean(numeric, state, where=region)
                scale = max(float(np.abs(closed[region]).max()), 1e-2)
                worst = max(worst, float(np.abs((closed - numeric)[region]).max()) / scale)
    return worst


def suite_brackets(cfg: ScenarioConfig):
    grid = cfg.make_grid()
    hb, m = cfg.hbar, cfg.mass
    checks = []
    battery = battery_states(grid, hb, m)
    T = fn.FunctionalTag

    sample = make_gaussian(GaussianParams(sigma2=1.0, b=1.0, p0=2.0), grid, hb, m)
    moving = make_gaussian(GaussianParams(sigma2=1.0, p0=2.0), grid, hb, m)
    tags = (T.S_GEN, T.H_Q, T.K_Q, T.H_CL, T.DELTA_P2_Q, T.P_TRANSLATION)
    worst = 0.0
    for state in (sample, moving):
        for a in tags:
            for b in tags:
                worst = max(worst, abs(br.poisson_bracket(a, b, state)
                                       + br.poisson_bracket(b, a, state)))
    checks.append(bound("antisymmetry over tag pairs", worst, 1e-12, provenance="bracket algebra"))

    beyond_sh = beyond_sk = worst_ph = 0.0
    for _, state in battery:
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
    state = make_gaussian(GaussianParams(sigma2=1.0, b=-1.0), grid, hb, m)
    checks.append(bound("closed-form vs oracle derivative fields (rho > 1e-10)",
                        oracle_field_error([state]), 1e-6, provenance="finite-difference oracle"))

    value_closed = br.poisson_bracket(T.S_GEN, T.H_Q, state)
    value_oracle = br.poisson_bracket(T.S_GEN, T.H_Q, state, method="finite-difference-oracle")
    checks.append(bound("bracket value: closed vs oracle",
                        abs(value_closed - value_oracle) / max(1e-8, 1e-6 * abs(value_closed)),
                        1.0, provenance="finite-difference oracle"))

    minimal = make_gaussian(GaussianParams(sigma2=1.0), grid, hb, m)
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


def tau_record_gap(traj, params: GaussianParams, convention: str = "consistent",
                   hbar: float = 1.0, mass: float = 1.0) -> float:
    """Worst relative gap of a Gaussian's tau-run records to the closed-form flow of ``params``.

    delta_x2 is compared with its expected value (which reads 2 sigma2
    under the paper-literal convention); delta_p2_q, h_q and k_q with the
    expected delta_p2_q, which bounds |h_q| and |k_q|.
    """
    sigma2, b, _ = orc.gaussian_flow(params.sigma2, params.b, 0.0, "tau", traj.column("time"), hbar, mass)
    expect = orc.gaussian_observables(sigma2, b, hbar=hbar, mass=mass, p0=params.p0)
    dx2 = expect["delta_x2"] * 4.0 / fn._dispersion_factor(convention, expect["fisher"])
    gaps = [np.abs(traj.column("delta_x2") - dx2) / dx2]
    gaps += [np.abs(traj.column(key) - expect[key]) / expect["delta_p2_q"] for key in ("delta_p2_q", "h_q", "k_q")]
    return float(np.max(gaps))


def suite_dynamics(cfg: ScenarioConfig):
    grid = cfg.make_grid()
    hb, m = cfg.hbar, cfg.mass
    checks = []
    notes = []
    minimal = to_wave(make_gaussian(GaussianParams(sigma2=1.0), grid, hb, m))

    traj = dyn.run_trajectory(minimal, "t", 0.05, 80, cfg.convention)
    checks.append(bound("t-flow norm drift", float(np.abs(traj.column("norm") - 1.0).max()), 1e-14,
                        provenance="unitary propagator"))
    dp2 = traj.column("delta_p2_q")
    checks.append(bound("t-flow delta_p2_q drift", float(np.abs(dp2 - dp2[0]).max()), 1e-12,
                        provenance="free-flow conservation"))
    times = traj.column("time")
    spreads = [orc.free_packet_sigma_x2(t, 1.0, hb, m) for t in times]
    measured = [fn.sigma_x2(dyn.evolve_t(minimal, t)) for t in times]
    checks.append(bound("t-flow packet spreading law (to t=4)",
                        float(np.abs(np.array(measured) - np.array(spreads)).max()), 1e-8,
                        provenance="spreading oracle"))

    battery = battery_states(grid, hb, m)
    stack = WaveField(grid=grid, psi=np.stack([to_wave(state).psi for _, state in battery]), hbar=hb, mass=m)
    try:
        trajectories = dyn.run_trajectories(stack, "tau", cfg.step, int(round(0.5 / cfg.step)), cfg.convention)
    except ResolutionGuardError as err:
        if not err.steps_completed:
            raise  # the battery state itself trips, before any step
        raise ConfigurationError(
            f"flow.step: {cfg.step!r} leaves the battery tau-run {battery[err.member][0]} with no "
            f"certified record ({err})") from err

    runs = {label: traj for (label, _), traj in zip(battery, trajectories)}
    for label, traj in runs.items():
        if len(traj.records) < 5:
            raise ConfigurationError(
                f"flow.step: {cfg.step!r} leaves the battery tau-run {label} with {len(traj.records)} "
                "certified records; the 4th-order rate stencil needs 5")
    minimal_run = runs["s2=1,b=0,p0=0"]  # the battery's run of `minimal`

    def tau_error(dtau):
        # the oracle is read where the integration ends, steps * dtau, which is 0.5 only
        # when dtau divides it
        steps = int(round(0.5 / dtau))
        if (dtau, minimal_run.last_valid_step) == (cfg.step, steps):
            out = minimal_run.final  # the battery has marched it already
        else:
            out = dyn.evolve_tau(minimal, dtau, steps)
        sigma2_flow, b_flow, _ = orc.gaussian_flow(1.0, 0.0, 0.0, "tau", steps * dtau, hb, m)
        sig2 = fn.sigma_x2(out)
        rho = out.rho
        xc = grid.coords[0]
        mean = grid.quadrature(rho * xc)
        dsfield = dyn.phase_gradient(out)[0]
        b = grid.quadrature(rho * (xc - mean) * dsfield) / sig2
        return abs(sig2 - sigma2_flow) + abs(b - b_flow)

    err1, err2 = tau_error(cfg.step), tau_error(0.5 * cfg.step)
    checks.append(bound("tau-flow vs Gaussian ODE oracle (sigma2+b at tau=0.5)", err1, 1e-6,
                        provenance="Gaussian ODE oracle"))
    checks.append(compare("tau-flow order-2 convergence (error ratio)", err1 / err2, 4.0, 0.4,
                          provenance="step halving"))
    s_gens = [traj.column("s_gen") for traj in trajectories]
    h_qs = [traj.column("h_q") for traj in trajectories]
    checks.append(bound("Lyapunov: s_gen nondecreasing (battery tau-runs)",
                        -min(float(np.diff(s).min()) for s in s_gens), 1e-12, provenance="Lyapunov generator"))
    rel = max(float(np.abs((dyn.measured_rates(s, cfg.step) - h[2:-2]) / h[2:-2]).max())
              for s, h in zip(s_gens, h_qs))
    checks.append(bound("Lyapunov: d(s_gen)/dtau = h_q (relative, battery)", rel, 1e-5,
                        provenance="Lyapunov generator"))
    checks.append(bound("continuity residual (battery tau-runs)",
                        max(float(traj.column("continuity_residual").max()) for traj in trajectories), 1e-5,
                        provenance="continuity"))
    checks.append(bound("h_q >= 0 along tau-runs", -min(float(h.min()) for h in h_qs), 0.0,
                        provenance="energy positivity"))
    checks.append(bound("tau-flow norm drift (battery)",
                        max(float(np.abs(traj.column("norm") - 1.0).max()) for traj in trajectories), 1e-10,
                        provenance="norm conservation"))
    checks.append(bound("tau-flow vs Gaussian closed form (battery records, relative)",
                        max(tau_record_gap(traj, params, cfg.convention, hb, m)
                            for traj, params in zip(trajectories, battery_params())), 1e-5,
                        provenance="Gaussian closed form"))
    notes.append(f"tau-run guards tripped on {sum(traj.guard_tripped for traj in trajectories)} of {len(runs)} "
                 "battery states (contracting/wide-spectrum packets; windows certified by guards)")

    rdx2, rdp2 = dyn.uncertainty_rates(stack, "tau")
    products = dict(zip(runs, rdx2 * rdp2))  # by battery label
    checks.append(compare("rate product (b=1 tau-flow)", products["s2=1,b=1,p0=0"], -2.0 * hb**2 / m**2, 1e-4,
                          provenance="Gaussian rate algebra"))
    checks.append(bound("rate product <= 0 across battery (tau-flow)", max(products.values()), 1e-8,
                        provenance="rate sign"))
    checks.append(info("boundary case b=0: rate product (strict claim saturates)", products["s2=1,b=0,p0=0"],
                       provenance="documented boundary case"))
    contracting = make_gaussian(GaussianParams(sigma2=1.0, b=-0.5), grid, hb, m)
    tdx2, _ = dyn.uncertainty_rates(contracting, "t")
    checks.append(info("t-flow d(delta_x2)/dt for contracting packet b=-0.5 (counterexample)",
                       tdx2, provenance="documented discrepancy"))
    notes.append("the strict positivity claim for d(delta_x2)/dt under the t-flow fails for "
                 "contracting packets; measured and reported, never asserted")
    chirped = make_gaussian(GaussianParams(sigma2=1.0, b=1.0), grid, hb, m)
    _, tdp2 = dyn.uncertainty_rates(chirped, "t")
    checks.append(bound("t-flow d(delta_p2_q)/dt = 0", abs(tdp2), 1e-8,
                        provenance="free-flow conservation"))

    dk_dt, dh_dtau, defect = dyn.cross_flow_defect(chirped)
    checks.append(compare("d(k_q)/dt along t-flow (b=1, sigma2=1)", dk_dt, hb**2 / (2.0 * m**2), 1e-5,
                          provenance="Gaussian rate algebra"))
    checks.append(bound("cross-flow holomorphy defect", abs(defect), 1e-6,
                        provenance="holomorphic pair"))

    kq = runs["s2=1,b=0,p0=0"].column("k_q")  # the battery's run of `minimal`
    checks.append(bound("tau-flow conserves its generator k_q", float(np.abs(kq - kq[0]).max()),
                        1e-6, provenance="generator conservation"))
    mover = to_wave(make_gaussian(GaussianParams(sigma2=1.0, p0=2.0), grid, hb, m))
    other = to_wave(make_gaussian(GaussianParams(sigma2=1.0, x0=1.5), grid, hb, m))
    trio = WaveField(grid=grid, psi=np.stack([mover.psi, minimal.psi, other.psi]), hbar=hb, mass=m)
    marched = dyn.evolve_tau(trio, cfg.step, 200)
    checks.append(bound("tau-flow conserves translation generator",
                        abs(fn.wave_p_translation(marched.take(0)) - fn.wave_p_translation(mover)), 1e-8,
                        provenance="translation invariance"))

    before = dyn.inner_product(minimal, other)
    after = dyn.inner_product(marched.take(1), marched.take(2))
    checks.append(info("nonunitarity probe: |<psi1|psi2>| drift under tau-flow",
                       abs(abs(after) - abs(before)), provenance="nonunitarity probe"))
    notes.append("tau-flow conserves each state's norm while inner products between distinct "
                 "states drift: norm-preserving but nonunitary")
    return checks, notes


def suite_classical_limit(cfg: ScenarioConfig):
    grid = cfg.make_grid()
    checks = []
    hbars = np.array([1.0, 0.5, 0.25, 0.125])
    for label, params in (("minimal", GaussianParams(sigma2=1.0)),
                          ("chirped", GaussianParams(sigma2=1.0, b=1.0, p0=2.0))):
        gaps_h, gaps_k = [], []
        for hb in hbars:
            state = make_gaussian(params, grid, hbar=hb, mass=cfg.mass)
            gaps_h.append(abs(fn.h_q(state) - fn.h_cl(state)))
            gaps_k.append(abs(fn.k_q(state) - fn.h_cl(state)))
        slope_h = np.polyfit(np.log(hbars), np.log(gaps_h), 1)[0]
        slope_k = np.polyfit(np.log(hbars), np.log(gaps_k), 1)[0]
        checks.append(compare(f"hbar->0: |h_q - h_cl| log-log slope ({label})", slope_h, 2.0, 0.01,
                              provenance="classical limit"))
        checks.append(compare(f"hbar->0: |k_q - h_cl| log-log slope ({label})", slope_k, 2.0, 0.01,
                              provenance="classical limit"))
    return checks, []


_SUITES = {
    "group": suite_group,
    "functionals": suite_functionals,
    "brackets": suite_brackets,
    "dynamics": suite_dynamics,
    "classical-limit": suite_classical_limit,
}


def run_suites(cfg: ScenarioConfig) -> Report:
    report = Report(title="verification", convention=cfg.convention)
    for name in cfg.suites:
        checks, notes = _SUITES[name](cfg)
        report.extend([dataclasses.replace(c, name=f"{name}: {c.name}") for c in checks], notes)
    return report
