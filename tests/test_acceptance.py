"""End-to-end acceptance gate: one test per release criterion.

Each test prints a single PASS line with the measured quantities so the
suite log doubles as a release report.  Criteria and tolerances are fixed;
loosening them is not an option -- a red test here means the library does
not meet its contract.
"""

import time

import numpy as np
import pytest

from linboltz import (
    LorentzSpec,
    PhononSpec,
    RayleighSpec,
    build_lorentz,
    build_phonon,
    build_rayleigh,
    rayleigh_xi_bound,
)
from linboltz.diffusive import sweep, write_manifest, write_sweep_csv
from linboltz.functionals import phi, psi, psi_legendre_oracle
from linboltz.heat import HeatFlow, heat_gradient_flow_check
from linboltz.kinetic import edi_certificate, entropy_balance_check, simulate
from linboltz.montecarlo import McConfig, estimate_D, write_mc_csv, write_mc_json
from linboltz.velocity import (
    TiltedMeasure,
    apply_generator,
    apply_k,
    diffusion_matrix,
    poisson_solve,
    poisson_solve_dense,
)


def fitted_order(dts, residuals):
    return float(np.polyfit(np.log(dts), np.log(residuals), 1)[0])


def rho0_half_cos(n_cells):
    x = (np.arange(n_cells) + 0.5) / n_cells
    return 1.0 + 0.5 * np.cos(2.0 * np.pi * x)


@pytest.fixture(scope="module")
def default_models():
    return {
        "lorentz": build_lorentz(LorentzSpec()),
        "rayleigh": build_rayleigh(RayleighSpec()),
        "phonon": build_phonon(PhononSpec()),
    }


@pytest.fixture(scope="module")
def certification_models():
    # smaller velocity grids so three dt-refined runs per model fit the
    # runtime budget; the certified properties are resolution-independent
    return {
        "lorentz": build_lorentz(LorentzSpec(64)),
        "rayleigh": build_rayleigh(RayleighSpec(n_radial=10, n_angular=12)),
        "phonon": build_phonon(PhononSpec(n_per_axis=8)),
    }


@pytest.fixture(scope="module")
def certification_runs(certification_models):
    """Trajectories for criteria 5 and 6: 64 cells, dt refined twice."""
    t0 = time.perf_counter()
    dts = (2e-3, 1e-3, 5e-4)
    runs = {}
    for name, model in certification_models.items():
        runs[name] = {
            dt: simulate(
                model, rho0_half_cos(64), T=0.1, dt=dt, transport="spectral"
            )
            for dt in dts
        }
    return certification_models, runs, dts, time.perf_counter() - t0


def test_criterion_01_convex_cost_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    n = 10000
    kappa = rng.uniform(0.05, 5.0, n)
    p = rng.uniform(1e-3, 10.0, n)
    q = rng.uniform(1e-3, 10.0, n)
    xi = rng.uniform(-20.0, 20.0, n)

    decomp = (
        kappa * (np.sqrt(p) - np.sqrt(q)) ** 2
        + xi * 0.5 * np.log(q / p)
        + psi(kappa, p, q, xi)
    )
    decomp_err = float(np.max(np.abs(phi(kappa, p, q, xi) - decomp)))
    assert decomp_err < 1e-10

    # Legendre-transform oracle: discrete sup on a fine grid around the
    # maximizer lam* = asinh(xi/alpha); the sup undershoots by at most
    # alpha cosh(lam*) h^2 / 2, which bounds the admissible disagreement
    oracle_err = 0.0
    grid_err = 0.0
    for k, pp, qq, x in zip(kappa[:50], p[:50], q[:50], xi[:50]):
        alpha = 2.0 * k * np.sqrt(pp * qq)
        lam_star = np.arcsinh(x / alpha)
        h = 1e-4
        grid = lam_star + h * np.arange(-100, 101)
        ref = psi_legendre_oracle(k, pp, qq, x, grid)
        oracle_err = max(oracle_err, abs(psi(k, pp, qq, x) - ref))
        grid_err = max(grid_err, 0.5 * alpha * np.cosh(lam_star) * h**2)
    assert oracle_err < grid_err + 1e-12

    # zero set: Phi vanishes exactly on xi = kappa (p - q), positive off it
    on = phi(kappa, p, q, kappa * (p - q))
    assert float(np.max(np.abs(on))) < 1e-12
    assert np.all(phi(kappa, p, q, kappa * (p - q) + 1.0) > 0)

    # small-xi asymptotics: Psi ~ xi^2 / (2 alpha)
    alpha = 2.0 * kappa[:100] * np.sqrt(p[:100] * q[:100])
    small = 1e-6 * alpha
    ratio = psi(kappa[:100], p[:100], q[:100], small) / (small**2 / (2 * alpha))
    assert float(np.max(np.abs(ratio - 1.0))) < 1e-6

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: decomposition {decomp_err:.2e}, "
          f"oracle {oracle_err:.2e}, {elapsed:.1f}s")


def test_criterion_02_operator_suite(default_models):
    t0 = time.perf_counter()
    worst = {}
    rng = np.random.default_rng(1)
    for name, model in default_models.items():
        n = model.n_nodes
        g = rng.uniform(-1.0, 1.0, n)
        f = rng.uniform(-1.0, 1.0, n)
        errs = []
        # detailed balance
        errs.append(float(np.max(np.abs(model.sigma - model.sigma.T))))
        # mass conservation of L
        errs.append(abs(float(model.weights @ apply_generator(model, g))))
        # lambda (id - K) = -L
        errs.append(float(np.max(np.abs(
            model.rates * (g - apply_k(model, g)) + apply_generator(model, g)
        ))))
        # self-adjointness of K in the tilted measure
        t = TiltedMeasure.of(model)
        errs.append(abs(t.inner(apply_k(model, f), g)
                        - t.inner(f, apply_k(model, g))))
        worst[name] = max(errs)
        assert worst[name] < 1e-12, f"{name}: operator identity {worst[name]:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    print(f"\nPASS criterion 2: {report}, {elapsed:.1f}s")


def test_criterion_03_diffusion_coefficient(default_models):
    t0 = time.perf_counter()
    tol = 1e-12
    lorentz = default_models["lorentz"]
    assert lorentz.n_nodes == 256
    sol = poisson_solve(lorentz, tol=tol)
    D, _ = diffusion_matrix(lorentz, sol)
    d_err = float(np.max(np.abs(D - 0.1875 * np.eye(2))))
    assert d_err < 1e-6

    neumann_vs_dense = {}
    for name, model in default_models.items():
        it = poisson_solve(model, tol=tol)
        dense = poisson_solve_dense(model)
        d_it, _ = diffusion_matrix(model, it)
        d_dense, _ = diffusion_matrix(model, dense)
        gap = float(np.max(np.abs(d_it - d_dense)))
        neumann_vs_dense[name] = gap
        assert gap < 10.0 * tol, f"{name}: Neumann vs dense D {gap:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report = ", ".join(f"{k} {v:.1e}" for k, v in neumann_vs_dense.items())
    print(f"\nPASS criterion 3: |D - (3/16)I| = {d_err:.2e}; {report}, "
          f"{elapsed:.1f}s")


def test_criterion_04_monte_carlo_cross_check():
    t0 = time.perf_counter()
    model = build_lorentz(LorentzSpec(64))
    sol = poisson_solve(model, tol=1e-13)
    D, _ = diffusion_matrix(model, sol)
    est = estimate_D(model, McConfig(n_paths=100000, horizon=50.0, seed=7))
    within_sigma = np.abs(est.d_hat - D) <= 3.0 * est.stderr
    assert np.all(within_sigma), f"outside 3 sigma:\n{est.d_hat - D}\n{est.stderr}"
    rel = np.abs(np.diag(est.d_hat) - np.diag(D)) / np.diag(D)
    assert float(np.max(rel)) < 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"\nPASS criterion 4: max rel err {np.max(rel):.3%}, "
          f"max |z| {np.max(np.abs((est.d_hat - D) / est.stderr)):.2f} sigma, "
          f"{elapsed:.1f}s")


def test_criterion_05_edi_certification(certification_runs):
    models, runs, dts, setup_s = certification_runs
    t0 = time.perf_counter()
    orders = {}
    for name, by_dt in runs.items():
        model = models[name]
        residuals = []
        for dt in dts:
            cert = edi_certificate(by_dt[dt], model)
            residuals.append(cert.balance_residual)
            assert cert.phi_residual == 0.0  # own current has zero jump cost
        orders[name] = fitted_order(dts, residuals)
        assert orders[name] >= 1.9, f"{name}: EDI order {orders[name]:.2f}"
        # injected perturbation eta -> 2 eta^f must cost strictly positive Phi
        perturbed = edi_certificate(by_dt[dts[0]], model, current_scale=2.0)
        assert perturbed.phi_residual > 0.0
    elapsed = setup_s + time.perf_counter() - t0
    assert elapsed < 300.0
    report = ", ".join(f"{k} {v:.2f}" for k, v in orders.items())
    print(f"\nPASS criterion 5: EDI orders {report}, {elapsed:.1f}s")


def test_criterion_06_entropy_balance(certification_runs):
    models, runs, dts, setup_s = certification_runs
    t0 = time.perf_counter()
    orders = {}
    for name, by_dt in runs.items():
        model = models[name]
        residuals = [
            entropy_balance_check(by_dt[dt], model).total_residual
            for dt in dts
        ]
        orders[name] = fitted_order(dts, residuals)
        assert orders[name] >= 1.9, f"{name}: balance order {orders[name]:.2f}"
    elapsed = time.perf_counter() - t0
    assert setup_s + elapsed < 300.0
    report = ", ".join(f"{k} {v:.2f}" for k, v in orders.items())
    print(f"\nPASS criterion 6: balance orders {report}, {elapsed:.1f}s")


def test_criterion_07_heat_gradient_flow():
    t0 = time.perf_counter()
    flow = HeatFlow(rho0_half_cos(128), 0.1875 * np.eye(1))
    steps = (16, 32, 64)
    residuals = []
    for n in steps:
        times = np.linspace(0.0, 0.4, n + 1)
        residuals.append(abs(heat_gradient_flow_check(flow, times)))
    dts = [0.4 / n for n in steps]
    order = fitted_order(dts, residuals)
    assert order >= 1.9

    times = np.linspace(0.0, 0.4, 65)
    bumped = heat_gradient_flow_check(flow, times, current_factor=1.1)
    assert bumped > 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 7: order {order:.2f}, perturbed residual "
          f"{bumped:.2e} > 0, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def lorentz_sweep_report(tmp_path_factory):
    model = build_lorentz(LorentzSpec(64))
    t0 = time.perf_counter()
    report = sweep(
        model, rho0_half_cos(64), [0.4, 0.2, 0.1, 0.05], T=0.5
    )
    return model, report, time.perf_counter() - t0


def test_criterion_08_diffusive_limit(lorentz_sweep_report):
    model, report, setup_s = lorentz_sweep_report
    t0 = time.perf_counter()
    l1 = [r.l1 for r in report.rows]
    assert report.errors_decreasing(), f"L1 errors not decreasing: {l1}"
    assert l1[-1] < 0.05

    # discretization-convergence check: halving dt at the two smallest
    # epsilon keeps the verdict intact -- errors still decrease, stay far
    # under the 0.05 budget, and shift by a negligible fraction of it
    refined = sweep(
        model, rho0_half_cos(64), [0.1, 0.05], T=0.5, dt_scale=0.5
    )
    assert refined.errors_decreasing()
    assert refined.rows[-1].l1 < 0.05
    for row, base in zip(refined.rows, report.rows[-2:]):
        assert abs(row.l1 - base.l1) < 1e-3
    elapsed = setup_s + time.perf_counter() - t0
    assert elapsed < 900.0
    print(f"\nPASS criterion 8: L1 errors {['%.2e' % v for v in l1]}, "
          f"{elapsed:.1f}s")


def test_criterion_09_rayleigh_bound(default_models):
    t0 = time.perf_counter()
    rep = rayleigh_xi_bound(default_models["rayleigh"])
    assert rep.z < 1.0
    assert np.all(rep.radial_xi >= 0.0)
    assert rep.zeta == pytest.approx(rep.chi * (1.0 - rep.z))
    assert rep.xi_inf_norm <= 1.0 / rep.zeta + 1e-10
    assert rep.bound_satisfied
    assert rep.cross_check_gap < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\nPASS criterion 9: z={rep.z:.4f}, zeta={rep.zeta:.4f}, "
          f"|xi|_inf={rep.xi_inf_norm:.4f} <= {1.0 / rep.zeta:.4f}, "
          f"radial-vs-full {rep.cross_check_gap:.1e}, {elapsed:.1f}s")


def test_criterion_10_reproducibility(tmp_path):
    model = build_lorentz(LorentzSpec(32))
    cfg = {"model": {"kind": "lorentz", "n_nodes": 32}, "seed": 3}

    sweep_bytes = []
    for tag in ("a", "b"):
        rep = sweep(model, rho0_half_cos(32), [0.5, 0.25], T=0.1)
        csv_path = tmp_path / f"sweep_{tag}.csv"
        man_path = tmp_path / f"manifest_{tag}.json"
        write_sweep_csv(rep, csv_path)
        write_manifest(rep, cfg, man_path)
        sweep_bytes.append(csv_path.read_bytes() + man_path.read_bytes())
    assert sweep_bytes[0] == sweep_bytes[1]

    mc_bytes = []
    mc_cfg = McConfig(n_paths=2000, horizon=5.0, seed=3, n_batches=8)
    for tag in ("a", "b"):
        est = estimate_D(model, mc_cfg)
        csv_path = tmp_path / f"mc_{tag}.csv"
        json_path = tmp_path / f"mc_{tag}.json"
        write_mc_csv(est, csv_path)
        write_mc_json(est, mc_cfg, json_path)
        mc_bytes.append(csv_path.read_bytes() + json_path.read_bytes())
    assert mc_bytes[0] == mc_bytes[1]
    print("\nPASS criterion 10: sweep and MC outputs bit-identical on rerun")
