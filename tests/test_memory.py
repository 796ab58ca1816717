"""Memory budgets, and the in-place forms against the expressions they replaced.

``rayleigh_kernel``, ``_exact_symmetrize``, ``spectral_gap_probe`` and the
Lorentz kernel of ``build_lorentz`` do their (n_v, n_v) arithmetic in place,
and ``edi_certificate`` and ``write_certificate_csv`` fill one (n_x, n_pairs)
current on the pairs i < j per call in place; the expression forms they
replaced, the certificate's with its square (n_x, n_v, n_v) current, are
kept below, and the in-place forms must equal them bit for bit.
``dirichlet_lower_bound`` pairs two (n_x, n_v) arrays where its expression
form built the square tensor e^(phi_j - phi_i); it sums in another order, so
it must equal that form to 1e-12 relative.  ``kinematic_lower_bound`` takes
its current and test functions on the pairs i < j.  The budgets are
tracemalloc peaks: numpy reports its array data to tracemalloc.
"""

import tracemalloc

import numpy as np
import pytest

from linboltz import build_model
from linboltz.diffusive import sweep
from linboltz.errors import DomainError
from linboltz import functionals
from linboltz.functionals import (dirichlet_form, dirichlet_lower_bound, kinematic_lower_bound,
                                  kinematic_rate, pair_triangle, phi, psi)
from linboltz.kinetic import current_of, edi_certificate, simulate, write_certificate_csv
from linboltz.models import _exact_symmetrize, rayleigh_kernel
from linboltz.velocity import TiltedMeasure, spectral_gap_probe


def expression_rayleigh_kernel(v, w, beta, dim, diag_cutoff=0.0):
    v = np.atleast_2d(v)
    w = np.atleast_2d(w)
    n2v = np.einsum("id,id->i", v, v)
    n2w = np.einsum("jd,jd->j", w, w)
    dot = v @ w.T
    gram = np.outer(n2v, n2w) - dot * dot
    np.clip(gram, 0.0, None, out=gram)
    dist2 = n2v[:, None] + n2w[None, :] - 2.0 * dot
    np.clip(dist2, 0.0, None, out=dist2)
    close = dist2 <= diag_cutoff**2
    safe = np.where(close, 1.0, dist2)
    pref = (beta / (2.0 * np.pi)) ** ((1.0 - dim) / 2.0)
    kern = pref * np.exp(0.5 * beta * gram / safe)
    if dim == 3:
        kern = kern / np.sqrt(safe)
    kern[close] = 0.0
    return kern


def expression_lorentz_kernel(theta):
    diff = theta[:, None] - theta[None, :]
    return np.pi * np.abs(np.sin(0.5 * diff))


def expression_symmetrize(mat):
    upper = np.triu(mat, 1)
    return upper + upper.T + np.diag(np.diag(mat))


def expression_gap_probe(model):
    tilted = TiltedMeasure.of(model)
    if np.any(model.rates <= 0):
        raise DomainError("K undefined at a node with lambda = 0")
    sqw = np.sqrt(tilted.weights)
    K = model.sigma * model.weights[None, :] / model.rates[:, None]
    inv_sqw = np.divide(1.0, sqw, out=np.zeros_like(sqw), where=sqw > 0)
    sym = sqw[:, None] * K * inv_sqw[None, :] - 3.0 * np.outer(sqw, sqw)
    lam2 = float(np.linalg.eigvalsh(0.5 * (sym + sym.T))[-1])
    gap = 1.0 - lam2
    return lam2, gap, (1.0 / gap if gap > 0 else np.inf)


MODELS = {
    "rayleigh-10x12": ("rayleigh", {"dim": 2, "n_radial": 10, "n_angular": 12}),
    "rayleigh-24x32": ("rayleigh", {"dim": 2, "n_radial": 24, "n_angular": 32}),
    "lorentz-256": ("lorentz", {"n_nodes": 256}),
    "phonon-16x16": ("phonon", {"dim": 2, "n_per_axis": 16}),
}


@pytest.fixture(scope="module", params=list(MODELS))
def model(request):
    kind, params = MODELS[request.param]
    return build_model(kind, **params)


def unsymmetrized_kernel(model):
    """The model's kernel as its builder forms it before mirroring."""
    if model.name == "rayleigh":
        sigma = rayleigh_kernel(model.nodes, model.nodes, model.meta["beta"], model.dim_x)
        np.fill_diagonal(sigma, 0.0)
        return sigma
    if model.name == "lorentz":
        return expression_lorentz_kernel(model.nodes[:, 0])
    s2 = np.sin(np.pi * model.nodes) ** 2
    return s2 @ s2.T


def test_in_place_builders_equal_the_expression_forms(model):
    raw = unsymmetrized_kernel(model)
    assert np.array_equal(_exact_symmetrize(raw.copy()), expression_symmetrize(raw))
    assert np.array_equal(_exact_symmetrize(raw.copy()), model.sigma)
    assert spectral_gap_probe(model) == expression_gap_probe(model)
    if model.name == "rayleigh":
        beta, dim = model.meta["beta"], model.dim_x
        assert np.array_equal(rayleigh_kernel(model.nodes, model.nodes, beta, dim),
                              expression_rayleigh_kernel(model.nodes, model.nodes, beta, dim))


def test_rayleigh_kernel_in_place_in_3d_with_a_cutoff():
    rng = np.random.default_rng(5)
    v = rng.normal(size=(40, 3))
    v[7] = v[3]  # one pair inside the cutoff off the diagonal
    w = np.vstack([v[:20], rng.normal(size=(5, 3))])
    for beta in (1.0, 2.5):
        got = rayleigh_kernel(v, w, beta, 3, diag_cutoff=1e-6)
        assert np.array_equal(got, expression_rayleigh_kernel(v, w, beta, 3, 1e-6))
        assert got[7, 3] == got[3, 3] == 0.0


def test_exact_symmetrize_mirrors_the_upper_triangle_in_place():
    mat = np.random.default_rng(6).uniform(0.0, 1.0, (9, 9))
    expected = expression_symmetrize(mat)
    assert _exact_symmetrize(mat) is mat
    assert np.array_equal(mat, expected)


def traced_peak(fn):
    """(result, tracemalloc peak in bytes) of ``fn()``."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rayleigh_768_build_and_gap_probe_stay_within_their_budgets():
    # the build's budget includes the model's own kernel
    model, build_peak = traced_peak(
        lambda: build_model("rayleigh", n_radial=24, n_angular=32))
    n2_bytes = 8.0 * model.n_nodes**2
    assert build_peak <= 3.2 * n2_bytes, build_peak / n2_bytes
    _, probe_peak = traced_peak(lambda: spectral_gap_probe(model))
    assert probe_peak <= 2.5 * n2_bytes, probe_peak / n2_bytes


def test_lorentz_256_build_stays_within_its_budget():
    # the build's budget includes the model's own kernel
    model, peak = traced_peak(lambda: build_model("lorentz", n_nodes=256))
    assert np.array_equal(model.sigma, expression_symmetrize(
        expression_lorentz_kernel(model.nodes[:, 0])))
    assert peak <= 2.2 * 8.0 * model.n_nodes**2, peak / (8.0 * model.n_nodes**2)


def expression_dirichlet_lower_bound(f, model, phi_test):
    """The Donsker-Varadhan integrand through the square (n_x, n_v, n_v) tensor."""
    dx = 1.0 / f.shape[0]
    w = model.weights
    expdiff = np.exp(phi_test[:, None, :] - phi_test[:, :, None])  # phi_j - phi_i
    integrand = np.einsum(
        "xi,i,ij,j,xij->", f, w, model.sigma, w, 1.0 - expdiff, optimize=True
    )
    return float(dx * integrand)


@pytest.mark.parametrize("kind, params", [
    ("lorentz", {"n_nodes": 16}),
    ("rayleigh", {"dim": 2, "n_radial": 10, "n_angular": 12}),
    ("phonon", {"dim": 2, "n_per_axis": 8}),
])
def test_dirichlet_lower_bound_equals_the_expression_form(kind, params):
    model = build_model(kind, **params)
    rng = np.random.default_rng(17)
    f = rng.uniform(0.2, 2.0, (8, model.n_nodes))
    probes = [spread * rng.normal(size=f.shape) for spread in (0.1, 1.0, 5.0)]
    for phi_test in probes + [0.5 * np.log(f)]:
        assert dirichlet_lower_bound(f, model, phi_test) == pytest.approx(
            expression_dirichlet_lower_bound(f, model, phi_test), rel=1e-12, abs=0.0)


def test_dirichlet_lower_bound_on_rayleigh_768_stays_within_its_budget():
    # a few (n_x, n_v) arrays; the square tensor e^(phi_j - phi_i) alone is 302 MB here
    model = build_model("rayleigh", n_radial=24, n_angular=32)
    rng = np.random.default_rng(18)
    f = rng.uniform(0.2, 2.0, (64, model.n_nodes))
    phi_test = rng.normal(size=f.shape)
    value, peak = traced_peak(lambda: dirichlet_lower_bound(f, model, phi_test))
    assert np.isfinite(value)
    assert peak <= 8 * 8.0 * f.size + 1e6, peak / (8.0 * f.size)


def test_benchmark_sweep_stays_within_its_budget():
    # the diffusive-sweep job of the benchmark's diffusion workload
    model = build_model("lorentz", n_nodes=64)
    x = (np.arange(64) + 0.5) / 64
    rho0 = 1.0 + 0.45 * np.cos(2.0 * np.pi * x)
    report, peak = traced_peak(lambda: sweep(model, rho0, [0.4, 0.2, 0.1, 0.05], T=0.5))
    assert report.errors_decreasing()
    assert peak < 12e6, peak / 1e6


def expression_certificate_sums(traj, model, current_scale):
    """Per step (E, R, Phi) as the certificate summed them with a fresh square
    current and fresh pair arrays every step."""
    scale = 1.0 / traj.epsilon**2
    i, j, pair_weights = pair_triangle(model)
    kappa = model.sigma[i, j]
    sums = []
    for n in range(traj.n_steps):
        f_mid = 0.5 * (traj.f[n] + traj.f[n + 1])
        eta = f_mid[:, :, None] - f_mid[:, None, :]
        eta *= model.sigma
        if current_scale != 1.0:
            eta *= current_scale
        xi = np.take(eta.reshape(len(f_mid), -1), i * model.n_nodes + j, axis=1)
        phi_vals = phi(kappa, np.take(f_mid, i, axis=1), np.take(f_mid, j, axis=1), xi)
        sums.append((scale * dirichlet_form(f_mid, model),
                     scale * kinematic_rate(f_mid, xi, model),
                     scale * traj.dx * float(np.sum(phi_vals @ pair_weights))))
    return np.array(sums)


@pytest.fixture(scope="module")
def certify_run():
    """The trajectory of the benchmark's certify config: Rayleigh-120, 64 cells, 20 steps."""
    model = build_model("rayleigh", dim=2, n_radial=10, n_angular=12)
    x = (np.arange(64) + 0.5) / 64
    traj = simulate(model, 1.0 + 0.45 * np.cos(2.0 * np.pi * x), T=0.04, dt=2e-3,
                    transport="spectral")
    return model, traj


@pytest.mark.parametrize("current_scale", [1.0, 1.3])
def test_certificate_in_place_equals_the_expression_form(certify_run, current_scale):
    model, traj = certify_run
    f_mid = 0.5 * (traj.f[3] + traj.f[4])
    i, j, _ = pair_triangle(model)
    buf = np.full((64, i.size), np.nan)
    assert current_of(f_mid, model, out=buf) is buf
    expected = current_of(f_mid, model)
    assert np.array_equal(buf, expected)
    square = f_mid[:, :, None] - f_mid[:, None, :]
    square *= model.sigma
    assert np.array_equal(expected, square[:, i, j])
    buf *= current_scale
    assert np.array_equal(buf, expected * current_scale)

    cert = edi_certificate(traj, model, current_scale=current_scale)
    e, r, p = expression_certificate_sums(traj, model, current_scale).T
    dirichlet = kinematic = phi_total = 0.0
    for n in range(traj.n_steps):
        dirichlet += traj.dt * e[n]
        kinematic += traj.dt * r[n]
        phi_total += traj.dt * p[n]
    assert (cert.dirichlet_integral, cert.kinematic_value, cert.phi_residual) == (
        dirichlet, kinematic, phi_total)
    assert np.array_equal(cert.per_step, np.diff(cert.entropy) + traj.dt * (e + r))
    assert (cert.phi_residual == 0.0) == (current_scale == 1.0)


def test_certificate_and_its_csv_stay_within_their_budgets(certify_run, tmp_path):
    # above the trajectory: four pair arrays (the current xi, the densities
    # f_i and f_j, and phi's output) for the certificate, two (the current and
    # current_of's temporary) for the CSV, and 2 MB for everything else (the
    # pair kernels' scratch is 0.66 MB)
    model, traj = certify_run
    n_x, n_v = traj.f.shape[1:]
    pairs = 8.0 * n_x * n_v * (n_v - 1) / 2
    cert, peak = traced_peak(lambda: edi_certificate(traj, model))
    assert peak <= 4 * pairs + 2e6, peak / 1e6
    _, peak = traced_peak(lambda: write_certificate_csv(traj, model, cert,
                                                        str(tmp_path / "c.csv")))
    assert peak <= 2 * pairs + 2e6, peak / 1e6


def test_kinematic_lower_bound_stays_within_its_budget(certify_run):
    # one frame: the penalty's mass and the bracket, two pair arrays
    model, traj = certify_run
    f = traj.f[4]
    eta = current_of(f, model)[None]
    zeta = 0.5 * eta / np.max(np.abs(eta))
    pair_bytes = 8.0 * eta.size
    value, peak = traced_peak(lambda: kinematic_lower_bound(f[None], eta, model, traj.dt, zeta))
    assert 0.0 < value <= traj.dt * kinematic_rate(f, eta[0], model)
    assert peak <= 3 * pair_bytes + 1e6, peak / pair_bytes


@pytest.mark.parametrize("cost, n_work", [(phi, 5), (psi, 2)], ids=["phi", "psi"])
def test_pair_costs_copy_no_operand(certify_run, cost, n_work):
    # the certificate's operands: kappa broadcast from (n_pairs,) against the
    # gathered pair densities and a current off the own one, so that every
    # block takes the whole kernel.  The budget is the output and the scratch,
    # and 64 kB for views and Python objects: a copy of one operand is 3.7 MB
    model, traj = certify_run
    f_mid = 0.5 * (traj.f[3] + traj.f[4])
    i, j, _ = pair_triangle(model)
    kappa, f_i, f_j = model.sigma[i, j], np.take(f_mid, i, axis=1), np.take(f_mid, j, axis=1)
    xi = 1.3 * current_of(f_mid, model)
    out, peak = traced_peak(lambda: cost(kappa, f_i, f_j, xi))
    assert out.shape == xi.shape and np.all(out >= 0.0) and out.max() < np.inf
    budget = out.nbytes + 8 * n_work * functionals.BLOCK
    assert peak <= budget + 64e3, (peak - budget) / 1e3
