"""Constructors for the concrete velocity models and their diagnostics.

Three models are provided:

* ``lorentz``  -- velocities on the unit circle, kernel |sin((theta-theta')/2)|
  against the uniform angular measure (scaled so the measure is a
  probability), constant scattering rate.
* ``rayleigh`` -- a heavy tracer in a Maxwellian background at inverse
  temperature beta; closed-form symmetric kernel, rate with linear growth.
* ``phonon``   -- wavevectors on the d-torus with the pinned harmonic
  dispersion omega(k) = sqrt(nu + 4 sum_i sin^2(pi k_i)) and product
  scattering kernel; group velocity drift.

``rayleigh_xi_bound`` assembles the radial contraction diagnostics that
certify boundedness of the Poisson solution xi = (-L)^{-1} b.
"""

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, DomainError, NumericalQualityError, require_memory
from .velocity import VelocityModel, poisson_solve


def _exact_symmetrize(mat):
    """Force exact S_ij = S_ji by mirroring the upper triangle, in place."""
    lower = np.tri(mat.shape[0], k=-1, dtype=bool)
    np.copyto(mat, mat.T, where=lower)
    return mat


@dataclass(frozen=True)
class LorentzSpec:
    n_nodes: int = 256

    def __post_init__(self):
        if self.n_nodes < 4 or self.n_nodes % 2:
            raise ConfigError("lorentz needs an even node count >= 4")
        require_memory((self.n_nodes, self.n_nodes), "the lorentz kernel")


@dataclass(frozen=True)
class RayleighSpec:
    dim: int = 2
    beta: float = 1.0
    n_radial: int = 24
    n_angular: int = 32
    n_polar: int = 12  # d=3 only: Gauss nodes in cos(theta)
    v_max: float | None = None  # defaults to 6/sqrt(beta)
    diag_cutoff: float = 1e-9

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ConfigError("rayleigh supports dim 2 or 3")
        if self.beta <= 0:
            raise ConfigError("beta must be positive")
        if self.n_angular % 2:
            raise ConfigError("angular node count must be even (v -> -v symmetry)")
        if min(self.n_radial, self.n_angular, self.n_polar) < 1 or (
                self.v_max is not None and self.v_max <= 0):
            raise ConfigError("rayleigh needs quadrature nodes and a positive v_max")
        n = self.n_radial * self.n_angular * (self.n_polar if self.dim == 3 else 1)
        require_memory((n, n), "the rayleigh kernel")

    @property
    def cutoff_radius(self):
        return self.v_max if self.v_max is not None else 6.0 / math.sqrt(self.beta)


@dataclass(frozen=True)
class PhononSpec:
    dim: int = 2
    nu: float = 1.0
    n_per_axis: int = 16
    allow_dim1_surrogate: bool = False

    def __post_init__(self):
        if self.nu <= 0:
            raise ConfigError(
                "phonon requires pinning nu > 0 (the unpinned chain is superdiffusive)"
            )
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.dim == 1 and not self.allow_dim1_surrogate:
            raise ConfigError(
                "the 1d phonon kernel differs from the product form; pass "
                "allow_dim1_surrogate=True to use the product-form surrogate"
            )
        if self.n_per_axis < 2:
            raise ConfigError("need at least 2 nodes per axis")
        # n_per_axis**dim nodes squared, without forming n_per_axis**(2 dim)
        require_memory(repeat(self.n_per_axis, 2 * self.dim), "the phonon kernel")


def build_lorentz(spec):
    """Uniform angular grid on the circle with kernel pi*|sin(dtheta/2)|."""
    n = spec.n_nodes
    theta = 2.0 * np.pi * np.arange(n) / n
    weights = np.full(n, 1.0 / n)
    drift = np.column_stack([np.cos(theta), np.sin(theta)])
    # kill roundoff so the antipodal cancellation in pi(b) is exact
    drift[np.abs(drift) < 1e-15] = 0.0
    # pi |sin((theta_i - theta_j) / 2)|, in place in one n x n array
    sigma = np.subtract.outer(theta, theta)
    sigma *= 0.5
    np.sin(sigma, out=sigma)
    np.abs(sigma, out=sigma)
    sigma *= np.pi
    _exact_symmetrize(sigma)
    model = VelocityModel(
        nodes=theta[:, None],
        weights=weights,
        drift=drift,
        sigma=sigma,
        name="lorentz",
        meta={"n_nodes": n},
    )
    model.validate()
    return model


def _maxwell_radial_quadrature(spec):
    """Gauss-Legendre radii on (0, v_max] with Maxwellian radial weights.

    Returns (radii, radial_weights, mass_defect); the weights are already
    renormalized to the truncated, then the total model normalization
    happens once all factors are combined.
    """
    d, beta, vmax = spec.dim, spec.beta, spec.cutoff_radius
    x, w = leggauss(spec.n_radial)
    radii = 0.5 * vmax * (x + 1.0)
    gl = 0.5 * vmax * w
    surface = 2.0 * np.pi if d == 2 else 4.0 * np.pi
    dens = (beta / (2.0 * np.pi)) ** (d / 2.0) * np.exp(-0.5 * beta * radii**2)
    radial_w = gl * surface * radii ** (d - 1) * dens
    mass = radial_w.sum()
    return radii, radial_w, 1.0 - mass


def rayleigh_kernel(v, w, beta, dim, diag_cutoff=0.0):
    """Closed-form symmetric scattering kernel between node sets v and w.

    ``v``: (n, d), ``w``: (m, d).  Pairs closer than ``diag_cutoff`` get 0
    (the diagonal-zero convention for the d=3 singular prefactor).  The
    (n, m) arithmetic is done in place, in three (n, m) arrays at most.
    """
    v = np.atleast_2d(v)
    w = np.atleast_2d(w)
    n2v = np.einsum("id,id->i", v, v)
    n2w = np.einsum("jd,jd->j", w, w)
    dot = v @ w.T
    # |v|^2 + |w|^2 - 2 v.w, with the doubling of dot undone exactly
    safe = np.add(n2v[:, None], n2w[None, :])
    dot *= 2.0
    safe -= dot
    dot *= 0.5
    np.clip(safe, 0.0, None, out=safe)
    # the gram determinant |v|^2 |w|^2 - (v.w)^2, over dot's storage
    np.multiply(dot, dot, out=dot)
    kern = np.outer(n2v, n2w)
    kern -= dot
    del dot
    np.clip(kern, 0.0, None, out=kern)
    close = safe <= diag_cutoff**2
    np.copyto(safe, 1.0, where=close)
    pref = (beta / (2.0 * np.pi)) ** ((1.0 - dim) / 2.0)
    try:
        with np.errstate(over="raise"):
            kern *= 0.5 * beta
            kern /= safe
            np.exp(kern, out=kern)
            kern *= pref
    except FloatingPointError as exc:
        raise NumericalQualityError("rayleigh kernel overflows; lower v_max") from exc
    if dim == 3:
        kern /= np.sqrt(safe, out=safe)
    kern[close] = 0.0
    return kern


def build_rayleigh(spec):
    d, beta = spec.dim, spec.beta
    radii, radial_w, mass_defect = _maxwell_radial_quadrature(spec)

    if d == 2:
        m = spec.n_angular
        ang = 2.0 * np.pi * np.arange(m) / m
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
        ang_w = np.full(m, 1.0 / m)
    else:
        mu, mu_w = leggauss(spec.n_polar)
        m = spec.n_angular
        phi = 2.0 * np.pi * np.arange(m) / m
        s = np.sqrt(1.0 - mu**2)
        dirs = np.stack(
            [
                np.outer(s, np.cos(phi)).ravel(),
                np.outer(s, np.sin(phi)).ravel(),
                np.outer(mu, np.ones(m)).ravel(),
            ],
            axis=1,
        )
        ang_w = np.outer(0.5 * mu_w, np.full(m, 1.0 / m)).ravel()

    nodes = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, d)
    weights = np.outer(radial_w, ang_w).ravel()
    total = weights.sum()
    weights = weights / total

    diag_cutoff = spec.diag_cutoff if d == 3 else 0.0
    sigma = rayleigh_kernel(nodes, nodes, beta, d, diag_cutoff)
    np.fill_diagonal(sigma, 0.0)
    n_cut = int(np.count_nonzero(sigma == 0.0) - nodes.shape[0])
    sigma = _exact_symmetrize(sigma)

    chi = 2.0 if d == 2 else np.pi
    # the rate inequality lambda >= chi|v| degrades within ~one thermal
    # width of the truncation radius (the scattering ridge is cut there);
    # record the margins instead of failing on the boundary shells
    interior = np.linalg.norm(nodes, axis=1) <= 0.8 * spec.cutoff_radius
    model = VelocityModel(
        nodes=nodes,
        weights=weights,
        drift=nodes.copy(),
        sigma=sigma,
        name="rayleigh",
        meta={
            "beta": beta,
            "chi": chi,
            "mass_defect": float(mass_defect),
            "n_cutoff_pairs": n_cut,
            "n_radial": spec.n_radial,
            "radii": radii.tolist(),
            "lambda_at_zero": float(
                weights @ rayleigh_kernel(np.zeros((1, d)), nodes, beta, d)[0]
            ),
        },
    )
    ratio = model.rates / np.maximum(chi * np.linalg.norm(nodes, axis=1), 1e-300)
    model.meta["min_rate_ratio"] = float(ratio.min())
    model.meta["min_rate_ratio_interior"] = float(ratio[interior].min())
    model.validate()
    if model.meta["min_rate_ratio_interior"] < 1.0:
        raise NumericalQualityError(
            "rayleigh rate fell below chi*|v| away from the truncation edge; "
            "refine the quadrature"
        )
    return model


def build_phonon(spec):
    d, n = spec.dim, spec.n_per_axis
    axis = (np.arange(n) + 0.5) / n
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.full(nodes.shape[0], 1.0 / nodes.shape[0])

    s2 = np.sin(np.pi * nodes) ** 2  # (n_v, d)
    omega = np.sqrt(spec.nu + 4.0 * s2.sum(axis=1))
    drift = np.sin(2.0 * np.pi * nodes) / omega[:, None]
    # the grid is symmetric under k -> 1-k, which flips sin(2 pi k) exactly
    sigma = _exact_symmetrize(s2 @ s2.T)
    model = VelocityModel(
        nodes=nodes,
        weights=weights,
        drift=drift,
        sigma=sigma,
        name="phonon",
        meta={
            "nu": spec.nu,
            "n_per_axis": n,
            "surrogate_dim1": d == 1,
            "max_b2_over_lambda": float(
                np.max(np.sum(drift**2, axis=1) / (sigma @ weights))
            ),
        },
    )
    model.validate()
    return model


@dataclass(frozen=True)
class RayleighBoundReport:
    chi: float
    z: float
    zeta: float
    xi_inf_norm: float
    bound_satisfied: bool
    radial_xi: np.ndarray
    radii: np.ndarray
    cross_check_gap: float


def rayleigh_xi_bound(model):
    """Radial contraction bound on xi for a model built by build_rayleigh.

    Reduces the gain operator to the radial grid through the angular
    average with weight (v_hat . w_hat), estimates the contraction factor
    z = sup (A lambda)/lambda, and solves the radial fixed point
    eta = id + A eta, reporting |xi|_inf = max eta/lambda against 1/zeta
    with zeta = chi (1 - z).  Cross-checks the radial profile against the
    full-grid Poisson solution projected on the radial direction.
    """
    if model.name != "rayleigh":
        raise DomainError("bound report is specific to the rayleigh model")
    chi = model.meta["chi"]
    radii = np.asarray(model.meta["radii"], dtype=float)
    norms = np.linalg.norm(model.nodes, axis=1)
    # group nodes by radius; representative = first node of each shell
    shell = np.rint(
        np.searchsorted(radii, norms - 1e-12 * max(1.0, radii[-1]))
    ).astype(int)
    n_r = radii.size
    reps = np.array([np.nonzero(shell == a)[0][0] for a in range(n_r)])

    vhat = model.nodes / norms[:, None]
    lam_r = model.rates[reps]

    A = np.zeros((n_r, n_r))
    for a in range(n_r):
        i = reps[a]
        coupling = model.weights * model.sigma[i] * (vhat[i] @ vhat.T)
        for b in range(n_r):
            A[a, b] = coupling[shell == b].sum()

    a_lambda = A.sum(axis=1)  # (A lambda)(rho_a) since eta/lambda = 1
    z = float(np.max(a_lambda / lam_r))
    if z >= 1.0:
        raise NumericalQualityError(
            f"radial contraction estimate z = {z:.6f} >= 1; grid too coarse"
        )
    zeta = chi * (1.0 - z)

    # eta = sum_k A'^k id with (A' f)(rho) = (A (f/lambda))(rho)
    a_prime = A / lam_r[None, :]
    eta = np.linalg.solve(np.eye(n_r) - a_prime, radii)
    if np.any(eta < 0):
        raise NumericalQualityError("radial series produced a negative profile")
    gamma = eta / lam_r
    xi_inf = float(np.max(gamma))

    sol = poisson_solve(model)
    gamma_full = np.einsum("ia,ia->i", vhat, sol.xi)
    gap = float(np.max(np.abs(gamma_full[reps] - gamma)))

    return RayleighBoundReport(
        chi=chi,
        z=z,
        zeta=zeta,
        xi_inf_norm=xi_inf,
        bound_satisfied=bool(xi_inf <= 1.0 / zeta + 1e-10),
        radial_xi=gamma,
        radii=radii,
        cross_check_gap=gap,
    )


#: model kind -> (spec, builder); the spec's fields are a config's model keys
MODELS = {"lorentz": (LorentzSpec, build_lorentz), "phonon": (PhononSpec, build_phonon),
          "rayleigh": (RayleighSpec, build_rayleigh)}


def build_model(name, **kwargs):
    """Build the ``name`` model from its spec fields."""
    if name not in MODELS:
        raise ConfigError(f"unknown model '{name}'")
    spec_cls, build = MODELS[name]
    return build(spec_cls(**kwargs))
