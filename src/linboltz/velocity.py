"""Discrete velocity space: scattering operators, Poisson solve, diffusion matrix.

A :class:`VelocityModel` packages a quadrature (nodes, weights) of the
reference velocity measure together with the symmetric scattering kernel
``S`` and the drift ``b``.  From these the jump generator

    (L g)_i = sum_j w_j S_ij (g_j - g_i)

and the one-step transition operator

    (K g)_i = sum_j w_j S_ij g_j / lambda_i,   lambda_i = sum_j w_j S_ij,

are assembled.  K is self-adjoint in L^2 of the tilted measure
w~_i = lambda_i w_i / <lambda>, and the diffusion matrix is

    D = sum_i w_i b_i (x) xi_i,   with  (-L) xi = b.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    NumericalQualityError,
    UsageError,
    require_memory,
)

MODEL_SCHEMA = "model-v3"
MODEL_ARRAYS = ("nodes", "weights", "drift", "sigma")
CENTERING_TOL = 1e-12  # largest |pi(b)| that VelocityModel.validate accepts
PSD_TOL = 1e-10  # relative tolerance of diffusion_matrix's semidefiniteness test
POISSON_MAX_ITER = 100000  # poisson_solve's step limit
POISSON_DAMPING = 0.5  # and the weight theta of each new fixed-point iterate


@dataclass(frozen=True)
class VelocityModel:
    """Immutable discretized velocity space.

    nodes:   (n_v, n_c) model-specific coordinates (n_c columns)
    weights: (n_v,) probability weights, sum to 1
    drift:   (n_v, d) drift vectors b_i, d the spatial dimension ``dim_x``
    sigma:   (n_v, n_v) symmetric nonnegative kernel S_ij
    """

    nodes: np.ndarray
    weights: np.ndarray
    drift: np.ndarray
    sigma: np.ndarray
    name: str = "custom"
    meta: dict = field(default_factory=dict)
    rates: np.ndarray = field(init=False)

    def __post_init__(self):
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        if nodes.shape[0] == 1 and np.asarray(self.nodes).ndim == 1:
            nodes = nodes.T
        weights = np.asarray(self.weights, dtype=float)
        drift = np.atleast_2d(np.asarray(self.drift, dtype=float))
        if drift.shape[0] == 1 and np.asarray(self.drift).ndim == 1:
            drift = drift.T
        sigma = np.asarray(self.sigma, dtype=float)
        n = weights.size
        if nodes.shape[0] != n or drift.shape[0] != n or sigma.shape != (n, n):
            raise UsageError("inconsistent array sizes in VelocityModel")
        rates = sigma @ weights
        for arr in (nodes, weights, drift, sigma, rates):
            arr.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "rates", rates)

    @property
    def n_nodes(self):
        return self.weights.size

    @property
    def dim_x(self):
        return self.drift.shape[1]

    @property
    def fingerprint(self):
        """sha256 of the name, shape and bytes of each of the model's arrays
        (``MODEL_ARRAYS``: nodes, weights, drift and kernel)."""
        digest = hashlib.sha256()
        for key in MODEL_ARRAYS:
            arr = getattr(self, key)
            digest.update(f"{key}{arr.shape}".encode())
            digest.update(arr.tobytes())
        return digest.hexdigest()

    def validate(self):
        """Check the structural invariants; raises on violation."""
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise NumericalQualityError("weights do not sum to 1")
        if np.any(self.weights < 0):
            raise NumericalQualityError("negative quadrature weight")
        if not np.array_equal(self.sigma, self.sigma.T):
            raise NumericalQualityError("scattering kernel is not exactly symmetric")
        if np.any(self.sigma < 0):
            raise NumericalQualityError("negative scattering kernel entry")
        centering = np.max(np.abs(self.weights @ self.drift))
        if centering > CENTERING_TOL:
            raise NumericalQualityError(
                f"drift not centered: |pi(b)| = {centering:.3e} > {CENTERING_TOL:.3e}"
            )
        return True


@dataclass(frozen=True)
class TiltedMeasure:
    """Probability weights w~_i = lambda_i w_i / <lambda>."""

    weights: np.ndarray
    mean_rate: float

    @classmethod
    def of(cls, model):
        mean_rate = float(model.weights @ model.rates)
        if mean_rate <= 0:
            raise DomainError("mean scattering rate must be positive")
        w = model.rates * model.weights / mean_rate
        w.setflags(write=False)
        return cls(w, mean_rate)

    def inner(self, f, g):
        prod = np.asarray(f, dtype=float) * np.asarray(g, dtype=float)
        return float(self.weights @ prod.reshape(prod.shape[0], -1).sum(axis=1))

    def norm(self, g):
        g = np.asarray(g, dtype=float)
        sq = (g * g).reshape(g.shape[0], -1).sum(axis=1)
        return float(np.sqrt(self.weights @ sq))


@dataclass(frozen=True)
class PoissonSolution:
    xi: np.ndarray
    residual: float
    iterations: int


def apply_generator(model, g):
    """(Lg)_i = sum_j w_j S_ij (g_j - g_i); g may have trailing axes."""
    g = np.asarray(g, dtype=float)
    if g.shape[0] != model.n_nodes:
        raise UsageError("g must be defined on the velocity nodes")
    wg = model.weights[:, None] * g if g.ndim > 1 else model.weights * g
    return np.tensordot(model.sigma, wg, axes=(1, 0)) - (
        model.rates[:, None] * g if g.ndim > 1 else model.rates * g
    )


def apply_k(model, g):
    """(Kg)_i = sum_j w_j S_ij g_j / lambda_i."""
    g = np.asarray(g, dtype=float)
    if g.shape[0] != model.n_nodes:
        raise UsageError("g must be defined on the velocity nodes")
    if np.any(model.rates <= 0):
        raise DomainError("K undefined at a node with lambda = 0")
    wg = model.weights[:, None] * g if g.ndim > 1 else model.weights * g
    num = np.tensordot(model.sigma, wg, axes=(1, 0))
    return num / (model.rates[:, None] if g.ndim > 1 else model.rates)


def poisson_solve(model, tol=1e-12):
    """Solve (-L) xi = b for the mean-zero (in the tilted measure) solution.

    Uses the damped fixed-point xi <- (1-theta) xi + theta (K xi + b/lambda),
    theta = POISSON_DAMPING, which converges whenever K has a spectral gap at
    +1, even when K has eigenvalues near -1 where the plain series oscillates.
    The tilted mean of every component is removed after each step to pin the
    constant mode; POISSON_MAX_ITER steps without reaching ``tol`` raise
    :class:`ConvergenceError`.
    """
    if np.any(model.rates <= 0):
        raise DomainError("Poisson solve requires lambda > 0 at every node")
    tilted = TiltedMeasure.of(model)
    h = model.drift / model.rates[:, None]
    xi = h - tilted.weights @ h
    for it in range(1, POISSON_MAX_ITER + 1):
        nxt = (1.0 - POISSON_DAMPING) * xi + POISSON_DAMPING * (apply_k(model, xi) + h)
        nxt = nxt - tilted.weights @ nxt
        increment = tilted.norm(nxt - xi)
        xi = nxt
        if increment < tol:
            residual = float(np.max(np.abs(-apply_generator(model, xi) - model.drift)))
            return PoissonSolution(xi, residual, it)
    residual = float(np.max(np.abs(-apply_generator(model, xi) - model.drift)))
    raise ConvergenceError(
        f"Poisson iteration did not reach tol={tol:g} in {POISSON_MAX_ITER} steps",
        residual=residual,
        iterations=POISSON_MAX_ITER,
    )


def poisson_solve_dense(model):
    """Dense least-squares oracle for the Poisson equation (small models)."""
    n = model.n_nodes
    L = model.sigma * model.weights[None, :] - np.diag(model.rates)
    xi, *_ = np.linalg.lstsq(-L, model.drift, rcond=None)
    tilted = TiltedMeasure.of(model)
    xi = xi - tilted.weights @ xi
    residual = float(np.max(np.abs(-L @ xi - model.drift)))
    return PoissonSolution(xi, residual, n)


def diffusion_matrix(model, solution):
    """D = sum_i w_i b_i (x) xi_i, symmetrized; PSD checked."""
    raw = np.einsum("i,ia,ib->ab", model.weights, model.drift, solution.xi)
    D = 0.5 * (raw + raw.T)
    asym = float(np.max(np.abs(raw - raw.T)))
    evals = np.linalg.eigvalsh(D)
    if evals.min() < -PSD_TOL * max(1.0, evals.max()):
        raise NumericalQualityError(
            f"diffusion matrix not positive semidefinite: min eig {evals.min():.3e}"
        )
    return D, asym


def spectral_gap_probe(model):
    """Second-largest (signed) eigenvalue of K and the resulting gap.

    Forms the symmetrized operator sqrt(w~) K / sqrt(w~) with the constant
    mode deflated and solves it densely.  Returns (lambda_2, gap, c0_proxy)
    with gap = 1 - lambda_2 and c0_proxy = 1/gap.
    """
    tilted = TiltedMeasure.of(model)
    if np.any(model.rates <= 0):
        raise DomainError("K undefined at a node with lambda = 0")
    n = model.n_nodes
    # sym, its symmetric part and eigvalsh's copy of that
    require_memory((3, n, n), "the spectral gap probe's dense matrix")
    sqw = np.sqrt(tilted.weights)
    inv_sqw = np.divide(1.0, sqw, out=np.zeros_like(sqw), where=sqw > 0)
    # sqrt(w~) K / sqrt(w~), K = S w / lambda, built in place; the constant
    # mode (eigenvalue 1) is shifted to -2, strictly below the rest of the
    # spectrum, so the top eigenvalue is lambda_2 itself
    sym = np.multiply(model.sigma, model.weights[None, :])
    sym /= model.rates[:, None]
    sym *= sqw[:, None]
    sym *= inv_sqw[None, :]
    part = np.outer(sqw, sqw)
    part *= 3.0
    sym -= part
    np.add(sym, sym.T, out=part)
    del sym
    part *= 0.5
    lam2 = float(np.linalg.eigvalsh(part)[-1])
    gap = 1.0 - lam2
    return lam2, gap, (1.0 / gap if gap > 0 else np.inf)


def to_file(model, path):
    """Write a model as a small JSON header at ``path`` and a binary sidecar.

    The header holds ``schema`` (``"model-v3"``), ``name``, ``dim_x``,
    ``meta``, ``fingerprint`` and ``arrays``, the base name of the sidecar:
    ``path`` with its suffix replaced by ``.npz``, in the same directory.  The
    sidecar is an uncompressed ``np.savez`` of ``nodes``, ``weights``,
    ``drift`` and ``sigma``; ``rates`` is not stored, as the model derives it.
    Both files are deterministic: ``zipfile`` stamps every entry 1980-01-01.
    """
    sidecar = os.path.splitext(path)[0] + ".npz"
    np.savez(sidecar, **{key: getattr(model, key) for key in MODEL_ARRAYS})
    header = {
        "schema": MODEL_SCHEMA,
        "name": model.name,
        "dim_x": model.dim_x,
        "meta": model.meta,
        "fingerprint": model.fingerprint,
        "arrays": os.path.basename(sidecar),
    }
    with open(path, "w") as fh:
        json.dump(header, fh, sort_keys=True, indent=1)


def from_file(path):
    """Read a model written by :func:`to_file`.

    Raises ConfigError for a file that is not a ``model-v3`` header (a
    ``model-v2`` one included, as its fingerprint did not cover ``nodes``), a
    sidecar that lacks one of the arrays, arrays that make no model
    (mismatched shapes, say), arrays whose fingerprint is not the header's (a
    sidecar of another model), a ``dim_x`` other than the drift's number of
    columns, or a model that fails :meth:`VelocityModel.validate`.
    """
    try:
        with open(path) as fh:
            header = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot read model file {path}: {exc}") from exc
    keys = ("schema", "name", "dim_x", "meta", "fingerprint", "arrays")
    if not isinstance(header, dict) or header.get("schema") != MODEL_SCHEMA:
        raise ConfigError(f"{path} is not a {MODEL_SCHEMA} model file")
    missing = sorted(set(keys) - set(header))
    if missing:
        raise ConfigError(f"model file {path} lacks the keys {missing}")
    sidecar = os.path.join(os.path.dirname(path), header["arrays"])
    with np.load(sidecar, allow_pickle=False) as npz:
        missing = sorted(set(MODEL_ARRAYS) - set(npz.files))
        if missing:
            raise ConfigError(f"model arrays {sidecar} lack {missing}")
        arrays = {key: npz[key] for key in MODEL_ARRAYS}
    try:
        model = VelocityModel(**arrays, name=header["name"], meta=header["meta"])
    except (UsageError, ValueError, TypeError) as exc:
        raise ConfigError(f"model file {path} does not describe a model: {exc}") from exc
    if model.fingerprint != header["fingerprint"]:
        raise ConfigError(f"the arrays in {sidecar} are not those of the model {path} "
                          f"describes (fingerprint {model.fingerprint})")
    if type(header["dim_x"]) is not int or header["dim_x"] != model.dim_x:
        raise ConfigError(f"model file {path} does not describe a model: dim_x "
                          f"{json.dumps(header['dim_x'])} is not the {model.dim_x} "
                          "columns of its drift")
    try:
        model.validate()
    except NumericalQualityError as exc:
        raise ConfigError(f"model file {path} does not describe a model: {exc}") from exc
    return model
