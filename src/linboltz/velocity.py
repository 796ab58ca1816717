"""Discrete velocity space: scattering operators, Poisson solve, diffusion matrix.

A :class:`VelocityModel` packages a quadrature (nodes, weights) of the
reference velocity measure together with the symmetric scattering kernel
``S`` and the drift ``b``.  From these the jump generator

    (L g)_i = sum_j w_j S_ij (g_j - g_i)

and the one-step transition operator

    (K g)_i = sum_j w_j S_ij g_j / lambda_i,   lambda_i = sum_j w_j S_ij,

are assembled.  K is self-adjoint, and I - K positive semidefinite, in L^2 of
the tilted measure w~_i = lambda_i w_i / <lambda>, and the diffusion matrix is

    D = sum_i w_i b_i (x) xi_i,   with  (-L) xi = lambda (I - K) xi = b,

solved by conjugate gradients in that measure (:func:`poisson_solve`).
"""

import hashlib
import json
import numbers
import os
import zipfile
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
CENTERING_TOL = 1e-12  # largest |pi(b)| that a VelocityModel accepts
PSD_TOL = 1e-10  # relative tolerance of diffusion_matrix's semidefiniteness test
DENSE_RESIDUAL_TOL = 1e-9  # poisson_solve_dense's largest residual / max(1, max|b|)


@dataclass(frozen=True)
class VelocityModel:
    """Immutable discretized velocity space.

    nodes:   (n_v, n_c) model-specific coordinates (n_c columns)
    weights: (n_v,) probability weights, sum to 1
    drift:   (n_v, d) drift vectors b_i, d the spatial dimension ``dim_x``
    sigma:   (n_v, n_v) symmetric nonnegative kernel S_ij

    A model is valid by construction (``dataclasses.replace`` included): its
    five hypotheses are checked once, each failure a NumericalQualityError:
    nonnegative weights summing to 1 (to 1e-12), an exactly symmetric and
    nonnegative kernel (detailed balance), and a centered drift, |pi(b)| <=
    ``CENTERING_TOL``, without which (-L) xi = b has no solution.
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
        if np.any(weights < 0):
            raise NumericalQualityError("negative quadrature weight")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise NumericalQualityError("weights do not sum to 1")
        if not np.array_equal(sigma, sigma.T):
            raise NumericalQualityError("scattering kernel is not exactly symmetric")
        if np.any(sigma < 0):
            raise NumericalQualityError("negative scattering kernel entry")
        centering = np.max(np.abs(weights @ drift))
        if centering > CENTERING_TOL:
            raise NumericalQualityError(f"drift not centered: |pi(b)| = {centering:.3e}"
                                        f" > {CENTERING_TOL:.3e}")
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


@dataclass(frozen=True)
class TiltedMeasure:
    """Probability weights w~_i = lambda_i w_i / <lambda>."""

    weights: np.ndarray

    @classmethod
    def of(cls, model):
        mean_rate = float(model.weights @ model.rates)
        if mean_rate <= 0:
            raise DomainError("mean scattering rate must be positive")
        w = model.rates * model.weights / mean_rate
        w.setflags(write=False)
        return cls(w)

    def inner(self, f, g):
        prod = np.asarray(f, dtype=float) * np.asarray(g, dtype=float)
        return float(self.weights @ prod.reshape(prod.shape[0], -1).sum(axis=1))


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
    flat = g.reshape(model.n_nodes, -1)
    out = np.tensordot(model.sigma, model.weights[:, None] * flat, axes=(1, 0))
    out -= model.rates[:, None] * flat
    return out.reshape(g.shape)


def apply_k(model, g):
    """(Kg)_i = sum_j w_j S_ij g_j / lambda_i; g may have trailing axes."""
    g = np.asarray(g, dtype=float)
    if g.shape[0] != model.n_nodes:
        raise UsageError("g must be defined on the velocity nodes")
    if np.any(model.rates <= 0):
        raise DomainError("K undefined at a node with lambda = 0")
    flat = g.reshape(model.n_nodes, -1)
    num = np.tensordot(model.sigma, model.weights[:, None] * flat, axes=(1, 0))
    return (num / model.rates[:, None]).reshape(g.shape)


def require_ergodic(model):
    """DomainError unless the jump chain is irreducible, which every route to D needs:
    lambda > 0 everywhere, and node 0 reaching every node by jumps i -> j with w_j S_ij > 0."""
    jumps = model.sigma > 0
    jumps &= model.weights > 0
    reached = frontier = np.arange(model.n_nodes) == 0
    while frontier.any():
        frontier = jumps[frontier].any(axis=0) & ~reached
        reached |= frontier
    if np.any(model.rates <= 0) or not reached.all():
        raise DomainError(f"the jump chain needs lambda > 0 at every node and one class: "
                          f"node 0 reaches {reached.sum()} of the {model.n_nodes} nodes")


def poisson_solve(model, tol=1e-12):
    """Solve (-L) xi = b for the mean-zero (in the tilted measure) solution.

    Conjugate gradients from 0 on (I - K) xi = b / lambda in L^2 of the tilted
    measure, all drift columns stacked into one vector.  ``tol`` bounds
    max|-L xi - b| = max|lambda r|: the updated residual r below it stops the
    steps; the true one, once the tilted mean is removed, is reported.  A true
    residual at or above ``tol``, a breakdown <p, (I - K) p> <= 0 or 2 n_v steps
    (n_v in exact arithmetic) raise :class:`ConvergenceError`.
    """
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < np.inf:
        raise UsageError(f"tol must be a positive finite number, not {tol!r}")
    require_ergodic(model)
    tilted = TiltedMeasure.of(model)
    lam, cap, steps, pap = model.rates[:, None], 2 * model.n_nodes, 0, 1.0
    xi, r = np.zeros_like(model.drift), model.drift / lam
    p, rr = r, tilted.inner(r, r)
    while np.max(np.abs(lam * r)) >= tol and steps < cap and pap > 0:
        ap = p - apply_k(model, p)
        pap = tilted.inner(p, ap)
        if pap > 0:
            steps += 1
            xi += (rr / pap) * p
            r = r - (rr / pap) * ap
            rr, rr_old = tilted.inner(r, r), rr
            p = r + (rr / rr_old) * p
    xi -= tilted.weights @ xi
    residual = float(np.max(np.abs(-apply_generator(model, xi) - model.drift)))
    if not (np.max(np.abs(lam * r)) < tol and residual < tol):
        raise ConvergenceError(f"conjugate gradients did not reach tol={tol:g} in {steps} of {cap} "
                               f"steps (last <p, (I - K) p> = {pap:.3e})", residual, steps)
    return PoissonSolution(xi, residual, steps)


def poisson_solve_dense(model):
    """Dense least-squares oracle for the Poisson equation (small models); a residual
    above DENSE_RESIDUAL_TOL max(1, max|b|) is a :class:`NumericalQualityError`."""
    require_ergodic(model)
    L = model.sigma * model.weights[None, :] - np.diag(model.rates)
    xi, *_ = np.linalg.lstsq(-L, model.drift, rcond=None)
    xi = xi - TiltedMeasure.of(model).weights @ xi
    residual = float(np.max(np.abs(-L @ xi - model.drift)))
    bound = DENSE_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(model.drift))))
    if residual > bound:
        raise NumericalQualityError(f"dense Poisson residual {residual:.3e} > {bound:.3e}")
    return PoissonSolution(xi, residual, model.n_nodes)


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
    require_ergodic(model)
    tilted = TiltedMeasure.of(model)
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
    ``model-v2`` one included, as its fingerprint did not cover ``nodes``), an
    ``arrays`` that is not the base name of a file beside it, a sidecar that
    cannot be read or lacks one of the arrays, arrays that make no model
    (mismatched shapes, or arrays that break one of the hypotheses
    :class:`VelocityModel` checks), arrays whose fingerprint is not the
    header's (a sidecar of another model), or a ``dim_x`` other than the
    drift's number of columns.
    """
    try:
        with open(path) as fh:
            header = json.load(fh)
    except (OSError, ValueError) as exc:  # missing, not JSON, not UTF-8
        raise ConfigError(f"cannot read model file {path}: {exc}") from exc
    keys = ("schema", "name", "dim_x", "meta", "fingerprint", "arrays")
    if not isinstance(header, dict) or header.get("schema") != MODEL_SCHEMA:
        raise ConfigError(f"{path} is not a {MODEL_SCHEMA} model file")
    missing = sorted(set(keys) - set(header))
    if missing:
        raise ConfigError(f"model file {path} lacks the keys {missing}")
    name = header["arrays"]
    if not isinstance(name, str) or name in ("", ".", "..") or name != os.path.basename(name):
        raise ConfigError(f"model file {path}: arrays {json.dumps(name)} is not the base "
                          "name of a file beside it")
    sidecar = os.path.join(os.path.dirname(path), name)
    try:
        with np.load(sidecar, allow_pickle=False) as npz:
            missing = sorted(set(MODEL_ARRAYS) - set(npz.files))
            if missing:
                raise ConfigError(f"model arrays {sidecar} lack {missing}")
            arrays = {key: npz[key] for key in MODEL_ARRAYS}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"cannot read the model arrays {sidecar}: {exc}") from exc
    try:
        model = VelocityModel(**arrays, name=header["name"], meta=header["meta"])
    except (UsageError, NumericalQualityError, ValueError, TypeError) as exc:
        raise ConfigError(f"model file {path} does not describe a model: {exc}") from exc
    if model.fingerprint != header["fingerprint"]:
        raise ConfigError(f"the arrays in {sidecar} are not those of the model {path} "
                          f"describes (fingerprint {model.fingerprint})")
    if type(header["dim_x"]) is not int or header["dim_x"] != model.dim_x:
        raise ConfigError(f"model file {path} does not describe a model: dim_x "
                          f"{json.dumps(header['dim_x'])} is not the {model.dim_x} "
                          "columns of its drift")
    return model
