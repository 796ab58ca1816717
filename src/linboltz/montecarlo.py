"""Monte Carlo cross-check of the diffusion matrix.

Simulates the velocity jump chain (holding time Exponential(lambda_i),
jump i -> j with probability w_j S_ij / lambda_i) started from the
reference measure, accumulates the displacement X_T = int_0^T b(V_s) ds,
and estimates D_hat = E[X_T (x) X_T] / (2T).  Uncertainty comes from batch
means; reproducibility from deterministic per-batch substreams of the
seed, with a fixed round-major draw layout inside each batch so the result
never depends on scheduling.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class McConfig:
    n_paths: int = 100000
    horizon: float = 50.0
    seed: int = 0
    n_batches: int = 32

    def __post_init__(self):
        if self.n_paths < self.n_batches or self.n_batches < 2:
            raise ConfigError("need n_paths >= n_batches >= 2")
        if self.horizon <= 0 or self.seed < 0:
            raise ConfigError("need a positive horizon and a nonnegative seed")


@dataclass(frozen=True)
class McEstimate:
    d_hat: np.ndarray
    stderr: np.ndarray
    n_paths: int
    batch_estimates: np.ndarray


def _transition_cumulatives(model):
    P = model.sigma * model.weights[None, :] / model.rates[:, None]
    return np.cumsum(P, axis=1)


def sample_path(model, T, rng):
    """Single trajectory; returns (X_T, jump_count).  Reference version."""
    cumw = np.cumsum(model.weights)
    cumP = _transition_cumulatives(model)
    i = int(np.searchsorted(cumw, rng.random()))
    x = np.zeros(model.drift.shape[1])
    t = 0.0
    jumps = 0
    while True:
        hold = rng.exponential() / model.rates[i]
        if t + hold >= T:
            x += (T - t) * model.drift[i]
            return x, jumps
        x += hold * model.drift[i]
        t += hold
        i = min(
            int(np.searchsorted(cumP[i], rng.random())), model.n_nodes - 1
        )
        jumps += 1


def _run_batch(model, T, n, rng):
    """Vectorized batch of n paths with a fixed round-major draw layout."""
    cumw = np.cumsum(model.weights)
    cumP = _transition_cumulatives(model)
    d = model.drift.shape[1]
    idx = np.searchsorted(cumw, rng.random(n))
    np.clip(idx, 0, model.n_nodes - 1, out=idx)
    x = np.zeros((n, d))
    t_rem = np.full(n, T)
    active = np.ones(n, dtype=bool)
    while np.any(active):
        # draws happen for every path each round, finished or not, so the
        # stream layout is independent of which paths finish first
        holds = rng.exponential(size=n) / model.rates[idx]
        u_jump = rng.random(n)
        step = np.where(active, np.minimum(holds, t_rem), 0.0)
        x += step[:, None] * model.drift[idx]
        will_jump = active & (holds < t_rem)
        t_rem -= step
        active = t_rem > 0
        if np.any(will_jump):
            rows = cumP[idx[will_jump]]
            nxt = (rows < u_jump[will_jump, None]).sum(axis=1)
            idx[will_jump] = np.minimum(nxt, model.n_nodes - 1)
    return x


def estimate_D(model, config):
    """Batch-means estimate of D with per-entry standard errors."""
    ss = np.random.SeedSequence(config.seed)
    children = ss.spawn(config.n_batches)
    base, extra = divmod(config.n_paths, config.n_batches)
    d = model.drift.shape[1]
    batch_D = np.empty((config.n_batches, d, d))
    for b in range(config.n_batches):
        n = base + (1 if b < extra else 0)
        rng = np.random.default_rng(children[b])
        x = _run_batch(model, config.horizon, n, rng)
        batch_D[b] = (x.T @ x) / (n * 2.0 * config.horizon)
    d_hat = batch_D.mean(axis=0)
    d_hat = 0.5 * (d_hat + d_hat.T)
    stderr = batch_D.std(axis=0, ddof=1) / np.sqrt(config.n_batches)
    return McEstimate(
        d_hat=d_hat,
        stderr=stderr,
        n_paths=config.n_paths,
        batch_estimates=batch_D,
    )


def write_mc_csv(estimate, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        d = estimate.d_hat.shape[0]
        header = ["batch_id"] + [f"d{a}{b}" for a in range(d) for b in range(d)]
        writer.writerow(["# schema=mc-batches-v1"])
        writer.writerow(header)
        for b, mat in enumerate(estimate.batch_estimates):
            writer.writerow([b] + [f"{v:.12g}" for v in mat.ravel()])


def write_mc_json(estimate, config, path):
    payload = {
        "d_hat": estimate.d_hat.tolist(),
        "stderr": estimate.stderr.tolist(),
        "n_paths": estimate.n_paths,
        "horizon": config.horizon,
        "seed": config.seed,
        "n_batches": config.n_batches,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
