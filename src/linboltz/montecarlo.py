"""Monte Carlo cross-check of the diffusion matrix.

Simulates the velocity jump chain (holding time Exponential(lambda_i),
jump i -> j with probability w_j S_ij / lambda_i) started from the
reference measure, accumulates the displacement X_T = int_0^T b(V_s) ds,
and estimates D_hat = E[X_T (x) X_T] / (2T).  Uncertainty comes from batch
means; reproducibility from deterministic per-batch substreams of the
seed, with a fixed round-major draw layout inside each batch so the result
never depends on scheduling.

Each round draws one exponential hold and one uniform u for every path of
the batch, running or not.  A jump from node i goes to the first j with
u <= cumP[i, j], i.e. to count(cumP[i] < u) (capped at n - 1).  That count
comes from a guide table ("indexed search", Chen & Asau 1974; Devroye 1986
sec. III.2.4): ``g[i, m] = count(cumP[i] < m/K)`` for a power of two K ~ 2n
is looked up at m = floor(u K) and finished by a few comparisons, O(1)
expected instead of the O(n) scan of the row, and exactly the scan's
count because the rows are nondecreasing.  Alias tables (Walker 1977; Vose
1991) would also be O(1), but they map u to a different node, so every
estimate would change with them; the guide table keeps every result bit
for bit.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_memory
from .velocity import require_ergodic


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
    batch_estimates: np.ndarray


def _transition_cumulatives(model):
    P = model.sigma * model.weights[None, :] / model.rates[:, None]
    return np.cumsum(P, axis=1)


@dataclass(frozen=True)
class _JumpTable:
    """Guide table of the jump chain's cumulative rows (Chen & Asau 1974).

    guide:  (n_rows * K,) int32, row-major ``g[i, m] = count(cum[i] < m/K)``
    padded: (n_rows * (n_cols + 1),) the rows of ``cum``, each ended by +inf
    """

    guide: np.ndarray
    padded: np.ndarray
    K: int
    n_cols: int


def _jump_table(cum):
    """The guide table of the nondecreasing rows of ``cum``.

    K is the power of two in [2 n, 4 n), so ``u * K`` and ``m / K`` are exact
    and a bucket holds half an entry on average.
    """
    n_rows, n_cols = cum.shape
    # the guide (up to 4 n int32 per row) and the padded rows
    require_memory((n_rows, 3 * n_cols + 1), "the jump chain's guide table")
    K = 1 << (2 * n_cols - 1).bit_length()
    edges = np.arange(K) / K
    guide = np.empty((n_rows, K), dtype=np.int32)
    for i, row in enumerate(cum):
        guide[i] = np.searchsorted(row, edges)
    padded = np.full((n_rows, n_cols + 1), np.inf)
    padded[:, :n_cols] = cum
    return _JumpTable(guide.ravel(), padded.ravel(), K, n_cols)


def _count_below(table, rows, u):
    """``count(cum[rows[k]] < u[k])`` for each k, with u in [0, 1).

    The guide entry at bucket floor(u K) counts the row entries below the
    bucket's lower edge; the count is then finished by comparing the next
    entry with u, only for the draws it has not resolved yet.
    """
    stride = table.n_cols + 1
    base = rows * stride
    pos = base + table.guide.take(rows * table.K + (u * table.K).astype(np.intp))
    pending = np.flatnonzero(table.padded.take(pos) < u)
    while pending.size:
        pos[pending] += 1
        pending = pending[table.padded.take(pos[pending]) < u[pending]]
    return pos - base


def _run_batch(model, T, n, rng, table):
    """Vectorized batch of n paths with a fixed round-major draw layout.

    ``table`` is the :func:`_jump_table` of the model's transition rows.
    """
    last = model.n_nodes - 1
    node = np.searchsorted(np.cumsum(model.weights), rng.random(n))
    np.clip(node, 0, last, out=node)
    x = np.zeros((n, model.drift.shape[1]))
    # the running paths: their ids, nodes, remaining times and displacements
    live, t_rem, x_live = np.arange(n), np.full(n, T), x.copy()
    while live.size:
        # draws happen for every path each round, finished or not, so the
        # stream layout is independent of which paths finish first
        holds = rng.exponential(size=n)
        u_jump = rng.random(n)
        if live.size < n:
            holds, u_jump = holds[live], u_jump[live]
        holds /= model.rates.take(node)
        step = np.minimum(holds, t_rem)
        x_live += step[:, None] * np.take(model.drift, node, axis=0)
        # a path jumps iff its hold ends before its time; then t_rem - hold > 0 and
        # it runs on, else it has used up its time
        jump = holds < t_rem
        t_rem -= step
        if not jump.all():
            done = ~jump
            x[live[done]] = x_live[done]
            live, node, t_rem, x_live = live[jump], node[jump], t_rem[jump], x_live[jump]
            u_jump = u_jump[jump]
        np.minimum(_count_below(table, node, u_jump), last, out=node)
    return x


def estimate_D(model, config):
    """Batch-means estimate of D with per-entry standard errors of an ergodic chain."""
    require_ergodic(model)
    base, extra = divmod(config.n_paths, config.n_batches)
    d = model.drift.shape[1]
    # x, its running copy, the drift gathered for it and ~8 per-path vectors
    require_memory((base + (extra > 0), 3 * d + 8), "one Monte Carlo batch")
    require_memory((config.n_batches, d, d), "the Monte Carlo batch estimates")
    table = _jump_table(_transition_cumulatives(model))
    batch_D = np.empty((config.n_batches, d, d))
    for b in range(config.n_batches):
        n = base + (1 if b < extra else 0)
        # the b-th child of SeedSequence(seed).spawn(n_batches), made alone
        child = np.random.SeedSequence(config.seed, spawn_key=(b,))
        x = _run_batch(model, config.horizon, n, np.random.default_rng(child), table)
        batch_D[b] = (x.T @ x) / (n * 2.0 * config.horizon)
    d_hat = batch_D.mean(axis=0)
    d_hat = 0.5 * (d_hat + d_hat.T)
    stderr = batch_D.std(axis=0, ddof=1) / np.sqrt(config.n_batches)
    return McEstimate(d_hat=d_hat, stderr=stderr, batch_estimates=batch_D)


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
        "n_paths": config.n_paths,
        "horizon": config.horizon,
        "seed": config.seed,
        "n_batches": config.n_batches,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
