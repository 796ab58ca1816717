import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linboltz import (ConfigError, DomainError, LorentzSpec, NumericalQualityError,
                      build_lorentz, build_model)
from linboltz.montecarlo import (
    McConfig,
    _count_below,
    _jump_table,
    _run_batch,
    _transition_cumulatives,
    estimate_D,
    write_mc_csv,
    write_mc_json,
)
from linboltz.velocity import VelocityModel, diffusion_matrix, poisson_solve


def two_node_model(s=3.0, u=1.0):
    return VelocityModel(
        nodes=np.array([[0.0], [1.0]]),
        weights=np.array([0.5, 0.5]),
        drift=np.array([[u], [-u]]),
        sigma=np.array([[0.0, s], [s, 0.0]]),
    )


def run_batch(model, T, n, rng):
    return _run_batch(model, T, n, rng, _jump_table(_transition_cumulatives(model)))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            McConfig(n_paths=4, n_batches=8)
        with pytest.raises(ConfigError):
            McConfig(n_batches=1)
        with pytest.raises(ConfigError):
            McConfig(horizon=0.0)


class TestBatch:
    def test_occupation_matches_reference_measure(self):
        # start-node draws follow the weights; chi-square over 1e4 paths
        m = build_lorentz(LorentzSpec(8))
        rng = np.random.default_rng(3)
        x = run_batch(m, 0.0, 10000, rng)
        assert np.max(np.abs(x)) == 0.0  # T = 0: no displacement

    def test_agrees_with_scalar_reference_in_law(self):
        m = two_node_model(s=2.0, u=1.0)
        rng = np.random.default_rng(4)
        ref = np.array([sample_path(m, 8.0, rng)[0][0] for _ in range(4000)])
        vec = run_batch(m, 8.0, 4000, np.random.default_rng(5))[:, 0]
        # same second moment within sampling error
        m_ref, m_vec = np.mean(ref**2), np.mean(vec**2)
        pooled = np.sqrt(np.var(ref**2) / 4000 + np.var(vec**2) / 4000)
        assert abs(m_ref - m_vec) < 4.0 * pooled


class TestEstimate:
    def test_refuses_a_model_with_a_zero_rate_node(self):
        # kernel 2 between the outer nodes only: the middle node never jumps
        m = VelocityModel(nodes=np.arange(3.0)[:, None], weights=np.array([0.25, 0.5, 0.25]),
                          drift=np.array([[1.0], [0.0], [-1.0]]),
                          sigma=np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
        with pytest.raises(DomainError, match="lambda > 0"):
            estimate_D(m, McConfig(n_paths=64, horizon=1.0, n_batches=4))

    def test_bit_identical_reruns(self):
        m = two_node_model()
        cfg = McConfig(n_paths=2000, horizon=5.0, seed=11, n_batches=8)
        a = estimate_D(m, cfg)
        b = estimate_D(m, cfg)
        assert np.array_equal(a.d_hat, b.d_hat)
        assert np.array_equal(a.batch_estimates, b.batch_estimates)

    def test_seed_changes_result(self):
        m = two_node_model()
        a = estimate_D(m, McConfig(2000, 5.0, seed=1, n_batches=8))
        b = estimate_D(m, McConfig(2000, 5.0, seed=2, n_batches=8))
        assert not np.array_equal(a.d_hat, b.d_hat)

    def test_two_node_matches_spectral(self):
        m = two_node_model(s=4.0, u=1.0)
        sol = poisson_solve(m, tol=1e-13)
        D, _ = diffusion_matrix(m, sol)
        est = estimate_D(m, McConfig(20000, 40.0, seed=0, n_batches=16))
        err = abs(est.d_hat[0, 0] - D[0, 0])
        assert err < 3.0 * est.stderr[0, 0]
        assert err < 0.05 * D[0, 0]

    def test_estimate_symmetric_psd(self):
        m = build_lorentz(LorentzSpec(16))
        est = estimate_D(m, McConfig(4000, 10.0, seed=0, n_batches=8))
        assert np.array_equal(est.d_hat, est.d_hat.T)
        assert np.min(np.linalg.eigvalsh(est.d_hat)) > 0.0

    def test_stderr_shrinks_with_paths(self):
        m = two_node_model()
        small = estimate_D(m, McConfig(1000, 10.0, seed=0, n_batches=8))
        big = estimate_D(m, McConfig(16000, 10.0, seed=0, n_batches=8))
        assert big.stderr[0, 0] < small.stderr[0, 0]


class TestOutputs:
    def test_csv_and_json_deterministic(self, tmp_path):
        m = two_node_model()
        cfg = McConfig(1000, 5.0, seed=3, n_batches=4)
        est = estimate_D(m, cfg)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_mc_csv(est, a)
        write_mc_csv(est, b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0].startswith("# schema=mc-batches")

        ja, jb = tmp_path / "a.json", tmp_path / "b.json"
        write_mc_json(est, cfg, ja)
        write_mc_json(est, cfg, jb)
        assert ja.read_bytes() == jb.read_bytes()


def sample_path(model, T, rng):
    """Single trajectory; returns (X_T, jump_count).  The scalar reference of
    the batch runner."""
    cumw = np.cumsum(model.weights)
    cumP = np.cumsum(model.sigma * model.weights[None, :] / model.rates[:, None], axis=1)
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
        i = min(int(np.searchsorted(cumP[i], rng.random())), model.n_nodes - 1)
        jumps += 1


class TestSamplePath:
    def test_zero_drift_never_moves(self):
        m = VelocityModel(
            nodes=np.zeros((2, 1)),
            weights=np.array([0.5, 0.5]),
            drift=np.zeros((2, 1)),
            sigma=np.array([[0.0, 2.0], [2.0, 0.0]]),
        )
        x, jumps = sample_path(m, 5.0, np.random.default_rng(0))
        assert x[0] == 0.0
        assert jumps > 0

    def test_jump_rate_matches_lambda(self):
        # constant lambda = s/2: jump count over [0, T] averages lambda T
        s, T, n = 3.0, 10.0, 2000
        m = two_node_model(s=s)
        rng = np.random.default_rng(1)
        counts = np.array([sample_path(m, T, rng)[1] for _ in range(n)])
        lam = 0.5 * s
        assert abs(counts.mean() - lam * T) < 3.0 * np.sqrt(lam * T / n)

    def test_displacement_bounded_by_speed(self):
        m = two_node_model(u=1.0)
        rng = np.random.default_rng(2)
        for _ in range(50):
            x, _ = sample_path(m, 4.0, rng)
            assert abs(x[0]) <= 4.0 + 1e-12


def reference_run_batch(model, T, n, rng):
    """The batch runner before the guide table: an O(n_v) scan per jump."""
    cumw = np.cumsum(model.weights)
    cumP = np.cumsum(model.sigma * model.weights[None, :] / model.rates[:, None], axis=1)
    d = model.drift.shape[1]
    idx = np.searchsorted(cumw, rng.random(n))
    np.clip(idx, 0, model.n_nodes - 1, out=idx)
    x = np.zeros((n, d))
    t_rem = np.full(n, T)
    active = np.ones(n, dtype=bool)
    while np.any(active):
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


def reference_batch_estimates(model, config):
    children = np.random.SeedSequence(config.seed).spawn(config.n_batches)
    base, extra = divmod(config.n_paths, config.n_batches)
    out = []
    for b in range(config.n_batches):
        n = base + (1 if b < extra else 0)
        x = reference_run_batch(model, config.horizon, n, np.random.default_rng(children[b]))
        out.append((x.T @ x) / (n * 2.0 * config.horizon))
    return np.array(out)


ONE_ULP_BELOW_1 = np.nextafter(1.0, 0.0)
ONE_ULP_ABOVE_1 = np.nextafter(1.0, 2.0)


class TopUniforms:
    """A generator whose uniforms are all 1 - 2**-53, so that a jump from a
    row summing to less lands past its end and is capped at node n - 1."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, n):
        return np.full(n, ONE_ULP_BELOW_1)

    def exponential(self, size):
        return self.rng.exponential(size=size)


SAMPLER_MODELS = {
    "two-node": two_node_model,
    "lorentz-64": lambda: build_model("lorentz", n_nodes=64),
    "rayleigh-2d-120": lambda: build_model("rayleigh", dim=2, n_radial=10, n_angular=12),
    "phonon-2d-36": lambda: build_model("phonon", dim=2, n_per_axis=6),
}


class TestGuideTableSampler:
    @pytest.mark.parametrize("name", sorted(SAMPLER_MODELS))
    @pytest.mark.parametrize("T", [0.0, 0.7, 6.0])
    def test_batch_is_bit_identical_to_the_scan(self, name, T):
        m = SAMPLER_MODELS[name]()
        new = run_batch(m, T, 517, np.random.default_rng(21))
        ref = reference_run_batch(m, T, 517, np.random.default_rng(21))
        assert np.array_equal(new, ref)

    @pytest.mark.parametrize("name", sorted(SAMPLER_MODELS))
    def test_draws_past_the_row_end_are_capped_like_the_scan(self, name):
        m = SAMPLER_MODELS[name]()
        new = run_batch(m, 3.0, 64, TopUniforms(2))
        assert np.array_equal(new, reference_run_batch(m, 3.0, 64, TopUniforms(2)))

    @pytest.mark.parametrize("name", sorted(SAMPLER_MODELS))
    def test_estimate_is_bit_identical_to_the_scan(self, name):
        m = SAMPLER_MODELS[name]()
        cfg = McConfig(n_paths=1003, horizon=4.0, seed=5, n_batches=8)
        assert np.array_equal(estimate_D(m, cfg).batch_estimates,
                              reference_batch_estimates(m, cfg))

    def test_decreasing_cumulatives_are_refused(self):
        # the guide table's count equals the scan's only on nondecreasing rows,
        # the cumulative sums of a nonnegative kernel: no model has another
        with pytest.raises(NumericalQualityError, match="negative scattering kernel"):
            VelocityModel(
                nodes=np.zeros((3, 1)), weights=np.full(3, 1.0 / 3.0),
                drift=np.array([[1.0], [-1.0], [0.0]]),
                sigma=np.array([[0.0, 2.0, -1.0], [2.0, 0.0, 1.0], [-1.0, 1.0, 3.0]]),
            )

    def test_table_layout(self):
        table = _jump_table(np.cumsum(np.full((3, 5), 0.2), axis=1))
        assert table.K == 16 and table.guide.dtype == np.int32
        assert table.guide.size == 3 * 16 and table.padded.size == 3 * 6
        assert np.all(np.isinf(table.padded.reshape(3, 6)[:, -1]))


@st.composite
def cumulative_rows(draw):
    """Nondecreasing rows with zero entries, repeated values and a last entry
    at, just below or just above 1, plus draws u that include the bucket
    edges m/K and the row entries themselves."""
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    increment = st.sampled_from([0.0, 1e-300, 1e-17, 0.01, 0.25, 1.0]) | st.floats(0, 1)
    rows = []
    for _ in range(n_rows):
        row = np.cumsum(draw(st.lists(increment, min_size=n_cols, max_size=n_cols)))
        if row[-1] > 0:
            row = row / row[-1]
        row[-1] = draw(st.sampled_from([ONE_ULP_BELOW_1, 1.0, ONE_ULP_ABOVE_1,
                                        1.0 - 1e-9, row[-1]]))
        rows.append(np.maximum.accumulate(row))
    cum = np.array(rows)
    K = _jump_table(cum).K
    entries = [float(v) for v in cum.ravel() if v < 1.0]
    below = [float(np.nextafter(v, 0.0)) for v in entries]
    u = st.floats(0, 1, exclude_max=True) | st.integers(0, K - 1).map(lambda m: m / K)
    if entries:
        u = u | st.sampled_from(entries + below)
    us = np.array(draw(st.lists(u, min_size=1, max_size=30)))
    picks = np.array(draw(st.lists(st.integers(0, n_rows - 1),
                                   min_size=us.size, max_size=us.size)))
    return cum, picks, us


@settings(max_examples=300, deadline=None)
@given(cumulative_rows())
def test_guide_table_count_equals_the_scan(case):
    cum, rows, u = case
    assert np.all(np.diff(cum, axis=1) >= 0)
    count = _count_below(_jump_table(cum), rows, u)
    assert np.array_equal(count, (cum[rows] < u[:, None]).sum(axis=1))
