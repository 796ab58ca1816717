import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linboltz import (
    ConfigError,
    ConvergenceError,
    DomainError,
    LorentzSpec,
    NumericalQualityError,
    UsageError,
    build_lorentz,
    build_model,
)
from linboltz import velocity
from linboltz.velocity import (
    MODEL_ARRAYS,
    POISSON_DAMPING,
    TiltedMeasure,
    VelocityModel,
    apply_generator,
    apply_k,
    diffusion_matrix,
    from_file,
    poisson_solve,
    poisson_solve_dense,
    spectral_gap_probe,
    to_file,
)


def two_node_model(s=3.0, u=1.0):
    return VelocityModel(
        nodes=np.array([[0.0], [1.0]]),
        weights=np.array([0.5, 0.5]),
        drift=np.array([[u], [-u]]),
        sigma=np.array([[0.0, s], [s, 0.0]]),
        name="two-node",
    )


@pytest.fixture(scope="module")
def lorentz():
    return build_lorentz(LorentzSpec(64))


class TestVelocityModel:
    def test_invariants(self, lorentz):
        assert lorentz.validate()

    def test_size_mismatch(self):
        with pytest.raises(UsageError):
            VelocityModel(
                nodes=np.zeros((3, 1)),
                weights=np.array([0.5, 0.5]),
                drift=np.zeros((2, 1)),
                sigma=np.zeros((2, 2)),
            )

    def test_asymmetric_kernel_rejected(self):
        m = VelocityModel(
            nodes=np.zeros((2, 1)),
            weights=np.array([0.5, 0.5]),
            drift=np.array([[1.0], [-1.0]]),
            sigma=np.array([[0.0, 1.0], [2.0, 0.0]]),
        )
        with pytest.raises(NumericalQualityError):
            m.validate()

    def test_uncentered_drift_rejected(self):
        m = VelocityModel(
            nodes=np.zeros((2, 1)),
            weights=np.array([0.5, 0.5]),
            drift=np.array([[1.0], [0.0]]),
            sigma=np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
        with pytest.raises(NumericalQualityError):
            m.validate()

    def test_arrays_immutable(self, lorentz):
        with pytest.raises(ValueError):
            lorentz.weights[0] = 1.0

    def test_roundtrip_serialization(self, lorentz, tmp_path):
        path = tmp_path / "model.json"
        to_file(lorentz, path)
        back = from_file(path)
        assert np.array_equal(back.sigma, lorentz.sigma)
        assert np.array_equal(back.weights, lorentz.weights)
        assert back.name == lorentz.name


class TestTiltedMeasure:
    def test_normalization_and_support(self, lorentz):
        t = TiltedMeasure.of(lorentz)
        assert t.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(t.weights >= 0)

    def test_zero_rate_nodes_get_zero_weight(self):
        m = VelocityModel(
            nodes=np.zeros((3, 1)),
            weights=np.array([0.25, 0.5, 0.25]),
            drift=np.array([[1.0], [0.0], [-1.0]]),
            sigma=np.array([
                [0.0, 0.0, 2.0],
                [0.0, 0.0, 0.0],
                [2.0, 0.0, 0.0],
            ]),
        )
        t = TiltedMeasure.of(m)
        assert t.weights[1] == 0.0
        assert t.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestOperators:
    def test_generator_kills_constants(self, lorentz):
        assert np.max(np.abs(apply_generator(lorentz, np.ones(64)))) < 1e-14

    def test_generator_conserves_mass(self, lorentz):
        g = np.random.default_rng(0).normal(size=64)
        assert lorentz.weights @ apply_generator(lorentz, g) == pytest.approx(
            0.0, abs=1e-13
        )

    def test_dirichlet_pairing_double_sum_oracle(self, lorentz):
        g = np.random.default_rng(1).normal(size=64)
        lhs = -lorentz.weights @ (g * apply_generator(lorentz, g))
        w = lorentz.weights
        direct = 0.5 * sum(
            w[i] * w[j] * lorentz.sigma[i, j] * (g[i] - g[j]) ** 2
            for i in range(64)
            for j in range(64)
        )
        assert lhs == pytest.approx(direct, rel=1e-12)

    def test_k_preserves_constants(self, lorentz):
        out = apply_k(lorentz, np.full(64, 2.5))
        assert np.max(np.abs(out - 2.5)) < 1e-12

    def test_composition_identity(self, lorentz):
        g = np.random.default_rng(2).normal(size=64)
        lhs = lorentz.rates * (g - apply_k(lorentz, g))
        rhs = -apply_generator(lorentz, g)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_k_self_adjoint_in_tilted_measure(self, lorentz):
        rng = np.random.default_rng(3)
        t = TiltedMeasure.of(lorentz)
        for _ in range(5):
            f = rng.normal(size=64)
            g = rng.normal(size=64)
            a = t.inner(apply_k(lorentz, f), g)
            b = t.inner(f, apply_k(lorentz, g))
            assert a == pytest.approx(b, abs=1e-12)

    def test_k_rejects_zero_rate(self):
        m = VelocityModel(
            nodes=np.zeros((3, 1)),
            weights=np.array([0.25, 0.5, 0.25]),
            drift=np.array([[1.0], [0.0], [-1.0]]),
            sigma=np.array([
                [0.0, 0.0, 2.0],
                [0.0, 0.0, 0.0],
                [2.0, 0.0, 0.0],
            ]),
        )
        with pytest.raises(DomainError):
            apply_k(m, np.ones(3))


class TestPoisson:
    def test_two_node_closed_form(self):
        s, u = 3.0, 1.5
        m = two_node_model(s=s, u=u)
        sol = poisson_solve(m, tol=1e-14)
        assert sol.xi[:, 0] == pytest.approx([u / s, -u / s], abs=1e-12)
        D, _ = diffusion_matrix(m, sol)
        assert D[0, 0] == pytest.approx(u * u / s, rel=1e-12)

    def test_two_node_dense_oracle(self):
        m = two_node_model(s=2.0, u=0.7)
        dense = poisson_solve_dense(m)
        it = poisson_solve(m, tol=1e-14)
        assert np.max(np.abs(dense.xi - it.xi)) < 1e-12

    def test_lorentz_eigenfunction(self, lorentz):
        # b is an eigenfunction: xi = (3/8) b on the continuum; at this
        # resolution the discrete solution matches to quadrature accuracy
        sol = poisson_solve(lorentz, tol=1e-13)
        assert np.max(np.abs(sol.xi - 0.375 * lorentz.drift)) < 1e-6

    def test_residual_postcondition(self, lorentz):
        sol = poisson_solve(lorentz, tol=1e-12)
        assert sol.residual < 1e-10

    def test_gauge_mean_zero(self, lorentz):
        sol = poisson_solve(lorentz, tol=1e-12)
        t = TiltedMeasure.of(lorentz)
        assert np.max(np.abs(t.weights @ sol.xi)) < 1e-10

    def test_max_iter_raises_with_residual(self, lorentz, monkeypatch):
        monkeypatch.setattr(velocity, "POISSON_MAX_ITER", 10)
        with pytest.raises(ConvergenceError) as exc:
            poisson_solve(lorentz, tol=1e-30)
        assert exc.value.residual is not None
        assert exc.value.iterations == 10


class TestDiffusionMatrix:
    def test_symmetry_before_symmetrization(self, lorentz):
        sol = poisson_solve(lorentz, tol=1e-13)
        raw = np.einsum("i,ia,ib->ab", lorentz.weights, lorentz.drift, sol.xi)
        assert np.max(np.abs(raw - raw.T)) < 1e-12

    def test_psd_enforced(self):
        m = two_node_model()
        fake = poisson_solve(m, tol=1e-14)
        bad = type(fake)(xi=-fake.xi, residual=0.0, iterations=1)
        with pytest.raises(NumericalQualityError):
            diffusion_matrix(m, bad)


@st.composite
def small_models(draw):
    """2 to 8 nodes, 1 to 3 drift axes: a symmetric kernel bounded away from
    zero (so the Poisson iteration has a gap), positive weights and a drift
    centred in them."""
    n, dim = draw(st.integers(2, 8)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = rng.uniform(0.05, 1.0, (n, n))
    w = rng.uniform(0.05, 1.0, n)
    w /= w.sum()
    b = rng.normal(size=(n, dim))
    return VelocityModel(nodes=np.arange(n)[:, None], weights=w, drift=b - w @ b,
                         sigma=sigma + sigma.T)


class TestOperatorProperties:
    @settings(max_examples=50, deadline=None)
    @given(small_models(), st.integers(0, 2**32 - 1))
    def test_generator_self_adjoint_in_w(self, m, seed):
        f, g = np.random.default_rng(seed).normal(size=(2, m.n_nodes))
        a = m.weights @ (f * apply_generator(m, g))
        b = m.weights @ (apply_generator(m, f) * g)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12 * np.max(m.rates))

    @settings(max_examples=50, deadline=None)
    @given(small_models(), st.integers(0, 2**32 - 1))
    def test_k_self_adjoint_in_tilted_measure(self, m, seed):
        f, g = np.random.default_rng(seed).normal(size=(2, m.n_nodes))
        t = TiltedMeasure.of(m)
        assert t.inner(apply_k(m, f), g) == pytest.approx(t.inner(f, apply_k(m, g)),
                                                          rel=1e-12, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(small_models())
    def test_diffusion_matrix_symmetric_and_psd(self, m):
        sol = poisson_solve(m, tol=1e-12)
        raw = np.einsum("i,ia,ib->ab", m.weights, m.drift, sol.xi)
        scale = np.max(np.abs(raw))
        assert np.max(np.abs(raw - raw.T)) <= 1e-12 * scale
        D, _ = diffusion_matrix(m, sol)
        assert np.min(np.linalg.eigvalsh(D)) >= -1e-12 * scale

    @settings(max_examples=50, deadline=None)
    @given(small_models())
    def test_poisson_residual_below_its_tolerance(self, m):
        # the stopping increment theta |u| in the tilted norm bounds
        # |-L xi - b|_i <= lambda_i |u|_inf <= max lambda tol / (theta sqrt(min w~))
        tol, theta = 1e-10, POISSON_DAMPING
        sol = poisson_solve(m, tol=tol)
        tilted = TiltedMeasure.of(m).weights
        assert sol.residual <= np.max(m.rates) * tol / (theta * np.sqrt(np.min(tilted)))


class TestSpectralGap:
    def test_two_node_swap_spectrum(self):
        # K swaps the two nodes, so on mean-zero it has eigenvalue -1
        lam2, gap, c0 = spectral_gap_probe(two_node_model())
        assert lam2 == pytest.approx(-1.0, abs=1e-12)
        assert gap == pytest.approx(2.0, abs=1e-12)
        assert c0 == pytest.approx(0.5, abs=1e-12)

    def test_matches_dense_eigensolve(self, lorentz):
        lam2, _, _ = spectral_gap_probe(lorentz)
        t = TiltedMeasure.of(lorentz)
        sq = np.sqrt(t.weights)
        K = lorentz.sigma * lorentz.weights[None, :] / lorentz.rates[:, None]
        sym = sq[:, None] * K / sq[None, :] - 3.0 * np.outer(sq, sq)
        dense = np.linalg.eigvalsh(0.5 * (sym + sym.T))[-1]
        assert lam2 == pytest.approx(dense, abs=1e-8)

    @pytest.mark.parametrize("kind, params", [
        ("two-node", {}),
        ("lorentz", {"n_nodes": 64}),
        ("rayleigh", {"dim": 2, "n_radial": 10, "n_angular": 12}),
        ("phonon", {"dim": 2, "n_per_axis": 8}),
        ("lorentz", {"n_nodes": 1040}),
    ])
    def test_direct_matrix_matches_the_matvec_built_one(self, kind, params):
        model = two_node_model() if kind == "two-node" else build_model(kind, **params)
        sqw = np.sqrt(TiltedMeasure.of(model).weights)
        cols = []
        for u in np.eye(model.n_nodes):
            g = np.divide(u, sqw, out=np.zeros_like(u), where=sqw > 0)
            cols.append(sqw * apply_k(model, g) - 3.0 * (u @ sqw) * sqw)
        dense = np.column_stack(cols)
        expected = np.linalg.eigvalsh(0.5 * (dense + dense.T))[-1]
        lam2, _, _ = spectral_gap_probe(model)
        assert lam2 == pytest.approx(expected, abs=1e-12, rel=1e-12)

    def test_zero_rate_is_a_domain_error(self):
        m = VelocityModel(
            nodes=np.zeros((3, 1)),
            weights=np.full(3, 1.0 / 3.0),
            drift=np.array([[1.0], [-1.0], [0.0]]),
            sigma=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        )
        with pytest.raises(DomainError):
            spectral_gap_probe(m)


def test_model_file_is_compact_json_of_the_same_payload(tmp_path):
    # a small JSON header of the scalars, the arrays in an .npz beside it
    for model in (two_node_model(), build_model("lorentz", n_nodes=64),
                  build_model("rayleigh", dim=2, n_radial=10, n_angular=12)):
        path = tmp_path / "model.json"
        to_file(model, path)
        assert json.loads(path.read_text()) == {
            "schema": "model-v3", "name": model.name, "dim_x": model.dim_x,
            "meta": model.meta, "fingerprint": model.fingerprint, "arrays": "model.npz",
        }
        with np.load(tmp_path / "model.npz", allow_pickle=False) as npz:
            assert sorted(npz.files) == ["drift", "nodes", "sigma", "weights"]
        back = from_file(path)
        for name in ("nodes", "weights", "drift", "sigma", "rates"):
            assert np.array_equal(getattr(back, name), getattr(model, name))
        assert (back.name, back.dim_x, back.meta) == (model.name, model.dim_x, model.meta)
        assert back.fingerprint == model.fingerprint


@pytest.mark.parametrize("tamper", ["swapped", "missing", "nodes"])
def test_model_file_refuses_arrays_that_are_not_its_model(tmp_path, tamper):
    model = build_model("lorentz", n_nodes=8)
    to_file(model, tmp_path / "model_lorentz.json")
    arrays = tmp_path / "model_lorentz.npz"
    if tamper == "swapped":
        to_file(two_node_model(), tmp_path / "other.json")
        (tmp_path / "other.npz").replace(arrays)
    else:
        with np.load(arrays) as npz:
            kept = dict(npz)
        if tamper == "missing":
            del kept["drift"]
        else:
            kept["nodes"] = np.full_like(kept["nodes"], 7.0)
        np.savez(arrays, **kept)
    with pytest.raises(ConfigError, match="lack" if tamper == "missing" else "fingerprint"):
        from_file(tmp_path / "model_lorentz.json")


@pytest.mark.parametrize("tamper", ["nodes_shape", "dim_x", "dim_x_7", "negative_weights",
                                    "asymmetric_kernel"])
def test_model_file_that_makes_no_model_is_a_config_error(tmp_path, tamper):
    path = tmp_path / "model_lorentz.json"
    model = build_model("lorentz", n_nodes=8)
    if tamper == "negative_weights":  # summing to -1, under their own fingerprint
        model = dataclasses.replace(model, weights=-model.weights)
    elif tamper == "asymmetric_kernel":
        model = dataclasses.replace(model, sigma=model.sigma + np.triu(model.sigma))
    to_file(model, path)
    if tamper == "nodes_shape":
        arrays = tmp_path / "model_lorentz.npz"
        with np.load(arrays) as npz:
            kept = dict(npz)
        kept["nodes"] = kept["nodes"].reshape(1, 8)
        np.savez(arrays, **kept)
    elif tamper.startswith("dim_x"):
        header = json.loads(path.read_text())
        path.write_text(json.dumps(dict(header, dim_x=7 if tamper == "dim_x_7" else "one")))
    with pytest.raises(ConfigError, match="does not describe a model"):
        from_file(path)


def test_fingerprint_covers_nodes_and_array_shapes():
    a = VelocityModel(nodes=np.arange(8.0).reshape(4, 2), weights=np.full(4, 0.25),
                      drift=np.array([1.0, -1.0, 2.0, -2.0]), sigma=np.ones((4, 4)))
    same = VelocityModel(nodes=a.nodes.copy(), weights=a.weights, drift=a.drift,
                         sigma=a.sigma)
    assert same.fingerprint == a.fingerprint
    other_nodes = dataclasses.replace(a, nodes=a.nodes + 1.0)
    # the same bytes in the same order, split between the arrays differently
    stream = np.concatenate([a.nodes.ravel(), a.weights, a.drift.ravel()])
    shifted = VelocityModel(nodes=stream[:4, None], weights=stream[4:8],
                            drift=stream[8:].reshape(4, 2), sigma=a.sigma)
    assert b"".join(getattr(shifted, k).tobytes() for k in MODEL_ARRAYS) == b"".join(
        getattr(a, k).tobytes() for k in MODEL_ARRAYS)
    assert len({a.fingerprint, other_nodes.fingerprint, shifted.fingerprint}) == 3


def test_model_file_of_the_previous_schema_is_refused(tmp_path):
    # a model-v2 fingerprint does not cover nodes, so its header is not trusted
    path = tmp_path / "model_lorentz.json"
    to_file(build_model("lorentz", n_nodes=8), path)
    header = json.loads(path.read_text())
    path.write_text(json.dumps(dict(header, schema="model-v2")))
    with pytest.raises(ConfigError, match="not a model-v3 model file"):
        from_file(path)
