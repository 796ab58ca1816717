import dataclasses
import hashlib
import json
import os
import tempfile
import warnings

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
from linboltz import diffusive, montecarlo, velocity
from linboltz.velocity import (
    MODEL_ARRAYS,
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
        # the builder constructed it, so the five hypotheses hold
        assert np.all(lorentz.weights >= 0)
        assert abs(lorentz.weights.sum() - 1.0) <= 1e-12
        assert np.array_equal(lorentz.sigma, lorentz.sigma.T)
        assert np.all(lorentz.sigma >= 0)
        assert np.max(np.abs(lorentz.weights @ lorentz.drift)) <= velocity.CENTERING_TOL

    def test_size_mismatch(self):
        with pytest.raises(UsageError):
            VelocityModel(
                nodes=np.zeros((3, 1)),
                weights=np.array([0.5, 0.5]),
                drift=np.zeros((2, 1)),
                sigma=np.zeros((2, 2)),
            )

    def test_asymmetric_kernel_rejected(self):
        with pytest.raises(NumericalQualityError, match="not exactly symmetric"):
            VelocityModel(
                nodes=np.zeros((2, 1)),
                weights=np.array([0.5, 0.5]),
                drift=np.array([[1.0], [-1.0]]),
                sigma=np.array([[0.0, 1.0], [2.0, 0.0]]),
            )

    def test_uncentered_drift_rejected(self):
        with pytest.raises(NumericalQualityError, match="drift not centered"):
            VelocityModel(
                nodes=np.zeros((2, 1)),
                weights=np.array([0.5, 0.5]),
                drift=np.array([[1.0], [0.0]]),
                sigma=np.array([[0.0, 1.0], [1.0, 0.0]]),
            )

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


@st.composite
def model_arrays(draw, min_nodes=1):
    """The arrays of a random model on at most 5 nodes: probability weights, a
    symmetric nonnegative kernel (some pairs at rate zero) and a centered drift."""
    n = draw(st.integers(min_nodes, 5), label="n_v")
    dim_x = draw(st.integers(1, 3), label="dim_x")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    weights = rng.uniform(0.05, 1.0, n)
    weights /= weights.sum()
    upper = np.triu(rng.uniform(0.0, 5.0, (n, n)) * (rng.random((n, n)) < 0.7))
    drift = rng.normal(size=(n, dim_x))
    return {"nodes": rng.normal(size=(n, 1)), "weights": weights,
            "drift": drift - (weights @ drift) / weights.sum(),
            "sigma": upper + np.triu(upper, 1).T}


#: each hypothesis of a model, and the refusal that names it
HYPOTHESES = {
    "negative_weight": "negative quadrature weight",
    "weights_sum": "weights do not sum to 1",
    "asymmetric_kernel": "scattering kernel is not exactly symmetric",
    "negative_kernel": "negative scattering kernel entry",
    "uncentered_drift": "drift not centered",
}


def break_hypothesis(arrays, hypothesis, i, j):
    """Copies of ``arrays`` that break ``hypothesis`` alone, at nodes i != j."""
    w, sigma, b = (arrays[k].copy() for k in ("weights", "sigma", "drift"))
    if hypothesis == "negative_weight":  # the sum stays 1
        w[j] += w[i] + 1e-3
        w[i] = -1e-3
    elif hypothesis == "weights_sum":
        w *= 1.0 + 1e-9
    elif hypothesis == "asymmetric_kernel":
        sigma[i, j] = np.nextafter(sigma[i, j], np.inf)
    elif hypothesis == "negative_kernel":
        sigma[i, i] = -1.0
    b -= (w @ b) / w.sum()  # centered for the weights as broken
    if hypothesis == "uncentered_drift":
        b[:, 0] += 2.0 * velocity.CENTERING_TOL / w.sum()
    return dict(arrays, weights=w, sigma=sigma, drift=b)


class TestConstructionChecksTheHypotheses:
    @settings(max_examples=60, deadline=None)
    @given(arrays=model_arrays())
    def test_a_model_of_the_hypotheses_constructs(self, arrays):
        model = VelocityModel(**arrays)
        assert np.array_equal(model.sigma, arrays["sigma"])
        assert np.array_equal(model.rates, arrays["sigma"] @ arrays["weights"])

    @pytest.mark.parametrize("hypothesis", sorted(HYPOTHESES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_breaking_one_hypothesis_is_refused_by_name(self, hypothesis, data):
        arrays = data.draw(model_arrays(min_nodes=2))
        i, j = data.draw(st.permutations(range(len(arrays["weights"]))), label="i, j")[:2]
        broken = break_hypothesis(arrays, hypothesis, i, j)
        with pytest.raises(NumericalQualityError, match=HYPOTHESES[hypothesis]):
            VelocityModel(**broken)
        # a model file whose arrays break it describes no model
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            to_file(VelocityModel(**arrays), path)
            np.savez(os.path.join(tmp, "model.npz"), **broken)
            with pytest.raises(ConfigError, match="does not describe a model"):
                from_file(path)


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
        # two trailing axes act slice by slice, the first as long as the node axis or not
        m = VelocityModel(nodes=np.arange(4.0), weights=[0.1, 0.2, 0.3, 0.4],
                          drift=[2.0, -1.0, 0.0, 0.0], sigma=np.add.outer(np.arange(4.0),
                                                                          np.arange(4.0)) + 1.0)
        for shape in ((4, 4, 3), (4, 2, 3)):
            g = np.random.default_rng(5).normal(size=shape)
            for op in (apply_generator, apply_k):
                per_slice = np.apply_along_axis(lambda v: op(m, v), 0, g)
                assert op(m, g) == pytest.approx(per_slice, rel=1e-14, abs=1e-14)

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

    def test_an_unreachable_tol_raises_with_residual_within_2_n_v_steps(self, lorentz):
        with pytest.raises(ConvergenceError) as exc:
            poisson_solve(lorentz, tol=1e-30)
        assert 1e-30 <= exc.value.residual < 1e-12
        assert exc.value.iterations <= 2 * lorentz.n_nodes

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_a_tol_that_is_not_positive_and_finite_is_refused(self, tol):
        with pytest.raises(UsageError, match="tol must be a positive finite number"):
            poisson_solve(two_node_model(), tol=tol)

    @pytest.mark.parametrize("link", [1e-20, 1e-4])
    def test_a_near_reducible_chain_raises_within_2_n_v_steps(self, link):
        # require_ergodic passes the chain, but the link is too weak for the
        # solve to resolve in floating point
        model = four_node_model(link=link)
        with pytest.raises(ConvergenceError) as exc:
            poisson_solve(model)
        assert exc.value.residual >= 1e-12
        assert exc.value.iterations <= 2 * model.n_nodes

    def test_a_weakly_linked_chain_matches_the_dense_solve(self):
        # xi = (322, 320, -320, -322); its rounding sits in the slow mode, so
        # the two solves agree to 1e-12 of max|xi|, about 5e-12
        model = four_node_model(link=1e-2)
        sol, dense = poisson_solve(model), poisson_solve_dense(model)
        assert sol.iterations <= 2 * model.n_nodes
        assert np.max(np.abs(sol.xi - dense.xi)) <= 1e-12 * np.max(np.abs(dense.xi))


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
        # tol bounds the reported residual itself; both solutions are gauged to
        # tilted mean 0
        tol = 1e-12
        sol = poisson_solve(m, tol=tol)
        assert sol.residual < tol
        assert np.max(np.abs(sol.xi - poisson_solve_dense(m).xi)) <= 1e-10


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


def four_node_model(link=0.0):
    """Kernel 2 within {0, 1} and within {2, 3}, ``link`` between nodes 1 and 2:
    the drift (1, 0.6, -0.6, -1) is centred overall, not on either block."""
    sigma = np.kron(np.eye(2), [[0.0, 2.0], [2.0, 0.0]])
    sigma[1, 2] = sigma[2, 1] = link
    return VelocityModel(nodes=np.arange(4.0)[:, None], weights=np.full(4, 0.25),
                         drift=np.array([1.0, 0.6, -0.6, -1.0]), sigma=sigma)


@st.composite
def reducible_models(draw):
    """At most 6 nodes in two or more blocks that the kernel does not join, each
    block joined within; with or without one node of rate zero, a block alone."""
    n = draw(st.integers(2, 6), label="n_v")
    zero_rate = draw(st.booleans(), label="zero-rate node")
    blocks = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    if zero_rate:
        blocks[draw(st.integers(0, n - 1), label="its index")] = -1
    if len(set(blocks)) < 2:
        blocks[0] = 3
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    upper = np.triu(rng.uniform(0.1, 3.0, (n, n)))
    sigma = (upper + np.triu(upper, 1).T) * (blocks[:, None] == blocks[None, :])
    sigma[blocks == -1] = sigma[:, blocks == -1] = 0.0
    weights = rng.uniform(0.05, 1.0, n)
    weights /= weights.sum()
    drift = rng.normal(size=(n, draw(st.integers(1, 2), label="dim_x")))
    return VelocityModel(nodes=np.arange(n)[:, None], weights=weights,
                         drift=drift - weights @ drift, sigma=sigma)


#: every route to D, as a function of the model
ROUTES_TO_D = {
    "poisson_solve": poisson_solve,
    "poisson_solve_dense": poisson_solve_dense,
    "spectral_gap_probe": spectral_gap_probe,
    "estimate_D": lambda m: montecarlo.estimate_D(m, montecarlo.McConfig(64, 1.0, 0, 4)),
    "sweep": lambda m: diffusive.sweep(m, np.ones(8), [0.5], 0.5),
}
#: the first iteration, draw, solve or run of each route
FIRST_STEPS = ((velocity, "apply_k"), (np.linalg, "lstsq"), (np.linalg, "eigvalsh"),
               (montecarlo, "_jump_table"), (montecarlo, "_run_batch"),
               (diffusive, "mode_marginals"))


def refuse_before_the_first_step(model):
    """The DomainError message of each route in ``ROUTES_TO_D`` on ``model``,
    with every first step failing the test and every warning an error."""
    def first_step(*args, **kwargs):
        raise AssertionError("a route to D started on a reducible chain")

    messages = {}
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        for module, name in FIRST_STEPS:
            mp.setattr(module, name, first_step)
        for route, run in ROUTES_TO_D.items():
            with pytest.raises(DomainError, match="lambda > 0 at every node") as info:
                run(model)
            messages[route] = str(info.value)
    return messages


class TestErgodicity:
    @settings(max_examples=60, deadline=None)
    @given(reducible_models())
    def test_every_route_to_d_refuses_a_reducible_chain_before_it_starts(self, model):
        messages = refuse_before_the_first_step(model)
        assert len(set(messages.values())) == 1

    def test_the_message_counts_the_nodes_node_0_reaches(self):
        messages = refuse_before_the_first_step(four_node_model())
        assert set(messages.values()) == {
            "the jump chain needs lambda > 0 at every node and one class: "
            "node 0 reaches 2 of the 4 nodes"}

    @pytest.mark.parametrize("kind, params", [
        ("lorentz", {"n_nodes": 64}),
        ("rayleigh", {"dim": 2, "n_radial": 10, "n_angular": 12}),
        ("phonon", {"dim": 2, "n_per_axis": 8}),
    ])
    def test_every_model_the_builders_make_is_ergodic(self, kind, params):
        velocity.require_ergodic(build_model(kind, **params))

    def test_a_zero_weight_node_is_never_reached(self):
        # no jump enters a node of weight 0, so the chain is not irreducible
        m = VelocityModel(nodes=np.zeros((3, 1)), weights=np.array([0.5, 0.5, 0.0]),
                          drift=np.array([1.0, -1.0, 3.0]), sigma=np.ones((3, 3)))
        with pytest.raises(DomainError, match="node 0 reaches 2 of the 3 nodes"):
            velocity.require_ergodic(m)

    def test_dense_solve_refuses_its_own_residual(self):
        # a link of 1e-20 joins the blocks, so the search passes, but lstsq
        # cannot resolve it: the residual is 0.8
        model = four_node_model(link=1e-20)
        velocity.require_ergodic(model)
        with pytest.raises(NumericalQualityError, match="residual 8.000e-01 > 1.000e-09"):
            poisson_solve_dense(model)


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
    to_file(build_model("lorentz", n_nodes=8), path)
    if tamper in ("nodes_shape", "negative_weights", "asymmetric_kernel"):
        arrays = tmp_path / "model_lorentz.npz"
        with np.load(arrays) as npz:
            kept = dict(npz)
        if tamper == "nodes_shape":
            kept["nodes"] = kept["nodes"].reshape(1, 8)
        elif tamper == "negative_weights":  # summing to -1
            kept["weights"] = -kept["weights"]
        else:
            kept["sigma"] = kept["sigma"] + np.triu(kept["sigma"])
        np.savez(arrays, **kept)
    elif tamper.startswith("dim_x"):
        header = json.loads(path.read_text())
        path.write_text(json.dumps(dict(header, dim_x=7 if tamper == "dim_x_7" else "one")))
    with pytest.raises(ConfigError, match="does not describe a model"):
        from_file(path)


def fingerprint_of(arrays):
    """The recipe of ``VelocityModel.fingerprint`` on arrays that need not make
    a model: the name, shape and bytes of each of ``MODEL_ARRAYS``."""
    digest = hashlib.sha256()
    for key in MODEL_ARRAYS:
        digest.update(f"{key}{arrays[key].shape}".encode())
        digest.update(arrays[key].tobytes())
    return digest.hexdigest()


def test_fingerprint_covers_nodes_and_array_shapes():
    a = VelocityModel(nodes=np.arange(8.0).reshape(4, 2), weights=np.full(4, 0.25),
                      drift=np.array([1.0, -1.0, 2.0, -2.0]), sigma=np.ones((4, 4)))
    same = VelocityModel(nodes=a.nodes.copy(), weights=a.weights, drift=a.drift,
                         sigma=a.sigma)
    assert same.fingerprint == a.fingerprint
    assert fingerprint_of({k: getattr(a, k) for k in MODEL_ARRAYS}) == a.fingerprint
    other_nodes = dataclasses.replace(a, nodes=a.nodes + 1.0)
    # the same bytes in the same order, split between the arrays differently;
    # weights 4, 5, 6, 7 make no model, so the digest is taken by the recipe
    stream = np.concatenate([a.nodes.ravel(), a.weights, a.drift.ravel()])
    shifted = {"nodes": stream[:4, None], "weights": stream[4:8],
               "drift": stream[8:].reshape(4, 2), "sigma": a.sigma}
    assert b"".join(shifted[k].tobytes() for k in MODEL_ARRAYS) == b"".join(
        getattr(a, k).tobytes() for k in MODEL_ARRAYS)
    assert len({a.fingerprint, other_nodes.fingerprint, fingerprint_of(shifted)}) == 3


def test_model_file_of_the_previous_schema_is_refused(tmp_path):
    # a model-v2 fingerprint does not cover nodes, so its header is not trusted
    path = tmp_path / "model_lorentz.json"
    to_file(build_model("lorentz", n_nodes=8), path)
    header = json.loads(path.read_text())
    path.write_text(json.dumps(dict(header, schema="model-v2")))
    with pytest.raises(ConfigError, match="not a model-v3 model file"):
        from_file(path)


def test_model_file_that_cannot_be_decoded_or_lacks_keys_is_a_config_error(tmp_path):
    path = tmp_path / "model_lorentz.json"
    with pytest.raises(ConfigError, match="cannot read model file"):  # missing
        from_file(path)
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ConfigError, match="cannot read model file"):
        from_file(path)
    to_file(build_model("lorentz", n_nodes=8), path)
    header = json.loads(path.read_text())
    del header["fingerprint"], header["meta"]
    path.write_text(json.dumps(header))
    with pytest.raises(ConfigError, match=r"lacks the keys \['fingerprint', 'meta'\]"):
        from_file(path)


@pytest.mark.parametrize("tamper", ["missing", "not_npz", "truncated", "bad_crc"])
def test_model_file_whose_sidecar_cannot_be_read_is_a_config_error(tmp_path, tamper):
    # once FileNotFoundError, numpy's ValueError and zipfile.BadZipFile
    path = tmp_path / "model_lorentz.json"
    to_file(build_model("lorentz", n_nodes=8), path)
    arrays = tmp_path / "model_lorentz.npz"
    raw = arrays.read_bytes()
    if tamper == "missing":
        arrays.unlink()
    elif tamper == "not_npz":
        arrays.write_bytes(b"not an npz file\n" * 8)
    elif tamper == "truncated":
        arrays.write_bytes(raw[:len(raw) // 2])
    else:  # an entry's data overwritten inside an intact archive
        start = raw.index(b"\x93NUMPY") + 20
        arrays.write_bytes(raw[:start] + bytes(20) + raw[start + 20:])
    with pytest.raises(ConfigError, match="cannot read the model arrays"):
        from_file(path)


@pytest.mark.parametrize("name", [5, None, "", ".", "..", "../../etc/passwd",
                                  "../sub/model_lorentz.npz"])
def test_model_file_reads_its_sidecar_only_beside_it(tmp_path, name):
    # the header's arrays is a plain base name; a path is not followed, even
    # to the sidecar itself
    (tmp_path / "sub").mkdir()
    path = tmp_path / "sub" / "model_lorentz.json"
    to_file(build_model("lorentz", n_nodes=8), path)
    header = json.loads(path.read_text())
    path.write_text(json.dumps(dict(header, arrays=name)))
    with pytest.raises(ConfigError, match="is not the base name"):
        from_file(path)
