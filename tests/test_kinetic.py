import collections
import csv
import dataclasses
import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from linboltz import (
    CertificationError,
    ConfigError,
    DomainError,
    LorentzSpec,
    NumericalQualityError,
    PhononSpec,
    RayleighSpec,
    UsageError,
    build_lorentz,
    build_phonon,
    build_rayleigh,
)
from linboltz import functionals, kinetic
from linboltz.diffusive import sweep
from linboltz.kinetic import (
    Stepper,
    collision_propagator,
    current_of,
    edi_certificate,
    evolve,
    entropy_balance_check,
    Trajectory,
    load_trajectory,
    local_equilibrium,
    mode_marginals,
    save_trajectory,
    simulate,
    write_certificate_csv,
)
from linboltz.functionals import (dirichlet_form, kinematic_rate, pair_triangle, phi,
                                  relative_entropy, truncated_log)
from linboltz.spectral import shift
from linboltz.velocity import VelocityModel, apply_generator


def two_node_model(s=3.0, u=1.0):
    return VelocityModel(
        nodes=np.array([[0.0], [1.0]]),
        weights=np.array([0.5, 0.5]),
        drift=np.array([[u], [-u]]),
        sigma=np.array([[0.0, s], [s, 0.0]]),
    )


def bump_rho(n, a=0.5):
    x = (np.arange(n) + 0.5) / n
    return 1.0 + a * np.cos(2.0 * np.pi * x)


CLI_DATUM_MODELS = {"lorentz": build_lorentz(LorentzSpec(8)),
                    "rayleigh": build_rayleigh(RayleighSpec(dim=2, n_radial=4, n_angular=12))}

#: the ``certify`` benchmark config's model, Rayleigh-2d on 10 x 12 nodes
CERTIFY_MODEL = build_rayleigh(RayleighSpec(dim=2, n_radial=10, n_angular=12))
#: its certificates on 64 cells, dt 2e-3, T 0.04 from 1 + a cos(2 pi x), as
#: recorded while psi was xi*asinh(r) - xi*r/(sqrt(1+r^2)+1) and E the einsum
#: expansion 2*(sum_i w_i lam_i f_i - <sqrt f, S w sqrt f>)
CERTIFY_CONFIG_CERTIFICATES = {
    0.3: {"h_initial": "0x1.74eaca06d96c2p-6", "h_final": "0x1.72edb22d8218ap-6",
          "dirichlet_integral": "0x1.fbe418a400832p-15",
          "kinematic_value": "0x1.fc2cf457a7120p-15",
          "balance_residual": "0x1.0f52d97fb0000p-22",
          "max_step_residual": "0x1.bb3664abf6de8p-27"},
    0.6: {"h_initial": "0x1.83a4b1228f1d8p-4", "h_final": "0x1.817c4bb601fcep-4",
          "dirichlet_integral": "0x1.1339e5d666138p-12",
          "kinematic_value": "0x1.14042ddd45213p-12",
          "balance_residual": "0x1.2758d97570000p-20",
          "max_step_residual": "0x1.e11e4cdad7ac0p-25"},
}


class TestStepper:
    def test_unknown_transport(self):
        # the stepper takes no transport; simulate checks the one it is given
        for transport in ("weno", "upwind"):
            with pytest.raises(ConfigError, match="transport must be 'spectral'"):
                simulate(two_node_model(), bump_rho(8), 0.01, 0.01, transport=transport)
        with pytest.raises(TypeError):
            Stepper(two_node_model(), 8, 0.01, transport="spectral")

    def test_homogeneous_data_pure_relaxation(self):
        # no spatial gradients: the step reduces to the collision exponential
        m = two_node_model(s=2.0)
        st = Stepper(m, n_cells=4, dt=0.05)
        f = np.tile(np.array([2.0, 0.5]), (4, 1))
        out = st.step(f)
        gen = m.sigma * m.weights[None, :] - np.diag(m.rates)
        expected = f @ expm(0.05 * gen).T
        assert np.max(np.abs(out - expected)) < 1e-13

    def test_local_equilibrium_transport_only(self):
        # f constant in v is in the kernel of L: collision halves are identity
        m = two_node_model()
        st = Stepper(m, n_cells=8, dt=0.01)
        f = local_equilibrium(bump_rho(8), m)
        assert np.max(np.abs(st.collide_half(f) - f)) < 1e-13

    def test_dense_propagator_oracle(self):
        m = two_node_model(s=1.5, u=0.8)
        n_x, dt = 4, 0.05
        st = Stepper(m, n_cells=n_x, dt=dt)
        rng = np.random.default_rng(0)
        f = rng.uniform(0.5, 2.0, (n_x, 2))

        gen = m.sigma * m.weights[None, :] - np.diag(m.rates)
        C = expm(0.5 * dt * gen)
        n = n_x * 2
        big_C = np.zeros((n, n))
        big_T = np.zeros((n, n))
        for x in range(n_x):
            big_C[2 * x : 2 * x + 2, 2 * x : 2 * x + 2] = C
        # the trigonometric interpolant of the samples at l / n_x, read at
        # x / n_x - dt c, in its real form: its Nyquist term is cos(pi n_x s)
        k = np.arange(n_x // 2 + 1)
        mode_weight = np.where((k == 0) | (2 * k == n_x), 1.0, 2.0) / n_x
        for i, c in enumerate(m.drift[:, 0]):
            for x in range(n_x):
                for l in range(n_x):
                    s = (x - l) / n_x - dt * c
                    big_T[2 * x + i, 2 * l + i] = mode_weight @ np.cos(2 * np.pi * k * s)
        prop = big_C @ big_T @ big_C
        expected = (prop @ f.reshape(-1)).reshape(n_x, 2)
        assert np.max(np.abs(st.step(f) - expected)) < 1e-12

    # the CLI's datum 1 + a cos(2 pi m x); every grid samples it as a
    # nonnegative field of one mode below Nyquist, which transport translates
    # exactly and the collision step mixes with nonnegative weights
    @settings(max_examples=100, deadline=None)
    @given(model=st.sampled_from(["lorentz", "rayleigh"]), a=st.floats(0.0, 0.999),
           mode=st.integers(1, 5), n_x=st.integers(6, 64), eps=st.floats(0.1, 1.0))
    def test_spectral_frames_of_the_cli_datum_stay_nonnegative(self, model, a, mode, n_x,
                                                                eps):
        m = CLI_DATUM_MODELS[model]
        x = (np.arange(n_x) + 0.5) / n_x
        traj = simulate(m, 1.0 + a * np.cos(2 * np.pi * mode * x), T=0.1, dt=0.01,
                        epsilon=eps)
        assert np.min(traj.f) >= 0.0
        mass = traj.dx * traj.f @ m.weights @ np.ones(n_x)
        assert np.max(np.abs(mass - 1.0)) <= 1e-12

    def test_entropy_monotone_spectral(self):
        m = two_node_model()
        traj = simulate(m, bump_rho(16), T=0.2, dt=0.01)
        H = edi_certificate(traj, m).entropy
        assert np.array_equal(H, [relative_entropy(f, m) for f in traj.f])
        assert np.all(np.diff(H) <= 1e-12)


@st.composite
def small_kernels(draw):
    """A model on 2-6 nodes whose symmetric kernel has zero-rate pairs."""
    n = draw(st.integers(2, 6), label="n_v")
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    upper = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
                          min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    sigma = np.zeros((n, n))
    sigma[np.triu_indices(n)] = upper
    return VelocityModel(nodes=np.zeros((n, 1)), weights=weights / weights.sum(),
                         drift=np.zeros((n, 1)), sigma=sigma + np.triu(sigma, 1).T)


class TestCollisionPropagator:
    LOG_T = st.floats(-8.0, 4.0)  # t from 1e-8 to 1e4

    @settings(max_examples=150, deadline=None)
    @given(m=small_kernels(), log_t=LOG_T)
    def test_stochastic_semigroup_and_scipy_oracle(self, m, log_t):
        t = 10.0**log_t
        P = collision_propagator(m, t)
        assert P.min() >= 0.0  # exactly: uniformization adds nonnegative terms only
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-14
        assert np.max(np.abs(m.weights @ P - m.weights)) <= 1e-14
        assert np.max(np.abs(P @ P - collision_propagator(m, 2.0 * t))) <= 1e-14
        # exp(tL) has rows summing to 1 exactly; scipy's scaling and squaring
        # drifts from that as c t grows (to ~4e-12 at c t ~ 1e5), and the
        # drift is a lower bound on its own error, so it is allowed on top
        E = expm(t * (m.sigma * m.weights[None, :] - np.diag(m.rates)))
        oracle_drift = np.max(np.abs(E.sum(axis=1) - 1.0))
        assert np.max(np.abs(P - E)) <= 1e-13 + oracle_drift

    @settings(max_examples=40, deadline=None)
    @given(m=small_kernels(), log_t=LOG_T)
    def test_matches_a_40_digit_reference(self, m, log_t):
        t = 10.0**log_t
        n = m.n_nodes
        with mpmath.workdps(40):
            gen = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        gen[i, j] = mpmath.mpf(m.sigma[i, j]) * mpmath.mpf(m.weights[j])
                gen[i, i] = -mpmath.fsum(gen[i, j] for j in range(n) if j != i)
            ref = np.array(mpmath.expm(gen * t).tolist(), dtype=float)
        assert np.max(np.abs(collision_propagator(m, t) - ref)) <= 1e-14

    def test_zero_kernel_or_zero_time_gives_the_identity(self):
        m = VelocityModel(nodes=np.zeros((3, 1)), weights=np.full(3, 1 / 3),
                          drift=np.zeros((3, 1)), sigma=np.zeros((3, 3)))
        for t in (0.0, 1e-8, 1.0, 1e4):
            assert np.array_equal(collision_propagator(m, t), np.eye(3))
        assert np.array_equal(collision_propagator(two_node_model(), 0.0), np.eye(2))

    def test_huge_time_gives_the_stationary_chain(self):
        # c t = 1.5e308: about a thousand squarings, every row tends to w
        P = collision_propagator(two_node_model(), 1e308)
        assert np.max(np.abs(P - 0.5)) <= 1e-15

    @pytest.mark.parametrize("t", [-1e-3, np.inf, np.nan, 1.7e308])
    def test_refuses_a_time_that_is_not_finite_and_nonnegative(self, t):
        with pytest.raises(ConfigError, match="collision time"):
            collision_propagator(two_node_model(), t)  # max lambda = 1.5

    def test_stepper_refuses_a_collision_time_that_overflows(self):
        # eps^2 is a normal float and 0.5 dt / eps^2 = 2.2e305 is finite, but
        # not its product with the rate 5e3
        with pytest.raises(ConfigError, match="collision time"):
            Stepper(two_node_model(s=1e4), n_cells=8, dt=0.01, epsilon=1.5e-154)


class TestTransportStep:
    @pytest.mark.parametrize("n_x", [32, 33])
    def test_spectral_step_is_the_analytic_translate_of_a_band_limited_field(self, n_x):
        m = build_lorentz(LorentzSpec(16))
        st_ = Stepper(m, n_cells=n_x, dt=0.003, epsilon=0.5)
        rng = np.random.default_rng(n_x)
        amp, phase = rng.uniform(0.1, 0.5, (3, 16)), rng.uniform(0.0, 2 * np.pi, (3, 16))

        def field(x):  # f(x[:, v], v): modes 1-3, all below the Nyquist mode
            k = np.arange(1, 4)[:, None, None]
            return 1.0 + np.sum(amp[:, None, :] * np.cos(2 * np.pi * k * x + phase[:, None, :]),
                                axis=0)

        x = np.arange(n_x)[:, None] / n_x
        translate = field(x - st_.dt * st_.speeds[None, :])  # f(x - dt c_v, v)
        f = field(np.broadcast_to(x, translate.shape))
        assert np.max(np.abs(st_.advect_full(f) - translate)) < 1e-14

    def test_spectral_frames_are_the_split_step_on_the_multiplier(self):
        m = build_lorentz(LorentzSpec(8))
        traj = simulate(m, bump_rho(16), T=0.02, dt=0.002, transport="spectral")
        st_ = Stepper(m, n_cells=16, dt=0.002)
        for n in range(traj.n_steps):
            moved = shift(st_.collide_half(traj.f[n]), st_.multiplier)
            assert np.array_equal(traj.f[n + 1], st_.collide_half(moved))


class TestModeMarginals:
    @staticmethod
    def frame_marginals(model, f0, T, dt, epsilon):
        n_steps, frames = evolve(model, f0, T, dt, epsilon)
        f = np.stack(list(frames))
        return (f @ (model.weights * model.drift[:, 0]) / epsilon,
                f[-1] @ model.weights)

    @pytest.mark.parametrize("n_cells", [16, 15])
    def test_modes_give_the_marginals_of_the_frames(self, n_cells):
        m = build_lorentz(LorentzSpec(8))
        f0 = np.random.default_rng(n_cells).uniform(0.5, 2.0, (n_cells, 8))
        j_modes, rho_T = mode_marginals(m, f0, 0.02, 0.002, 0.5)
        j_ref, rho_ref = self.frame_marginals(m, f0, 0.02, 0.002, 0.5)
        assert j_modes.shape == (len(j_ref), n_cells // 2 + 1) == (11, n_cells // 2 + 1)
        j_path = np.fft.irfft(j_modes, n_cells, axis=1)
        assert np.max(np.abs(j_path - j_ref)) < 1e-14
        assert np.max(np.abs(rho_T - rho_ref)) < 1e-14

    def test_flushing_tiny_state_entries_keeps_the_outputs(self, monkeypatch):
        # at dt / eps^2 = 0.03, as the sweep steps, to t / eps^2 = 1200: unflushed,
        # the state decays into subnormals, which reach the current's modes
        m = build_lorentz(LorentzSpec(8))
        eps = 0.05
        dt = 0.03 * eps**2
        args = (m, bump_rho(16), 40000 * dt, dt, eps)
        sweep_args = (m, bump_rho(16), [eps], 40000 * dt)
        j_modes, rho_T = mode_marginals(*args)
        rows = sweep(*sweep_args).rows
        monkeypatch.setattr(kinetic, "_FLUSH_BELOW", 0.0)
        j_ref, rho_ref = mode_marginals(*args)
        rows_ref = sweep(*sweep_args).rows
        j, j_ref = j_modes.view(float), j_ref.view(float)

        def subnormal(a):
            return (a != 0.0) & (np.abs(a) < np.finfo(float).tiny)

        assert subnormal(j_ref).any() and not subnormal(j).any()
        assert np.array_equal(rho_T, rho_ref)
        # bit for bit wherever a flushed entry is below the rounding of j
        big = np.abs(j_ref) >= 1e-270
        assert np.array_equal(j[big], j_ref[big])
        assert np.max(np.abs(j - j_ref)) < 1e-288
        assert [dataclasses.replace(r, runtime_s=0.0) for r in rows] == [
            dataclasses.replace(r, runtime_s=0.0) for r in rows_ref]

    def test_checks_like_evolve(self):
        with pytest.raises(ConfigError):
            mode_marginals(two_node_model(), bump_rho(8), T=0.05, dt=0.02)
        with pytest.raises(ConfigError, match="whole number n >= 1"):  # a horizon of no step
            mode_marginals(two_node_model(), bump_rho(8), T=1e-12, dt=0.002)
        with pytest.raises(DomainError):
            mode_marginals(two_node_model(), -bump_rho(8), T=0.04, dt=0.02)

    def test_strang_converges_at_second_order_to_the_exact_propagator(self):
        # each rfft mode k evolves exactly by exp(t A_k),
        # A_k = L / eps^2 - 2 pi i k diag(b) / eps
        m = build_lorentz(LorentzSpec(8))
        n_cells, eps, T = 16, 0.5, 0.1
        b = m.drift[:, 0]
        x = (np.arange(n_cells) + 0.5) / n_cells
        f0 = (1.0 + 0.5 * np.cos(2 * np.pi * x)[:, None]
              + 0.3 * b[None, :] * np.sin(4 * np.pi * x)[:, None])
        f0 /= np.mean(f0 @ m.weights)  # unit mass, as the run normalizes it
        gen = m.sigma * m.weights[None, :] - np.diag(m.rates)
        f_hat = np.fft.rfft(f0, axis=0)
        exact = np.stack([
            expm(T * (gen / eps**2 - 2j * np.pi * k * np.diag(b) / eps)) @ f_hat[k]
            for k in range(len(f_hat))])
        rho_exact = np.fft.irfft(exact @ m.weights, n_cells)
        j_exact = np.fft.irfft(exact @ (m.weights * b) / eps, n_cells)
        dts = [T / n for n in (5, 10, 20, 40)]
        errors = []
        for dt in dts:
            j_modes, rho_T = mode_marginals(m, f0, T, dt, eps)
            j_T = np.fft.irfft(j_modes[-1], n_cells)
            errors.append(max(np.max(np.abs(rho_T - rho_exact)),
                              np.max(np.abs(j_T - j_exact))))
        order = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert 1.8 <= order <= 2.2, (order, errors)


class TestSimulate:
    def test_evolve_streams_the_frames_of_simulate(self):
        m = build_lorentz(LorentzSpec(8))
        traj = simulate(m, 3.0 * bump_rho(16), T=0.02, dt=0.002)
        n_steps, frames = evolve(m, 3.0 * bump_rho(16), T=0.02, dt=0.002)
        assert n_steps == traj.n_steps == 10
        assert np.array_equal(np.stack(list(frames)), traj.f)

    def test_evolve_checks_before_returning(self):
        with pytest.raises(ConfigError):
            evolve(two_node_model(), bump_rho(8), T=0.05, dt=0.02)
        with pytest.raises(DomainError):
            evolve(two_node_model(), bump_rho(8) - 2.0, T=0.02, dt=0.01)
        with pytest.raises(UsageError, match="velocity axis"):
            evolve(two_node_model(), np.ones((8, 3)), T=0.02, dt=0.01)
        with pytest.raises(DomainError, match="finite positive mass"):
            evolve(two_node_model(), np.zeros(8), T=0.02, dt=0.01)

    @pytest.mark.parametrize("bad, refusal", [(np.nan, "must be nonnegative"),
                                              (np.inf, "finite positive mass")])
    def test_every_run_refuses_a_datum_that_is_not_finite_before_stepping(self, bad, refusal):
        m = build_lorentz(LorentzSpec(8))
        rho0 = bump_rho(8)
        rho0[3] = bad
        f0 = local_equilibrium(bump_rho(8), m)
        f0[2, 5] = bad
        runs = {
            "evolve": lambda: evolve(m, rho0, 0.02, 0.01),
            "evolve f0": lambda: evolve(m, f0, 0.02, 0.01),
            "mode_marginals": lambda: mode_marginals(m, rho0, 0.02, 0.01),
            "simulate": lambda: simulate(m, f0, 0.02, 0.01),
            "sweep": lambda: sweep(m, rho0, [0.5], 0.02),
        }

        def no_step(*args, **kwargs):
            raise AssertionError("a run started")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kinetic, "Stepper", no_step)
            mp.setattr("linboltz.diffusive.mode_marginals", no_step)
            for run in runs.values():
                with pytest.raises(DomainError, match=refusal):
                    run()

    def test_refuses_a_trajectory_larger_than_memory(self):
        # 1e15 steps of a 2x8 grid: had np.empty come first, this would be a
        # MemoryError, not the guard's ConfigError
        with pytest.raises(ConfigError, match="physical memory"):
            simulate(two_node_model(), bump_rho(8), T=1e13, dt=0.01)

    def test_normalizes_initial_mass(self):
        m = two_node_model()
        traj = simulate(m, 3.0 * bump_rho(8), T=0.02, dt=0.01)
        mass = traj.dx * float(traj.f[0] @ m.weights @ np.ones(8))
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ConfigError):
            simulate(two_node_model(), bump_rho(8), T=0.05, dt=0.02)

    def test_rejects_negative_initial_data(self):
        with pytest.raises(DomainError):
            simulate(two_node_model(), bump_rho(8) - 2.0, T=0.02, dt=0.01)

    def test_stationary_state_fixed(self):
        m = two_node_model()
        traj = simulate(m, np.ones(8), T=0.1, dt=0.01)
        assert np.max(np.abs(traj.f - 1.0)) < 1e-12


class TestCurrentAndMarginals:
    def test_current_zero_for_velocity_constants(self):
        m = two_node_model()
        eta = current_of(np.ones((4, 2)), m)
        assert np.max(np.abs(eta)) == 0.0

    def test_current_antisymmetric_exactly(self):
        # the pairs i < j of the square S_ij (f_i - f_j), bit for bit, and the
        # negated pairs j > i
        m = build_lorentz(LorentzSpec(16))
        f = np.random.default_rng(1).uniform(0.5, 2.0, (4, 16))
        eta = current_of(f, m)
        full = (f[:, :, None] - f[:, None, :]) * m.sigma
        i, j = np.triu_indices(16, 1)
        assert np.array_equal(eta, full[:, i, j])
        assert np.array_equal(eta, -full[:, j, i])

    def test_current_refuses_a_density_off_the_models_nodes(self):
        m = build_lorentz(LorentzSpec(16))
        for f in (np.ones((4, 8)), np.ones((4, 17)), np.ones(16), np.ones((2, 4, 16))):
            with pytest.raises(UsageError, match="velocity nodes"):
                current_of(f, m)

    def test_current_recovers_generator(self):
        m = build_lorentz(LorentzSpec(16))
        f = np.random.default_rng(2).uniform(0.5, 2.0, (4, 16))
        eta = np.zeros((4, 16, 16))
        i, j = np.triu_indices(16, 1)
        eta[:, i, j] = current_of(f, m)
        eta[:, j, i] = -eta[:, i, j]
        lhs = eta @ m.weights  # sum_j w_j eta_ij
        rhs = -apply_generator(m, f.T).T
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_marginals_uniform(self):
        m = two_node_model()
        traj = simulate(m, np.ones(8), T=0.02, dt=0.01)
        rho = traj.f[0] @ m.weights
        j = traj.f[0] @ (m.weights * m.drift[:, 0]) / traj.epsilon
        assert np.max(np.abs(rho - 1.0)) < 1e-12
        assert np.max(np.abs(j)) < 1e-12

    def test_discrete_continuity_spectral(self):
        # collision preserves rho, so the density update is the divergence of
        # the post-half-collision state's flux over the step: on mode k,
        # -dt (2 pi i k) J_k with J_k = sum_i w_i c_i f_k,i times the mean of
        # exp(-2 pi i k c_i s) over s in [0, dt], by the complex FFT
        m = two_node_model(s=2.0, u=0.9)
        n_x = 16
        st = Stepper(m, n_cells=n_x, dt=0.01)
        x = np.arange(n_x)[:, None] / n_x
        f = local_equilibrium(bump_rho(n_x), m) * (1.0 + 0.1 * np.sin(2 * np.pi * x))
        f_new = st.step(f)
        k = np.fft.fftfreq(n_x, 1.0 / n_x)[:, None]
        arg = -2j * np.pi * k * st.dt * st.speeds[None, :]
        mean_phase = np.where(arg == 0, 1.0, np.expm1(arg) / np.where(arg == 0, 1.0, arg))
        flux_hat = np.fft.fft(st.collide_half(f), axis=0) * mean_phase @ (
            m.weights * st.speeds)
        div = np.fft.ifft(2j * np.pi * k[:, 0] * flux_hat).real
        res = (f_new - f) @ m.weights / st.dt + div
        assert np.max(np.abs(res)) < 1e-12
        assert abs(np.sum((f_new - f) @ m.weights)) < 1e-14  # the mass is that of f


class TestEntropyBalance:
    def test_stationary_zero(self):
        m = two_node_model()
        traj = simulate(m, np.ones(8), T=0.05, dt=0.01)
        res = entropy_balance_check(traj, m)
        assert res.total_residual < 1e-13

    def test_homogeneous_relaxation_order(self):
        m = two_node_model(s=2.0)
        f0 = np.tile(np.array([1.6, 0.4]), (4, 1))
        totals = {}
        for dt in (0.02, 0.01, 0.005):
            traj = simulate(m, f0, T=0.2, dt=dt)
            totals[dt] = entropy_balance_check(traj, m).total_residual
        order = np.log(totals[0.005] / totals[0.02]) / np.log(0.25)
        assert order > 1.9

    def test_transport_term_is_total_derivative(self):
        # with sigma = 0 the balance reduces to conservation of H under
        # pure (spectral) transport: the residual stays at roundoff
        m = VelocityModel(
            nodes=np.array([[0.0], [1.0]]),
            weights=np.array([0.5, 0.5]),
            drift=np.array([[1.0], [-1.0]]),
            sigma=np.zeros((2, 2)),
        )
        traj = simulate(m, bump_rho(64), T=0.05, dt=0.005, transport="spectral")
        res = entropy_balance_check(traj, m)
        assert res.total_residual < 1e-10


    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_pairing_equals_the_einsum_form(self, data):
        # random frames, so that the residual is the size of its terms
        n_v = data.draw(st.integers(1, 6), label="n_v")
        n_x = data.draw(st.integers(1, 5), label="n_x")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        sigma = rng.uniform(0.0, 2.0, (n_v, n_v))
        w = rng.uniform(0.1, 1.0, n_v)
        w /= w.sum()
        b = rng.normal(size=(n_v, 1))
        m = VelocityModel(nodes=np.arange(n_v)[:, None], weights=w,
                          drift=b - w @ b, sigma=sigma + sigma.T)
        f = rng.uniform(0.0, 2.0, (3, n_x, n_v))
        f[0, 0, 0] = 0.0  # the truncated logarithm's floor
        traj = Trajectory(f=f, dt=0.1, epsilon=0.7)
        got = entropy_balance_check(traj, m).per_step
        w = m.weights
        for n in range(2):
            f_mid = 0.5 * (f[n] + f[n + 1])
            lg = truncated_log(f_mid)
            eta = (f_mid[:, :, None] - f_mid[:, None, :]) * m.sigma
            pairing = np.einsum("i,j,xij,xij->", w, w, eta,
                                lg[:, None, :] - lg[:, :, None])
            want = (relative_entropy(f[n + 1], m) - relative_entropy(f[n], m)
                    - 0.1 * 0.5 / 0.7**2 * traj.dx * pairing)
            assert got[n] == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_refuses_an_asymmetric_kernel(self):
        # the pairing's BLAS form needs S = S^T, which every model has
        with pytest.raises(NumericalQualityError, match="not exactly symmetric"):
            VelocityModel(nodes=np.zeros((2, 1)), weights=np.array([0.5, 0.5]),
                          drift=np.array([[1.0], [-1.0]]),
                          sigma=np.array([[0.0, 1.0], [2.0, 0.0]]))


#: Lorentz-16, and a model of as many nodes that did not produce its runs
LORENTZ_16 = build_lorentz(LorentzSpec(16))
PHONON_16 = build_phonon(PhononSpec(dim=2, n_per_axis=4))


def certificate_routes(cert, path):
    """Each function that certifies a trajectory against a model, as route(traj, model)."""
    return (edi_certificate, entropy_balance_check,
            lambda traj, model: write_certificate_csv(traj, model, cert, path))


class TestEdiCertificate:
    def test_refuses_a_single_frame(self):
        # a trajectory holds a step to certify by construction
        with pytest.raises(ConfigError, match="at least 2 frames"):
            Trajectory(f=np.ones((1, 4, 8)), dt=0.01, epsilon=1.0)

    def test_refuses_a_run_that_ends_past_the_largest_float(self):
        # its times would overflow to inf
        with pytest.raises(ConfigError, match="past the largest float"):
            Trajectory(np.ones((3, 4, 2)), 1e308, 1.0)
        assert Trajectory(np.ones((2, 4, 2)), 1e308, 1.0).times[-1] == 1e308

    def test_stationary_all_terms_zero(self):
        m = two_node_model()
        traj = simulate(m, np.ones(8), T=0.05, dt=0.01)
        cert = edi_certificate(traj, m)
        assert abs(cert.h_initial) < 1e-14
        assert cert.dirichlet_integral < 1e-14
        assert cert.kinematic_value < 1e-14
        assert abs(cert.phi_residual) < 1e-14

    def test_terms_nonnegative(self):
        m = two_node_model(s=2.0)
        traj = simulate(m, bump_rho(16), T=0.1, dt=0.005)
        cert = edi_certificate(traj, m)
        assert cert.dirichlet_integral >= 0.0
        assert cert.kinematic_value >= 0.0

    def test_per_step_residuals_sum_to_the_gradient_flow_residual(self):
        m = two_node_model(s=2.0)
        traj = simulate(m, bump_rho(16), T=0.1, dt=0.005)
        cert = edi_certificate(traj, m)
        assert (cert.entropy[0], cert.entropy[-1]) == (cert.h_initial, cert.h_final)
        assert cert.per_step.sum() == pytest.approx(cert.gradient_flow_residual,
                                                    rel=1e-9, abs=1e-15)

    def test_relaxation_balance_order(self):
        m = two_node_model(s=2.0)
        f0 = np.tile(np.array([1.6, 0.4]), (4, 1))
        totals = {}
        for dt in (0.02, 0.01, 0.005):
            traj = simulate(m, f0, T=0.2, dt=dt)
            totals[dt] = edi_certificate(traj, m).balance_residual
        order = np.log(totals[0.005] / totals[0.02]) / np.log(0.25)
        assert order > 1.9

    def test_own_current_phi_residual_exactly_zero(self):
        m = two_node_model(s=2.0)
        traj = simulate(m, bump_rho(16), T=0.1, dt=0.01)
        cert = edi_certificate(traj, m)
        assert cert.phi_residual == 0.0

    @pytest.mark.parametrize("model", [
        build_rayleigh(RayleighSpec(dim=2, n_radial=4, n_angular=12)),
        VelocityModel(  # the pairs (0, 2) and (1, 3) have rate zero
            nodes=np.arange(4.0)[:, None], weights=np.full(4, 0.25),
            drift=np.array([[-1.5], [-0.5], [0.5], [1.5]]),
            sigma=np.array([[0.0, 1.0, 0.0, 2.0], [1.0, 0.0, 3.0, 0.0],
                            [0.0, 3.0, 0.0, 0.5], [2.0, 0.0, 0.5, 0.0]]),
        ),
    ], ids=["rayleigh", "zero_rate_pairs"])
    def test_the_certificates_current_is_current_of_bit_for_bit(self, model):
        # the certificate forms xi in place from its own pair gathers; both
        # sums, repeated here in the certificate's loop order on current_of,
        # must come out the same to the last bit
        traj = simulate(model, bump_rho(16), T=0.05, dt=0.01, transport="spectral")
        scale = 1.0 / traj.epsilon**2
        i, j, pair_weights = pair_triangle(model)
        for current_scale in (1.0, 2.0):
            kinematic = phi_total = 0.0
            for n in range(traj.n_steps):
                f_mid = 0.5 * (traj.f[n] + traj.f[n + 1])
                eta = current_scale * current_of(f_mid, model)
                kinematic += traj.dt * (scale * kinematic_rate(f_mid, eta, model))
                phi_vals = phi(model.sigma[i, j], f_mid[:, i], f_mid[:, j], eta)
                phi_total += traj.dt * (scale * traj.dx
                                        * float(np.sum(phi_vals @ pair_weights)))
            cert = edi_certificate(traj, model, current_scale=current_scale)
            assert cert.kinematic_value == kinematic
            assert cert.phi_residual == phi_total
        assert phi_total > 0.0

    def test_injected_current_strictly_positive(self):
        m = two_node_model(s=2.0)
        traj = simulate(m, bump_rho(16), T=0.1, dt=0.01)
        cert = edi_certificate(traj, m, current_scale=2.0)
        assert cert.phi_residual > 0.0

    def test_edi_identity_holds_off_the_solution(self):
        # along any (f, eta) that satisfies the continuity equation,
        # J = H(T) - H(0) + int (E + R) dt equals int Phi dt, which is > 0 off
        # the solution: here eta = current_of(f) + zeta, and f solves the
        # kinetic equation with the source -eps^-2 sum_j w_j zeta_ij
        m = build_lorentz(LorentzSpec(8))
        n_x, eps, T = 16, 0.5, 0.2
        scale = 1.0 / eps**2
        b = m.drift[:, 0]
        i, j, pair_weights = pair_triangle(m)
        cos = np.cos(2 * np.pi * (np.arange(n_x) + 0.5) / n_x)[:, None]
        f0 = np.repeat(1.0 + 0.5 * cos, m.n_nodes, axis=1)
        gen = m.sigma * m.weights[None, :] - np.diag(m.rates)

        def edi_sides(delta, dt):
            """(J, int Phi, the number of negative Phi elements) on exact frames
            dt apart, with the midpoint rule."""
            kernel = delta * m.sigma * np.subtract.outer(b, b)  # delta sigma_ij (b_i - b_j)
            zeta = cos * kernel[i, j]
            source_hat = np.fft.rfft(-scale * cos * (kernel @ m.weights), axis=0)
            # each rfft mode k evolves by exp(dt A_k), A_k = L / eps^2 - 2 pi i k
            # diag(b) / eps, with the constant source in one more row and column
            steps = []
            for k, s_k in enumerate(source_hat):
                aug = np.zeros((m.n_nodes + 1, m.n_nodes + 1), complex)
                aug[:-1, :-1] = scale * gen - 2j * np.pi * k * np.diag(b) / eps
                aug[:-1, -1] = s_k
                steps.append(expm(dt * aug))
            state = np.hstack([np.fft.rfft(f0, axis=0), np.ones((len(steps), 1))])
            frames = [f0]
            for _ in range(round(T / dt)):
                state = np.einsum("kab,kb->ka", np.stack(steps), state)
                frames.append(np.fft.irfft(state[:, :-1], n_x, axis=0))
            J = relative_entropy(frames[-1], m) - relative_entropy(f0, m)
            phi_total, negative = 0.0, 0
            for f, g in zip(frames, frames[1:]):
                f_mid = 0.5 * (f + g)
                eta = current_of(f_mid, m) + zeta
                J += dt * scale * (dirichlet_form(f_mid, m) + kinematic_rate(f_mid, eta, m))
                phi_vals = phi(m.sigma[i, j], f_mid[:, i], f_mid[:, j], eta)
                phi_total += dt * scale * float(np.sum(phi_vals @ pair_weights)) / n_x
                negative += int(np.count_nonzero(phi_vals < 0.0))
            return J, phi_total, negative

        dts = [0.02, 0.01, 0.005]
        sides = [edi_sides(0.1, dt) for dt in dts]
        gaps = [abs(J - phi_total) for J, phi_total, _ in sides]
        order = np.polyfit(np.log(dts), np.log(gaps), 1)[0]
        assert order >= 1.9, (order, gaps)
        phi_small = sides[-1][1]
        assert phi_small > 0.0
        phi_large = edi_sides(0.2, dts[-1])[1]
        assert phi_large / phi_small == pytest.approx(4.0, rel=0.1)
        # near the solution Phi is O(delta^2) and a difference of O(delta) terms
        # in the reference form; it must stay nonnegative and quadratic there
        (_, near, near_neg), (_, twice, twice_neg) = (edi_sides(d, dts[-1]) for d in (1e-8, 2e-8))
        assert near_neg == twice_neg == 0
        assert twice / near == pytest.approx(4.0, abs=1e-4)

    def test_refuses_a_working_set_larger_than_memory(self, monkeypatch):
        from linboltz import errors

        m = two_node_model(s=2.0)
        traj = simulate(m, bump_rho(16), T=0.02, dt=0.01)
        # with the trajectory: 16 cells x (3 frames x 2 nodes + 4 pair arrays
        # x 1 pair) = 16 x (3 x 2 + 2 x 2 x 1) = 160 floats, 1280 bytes
        monkeypatch.setattr(errors, "physical_memory", lambda: 1279)
        with pytest.raises(ConfigError, match="certificate's working set"):
            edi_certificate(traj, m)
        monkeypatch.setattr(errors, "physical_memory", lambda: 1280)
        assert edi_certificate(traj, m).phi_residual == 0.0

    def test_tolerance_raises(self):
        m = two_node_model(s=2.0)
        traj = simulate(m, bump_rho(16), T=0.1, dt=0.01)
        with pytest.raises(CertificationError) as exc:
            edi_certificate(traj, m, tol=1e-16)
        assert exc.value.certificate is not None

    def test_both_routes_refuse_another_models_trajectory(self, tmp_path):
        # an 8-node trajectory against a 16-node model once raised numpy's
        # ValueError from inside the sums; the CSV is the third route
        own = build_lorentz(LorentzSpec(8))
        traj = simulate(own, bump_rho(8), T=0.02, dt=0.01)
        for route in certificate_routes(edi_certificate(traj, own), tmp_path / "c.csv"):
            with pytest.raises(ConfigError, match="velocity nodes"):
                route(traj, LORENTZ_16)
        assert not (tmp_path / "c.csv").exists()

    def test_every_route_refuses_another_model_of_as_many_nodes(self, tmp_path):
        # Phonon-2d 4 x 4 once certified these frames, with a balance residual
        # of 1.6e-5 against 8.8e-7 for the model that produced them
        traj = simulate(LORENTZ_16, bump_rho(32), T=0.02, dt=0.005)
        cert = edi_certificate(traj, LORENTZ_16)
        for route in certificate_routes(cert, tmp_path / "c.csv"):
            with pytest.raises(ConfigError, match="not produced by this model"):
                route(traj, PHONON_16)
        assert not (tmp_path / "c.csv").exists()

    def test_frames_without_a_fingerprint_are_checked_by_shape_only(self):
        # frames that name no model, as another solver's would, certify as the
        # run they are: against its model bit for bit, against another without
        # a claim to check
        traj = simulate(LORENTZ_16, bump_rho(32), T=0.02, dt=0.005)
        bare = Trajectory(traj.f, traj.dt, traj.epsilon)
        want, got = edi_certificate(traj, LORENTZ_16), edi_certificate(bare, LORENTZ_16)
        for name in (f.name for f in dataclasses.fields(want)):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert entropy_balance_check(bare, PHONON_16).total_residual > 0.0

    @pytest.mark.parametrize("change", [{"dt": 0.01}, {"epsilon": 0.5}], ids=["dt", "epsilon"])
    def test_every_route_refuses_frames_that_their_scheme_does_not_step(self, tmp_path, change):
        traj = simulate(LORENTZ_16, bump_rho(32), T=0.02, dt=0.005)
        cert = edi_certificate(traj, LORENTZ_16)
        other = dataclasses.replace(traj, **change)
        for route in certificate_routes(cert, tmp_path / "c.csv"):
            with pytest.raises(ConfigError, match="not a run of dt = .*, epsilon = .* misses"):
                route(other, LORENTZ_16)
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("amplitude", sorted(CERTIFY_CONFIG_CERTIFICATES))
    def test_certify_config_keeps_its_recorded_certificate_to_rounding(self, amplitude):
        # psi's half-angle form and E's pairing each round differently from
        # the forms these values were recorded with; H and Phi do not move
        x = (np.arange(64) + 0.5) / 64
        traj = simulate(CERTIFY_MODEL, 1.0 + amplitude * np.cos(2.0 * np.pi * x), T=0.04, dt=2e-3)
        got = edi_certificate(traj, CERTIFY_MODEL)
        old = {k: float.fromhex(v) for k, v in CERTIFY_CONFIG_CERTIFICATES[amplitude].items()}
        assert (got.h_initial, got.h_final) == (old["h_initial"], old["h_final"])
        assert got.phi_residual == 0.0
        assert got.kinematic_value == pytest.approx(old["kinematic_value"], rel=1e-14, abs=0.0)
        assert got.dirichlet_integral == pytest.approx(old["dirichlet_integral"],
                                                       rel=1e-12, abs=0.0)
        assert abs(got.balance_residual - old["balance_residual"]) <= 1e-15
        assert abs(got.max_step_residual - old["max_step_residual"]) <= 1e-15


#: criterion 5's models and amplitudes for the gap between the two balances
BALANCE_RUNS = {"lorentz-16": (LORENTZ_16, 0.5), "rayleigh-120": (CERTIFY_MODEL, 0.45),
                "phonon-64": (build_phonon(PhononSpec(dim=2, n_per_axis=8)), 0.5)}


class TestLedger:
    """The certificates share one time quadrature, ``kinetic._ledger``."""

    @pytest.mark.parametrize("name", BALANCE_RUNS)
    def test_the_two_balances_agree_on_the_runs_own_frames(self, name, monkeypatch):
        # at the own current E + R is the entropy balance's dissipation in
        # exact arithmetic: the per-step residuals differ by the rounding of
        # psi, the Dirichlet form and the pairing, three independent formulas
        model, a = BALANCE_RUNS[name]
        T = 0.1
        traj = simulate(model, bump_rho(64, a), T=T, dt=2e-3)
        bound = 1e-13 * T / traj.epsilon**2 * float(model.rates.max())

        def gap():
            edi = edi_certificate(traj, model).per_step
            return abs(float(np.sum(edi - entropy_balance_check(traj, model).per_step)))

        assert gap() <= bound
        # psi off by 1e-8 relative must show: 42x to 464x the bound, measured
        centered_cost = functionals._centered_cost

        def off(alpha, xi, out, t):
            bad = centered_cost(alpha, xi, out, t)
            out *= 1.0 + 1e-8
            return bad

        monkeypatch.setattr(functionals, "_centered_cost", off)
        assert gap() > bound

    def test_each_view_makes_only_the_passes_it_needs(self, tmp_path, monkeypatch):
        m = build_lorentz(LorentzSpec(8))
        traj = simulate(m, bump_rho(16), T=0.05, dt=0.01)
        assert traj.n_steps == 5
        cert = edi_certificate(traj, m)
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("relative_entropy", "phi", "kinematic_rate", "dirichlet_form", "current_of"):
            monkeypatch.setattr(kinetic, name, counted(name, getattr(kinetic, name)))
        views = {
            "balance": lambda: entropy_balance_check(traj, m),
            "certificate": lambda: edi_certificate(traj, m),
            "csv": lambda: write_certificate_csv(traj, m, cert, tmp_path / "c.csv"),
        }
        # H of each frame once in every view; the CSV's E is at the 6 frames
        expected = {
            "balance": {"relative_entropy": 6},
            "certificate": {"relative_entropy": 6, "dirichlet_form": 5, "kinematic_rate": 5,
                            "phi": 5},
            "csv": {"relative_entropy": 6, "dirichlet_form": 6, "kinematic_rate": 5,
                    "current_of": 5},
        }
        for name, view in views.items():
            calls.clear()
            view()
            assert calls == expected[name], name


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        m = two_node_model()
        traj = simulate(m, bump_rho(8), T=0.02, dt=0.01)
        save_trajectory(traj, tmp_path / "t")
        back = load_trajectory(tmp_path / "t")
        assert np.array_equal(back.f, traj.f)
        assert (back.dt, back.epsilon, back.model_name, back.model_fingerprint) == (
            traj.dt, traj.epsilon, traj.model_name, traj.model_fingerprint)
        # Trajectory has no transport; meta.json names the only one
        assert json.loads((tmp_path / "t" / "meta.json").read_text())["transport"] == "spectral"
        # the scheme it names steps frame 0 to frame 1 bit for bit
        assert np.array_equal(Stepper(m, 8, back.dt, back.epsilon).step(back.f[0]), back.f[1])

    def test_load_refuses_a_run_that_names_no_model(self, tmp_path):
        save_trajectory(Trajectory(np.ones((2, 8, 2)), 0.01, 1.0), tmp_path)
        with pytest.raises(ConfigError, match="names no model fingerprint"):
            load_trajectory(tmp_path)

    def test_certificate_csv(self, tmp_path):
        m = two_node_model()
        traj = simulate(m, bump_rho(8), T=0.02, dt=0.01)
        cert = edi_certificate(traj, m)
        path = tmp_path / "cert.csv"
        write_certificate_csv(traj, m, cert, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("t,entropy,dirichlet")
        assert len(lines) == 1 + traj.f.shape[0]

    def test_certificate_csv_refuses_a_certificate_of_another_frame_count(self, tmp_path):
        # a longer run's certificate once wrote that run's H and residuals, a
        # shorter one's raised IndexError
        m = two_node_model()
        traj = simulate(m, bump_rho(8), T=0.02, dt=0.01)
        for T in (0.01, 0.03):
            other = edi_certificate(simulate(m, bump_rho(8), T=T, dt=0.01), m)
            with pytest.raises(UsageError, match="frames"):
                write_certificate_csv(traj, m, other, tmp_path / "cert.csv")

    def test_certificate_csv_refuses_a_certificate_of_another_run_of_as_many_frames(
            self, tmp_path):
        # it once wrote the other run's H and residuals
        m = build_lorentz(LorentzSpec(12))
        x = (np.arange(16) + 0.5) / 16
        runs = {a: simulate(m, 1.0 + a * np.cos(2.0 * np.pi * x), T=0.05, dt=0.01)
                for a in (0.3, 0.6)}
        other = edi_certificate(runs[0.6], m)
        with pytest.raises(UsageError, match="another run"):
            write_certificate_csv(runs[0.3], m, other, tmp_path / "cert.csv")
        assert not (tmp_path / "cert.csv").exists()
        write_certificate_csv(runs[0.6], m, other, tmp_path / "cert.csv")

    @pytest.mark.parametrize("model", [LORENTZ_16, CERTIFY_MODEL, PHONON_16],
                             ids=["lorentz-16", "rayleigh-120", "phonon-16"])
    def test_certificate_csv_refuses_a_probe_certificate(self, tmp_path, model):
        # it once wrote the own current's R beside the probe's residuals: on
        # Lorentz-16 1.31237e-4, where the probe charged 5.24029e-4
        traj = simulate(model, bump_rho(32), T=0.05, dt=0.005)
        path = tmp_path / "cert.csv"
        probe = edi_certificate(traj, model, current_scale=2.0)
        with pytest.raises(UsageError, match="another current"):
            write_certificate_csv(traj, model, probe, path)
        assert not path.exists()
        # the own certificate's R is the CSV's to the last bit
        cert = edi_certificate(traj, model)
        write_certificate_csv(traj, model, cert, path)
        with open(path, newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        assert last["cumulative_r"] == f"{cert.kinematic_value:.12g}"

    def test_certificate_csv_agrees_with_certificate(self, tmp_path):
        m = build_lorentz(LorentzSpec(12))
        traj = simulate(m, bump_rho(16), T=0.05, dt=0.01, transport="spectral")
        cert = edi_certificate(traj, m)
        path = tmp_path / "cert.csv"
        write_certificate_csv(traj, m, cert, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == traj.f.shape[0]
        # the CSV carries 12 significant digits
        assert rows[0]["entropy"] == f"{cert.h_initial:.12g}"
        assert rows[-1]["entropy"] == f"{cert.h_final:.12g}"
        assert [float(r["step_residual"]) for r in rows[1:]] == [
            float(f"{v:.12g}") for v in cert.per_step
        ]
        assert float(rows[0]["cumulative_r"]) == 0.0
        assert float(rows[-1]["cumulative_r"]) == pytest.approx(
            float(f"{cert.kinematic_value:.12g}"), rel=1e-12
        )
        assert cert.kinematic_value > 0.0


# each bad in one field of the scheme dt = 0.01, eps = 1, spectral on Lorentz-8
BAD_SCHEMES = {
    "weno": {"transport": "weno"},
    "upwind": {"transport": "upwind"},  # which older runs wrote
    "dt 0": {"dt": 0.0},
    "dt nan": {"dt": np.nan},
    "tiny epsilon": {"epsilon": 1e-200},  # epsilon**2 == 0.0
}


@pytest.mark.parametrize("change", BAD_SCHEMES.values(), ids=BAD_SCHEMES)
def test_every_entry_point_refuses_a_bad_scheme_with_one_message(tmp_path, change):
    m = build_lorentz(LorentzSpec(8))
    scheme = dict({"dt": 0.01, "epsilon": 1.0}, **change)
    T = scheme["dt"]  # one step; the sweep picks its own dt, at most T
    rho0 = bump_rho(8)
    runs = {
        "simulate": lambda: simulate(m, rho0, T, **scheme),
        "load_trajectory": lambda: load_trajectory(tmp_path),
    }
    if "transport" not in change:  # only simulate and a saved run name a transport
        runs["Stepper"] = lambda: Stepper(m, 8, **scheme)
        runs["evolve"] = lambda: evolve(m, rho0, T, **scheme)
        runs["Trajectory"] = lambda: Trajectory(frames, **scheme)
        runs["mode_marginals"] = lambda: mode_marginals(m, rho0, T, **scheme)
        runs["sweep"] = lambda: sweep(m, rho0, [scheme["epsilon"]], T)
    frames = np.ones((2, 8, 8))
    save_trajectory(Trajectory(frames, 0.01, 1.0), tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    (tmp_path / "meta.json").write_text(json.dumps(dict(meta, **change)))
    messages = {}
    for name, run in runs.items():
        with pytest.raises(ConfigError) as info:
            run()
        messages[name] = str(info.value)
    message = messages["simulate"]
    assert messages.pop("load_trajectory") == f"{tmp_path} is not a valid trajectory: {message}"
    assert set(messages.values()) == {message}
