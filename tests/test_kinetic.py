import csv
import dataclasses

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
    build_lorentz,
)
from linboltz import kinetic
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
from linboltz.functionals import relative_entropy, truncated_log
from linboltz.spectral import shift
from linboltz.velocity import VelocityModel, apply_generator


def two_node_model(s=3.0, u=1.0):
    return VelocityModel(
        nodes=np.array([[0.0], [1.0]]),
        weights=np.array([0.5, 0.5]),
        drift=np.array([[u], [-u]]),
        sigma=np.array([[0.0, s], [s, 0.0]]),
    )


def bump_rho(n):
    x = (np.arange(n) + 0.5) / n
    return 1.0 + 0.5 * np.cos(2.0 * np.pi * x)


class TestStepper:
    def test_cfl_enforced(self):
        m = two_node_model(u=2.0)
        with pytest.raises(ConfigError):
            Stepper(m, n_cells=8, dt=0.5, epsilon=1.0)  # nu = 8 >> 1

    def test_unknown_transport(self):
        with pytest.raises(ConfigError):
            Stepper(two_node_model(), 8, 0.01, transport="weno")

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
        dx = 1.0 / n_x
        for x in range(n_x):
            big_C[2 * x : 2 * x + 2, 2 * x : 2 * x + 2] = C
        for i, c in enumerate(m.drift[:, 0]):
            nu = dt * c / dx
            for x in range(n_x):
                row = 2 * x + i
                if c >= 0:
                    big_T[row, row] += 1.0 - nu
                    big_T[row, 2 * ((x - 1) % n_x) + i] += nu
                else:
                    big_T[row, row] += 1.0 + nu
                    big_T[row, 2 * ((x + 1) % n_x) + i] += -nu
        prop = big_C @ big_T @ big_C
        expected = (prop @ f.reshape(-1)).reshape(n_x, 2)
        assert np.max(np.abs(st.step(f) - expected)) < 1e-12

    def test_positivity_and_mass_upwind(self):
        m = two_node_model()
        traj = simulate(m, bump_rho(16), T=0.2, dt=0.01)
        assert np.min(traj.f) >= 0.0
        mass = traj.dx * traj.f @ m.weights @ np.ones(16)
        assert np.max(np.abs(mass - 1.0)) < 1e-10

    def test_entropy_monotone_upwind(self):
        m = two_node_model()
        traj = simulate(m, bump_rho(16), T=0.2, dt=0.01)
        H = edi_certificate(traj, m).entropy
        assert np.array_equal(H, [relative_entropy(f, m) for f in traj.f])
        assert np.all(np.diff(H) <= 1e-12)

    def test_spectral_matches_upwind_in_smooth_limit(self):
        m = two_node_model(s=4.0)
        a = simulate(m, bump_rho(128), T=0.05, dt=1e-4, transport="upwind")
        b = simulate(m, bump_rho(128), T=0.05, dt=1e-4, transport="spectral")
        assert np.max(np.abs(a.f[-1] - b.f[-1])) < 5e-3


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
            Stepper(two_node_model(s=1e4), n_cells=8, dt=0.01, epsilon=1.5e-154,
                    transport="spectral")


def loop_upwind(f, speeds, dt, dx):
    """The upwind transport step, one velocity column at a time."""
    out = np.empty_like(f)
    for i, c in enumerate(speeds):
        col = f[:, i]
        nu = dt * c / dx
        if c >= 0:
            out[:, i] = col - nu * (col - np.roll(col, 1))
        else:
            out[:, i] = col - nu * (np.roll(col, -1) - col)
    return out


class TestTransportStep:
    @pytest.mark.parametrize("n_x", [32, 33])
    def test_spectral_step_is_the_analytic_translate_of_a_band_limited_field(self, n_x):
        m = build_lorentz(LorentzSpec(16))
        st_ = Stepper(m, n_cells=n_x, dt=0.003, epsilon=0.5, transport="spectral",
                      drift_axis=1)
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
        st_ = Stepper(m, n_cells=16, dt=0.002, transport="spectral")
        for n in range(traj.n_steps):
            moved = shift(st_.collide_half(traj.f[n]), st_.multiplier)
            assert np.array_equal(traj.f[n + 1], st_.collide_half(moved))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_vectorized_upwind_equals_the_loop(self, data):
        n_x = data.draw(st.integers(2, 12), label="n_x")
        dt = 0.01
        c_max = (1.0 / n_x) / dt  # the speed at CFL = 1
        speed = st.one_of(st.sampled_from([0.0, -0.0, c_max, -c_max]),
                          st.floats(-c_max, c_max))
        speeds = np.array(data.draw(st.lists(speed, min_size=1, max_size=6), label="speeds"))
        n_v = speeds.size
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        sigma = rng.uniform(0.0, 2.0, (n_v, n_v))
        m = VelocityModel(nodes=np.arange(n_v)[:, None], weights=np.full(n_v, 1.0 / n_v),
                          drift=speeds[:, None], sigma=sigma + sigma.T)
        st_ = Stepper(m, n_cells=n_x, dt=dt)
        f = rng.uniform(0.0, 2.0, (n_x, n_v))
        assert np.array_equal(st_.advect_full(f), loop_upwind(f, st_.speeds, dt, st_.dx))
        n_steps, frames = evolve(m, f, T=3 * dt, dt=dt)
        g = next(frames)
        for frame in frames:
            g = st_.collide_half(loop_upwind(st_.collide_half(g), st_.speeds, dt, st_.dx))
            assert np.array_equal(frame, g)


    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mode_multiplier_is_the_real_space_step(self, data):
        n_x = data.draw(st.integers(2, 16), label="n_x")
        dt = 0.01
        c_max = (1.0 / n_x) / dt  # the speed at CFL = 1
        speed = st.one_of(st.sampled_from([0.0, -0.0, c_max, -c_max]),
                          st.floats(-c_max, c_max))
        n_v = data.draw(st.integers(1, 6), label="n_v")
        speeds = np.array(data.draw(st.lists(speed, min_size=2 * n_v, max_size=2 * n_v),
                                    label="speeds")).reshape(n_v, 2)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        sigma = rng.uniform(0.0, 2.0, (n_v, n_v))
        m = VelocityModel(nodes=np.arange(n_v)[:, None], weights=np.full(n_v, 1.0 / n_v),
                          drift=speeds, sigma=sigma + sigma.T)
        f = rng.uniform(0.0, 2.0, (n_x, n_v))
        for axis in (0, 1):
            st_ = Stepper(m, n_cells=n_x, dt=dt, drift_axis=axis)
            moved = shift(f, st_.multiplier)
            assert np.max(np.abs(moved - st_.advect_full(f))) <= 1e-15 * np.max(f)


class TestModeMarginals:
    @staticmethod
    def frame_marginals(model, f0, T, dt, epsilon, transport, drift_axis):
        n_steps, frames = evolve(model, f0, T, dt, epsilon, transport, drift_axis)
        f = np.stack(list(frames))
        return (f @ (model.weights * model.drift[:, drift_axis]) / epsilon,
                f[-1] @ model.weights)

    @pytest.mark.parametrize("transport", ["upwind", "spectral"])
    @pytest.mark.parametrize("n_cells", [16, 15])
    def test_modes_give_the_marginals_of_the_frames(self, transport, n_cells):
        m = build_lorentz(LorentzSpec(8))
        f0 = np.random.default_rng(n_cells).uniform(0.5, 2.0, (n_cells, 8))
        for T, dt in ((0.02, 0.002), (1e-12, 0.002)):  # ten steps, and none
            j_modes, rho_T = mode_marginals(m, f0, T, dt, 0.5, transport, 1)
            j_ref, rho_ref = self.frame_marginals(m, f0, T, dt, 0.5, transport, 1)
            assert j_modes.shape == (len(j_ref), n_cells // 2 + 1)
            j_path = np.fft.irfft(j_modes, n_cells, axis=1)
            assert np.max(np.abs(j_path - j_ref)) < 1e-14
            assert np.max(np.abs(rho_T - rho_ref)) < 1e-14

    @pytest.mark.parametrize("transport", ["upwind", "spectral"])
    def test_flushing_tiny_state_entries_keeps_the_outputs(self, monkeypatch, transport):
        # at dt / eps^2 = 0.03, as the sweep steps, to t / eps^2 = 1200: unflushed,
        # the state decays into subnormals, which reach the current's modes
        m = build_lorentz(LorentzSpec(8))
        eps = 0.05
        dt = 0.03 * eps**2
        args = (m, bump_rho(16), 40000 * dt, dt, eps, transport)
        sweep_args = (m, bump_rho(16), [eps], 40000 * dt, transport)
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
        with pytest.raises(DomainError):
            mode_marginals(two_node_model(), -bump_rho(8), T=0.04, dt=0.02)
        with pytest.raises(ConfigError):  # CFL
            mode_marginals(two_node_model(u=2.0), bump_rho(8), T=0.5, dt=0.5)

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
            j_modes, rho_T = mode_marginals(m, f0, T, dt, eps, "spectral")
            j_T = np.fft.irfft(j_modes[-1], n_cells)
            errors.append(max(np.max(np.abs(rho_T - rho_exact)),
                              np.max(np.abs(j_T - j_exact))))
        order = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert 1.8 <= order <= 2.2, (order, errors)


class TestSimulate:
    def test_evolve_streams_the_frames_of_simulate(self):
        m = build_lorentz(LorentzSpec(8))
        for transport in ("upwind", "spectral"):
            traj = simulate(m, 3.0 * bump_rho(16), T=0.02, dt=0.002, transport=transport)
            n_steps, frames = evolve(m, 3.0 * bump_rho(16), T=0.02, dt=0.002,
                                     transport=transport)
            assert n_steps == traj.n_steps == 10
            assert np.array_equal(np.stack(list(frames)), traj.f)

    def test_evolve_checks_before_returning(self):
        with pytest.raises(ConfigError):
            evolve(two_node_model(), bump_rho(8), T=0.05, dt=0.02)
        with pytest.raises(DomainError):
            evolve(two_node_model(), bump_rho(8) - 2.0, T=0.02, dt=0.01)

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
        m = build_lorentz(LorentzSpec(16))
        f = np.random.default_rng(1).uniform(0.5, 2.0, (4, 16))
        eta = current_of(f, m)
        assert np.array_equal(eta, -np.swapaxes(eta, 1, 2))

    def test_current_recovers_generator(self):
        m = build_lorentz(LorentzSpec(16))
        f = np.random.default_rng(2).uniform(0.5, 2.0, (4, 16))
        eta = current_of(f, m)
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

    def test_discrete_continuity_upwind(self):
        # collision preserves rho, so the density update is exactly the
        # upwind flux divergence of the post-half-collision state
        m = two_node_model(s=2.0, u=0.9)
        st = Stepper(m, n_cells=16, dt=0.01)
        f = local_equilibrium(bump_rho(16), m) * (
            1.0 + 0.1 * np.sin(2 * np.pi * np.arange(16)[:, None] / 16)
        )
        f_half = st.collide_half(f)
        f_new = st.step(f)
        rho_old = f @ m.weights
        rho_new = f_new @ m.weights
        dx = st.dx
        flux = np.zeros(16)  # flux through the right face of each cell
        for i, c in enumerate(st.speeds):
            w = m.weights[i]
            if c >= 0:
                flux += w * c * f_half[:, i]
            else:
                flux += w * c * np.roll(f_half[:, i], -1)
        div = (flux - np.roll(flux, 1)) / dx
        res = (rho_new - rho_old) / st.dt + div
        assert np.max(np.abs(res)) < 1e-12


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
        m = VelocityModel(nodes=np.arange(n_v)[:, None], weights=w / w.sum(),
                          drift=rng.normal(size=(n_v, 1)), sigma=sigma + sigma.T)
        f = rng.uniform(0.0, 2.0, (3, n_x, n_v))
        f[0, 0, 0] = 0.0  # the truncated logarithm's floor
        traj = Trajectory(f=f, dt=0.1, epsilon=0.7, transport="upwind")
        got = entropy_balance_check(traj, m).per_step
        w = m.weights
        for n in range(2):
            f_mid = 0.5 * (f[n] + f[n + 1])
            lg = truncated_log(f_mid)
            pairing = np.einsum("i,j,xij,xij->", w, w, current_of(f_mid, m),
                                lg[:, None, :] - lg[:, :, None])
            want = (relative_entropy(f[n + 1], m) - relative_entropy(f[n], m)
                    - 0.1 * 0.5 / 0.7**2 * traj.dx * pairing)
            assert got[n] == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_refuses_an_asymmetric_kernel(self):
        m = VelocityModel(nodes=np.zeros((2, 1)), weights=np.array([0.5, 0.5]),
                          drift=np.array([[1.0], [-1.0]]),
                          sigma=np.array([[0.0, 1.0], [2.0, 0.0]]))
        traj = simulate(m, np.ones(4), T=0.02, dt=0.01)
        with pytest.raises(NumericalQualityError):
            entropy_balance_check(traj, m)


class TestEdiCertificate:
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

    def test_injected_current_strictly_positive(self):
        m = two_node_model(s=2.0)
        traj = simulate(m, bump_rho(16), T=0.1, dt=0.01)
        cert = edi_certificate(traj, m, current_scale=2.0)
        assert cert.phi_residual > 0.0

    def test_refuses_a_working_set_larger_than_memory(self, monkeypatch):
        from linboltz import errors

        m = two_node_model(s=2.0)
        traj = simulate(m, bump_rho(16), T=0.02, dt=0.01)
        # with the trajectory: 16 cells x 2 nodes x (3 frames + 2 x 2 - 1) = 192
        # floats, 1536 bytes
        monkeypatch.setattr(errors, "physical_memory", lambda: 1535)
        with pytest.raises(ConfigError, match="certificate's working set"):
            edi_certificate(traj, m)
        monkeypatch.setattr(errors, "physical_memory", lambda: 1536)
        assert edi_certificate(traj, m).phi_residual == 0.0

    def test_tolerance_raises(self):
        m = two_node_model(s=2.0)
        traj = simulate(m, bump_rho(16), T=0.1, dt=0.01)
        with pytest.raises(CertificationError) as exc:
            edi_certificate(traj, m, tol=1e-16)
        assert exc.value.certificate is not None


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        m = two_node_model()
        traj = simulate(m, bump_rho(8), T=0.02, dt=0.01)
        save_trajectory(traj, tmp_path / "t")
        back = load_trajectory(tmp_path / "t")
        assert np.array_equal(back.f, traj.f)
        assert back.dt == traj.dt
        assert back.transport == traj.transport

    def test_certificate_csv(self, tmp_path):
        m = two_node_model()
        traj = simulate(m, bump_rho(8), T=0.02, dt=0.01)
        cert = edi_certificate(traj, m)
        path = tmp_path / "cert.csv"
        write_certificate_csv(traj, m, cert, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("t,entropy,dirichlet")
        assert len(lines) == 1 + traj.f.shape[0]

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
