import json

import numpy as np
import pytest

from linboltz import ConfigError, LorentzSpec, build_lorentz
from linboltz.diffusive import (
    _current_pairings,
    _parseval_weights,
    _trapezoid,
    auto_dt,
    config_hash,
    default_test_bank,
    rescaled_run,
    sweep,
    write_manifest,
    write_sweep_csv,
)
from linboltz.heat import HeatFlow
from linboltz.kinetic import mode_marginals
from linboltz.velocity import VelocityModel, diffusion_matrix, poisson_solve


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


@pytest.fixture(scope="module")
def report():
    m = two_node_model(s=4.0)
    return sweep(m, bump_rho(32), [0.4, 0.2, 0.1], T=0.3)


class TestAutoDt:
    def test_divides_horizon(self):
        m = two_node_model()
        dt = auto_dt(m, epsilon=0.1, T=0.5, n_cells=32)
        assert (0.5 / dt) == pytest.approx(round(0.5 / dt), abs=1e-12)

    def test_respects_cfl_cap(self):
        m = two_node_model(u=2.0)
        eps, n = 0.5, 32
        dt = auto_dt(m, eps, T=1.0, n_cells=n)
        assert dt <= 0.5 * eps * (1.0 / n) / 2.0 + 1e-15

    def test_respects_splitting_cap(self):
        m = two_node_model()
        eps = 0.05
        dt = auto_dt(m, eps, T=1.0, n_cells=8)
        assert dt <= 0.03 * eps**2 + 1e-15

    def test_rejects_zero_drift_axis(self):
        m = VelocityModel(
            nodes=np.zeros((2, 1)),
            weights=np.array([0.5, 0.5]),
            drift=np.zeros((2, 1)),
            sigma=np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
        with pytest.raises(ConfigError):
            auto_dt(m, 0.1, 1.0, 16)


class TestRescaledRun:
    def test_stationary_profile(self):
        m = two_node_model()
        traj = rescaled_run(m, np.ones(16), epsilon=0.5, T=0.1)
        assert np.max(np.abs(traj.f - 1.0)) < 1e-12

    def test_mass_one(self):
        m = two_node_model()
        traj = rescaled_run(m, bump_rho(16), epsilon=0.5, T=0.1)
        mass = traj.dx * traj.f[-1] @ m.weights @ np.ones(16)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_epsilon_and_shape(self):
        m = two_node_model()
        with pytest.raises(ConfigError):
            rescaled_run(m, bump_rho(16), epsilon=0.0, T=0.1)
        with pytest.raises(ConfigError):
            rescaled_run(m, np.ones((16, 2)), epsilon=0.5, T=0.1)
        with pytest.raises(ConfigError):
            sweep(m, np.ones((16, 2)), [0.5], T=0.1)


class TestSweep:
    def test_errors_decrease_with_epsilon(self, report):
        assert report.errors_decreasing()
        assert report.rows[-1].l1 < 0.05

    def test_d_axis_matches_closed_form(self, report):
        # two-node D = u^2/s
        assert report.d_axis == pytest.approx(1.0 / 4.0, rel=1e-10)

    def test_rows_sorted_and_tagged(self, report):
        eps = [r.epsilon for r in report.rows]
        assert eps == sorted(eps, reverse=True)
        assert report.transport == "spectral"

    def test_weak_current_errors_small(self, report):
        assert all(r.weak_j_err < 0.1 for r in report.rows)
        assert report.rows[-1].weak_j_err < report.rows[0].weak_j_err

    def test_bonj_constant_finite(self, report):
        assert all(np.isfinite(r.bonj_constant) for r in report.rows)
        assert all(r.bonj_constant >= 0.0 for r in report.rows)

    def test_stationary_sweep_zero_errors(self):
        m = two_node_model()
        rep = sweep(m, np.ones(16), [0.5, 0.25], T=0.1)
        assert all(r.l1 < 1e-11 and r.l2 < 1e-11 for r in rep.rows)

    def test_lorentz_matches_three_sixteenths(self):
        rep = sweep(
            build_lorentz(LorentzSpec(32)), bump_rho(16), [0.5], T=0.05)
        assert rep.d_axis == pytest.approx(0.1875, abs=1e-3)


def frame_holding_rows(model, rho0, eps_list, T, n_cells, transport, drift_axis):
    """(l1, l2, weak_j_err, bonj_constant) per epsilon from whole trajectories,
    the per-time heat current and a loop over every dyadic window."""
    D, _ = diffusion_matrix(model, poisson_solve(model))
    flow = HeatFlow(rho0, D[drift_axis:drift_axis + 1, drift_axis:drift_axis + 1])
    rho_heat_T = flow.rho_at(T)
    bank = default_test_bank(n_cells)
    rows = []
    for eps in sorted(eps_list, reverse=True):
        traj = rescaled_run(model, rho0, eps, T, transport=transport,
                            drift_axis=drift_axis)
        dx, dt, n_t = traj.dx, traj.dt, traj.times.size
        rho_T = traj.f[-1] @ model.weights
        j_path = traj.f @ (model.weights * model.drift[:, drift_axis]) / eps
        j_heat = np.stack([flow.current_at(t) for t in traj.times])
        tw = _trapezoid(n_t, dt)
        weak = max(abs(float(dx * tw @ (j_path @ w)) - float(tw @ (dx * (j_heat @ w))))
                   for w in bank.values())
        bonj, span = 0.0, n_t - 1
        while span >= 1:
            for start in range(0, n_t - span, span):
                seg = j_path[start:start + span + 1]
                for w in bank.values():
                    val = abs(dx * _trapezoid(span + 1, dt) @ (seg @ w))
                    bonj = max(bonj, val / np.sqrt(span * dt))
            span //= 2
        rows.append((float(dx * np.sum(np.abs(rho_T - rho_heat_T))),
                     float(np.sqrt(dx * np.sum((rho_T - rho_heat_T) ** 2))), weak, bonj))
    return rows


@pytest.mark.parametrize("transport, drift_axis", [
    ("spectral", 0), ("spectral", 1), ("upwind", 0), ("upwind", 1)])
def test_streamed_sweep_equals_the_frame_holding_reference(transport, drift_axis):
    # the sweep steps the rfft modes, the reference the frames: the same
    # Strang steps in another order of floating-point operations
    model = build_lorentz(LorentzSpec(8))
    for n_cells in (16, 15):
        rho0 = bump_rho(n_cells)
        rep = sweep(model, rho0, [0.2, 0.5], T=0.05, transport=transport,
                    drift_axis=drift_axis)
        ref = frame_holding_rows(model, rho0, [0.2, 0.5], 0.05, n_cells, transport,
                                 drift_axis)
        for row, (l1, l2, weak, bonj) in zip(rep.rows, ref):
            assert row.l1 == pytest.approx(l1, rel=0.0, abs=1e-13)
            assert row.l2 == pytest.approx(l2, rel=0.0, abs=1e-13)
            assert row.weak_j_err == pytest.approx(weak, rel=0.0, abs=1e-13)
            assert row.bonj_constant == pytest.approx(bonj, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("transport", ["upwind", "spectral"])
@pytest.mark.parametrize("n_cells", [16, 15])
def test_mode_pairings_equal_the_pairings_of_the_irfft_path(transport, n_cells):
    fields = np.vstack([*default_test_bank(n_cells).values(),
                        np.random.default_rng(n_cells).normal(size=(2, n_cells))])
    weights = _parseval_weights(fields, n_cells)
    j_modes, _ = mode_marginals(build_lorentz(LorentzSpec(8)), bump_rho(n_cells),
                                T=0.05, dt=0.005, epsilon=0.5, transport=transport,
                                drift_axis=1)
    # and modes with imaginary parts at DC and Nyquist, which irfft ignores
    rng = np.random.default_rng(7)
    noise = rng.normal(size=j_modes.shape) + 1j * rng.normal(size=j_modes.shape)
    for modes in (j_modes, noise):
        ref = fields @ np.fft.irfft(modes, n_cells, axis=1).T
        got = _current_pairings(modes, weights)
        assert got.shape == ref.shape == (6, 11)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestBank:
    def test_fixed_contents(self):
        bank = default_test_bank(8)
        assert set(bank) == {"one", "cos1", "sin1", "cos2"}
        assert np.max(np.abs(bank["one"])) == 1.0


class TestOutputs:
    def test_csv_deterministic_and_schema(self, report, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(report, a)
        write_sweep_csv(report, b)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "# schema=diffusive-sweep-v1"
        assert lines[1] == "epsilon,l1,l2,weak_j_err"
        # timing is kept out of the data file so reruns are bit-identical
        assert "runtime" not in a.read_text()
        assert len(lines) == 2 + len(report.rows)

    def test_manifest_contents(self, report, tmp_path):
        cfg = {"model": {"kind": "two-node"}, "solver": {"T": 0.3}}
        path = tmp_path / "manifest.json"
        write_manifest(report, cfg, path)
        payload = json.loads(path.read_text())
        assert payload["config_hash"] == config_hash(cfg)
        assert payload["d_axis"] == report.d_axis
        assert len(payload["rows"]) == len(report.rows)
        assert "runtime_s" not in payload["rows"][0]
        assert "bonj_constant" in payload["rows"][0]

    def test_config_hash_canonical(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash({"x": 2, "y": [1, 2]})
