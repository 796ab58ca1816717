import numpy as np
import pytest

from linboltz.diffusive import (
    _heat_current_pairings,
    _parseval_weights,
    default_test_bank,
)
from linboltz.errors import DomainError, UsageError
from linboltz.heat import HeatFlow, heat_gradient_flow_check, spatial_entropy


def grid(n):
    return (np.arange(n) + 0.5) / n


def cos_rho(n, amp=0.5, mode=1):
    return 1.0 + amp * np.cos(2.0 * np.pi * mode * grid(n))


class TestHeatFlow:
    def test_rejects_negative_density(self):
        with pytest.raises(DomainError):
            HeatFlow(np.array([-0.1, 1.0]), np.eye(1))

    def test_rejects_zero_mass(self):
        with pytest.raises(DomainError):
            HeatFlow(np.zeros(8), np.eye(1))

    @pytest.mark.parametrize("bad, refusal", [(np.nan, "must be nonnegative"),
                                              (np.inf, "finite positive mass")])
    def test_rejects_a_density_that_is_not_finite(self, bad, refusal):
        rho0 = cos_rho(8)
        rho0[3] = bad
        with pytest.raises(DomainError, match=refusal):
            HeatFlow(rho0, np.eye(1))

    def test_normalizes_mass(self):
        flow = HeatFlow(5.0 * cos_rho(32), 0.2 * np.eye(1))
        assert flow.rho0.mean() == pytest.approx(1.0, abs=1e-13)

    def test_stationary_uniform(self):
        flow = HeatFlow(np.ones(16), 0.3 * np.eye(1))
        assert np.max(np.abs(flow.rho_at(2.0) - 1.0)) < 1e-13
        assert np.max(np.abs(flow.current_at(2.0))) < 1e-13

    def test_single_mode_closed_form(self):
        # cos(2 pi k x) decays by exp(-4 pi^2 k^2 D t)
        d, t, mode = 0.17, 0.3, 2
        flow = HeatFlow(cos_rho(64, amp=0.25, mode=mode), d * np.eye(1))
        decay = np.exp(-4.0 * np.pi**2 * mode**2 * d * t)
        expected = 1.0 + 0.25 * decay * np.cos(2.0 * np.pi * mode * grid(64))
        assert np.max(np.abs(flow.rho_at(t) - expected)) < 1e-12

    def test_current_closed_form(self):
        d, t = 0.17, 0.1
        flow = HeatFlow(cos_rho(64), d * np.eye(1))
        decay = np.exp(-4.0 * np.pi**2 * d * t)
        expected = d * np.pi * decay * np.sin(2.0 * np.pi * grid(64))
        assert np.max(np.abs(flow.current_at(t) - expected)) < 1e-12

    def test_semigroup_property(self):
        flow = HeatFlow(cos_rho(32), 0.1 * np.eye(1))
        later = HeatFlow(flow.rho_at(0.2), 0.1 * np.eye(1))
        assert np.max(np.abs(later.rho_at(0.3) - flow.rho_at(0.5))) < 1e-12

    def test_mass_preserved(self):
        flow = HeatFlow(cos_rho(32), 0.1 * np.eye(1))
        assert flow.rho_at(1.7).mean() == pytest.approx(1.0, abs=1e-13)

    def test_refuses_a_density_that_is_not_1d(self):
        with pytest.raises(UsageError):
            HeatFlow(np.random.default_rng(4).uniform(0.5, 2.0, (8, 12)), 0.2)
        with pytest.raises(UsageError):
            HeatFlow(np.array(1.0), 0.2)

    @pytest.mark.parametrize("D", [np.eye(2), [0.1, 0.2], 0.0, -0.1, np.array([[-0.2]]),
                                   np.inf, np.nan, []])
    def test_refuses_a_diffusivity_that_is_not_one_positive_number(self, D):
        with pytest.raises(DomainError):
            HeatFlow(cos_rho(16), D)

    @pytest.mark.parametrize("D", [0.2, np.float64(0.2), [0.2], np.array([[0.2]])])
    def test_takes_the_diffusivity_from_its_one_entry(self, D):
        flow = HeatFlow(cos_rho(16), D)
        assert type(flow.D) is float and flow.D == 0.2

    def test_rejects_negative_time(self):
        # and a time that is not finite
        flow = HeatFlow(cos_rho(16), np.eye(1))
        for t in (-0.1, np.nan, np.inf):
            with pytest.raises(UsageError, match="t must be finite and nonnegative"):
                flow.rho_at(t)


class TestHeatSolve:
    """The flow's current over a time grid: closed-form modes against current_at."""

    def test_current_stack(self):
        # the closed-form modes, stacked over times, are those of current_at
        rho0 = np.random.default_rng(3).uniform(0.5, 2.0, 32)
        flow, times = HeatFlow(rho0, 0.1), np.array([0.0, 0.05, 0.1])
        modes, rates = flow.current_modes()
        assert modes.shape == rates.shape == (17,)
        assert modes[0] == 0.0 and modes[-1] == 0.0  # no DC, no Nyquist
        j_hat = modes * np.exp(-np.outer(times, rates))
        stacked = np.stack([flow.current_at(t) for t in times])
        assert np.max(np.abs(j_hat - np.fft.rfft(stacked, axis=1))) < 1e-12
        j = np.fft.irfft(j_hat, 32, axis=1)
        assert j.shape == (3, 32)
        assert np.max(np.abs(j - stacked)) < 1e-13

    @pytest.mark.parametrize("rho0, D", [
        (cos_rho(64), np.array([[0.1875]])),
        (cos_rho(17, amp=0.3, mode=2), np.array([[1.3]])),
        (np.random.default_rng(4).uniform(0.5, 2.0, 12), np.array([[0.3]])),
    ])
    def test_closed_form_pairings_equal_stacked_current_at(self, rho0, D):
        flow = HeatFlow(rho0, D)
        n = rho0.size
        times = 7.5e-5 * np.arange(400)
        fields = np.vstack([*default_test_bank(n).values(),
                            np.random.default_rng(n).normal(size=(2, n))])
        stacked = np.stack([flow.current_at(t) for t in times])
        ref = fields @ stacked.T
        got = _heat_current_pairings(flow, times, _parseval_weights(fields, n))
        assert got.shape == ref.shape == (6, 400)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_current_rejects_negative_time(self):
        with pytest.raises(UsageError):
            HeatFlow(cos_rho(8), np.eye(1)).current_at(-0.1)


class TestEntropy:
    def test_uniform_density_zero(self):
        assert spatial_entropy(np.ones(16)) == 0.0
        assert spatial_entropy([1.0, 1.0]) == 0.0  # a list, as any functional takes

    def test_decreasing_along_flow(self):
        flow = HeatFlow(cos_rho(64), 0.1 * np.eye(1))
        H = [spatial_entropy(flow.rho_at(t)) for t in (0.0, 0.1, 0.2, 0.5)]
        assert all(a > b for a, b in zip(H, H[1:]))

    def test_rejects_negative(self):
        # and a density that is not finite, as every functional of a density
        for bad, refusal in ((-0.5, "negative rho"), (np.nan, "not finite"),
                             (np.inf, "not finite"), (-np.inf, "not finite")):
            with pytest.raises(DomainError, match=refusal):
                spatial_entropy(np.array([1.0, bad]))

    def test_keeps_a_roundoff_negative(self):
        # below NEG_TOL max(1, max|rho|) in magnitude, a negative is set to 0
        assert spatial_entropy(np.array([1.0, -1e-11])) == spatial_entropy(np.array([1.0, 0.0]))

    def test_refuses_a_density_that_is_not_1d(self):
        # a (8, 12) grid has cells of 1/96, not (1/8)^2
        with pytest.raises(UsageError):
            spatial_entropy(np.full((8, 12), 2.0))


class TestGradientFlowCheck:
    def test_residual_second_order(self):
        flow = HeatFlow(cos_rho(128), 0.15 * np.eye(1))
        res = {}
        for n in (16, 32, 64):
            times = np.linspace(0.0, 0.4, n + 1)
            res[n] = abs(heat_gradient_flow_check(flow, times))
        order = np.log(res[16] / res[64]) / np.log(4.0)
        assert order > 1.9

    def test_perturbed_current_strictly_positive(self):
        flow = HeatFlow(cos_rho(128), 0.15 * np.eye(1))
        times = np.linspace(0.0, 0.4, 65)
        base = heat_gradient_flow_check(flow, times)
        bumped = heat_gradient_flow_check(flow, times, current_factor=1.1)
        assert bumped > abs(base)
        assert bumped > 0.0

    def test_scaled_current_quadratic_excess(self):
        # R(rho, c j) - R(rho, j) = (c^2 - 1) R(rho, j): factor 2 quadruples
        flow = HeatFlow(cos_rho(128), 0.15 * np.eye(1))
        times = np.linspace(0.0, 0.4, 65)
        r1 = heat_gradient_flow_check(flow, times, current_factor=2.0)
        r2 = heat_gradient_flow_check(flow, times, current_factor=3.0)
        base = heat_gradient_flow_check(flow, times)
        assert (r2 - base) / (r1 - base) == pytest.approx(8.0 / 3.0, rel=1e-6)

    def test_rejects_nonuniform_times(self):
        flow = HeatFlow(cos_rho(32), np.eye(1))
        with pytest.raises(UsageError):
            heat_gradient_flow_check(flow, np.array([0.0, 0.1, 0.3]))

    def test_rejects_vanishing_density(self):
        # the integer grid puts an exact zero of 1 + cos at x = 1/2
        rho = np.clip(1.0 + np.cos(2.0 * np.pi * np.arange(32) / 32), 0.0, None)
        flow = HeatFlow(rho, np.eye(1))
        with pytest.raises(DomainError):
            heat_gradient_flow_check(flow, np.array([0.0, 0.01]))
