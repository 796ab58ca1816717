import numpy as np
import pytest

from linboltz.spectral import gradient, shift


@pytest.mark.parametrize("n", [32, 33])
def test_gradient_of_a_sine_is_its_analytic_derivative(n):
    x = np.arange(n) / n
    field = 1.0 + np.sin(2 * np.pi * 3 * x) + 0.5 * np.cos(2 * np.pi * 5 * x)
    expected = 6 * np.pi * np.cos(2 * np.pi * 3 * x) - 5 * np.pi * np.sin(2 * np.pi * 5 * x)
    assert np.max(np.abs(gradient(field) - expected)) < 1e-12
    # along axis 0 of a 2-d field, column by column
    both = gradient(np.column_stack([field, 2 * field]))
    assert np.array_equal(both[:, 0], gradient(field))
    assert np.max(np.abs(both[:, 1] - 2 * expected)) < 1e-12


def test_gradient_drops_the_nyquist_mode_of_an_even_grid():
    nyquist = (-1.0) ** np.arange(16)
    assert np.max(np.abs(gradient(nyquist))) < 1e-15
    assert np.max(np.abs(gradient(3.0 + nyquist))) < 1e-14


@pytest.mark.parametrize("n", [16, 17])
def test_shift_by_a_whole_cell_rolls_the_samples(n):
    field = np.random.default_rng(n).uniform(0.5, 2.0, (n, 3))
    k = np.arange(n // 2 + 1)[:, None]
    cells = np.array([1, -2, 0])
    moved = shift(field, np.exp(-2j * np.pi * k * cells / n))
    expected = np.column_stack([np.roll(field[:, v], c) for v, c in enumerate(cells)])
    assert np.max(np.abs(moved - expected)) < 1e-14
