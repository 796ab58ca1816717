"""Small FFT helpers for periodic grids on the unit torus.

All routines assume uniform grids with cell size 1/n and use the
convention that wavenumber k corresponds to the mode exp(2*pi*i*k*x).
A translation by a is the phase exp(-2*pi*i*k*a) on mode k: ``shift_phase``
builds the phases once for fixed amounts (the kinetic stepper does so in
its constructor), and ``shift`` applies them between one ``fft`` and one
``ifft``.
"""

import numpy as np


def wavenumbers(n):
    """Integer wavenumbers matching numpy's fft layout."""
    return np.fft.fftfreq(n, d=1.0 / n)


def gradient(field, axis=0):
    """Spectral derivative of a periodic field along one axis."""
    n = field.shape[axis]
    k = wavenumbers(n)
    shape = [1] * field.ndim
    shape[axis] = n
    fac = (2j * np.pi * k).reshape(shape)
    return np.real(np.fft.ifft(fac * np.fft.fft(field, axis=axis), axis=axis))


def shift_phase(shape, amounts, axis=0):
    """Phases exp(-2 pi i k a) translating fields of ``shape`` by ``amounts``.

    ``amounts`` is either a scalar or an array broadcastable against the
    axes of ``shape`` other than ``axis`` (one amount per slice).
    """
    n = shape[axis]
    kshape = [1] * len(shape)
    kshape[axis] = n
    kk = wavenumbers(n).reshape(kshape)
    amounts = np.asarray(amounts, dtype=float)
    if amounts.ndim:
        # per-slice shifts: amounts indexed by the other axes
        exp_shape = list(shape)
        exp_shape[axis] = 1
        amounts = amounts.reshape(exp_shape)
    return np.exp(-2j * np.pi * kk * amounts)


def shift(field, phase, axis=0):
    """Translate periodic samples by the amounts ``phase`` was built for.

    ``phase`` is :func:`shift_phase` of the field's shape.  The translation
    is exact for the trigonometric interpolant of the samples.
    """
    fh = np.fft.fft(field, axis=axis)
    return np.real(np.fft.ifft(fh * phase, axis=axis))
