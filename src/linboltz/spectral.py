"""Fourier helpers for real periodic samples on the unit interval.

One convention throughout the library: ``rfft``/``irfft`` along axis 0 of
real samples on a uniform grid of n cells of size 1/n, with the modes
k = 0, ..., n // 2 standing for exp(2*pi*i*k*x).  An operator that acts on
each mode alone is a multiplier per mode; a translation by a is the
multiplier exp(-2*pi*i*k*a).  The kinetic stepper builds its transport
multiplier once per run, and ``shift`` applies it between one ``rfft`` and
one ``irfft``.
"""

import numpy as np


def gradient(field):
    """Spectral derivative of real periodic samples along axis 0.

    The Nyquist mode of an even grid is dropped: its coefficient is real, so
    its derivative 2*pi*i*(n/2) times it is imaginary, and ``irfft`` discards
    the imaginary part of that mode.
    """
    n = field.shape[0]
    fac = (2j * np.pi * np.arange(n // 2 + 1)).reshape((-1,) + (1,) * (field.ndim - 1))
    return np.fft.irfft(fac * np.fft.rfft(field, axis=0), n, axis=0)


def shift(field, multiplier):
    """Apply a per-mode ``multiplier`` (rfft modes along axis 0) to ``field``.

    With a translation's multiplier the result is the trigonometric
    interpolant of the samples, translated exactly.
    """
    return np.fft.irfft(np.fft.rfft(field, axis=0) * multiplier, field.shape[0], axis=0)
