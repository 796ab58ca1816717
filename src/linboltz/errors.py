"""Exception hierarchy shared by all linboltz modules, and the memory guard."""

import os


class LinboltzError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LinboltzError):
    """Numeric input outside the admissible domain (negative density, ...)."""


class UsageError(LinboltzError):
    """API misuse: wrong shapes, empty grids, missing data."""


class ConfigError(LinboltzError):
    """Invalid run configuration (schema violation, a scheme that is not a run's, ...)."""


class ConvergenceError(LinboltzError):
    """An iterative solver failed to reach its tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class CertificationError(LinboltzError):
    """An entropy-dissipation certificate exceeded its tolerance."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NumericalQualityError(LinboltzError):
    """A computed object violates a structural property beyond tolerance."""


class InfeasibleValueError(LinboltzError):
    """A quadrature sum touched the +inf sentinel of a convex cost."""


def physical_memory():
    """The machine's physical memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(shape, what):
    """Refuse a float64 array of ``shape`` larger than physical memory.

    Called before ``what`` is allocated, so that an oversized config is a
    :class:`ConfigError` instead of a ``MemoryError`` or a swapping machine.
    ``shape`` is any iterable of sizes; the product is exact and stops as
    soon as it is too large.
    """
    physical = physical_memory()
    nbytes = 8
    for n in shape:
        nbytes *= int(n)
        if nbytes > physical:
            raise ConfigError(
                f"{what} would exceed the {physical / 2**30:.3g} GiB of physical memory"
            )
