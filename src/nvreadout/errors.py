"""Exception types shared across the package."""


class NVReadoutError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(NVReadoutError, ValueError):
    """A physical parameter or argument is outside its allowed domain."""


class NumericError(NVReadoutError, ArithmeticError):
    """Non-finite values entered or left a numerical routine."""


class ConfigurationError(NVReadoutError, ValueError):
    """Inconsistent sequence, binning, or run configuration."""


class SamplingRangeError(ConfigurationError):
    """A Poisson mean lies above the range numpy's sampler draws from."""


class UndefinedMetricError(NVReadoutError):
    """A figure of merit is undefined for the given photon counts."""


class FitError(NVReadoutError):
    """Curve fitting failed on degenerate input."""


class ObjectiveError(NVReadoutError):
    """The optimization objective returned a non-finite value."""
