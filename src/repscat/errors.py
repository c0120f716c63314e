"""Exception family shared by all repscat modules, the integer check that
config loading and the classical flow both apply, and the width check of
the Gaussian state and of the bump presets."""

import math
import numbers


class RepscatError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(RepscatError):
    """Invalid parameters: bad grid size, alpha out of range, malformed spec."""


class NumericalStateError(RepscatError):
    """A wavefunction contains NaN/Inf samples or has collapsed to zero."""


class DomainEscapeError(RepscatError):
    """Probability mass reached the outer region of the periodic box."""


class SingularTimeError(ConfigurationError):
    """Requested propagation time too close to a kernel singularity."""


class OracleScaleError(RepscatError):
    """A brute-force oracle was asked to run beyond its size limits."""


class PhaseWindingError(ConfigurationError):
    """Per-step potential phase exceeds the anti-aliasing bound."""


class NoEscapeError(RepscatError):
    """A trajectory did not escape over the requested fit window."""


def check_integer(value, key: str, minimum=None) -> int:
    """`value` as an int; floats and booleans are refused, not truncated."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigurationError(f"{key} must be an integer{bound}, got {value!r}")
    return int(value)


def check_width(value, key: str) -> float:
    """A width x > 0 that a packet or bump divides by as 2 x^2 (or x^2): that
    must be a nonzero finite float, so it neither overflows nor vanishes."""
    x = float(value)  # Python floats overflow to inf without a warning
    if not (x > 0 and 0.0 < 2.0 * x * x < math.inf):
        raise ConfigurationError(
            f"{key} must be a number x > 0 with 2 x^2 a nonzero finite float, got {value!r}")
    return x
