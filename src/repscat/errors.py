"""Exception family shared by all repscat modules, and the integer check
that config loading and the classical flow both apply."""

import numbers


class RepscatError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(RepscatError):
    """Invalid parameters: bad grid size, alpha out of range, malformed spec."""


class NumericalStateError(RepscatError):
    """A wavefunction contains NaN/Inf samples or has collapsed to zero."""


class DomainEscapeError(RepscatError):
    """Probability mass reached the outer region of the periodic box."""


class SingularTimeError(RepscatError):
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
