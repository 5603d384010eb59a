"""Exception hierarchy for target validation, factorization and synthesis."""


class Srm3Error(Exception):
    """Base class for all srm3 errors."""


class InvalidParameterError(Srm3Error, ValueError):
    """A scalar parameter is out of its physical domain."""


class UnsupportedConfigurationError(Srm3Error, ValueError):
    """The requested operation does not support this grid/variate layout."""


class InvalidInputError(Srm3Error, ValueError):
    """An input array violates a structural requirement (shape, symmetry)."""


class NotPositiveSemidefiniteError(InvalidInputError):
    """A cross-spectral matrix has an eigenvalue below the PSD tolerance."""

    def __init__(self, msg, bin_index=None, eigenvalue=None):
        super().__init__(msg)
        self.bin_index = bin_index
        self.eigenvalue = eigenvalue


class SingularFactorError(Srm3Error):
    """A spectral factor is singular at some bin and cannot be inverted."""

    def __init__(self, msg, bin_index=None):
        super().__init__(msg)
        self.bin_index = bin_index


class InfeasibleBispectrumError(Srm3Error):
    """The bispectrum demands more interaction energy than the spectrum holds.

    The pure-spectrum recursion went indefinite, or its correction was not
    finite, at ``bin_index``; ``deficit`` is how far below zero the offending
    eigenvalue fell (``None`` for a non-finite correction).
    """

    def __init__(self, msg, bin_index=None, deficit=None):
        super().__init__(msg)
        self.bin_index = bin_index
        self.deficit = deficit


class SingularPureSpectrumError(InfeasibleBispectrumError):
    """A pure-spectrum bin needed by an interaction term is (near-)singular.

    Subclass of :class:`InfeasibleBispectrumError`: a target whose interaction
    terms divide by a vanishing pure spectrum is just as unrealizable.
    """

    def __init__(self, msg, bin_index=None):
        super().__init__(msg, bin_index=bin_index)


class CoefficientOverflowError(Srm3Error):
    """An assembled harmonic index fell outside the FFT block length."""


class InvalidEnsembleError(Srm3Error, ValueError):
    """Records in an ensemble do not share a grid/method."""


class ConfigError(Srm3Error, ValueError):
    """A run configuration failed to parse or validate."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class SampleFormatError(Srm3Error, ValueError):
    """A sample file has a bad magic number or unsupported version."""


class SampleCorruptionError(Srm3Error, ValueError):
    """A sample file payload is truncated or inconsistent with its header."""
