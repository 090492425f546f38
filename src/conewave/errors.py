"""Exception types shared across the package."""


class ConewaveError(Exception):
    """Base class for all package errors."""


class InfeasibleMarginError(ConewaveError):
    """No lattice frequency satisfies the requested margin."""


class SectorResolutionError(ConewaveError):
    """Requested frequency sector is narrower than one lattice cell."""


class InvalidFamilyError(ConewaveError):
    """Weighted tube family violates its invariants (weight sum or separation)."""


class NoDecrementError(ConewaveError):
    """Extractor wave fails to decrease mass (non-positive pairing)."""
