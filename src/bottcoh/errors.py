"""Exception types shared across the package."""


class BottcohError(Exception):
    """Base class for all package errors."""


class TowerFormatError(BottcohError, ValueError):
    """A tower or bundle description failed validation."""

    def __init__(self, message, *, stage=None):
        if stage is not None:
            message = f"stage {stage}: {message}"
        super().__init__(message)
        self.stage = stage


class RingMismatchError(BottcohError, ValueError):
    """Classes owned by different rings were combined."""


class DomainMismatchError(BottcohError, ValueError):
    """An operation required a different coefficient domain."""


class UnverifiedMapError(BottcohError, ValueError):
    """An unverified ring map was applied to a class."""


class SearchBoundError(BottcohError, ValueError):
    """A search bound was negative or not an integer."""


class ModulusError(BottcohError, ValueError):
    """A modulus for Z/n was not an integer >= 2."""


class BundleHypothesisError(BottcohError, ValueError):
    """The zero-column reduction was invoked outside its hypotheses."""
