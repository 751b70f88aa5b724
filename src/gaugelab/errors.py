"""Exception types shared across the package."""


class GaugelabError(Exception):
    """Base class for all package errors."""


class UnknownVariable(GaugelabError):
    """A symbol references a variable that is not declared in the model."""


class IndexOutOfRange(GaugelabError, ValueError):
    """A jet coordinate has the wrong component count or an index not in 0..n-1."""


class ModelMismatch(GaugelabError):
    """Values built over different variable tables were combined."""


class GradingMismatch(GaugelabError):
    """An object violates its declared parity / antifield / ghost grading."""


class MissingStage(GaugelabError):
    """A stage-k operation needs generator families that were never declared."""


class EvenDerivation(GaugelabError):
    """Nilpotency certification was requested for an even derivation."""


class UnsupportedCorrection(GaugelabError):
    """A generator correction term falls outside the supported bilinear shape."""


class NotAComplex(GaugelabError):
    """The two supplied differentials do not compose to zero on the window."""
