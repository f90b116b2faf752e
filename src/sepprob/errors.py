"""Exception hierarchy shared by all sepprob modules."""


class SepprobError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SepprobError):
    """A parameter lies outside the domain an operation is defined on."""


class SingularityError(SepprobError):
    """A closed-form evaluation point sits on a pole of the formula."""


class StructureViolation(SepprobError):
    """An exact polynomial fit failed its consistency witness."""


class NoCandidateError(SepprobError):
    """No rational with the requested denominator bound lies within the
    stated error radius of the approximant."""


class PrecisionError(SepprobError):
    """The working precision is too low to resolve the requested quantity."""


class TableError(SepprobError):
    """The recurrence table file is missing, cut, reordered or undecodable."""


class CacheError(SepprobError):
    """Base class for moment-cache problems."""


class CacheHeaderError(CacheError):
    """Cache file header does not match the requested scenario or format."""


class CacheIntegrityError(CacheError):
    """Cache file records are missing, out of order or differ from the
    moments computed afresh."""


class CacheIOError(CacheError):
    """Cache file cannot be read or written: a missing directory, a
    directory in its place, denied access or bytes that are not ASCII."""
