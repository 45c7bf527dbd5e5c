"""Exception hierarchy shared across the package."""


class HJHomError(Exception):
    """Base class for all package errors."""


class DomainError(HJHomError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigurationError(HJHomError):
    """Inconsistent or insufficient resolution / configuration parameters."""


class HorizonError(ConfigurationError):
    """A metric table's horizon is shorter than a requested ray needs."""


class ResolutionError(HJHomError):
    """A search failed at the current lattice resolution; refine and retry."""


class UnreachableError(DomainError):
    """Requested space-time point carries an infinite metric value."""
