"""Error types shared across the package.

Every error the package raises on purpose is a ValidationError: a bad
parameter, a malformed config, or (as DomainError) a number outside
the domain of the quantity asked for. The CLI maps it to exit code 2.
"""


class MaclabError(Exception):
    pass


class ValidationError(MaclabError):
    """A parameter or configuration value violates its contract."""


class DomainError(ValidationError):
    """A numeric argument is outside the domain of the requested quantity."""
