"""Error types shared across the package.

Validation problems (bad parameters, malformed config) and analysis
failures (a search that found nothing, an iteration that did not
converge) are kept distinct so the CLI can map them to different exit
codes.
"""


class MaclabError(Exception):
    pass


class ValidationError(MaclabError):
    """A parameter or configuration value violates its contract."""


class DomainError(ValidationError):
    """A numeric argument is outside the domain of the requested quantity."""


class AnalysisError(MaclabError):
    """A numeric procedure failed (no root bracketed, iteration diverged).

    Carries the last iterate when one exists, for diagnostics.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate
