"""Exception types shared across the package."""


class DualGraphError(Exception):
    """Base class for all package errors."""


class ModelFormatError(DualGraphError):
    """Raised when a model-graph file cannot be parsed.

    `path` points at the offending field (e.g. "nodes[2].parts[0].frame").
    """

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class ModelValidationError(DualGraphError):
    """Raised when a structurally parsed model graph violates invariants.

    Carries the full list of violations, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SceneFormatError(DualGraphError):
    """Raised when a scene file cannot be parsed or validated."""

    def __init__(self, message, path=""):
        self.message, self.path = message, path
        super().__init__(f"{path}: {message}" if path else message)


class DegenerateFrameError(DualGraphError):
    """A frame operation hit a zero-length axis it cannot work with."""


class UnderConstrainedError(DualGraphError):
    """Transform estimation got correspondences that pin down nothing."""


class ArityError(DualGraphError):
    """A relation function was called with the wrong number of frames."""


class GenerationError(DualGraphError):
    """Scene generation was asked for something the model cannot produce."""


class ConfigError(DualGraphError):
    """Bad configuration value or unknown configuration key."""
