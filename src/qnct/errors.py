"""Exception hierarchy shared across the package."""


class QnctError(Exception):
    """Base class for all structured package errors."""


class ShapeError(QnctError):
    """Operands do not conform; message names the op and the shapes."""


class GeometryError(QnctError):
    """Scan description is inconsistent or incompatible with the data."""


class NonFiniteError(GeometryError):
    """An image or sinogram holds NaN or infinity."""


class DivergenceError(QnctError):
    """Iterative solve diverged; carries the trace collected so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class MemoryGuardError(QnctError):
    """Problem size exceeds a guarded dense-storage limit."""


class CheckpointError(QnctError):
    """Parameter checkpoint file is malformed or inconsistent."""


class ConfigError(QnctError):
    """Run configuration file or key is invalid."""


class GraphReleasedError(QnctError):
    """backward reached a node an earlier backward already released."""
