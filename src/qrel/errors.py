"""Exception types shared across the package."""


class QrelError(Exception):
    """Base class for all package-specific errors."""


class GridMismatchError(QrelError):
    """A field array is not bound to the grid it is used with."""


class ConfigurationError(QrelError):
    """Invalid scenario or state configuration; message names the field."""


class DegenerateStateError(QrelError):
    """State violates a nodeless/positivity precondition."""


class ResolutionGuardError(QrelError):
    """Integration window exceeded a resolution or stability guard.

    Carries the number of completed steps and the last valid wave field so
    callers can keep the trustworthy part of a trajectory, and the index
    of the stack member that tripped (0 for a lone field).
    """

    def __init__(self, message, steps_completed, wavefield=None, member=None):
        super().__init__(message)
        self.steps_completed = steps_completed
        self.wavefield = wavefield
        self.member = member
