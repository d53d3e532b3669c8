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

    Carries the number of steps the tripping member completed and its
    index in the stack it marched in (0 for a lone field).
    """

    def __init__(self, message, steps_completed, member):
        super().__init__(message)
        self.steps_completed = steps_completed
        self.member = member

    def __reduce__(self):
        # pickled as all three arguments, so that the error survives its way back from a worker
        return type(self), (*self.args, self.steps_completed, self.member), self.__dict__
