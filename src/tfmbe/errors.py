"""Exception types shared across the solver modules."""


class ModelViolationError(RuntimeError):
    """A model assumption failed at runtime (e.g. a nonpositive SAV radicand)."""


class SolverError(RuntimeError):
    """The decoupled linear solve produced an inadmissible state.

    Raised inside ``run_fixed`` or ``adaptive_run``, it carries the step
    records made before the failure as ``records``.
    """

    records = ()


class StateError(RuntimeError):
    """History was committed out of order."""


class SOEConstructionError(RuntimeError):
    """The exponential-sum builder could not reach the requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved
