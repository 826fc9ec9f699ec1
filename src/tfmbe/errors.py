"""The one exception type of a failed run.

An input the package rejects (a bad parameter, a history commit for the
wrong level, a tolerance the exponential sum cannot reach) raises
``ValueError``; a run that fails on the way raises ``SolverError``.
"""


class SolverError(RuntimeError):
    """A step produced an inadmissible state; the message names the step.

    Raised inside ``run_fixed`` or ``adaptive_run``, it carries the step
    records made before the failure as ``records``.
    """

    records = ()
