"""Exception types shared across the library.

The CLI maps these onto process exit codes; see cli.EXIT_CODES.
"""

from __future__ import annotations


class ScenarioError(Exception):
    """Scenario file is missing, malformed, or internally inconsistent."""


class NegativeStayRate(Exception):
    """The off-diagonal switch rates at some state exceed the rate budget.

    The row-sum convention forces a diagonal "stay" rate of
    lambda - sum_{j != i} T_ij; when that goes negative the model is
    ill-posed at the offending state.  We refuse to clamp because clamping
    silently changes the dynamics.
    """

    def __init__(self, row: int, stay_rate: float, message: str | None = None):
        self.row = row
        self.stay_rate = stay_rate
        super().__init__(
            message
            or f"stay rate for strategy {row} is {stay_rate:.6g}; "
            "rate budget is insufficient at this state"
        )

    def __reduce__(self):
        # worker processes return exceptions through pickle
        return type(self), (self.row, self.stay_rate, str(self))


class NotImpartial(Exception):
    """Operation requires an impartial pairwise-comparison protocol."""


class NonContractive(Exception):
    """Operation requires a strictly contractive game (gamma_lower > 0)."""


class NumericalFailure(Exception):
    """A dense linear-algebra routine did not converge or left a residual."""


class StepFailure(Exception):
    """The adaptive integrator could not meet its error tolerances."""


class InvalidOrder(Exception):
    """Sub-strategy count m is out of range for the requested operation."""


class OutOfRange(Exception):
    """Argument outside the domain of a closed-form expression."""
