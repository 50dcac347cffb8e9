"""Evolutionary dynamics under Erlang-distributed revision times.

The library covers three layers:

* mean-field dynamics for populations whose agents revise strategies after
  an Erlang(m, lambda) waiting time (``dynamics``),
* exact event-driven simulation of the finite-population process
  (``agents``),
* contractivity certificates and Lyapunov diagnostics that bound when the
  mean-field dynamics converge (``stability``).

Scenario files tie a game, protocol, and run configuration together; the
``erlang-edm`` command line drives everything from those files.
"""

from .agents import (
    AgentPopulation,
    EmpiricalTrajectory,
    SimEvent,
    gillespie_step,
    init_population,
    simulate,
    write_event_csv,
)
from .dynamics import (
    ConvergenceReport,
    ErlangParams,
    SolverOptions,
    Trajectory,
    convergence_report,
    field_function,
    integrate,
    vector_field,
    write_trajectory_csv,
)
from .errors import (
    InvalidOrder,
    NegativeStayRate,
    NonContractive,
    NotImpartial,
    NumericalFailure,
    OutOfRange,
    ScenarioError,
    StepFailure,
)
from .games import (
    ContractivityMargins,
    Game,
    check_consistency,
    congestion_game,
    contractivity_margins,
    is_potential,
    linear_game,
    sample_simplex,
    tangent_basis,
)
from .protocols import (
    RevisionProtocol,
    null_protocol,
    smith_protocol,
    switch_rate_matrix,
)
from .scenario import (
    Scenario,
    bundled_scenario,
    bundled_scenario_names,
    load_scenario,
    scenario_from_dict,
)
from .stability import (
    LyapunovSample,
    StabilityReport,
    alpha_max,
    compute_c,
    lambda_lower_bound,
    lyapunov_series,
    lyapunov_value,
    pq_decomposition,
    sigma_bar_bisection,
    sigma_bar_closed_form,
    sigma_sweep,
    solve_lyapunov,
    stability_report,
    stage_coupling,
    write_lyapunov_csv,
)
from .states import (
    ExtendedState,
    PayoffVector,
    PopulationState,
    TildeState,
    aggregate,
    ene_residual,
    extended_state,
    ne_residual,
    population_state,
    tilde,
    uniform_extension,
)

__version__ = "0.1.0"

__all__ = [
    "AgentPopulation",
    "ContractivityMargins",
    "ConvergenceReport",
    "EmpiricalTrajectory",
    "ErlangParams",
    "ExtendedState",
    "Game",
    "InvalidOrder",
    "LyapunovSample",
    "NegativeStayRate",
    "NonContractive",
    "NotImpartial",
    "NumericalFailure",
    "OutOfRange",
    "PayoffVector",
    "PopulationState",
    "RevisionProtocol",
    "Scenario",
    "ScenarioError",
    "SimEvent",
    "SolverOptions",
    "StabilityReport",
    "StepFailure",
    "TildeState",
    "Trajectory",
    "aggregate",
    "alpha_max",
    "bundled_scenario",
    "bundled_scenario_names",
    "check_consistency",
    "compute_c",
    "congestion_game",
    "contractivity_margins",
    "convergence_report",
    "ene_residual",
    "extended_state",
    "field_function",
    "gillespie_step",
    "init_population",
    "integrate",
    "is_potential",
    "lambda_lower_bound",
    "linear_game",
    "load_scenario",
    "lyapunov_series",
    "lyapunov_value",
    "ne_residual",
    "null_protocol",
    "population_state",
    "pq_decomposition",
    "sample_simplex",
    "scenario_from_dict",
    "sigma_bar_bisection",
    "sigma_bar_closed_form",
    "sigma_sweep",
    "simulate",
    "smith_protocol",
    "solve_lyapunov",
    "stability_report",
    "stage_coupling",
    "switch_rate_matrix",
    "tangent_basis",
    "tilde",
    "uniform_extension",
    "vector_field",
    "write_event_csv",
    "write_lyapunov_csv",
    "write_trajectory_csv",
]
