"""Classical simulation and surrogation of quantum expectation landscape patches.

The package back-propagates observables through Clifford + Pauli-rotation
circuits in the Heisenberg picture with small-angle (sine-order) and weight
truncation, evaluates the resulting trigonometric surrogates over parameter
patches, simulates the quantum data-acquisition protocols that would feed
them, and provides the closed-form error and sample-complexity bounds to
check everything against.
"""

__version__ = "0.1.0"

from .circuits import (
    Circuit,
    ParamRef,
    RampSpec,
    Rotation,
    Topology,
    build_tfi_trotter,
    chain,
    grid,
    heavyhex127,
    parse_circuit,
    parse_observable,
    ramp_value,
)
from .errors import (
    ConfigError,
    DimensionError,
    HypothesisViolationError,
    OracleCapError,
    PauliPatchError,
    PolicyOverflowError,
    ValidationError,
)
from .measurement import (
    AllocationPlan,
    ShadowRecords,
    ShotRecords,
    estimate,
    make_allocation,
    sample_complexity,
    shadow_estimate,
    simulate_direct,
    simulate_shadows,
)
from .pauli import (
    CliffordGate,
    ObservableSpec,
    PauliString,
    commutes,
    multiply,
)
from .propagation import (
    PathMonomial,
    PropagatedObservable,
    PropagatedTerm,
    PropagationStats,
    TruncationPolicy,
    backpropagate,
    load_artifact,
    path_stats,
    restrict_sine_order,
    save_artifact,
)
from .states import (
    AllPlus,
    AllZero,
    Dense,
    TrotterEvolvedZero,
    evolve_state,
    exact_expectation,
    exact_expectation_batch,
    overlap,
    overlaps,
)
from .surrogate import (
    BoundReport,
    SurrogateEvaluator,
    bound_correlated_avg,
    bound_mse_truncation,
    bound_worst_truncation,
    effective_norm_avg,
    effective_norm_worst,
    pauli_mean_squares,
    trig_moment,
    worst_case_coeff_bounds,
)
from .taylor import (
    EvalLedger,
    LossOracle,
    TaylorSurrogate,
    build_taylor,
    derivative_growth_gamma,
    eval_taylor,
    exact_oracle,
    sampled_oracle,
    shift_derivative,
    taylor_bounds,
)
