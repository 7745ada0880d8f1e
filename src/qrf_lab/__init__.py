"""Numerical toolkit for ideal quantum reference frames over finite abelian groups.

Two ideal frames and a system carry a unitary representation of a finite
abelian group; the package builds the perspective spaces, the maps between
them, the invariant operator subalgebras, and the perspective-dependent
dynamics and thermodynamics, plus a catalog of runnable scenarios.
"""
from .dynamics import (
    HamiltonianSplit,
    TrajectoryImportReport,
    TransformedPieces,
    dynamical_type_classifier,
    evolve,
    imported_hamiltonian_and_trajectory_check,
    mean_field_hamiltonian,
    split_hamiltonian,
    transform_hamiltonian_pieces,
)
from .frames import (
    FrameSetup,
    PerspectiveChange,
    parity_swap,
)
from .groups import Z2, Z2xZ2, Z3, Z4, FiniteAbelianGroup
from .operators import (
    IndefiniteOperatorError,
    NumericalRankError,
    dagger,
    hs_inner,
    hs_norm,
    kron,
    partial_trace,
    unvec,
    vec,
)
from .scenarios import (
    COLUMNS,
    ConfigError,
    SCENARIOS,
    ScenarioConfig,
    ScenarioResult,
    VERSION,
    list_scenarios,
    parse_config,
    render,
    run_scenario,
)
from .states import (
    NegativeTemperatureReport,
    basis_state,
    gb_state,
    ghz_state,
    gibbs_state,
    mutual_information,
    negative_temperature_predict,
    product_state,
    purity,
    relative_entropy,
    renyi_entropy,
    subsystem_equivalence_witness,
    subsystem_transform,
    von_neumann_entropy,
    w_state,
)
from .subalgebras import (
    BilocalUnitary,
    FourComponentDecomposition,
    LocalityViolationError,
    LocalOperatorReport,
    MembershipResult,
    SubalgebraProjector,
    classify_local_operator,
    four_component_decomposition,
    intersect_projectors,
    invariant_projector,
    membership_scan,
    membership_test,
    pi_d,
    pi_t,
    pure_state_bilocal_witness,
    transport_bilocal,
)
from .thermo import (
    BalanceReport,
    EntropyBalance,
    GibbsClassification,
    Prescription,
    SubsystemEOMTerms,
    ThermoReport,
    balance_verifiers,
    gibbs_classification,
    subsystem_eom_terms,
)

__version__ = VERSION
