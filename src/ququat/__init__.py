"""Open n-qubit states as four-valued logic: Pauli vectors and gate matrices.

The state of an open n-qubit system lives in the 4**n-dimensional
operator (Liouville) space; quantum operations act on it as real
4**m x 4**n transfer matrices.  This package provides the state and gate
types, conversions from unitaries/Kraus sets/projective measurements,
structural decompositions (translation split, SVD, polar, Euler angles),
Markovian propagators, synthesis of quantum gates from classical
four-valued logic tables, and the pseudo-gate universality toolkit.
"""

__version__ = "0.1.0"

from .config import Tolerances, set_tolerances, tolerances
from .errors import NumericContractError, QuquatError, SchemaError, ZeroProbabilityError
from .liouville import (
    SIGMA,
    DensityMatrix,
    LiouvilleVector,
    PauliIndex,
    PauliVector,
    ValidationReport,
    computational_state,
    density_to_pvec,
    hs_inner,
    pauli_basis,
    pauli_tensor,
    pvec_to_density,
    validate_density,
)
from .gates import (
    GateMatrix,
    GateReport,
    KrausSet,
    ReversibilityCertificate,
    adjoint_gate,
    analyze_gate,
    apply_linear,
    apply_nonlinear,
    check_reversible,
    check_reversible_superop,
    choi_matrix,
    compose,
    gate_from_kraus,
    gate_from_matrix,
    gate_from_unitary,
    measurement_gates,
    tensor_gates,
)
from .decompositions import (
    EulerAngles,
    GatePolar,
    GateSVD,
    TranslationSplit,
    euler_angles,
    named_gate,
    polar_gate,
    split_translation,
    svd_gate,
    svd_rect_gate,
    translation_gate,
    unital_gate,
)
from .lindblad import (
    GeneratorMatrix,
    GKSModel,
    LiouvillianSuperop,
    gks_matrix,
    gks_propagator,
    liouvillian_gate,
    liouvillian_superop,
)
from .mvlogic import (
    ClosureResult,
    TruthTable,
    builtin,
    closure,
    compose_classical,
    dnf,
    synthesize_quantum,
    synthesize_unital_extended,
    unital_realizable,
    verify_realization,
)
from .universality import (
    GeneratorSet,
    PseudoGate,
    commutator_limit_product,
    left_mult_superop,
    lie_closure_dim,
    right_mult_superop,
    swap_pseudo_gate,
    trace_decreasing_bound,
    weyl_generators,
)
from .circuits import Circuit, RunRecord, embed_gate, parse_circuit, run_circuit
