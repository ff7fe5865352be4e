"""statesynth: state-preparation circuit synthesis over {1q rotations, CNOT}.

Compiles any n-qubit pure state into a preparation circuit through a
four-phase Schmidt-decomposition pipeline, with verified fidelity and
CNOT-count/depth guarantees.
"""

from .bounds import (
    BoundSet,
    baseline_upper_bound,
    bound_set,
    cnot_lower_bound,
    depth_lower_bound,
    scheme_depth_upper_bound,
    scheme_upper_bound,
    unitary_upper_bound,
)
from .circuit import (
    Circuit,
    Cnot,
    CostReport,
    OneQubitGate,
    cnot_count,
    concat,
    cost_report,
    depth,
    inverse,
    shift,
)
from .errors import (
    BadDimensionError,
    BadLengthError,
    BadRangeError,
    DimensionMismatchError,
    NonFiniteError,
    NotNormalizedError,
    NotUnitaryError,
    OddDimensionError,
    QasmParseError,
    StateSynthError,
    SynthesisError,
    TooFewQubitsError,
)
from .linalg import CsdResult, SvdResult, cosine_sine, svd, unitarity_defect, unitary_eig
from .prepare import (
    PrepPlan,
    SchmidtForm,
    baseline_prepare,
    schmidt_decompose,
    schmidt_prepare,
    synth_2q_state,
    transform,
)
from .qasm import emit_qasm, parse_qasm
from .sampling import haar_state, haar_unitary
from .simulate import (
    circuit_unitary,
    fidelity,
    run,
    state_from_json,
    state_to_json,
    zero_state,
)
from .synthesis import (
    demultiplex,
    synth_kq_unitary,
    uc_su2_up_to_diagonal,
)
from .twoqubit import (
    kak_decompose,
    phase_aligned_distance,
    synth_2q_unitary,
    two_qubit_up_to_diagonal,
)

__version__ = "0.1.0"

__all__ = [
    "BadDimensionError",
    "BadLengthError",
    "BadRangeError",
    "BoundSet",
    "Circuit",
    "Cnot",
    "CostReport",
    "CsdResult",
    "DimensionMismatchError",
    "NonFiniteError",
    "NotNormalizedError",
    "NotUnitaryError",
    "OddDimensionError",
    "OneQubitGate",
    "PrepPlan",
    "QasmParseError",
    "SchmidtForm",
    "StateSynthError",
    "SvdResult",
    "SynthesisError",
    "TooFewQubitsError",
    "baseline_prepare",
    "baseline_upper_bound",
    "bound_set",
    "circuit_unitary",
    "cnot_count",
    "cnot_lower_bound",
    "concat",
    "cosine_sine",
    "cost_report",
    "demultiplex",
    "depth",
    "depth_lower_bound",
    "emit_qasm",
    "fidelity",
    "haar_state",
    "haar_unitary",
    "inverse",
    "kak_decompose",
    "parse_qasm",
    "phase_aligned_distance",
    "run",
    "scheme_depth_upper_bound",
    "scheme_upper_bound",
    "schmidt_decompose",
    "schmidt_prepare",
    "shift",
    "state_from_json",
    "state_to_json",
    "svd",
    "synth_2q_state",
    "synth_2q_unitary",
    "synth_kq_unitary",
    "transform",
    "two_qubit_up_to_diagonal",
    "uc_su2_up_to_diagonal",
    "unitarity_defect",
    "unitary_eig",
    "unitary_upper_bound",
    "zero_state",
]
