"""Exact rational engine for symmetric excitation states.

Z_k(n) is the unnormalized equal-weight sum of all n-qubit basis strings
with exactly k ones (k = 1 gives the familiar one-excitation W state).
The package provides a symbolic algebra over such states (tensor products,
inner products, register splitting and merging), a brute-force dense
expansion used as an independent oracle, the 2k-local post-selected
distillation step with its exact success probability, and a planner that
validates and executes multi-cycle distillation schedules with exact
resource accounting.  Everything is integer/rational arithmetic; there is
no floating point anywhere in the computation path.
"""

from .blocks import (
    ZERO,
    BlockProduct,
    BlockSum,
    RegisterId,
    ZBlock,
    bit_flip,
    block_sum,
    format_block_sum,
    inner_product,
    merge_registers,
    norm_sq,
    project_registers,
    registers_of,
    split_register,
    tensor,
    z_state,
)
from .combinatorics import binom, vandermonde_holds
from .dense import (
    DENSE_CAP,
    DenseState,
    dense_inner,
    dense_project,
    dense_z,
    permute_qubits,
    proportionality,
    to_dense,
)
from .distill import (
    DistillationError,
    DistillOutcome,
    NotCollectibleError,
    distill_step,
    success_probability,
    x0_alpha,
    x0_beta_sq,
    x0_state,
)
from .graph import plan_to_dot
from .plandoc import (
    DocumentError,
    PlanDocument,
    approx_decimal,
    document_to_plan,
    frac_to_json,
    parse_document,
    render_document,
)
from .protocol import (
    Cycle,
    CycleResult,
    ExecutionReport,
    InvalidPlanError,
    PlanExecutionError,
    ProtocolPlan,
    ResourceLedger,
    StateRef,
    critical_path,
    execute_plan,
    gen_exact_plan,
    gen_exponential_plan,
    gen_incremental_plan,
    validate_plan,
)

__version__ = "0.1.0"
