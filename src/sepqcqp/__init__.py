"""Separable QCQPs, their SDP relaxations, exactness certificates, and
rank-one recovery.

Modules:
    symkernel      symmetric-matrix numerics (dense storage, LAPACK eigen)
    qcqp_model     problem data model, evaluation, brute-force oracle
    sdpr_builder   Shor / block / homogeneous relaxation builders
    sdp_solver     batched primal-dual interior-point solver for block SDPs
    certificates   exactness class checks (convex, sign-pattern, homogeneous)
    rank_reduction extreme-point rank reduction and point extraction
    connection     end-to-end exactness pipeline and example generators
    cli            command-line front end and problem file I/O
"""

from . import errors
from .errors import (
    DimensionError,
    GenerationError,
    InfeasibleStructureError,
    NotPsdError,
    ParseError,
    RangeError,
    ReductionStallError,
    SepqcqpError,
    StaleSolutionError,
    StructureError,
    ValidationError,
)
from .symkernel import (
    EigenDecomp,
    SymMatrix,
    eigen,
    frob_inner,
    is_psd,
    numeric_rank,
    psd_factor,
)
from .qcqp_model import (
    INFEASIBLE,
    HomSepQcqp,
    Qcqp,
    QuadFunc,
    Relation,
    SeparableQcqp,
    brute_force,
    connect,
    flatten,
    hom_to_qcqp,
    hom_values,
    is_feasible,
    lift,
    split_point,
)
from .qcqp_model import eval as eval_quad
from .sdpr_builder import (
    BlockSdp,
    Row,
    SdpSolution,
    SolveStatus,
    build_block,
    build_hom,
    build_shor,
    eval_rows,
    lift_blocks,
    objective_value,
    to_standard_form,
)
from .sdp_solver import (
    ResidualReport,
    SolverOptions,
    check_solution,
    solve,
    solve_many,
)
from .certificates import (
    AssumptionBreakdown,
    Certificate,
    CertificateKind,
    SignCase,
    SparsityGraph,
    aggregated_graph,
    check_assumption_A,
    check_convex,
    check_m_le_2,
    check_sign_pattern,
    cycle_basis,
    extract_convex_solution,
    pataki_bound_holds,
    reduce_homogeneous_rows,
    sign_gauge,
)
from .rank_reduction import (
    BlockKind,
    ExtractResult,
    ReductionReport,
    block_kinds_of,
    extract_point,
    reduce,
)
from .connection import (
    BilevelReport,
    BilevelRow,
    ExactnessVerdict,
    JudgeOptions,
    PerBlockReport,
    VerdictStatus,
    bilevel_report,
    decompose_delta,
    judge,
    make_example51,
    make_example52,
    nonpositive_gauge,
    strip_variable_free_rows,
    validate_example52,
    verify_suboptimality,
)

__version__ = "0.1.0"
