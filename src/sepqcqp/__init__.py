"""Separable QCQPs, their SDP relaxations, exactness certificates, and
rank-one recovery.

Modules:
    symkernel      symmetric-matrix numerics (dense storage, LAPACK eigen)
    qcqp_model     problem data model, evaluation, brute-force oracle
    sdpr_builder   the relaxation of a connection (Shor and homogeneous
                   relaxations are connections of one entry)
    sdp_solver     primal-dual interior-point solver for block SDPs
    certificates   exactness class checks (convex, sign-pattern, homogeneous)
    rank_reduction extreme-point rank reduction and point extraction
    connection     end-to-end exactness pipeline
    examples       the paper's examples 5.1 and 5.2 as seeded generators
    cli            command-line front end and problem file I/O
"""

from . import errors
from .errors import (
    DimensionError,
    GenerationError,
    InfeasibleStructureError,
    ParseError,
    RangeError,
    ReductionStallError,
    SepqcqpError,
    StaleSolutionError,
    StructureError,
    ValidationError,
)
from .symkernel import SymMatrix, frob_inner, is_psd, numeric_rank
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
    hom_values,
    lift,
    split_point,
)
from .qcqp_model import eval as eval_quad
from .sdpr_builder import (
    BlockSdp,
    SdpSolution,
    SolveStatus,
    build_block,
    build_hom,
    build_shor,
    to_standard_form,
)
from .sdp_solver import solve
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
    extract_convex_solution,
    nonpositive_gauge,
    reduce_homogeneous_rows,
    sign_gauge,
)
from .rank_reduction import BlockKind, ExtractResult, ReductionReport, reduce
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
)
from .examples import make_example51, make_example52

__version__ = "0.1.0"
