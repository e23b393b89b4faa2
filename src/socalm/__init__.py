"""Solver for convex quadratic second-order cone programs.

An inexact augmented Lagrangian outer loop drives a semismooth Newton inner
solver; structured Newton systems are handled sparsely with low-rank updates.
Instance builders cover minimal enclosing balls, trust-region subproblems,
and square-root Lasso regression.
"""

from .cone import (
    Block,
    ConeSpec,
    JacobianElement,
    SocCase,
    apply_jacobian,
    dist_to_cone,
    jacobian_element,
    make_jacobian,
    project,
)
from .linsys import (
    LinearSolveError,
    NewtonAssembly,
    NewtonSystem,
    SparseSymmetric,
    assemble_linear,
    estimate_lambda_max,
    solve_quadratic,
    solve_spd,
)
from .ssn import (
    InnerState,
    NewtonParams,
    line_search,
    make_state,
    newton_direction,
    psi_and_grad,
    run_inner,
)
from .alm import (
    AlmOptions,
    Iterate,
    ProblemData,
    SolveResult,
    diagnose_strict_complementarity,
    kkt_residuals,
    natural_map,
    outer_step,
    solve,
)
from .problems import (
    MebInstance,
    SrLassoInstance,
    TrsInstance,
    build_srlasso,
    build_trs,
    extract_meb_solution,
    extract_srlasso_solution,
    extract_trs_solution,
    gen_meb,
    gen_trs,
    lambda_from_lambda_c,
    load_srlasso_csv,
    prand_next,
    prand_sequence,
)
from .io import (
    ProblemFormatError,
    cli_main,
    parse_problem,
    parse_result,
    write_problem,
    write_result,
)

__version__ = "0.1.0"

__all__ = [
    "Block", "ConeSpec", "JacobianElement", "SocCase",
    "apply_jacobian", "dist_to_cone", "jacobian_element", "make_jacobian",
    "project",
    "LinearSolveError", "NewtonAssembly", "NewtonSystem", "SparseSymmetric",
    "assemble_linear", "estimate_lambda_max", "solve_quadratic", "solve_spd",
    "InnerState", "NewtonParams", "line_search", "make_state",
    "newton_direction", "psi_and_grad", "run_inner",
    "AlmOptions", "Iterate", "ProblemData", "SolveResult",
    "diagnose_strict_complementarity", "kkt_residuals", "natural_map",
    "outer_step", "solve",
    "MebInstance", "SrLassoInstance", "TrsInstance",
    "build_srlasso", "build_trs",
    "extract_meb_solution", "extract_srlasso_solution", "extract_trs_solution",
    "gen_meb", "gen_trs", "lambda_from_lambda_c", "load_srlasso_csv",
    "prand_next", "prand_sequence",
    "ProblemFormatError", "cli_main", "parse_problem", "parse_result",
    "write_problem", "write_result",
]
