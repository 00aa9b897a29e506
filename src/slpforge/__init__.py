"""Bounded-width arithmetic circuits.

Construction, staggering, width-preserving transforms, monotone
structure analysis, and polynomial identity testing for layered
circuits and straight-line programs.  See the README for the file
formats and the `slpforge` command-line surface.
"""

from .circuits import (
    AlgebraicBranchingProgram,
    CircuitBuilder,
    LayeredCircuit,
    LinearForm,
    SlpBuilder,
    StraightLineProgram,
    circuit_to_slp,
    evaluate,
    evaluate_batch,
    expand,
    slp_to_circuit,
    syntactic_degree,
    validate,
)
from .errors import SlpforgeError
from .families import (
    BenOrParams,
    FamilyParams,
    build_E_abp,
    build_E_width2,
    build_P,
    build_palindrome,
    build_permanent_sparse,
    family_monomial_set,
    project_to_formula,
)
from .formulas import Formula, fadd, fconst, fmul, fvar
from .monotone import MonomialSet, coverage, mon_set, mon_var_graph
from .pit import (
    HARD_FAMILIES,
    nw_design,
    nw_pit,
    schwartz_zippel,
    verify_permanent_circuit,
)
from .polynomials import DEFAULT_CAPS, ExpansionCaps, Monomial, SparsePolynomial
from .rings import RATIONALS, PrimeField, Ring
from .rootfind import RootProblem, newton_series_root, root_circuit
from .stagger import staggerize
from .textio import (
    parse_circuit,
    parse_polynomial,
    serialize_circuit,
    serialize_polynomial,
)
from .transforms import (
    depth_to_width,
    homogeneous_components,
    homogeneous_prefix,
    partial_derivative_y,
    sparse_to_width2,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicBranchingProgram",
    "BenOrParams",
    "CircuitBuilder",
    "DEFAULT_CAPS",
    "ExpansionCaps",
    "FamilyParams",
    "Formula",
    "HARD_FAMILIES",
    "LayeredCircuit",
    "LinearForm",
    "Monomial",
    "MonomialSet",
    "PrimeField",
    "RATIONALS",
    "Ring",
    "RootProblem",
    "SlpBuilder",
    "SlpforgeError",
    "SparsePolynomial",
    "StraightLineProgram",
    "build_E_abp",
    "build_E_width2",
    "build_P",
    "build_palindrome",
    "build_permanent_sparse",
    "circuit_to_slp",
    "coverage",
    "depth_to_width",
    "evaluate",
    "evaluate_batch",
    "expand",
    "fadd",
    "fconst",
    "family_monomial_set",
    "fmul",
    "fvar",
    "homogeneous_components",
    "homogeneous_prefix",
    "mon_set",
    "mon_var_graph",
    "newton_series_root",
    "nw_design",
    "nw_pit",
    "parse_circuit",
    "parse_polynomial",
    "partial_derivative_y",
    "project_to_formula",
    "root_circuit",
    "schwartz_zippel",
    "serialize_circuit",
    "serialize_polynomial",
    "slp_to_circuit",
    "sparse_to_width2",
    "staggerize",
    "syntactic_degree",
    "validate",
    "verify_permanent_circuit",
]
