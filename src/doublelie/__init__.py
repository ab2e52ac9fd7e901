"""Exact tools for double Lie algebras on infinite matrices: skew-symmetric
Rota-Baxter operators, the bracket-operator correspondence, polynomial and
finite bracket catalogs, ideals and simplicity probes, and modules with
their block bimodule correspondence.

All arithmetic is rational and exact; every checker sweeps an explicit
window of basis elements and returns a structured report.
"""

from __future__ import annotations

from .brackets import (CATALOG_BRACKET_NAMES, DoubleBracket, bracket_from_rb,
                       catalog_bracket, check_anticommutativity,
                       check_jacobi, check_leibniz, divided_difference,
                       rb_from_bracket)
from .dmodules import (DoubleAction, check_module_axioms,
                       induced_module_from_ideal, rb_bimodule_split_check,
                       trivial_extension_bracket)
from .exact import Tensor2, Vec
from .grammar import parse_poly, render_tensor2, render_vec
from .ideals import (Subspace, ideal_closure, is_ideal, quotient_bracket,
                     quotient_reduce, simplicity_probe, theorem3_replay)
from .matrices import (Domain, FinitaryMatrix, LocallyFiniteOperator,
                       commutator, mul_mixed)
from .rb import (CATALOG_RB_NAMES, RBOperator, build_pk, catalog_rb,
                 check_rb_identity, check_skew_symmetry, conjugate_by,
                 remark3_suite, tensor_extend,
                 verify_trace_functional_identities)
from .report import VerificationReport

__version__ = "0.1.0"

__all__ = [
    "CATALOG_BRACKET_NAMES", "CATALOG_RB_NAMES", "Domain", "DoubleAction",
    "DoubleBracket", "FinitaryMatrix", "LocallyFiniteOperator", "RBOperator",
    "Subspace", "Tensor2", "Vec",
    "VerificationReport", "bracket_from_rb", "build_pk",
    "catalog_bracket", "catalog_rb", "check_anticommutativity",
    "check_jacobi", "check_leibniz", "check_module_axioms",
    "check_rb_identity", "check_skew_symmetry", "commutator", "conjugate_by",
    "divided_difference", "ideal_closure", "induced_module_from_ideal",
    "is_ideal", "mul_mixed", "parse_poly",
    "quotient_bracket", "render_tensor2", "render_vec",
    "quotient_reduce",
    "rb_bimodule_split_check", "rb_from_bracket",
    "remark3_suite", "simplicity_probe", "tensor_extend",
    "theorem3_replay", "trivial_extension_bracket",
    "verify_trace_functional_identities",
]
