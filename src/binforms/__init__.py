"""Exact computer algebra for vector spaces of binary forms.

Given a subspace V of the degree-j forms in k[x,y], the package computes
the three graded ideals it determines (ancestor, level, generated), the
combinatorics of their Hilbert functions (partitions, dimension and
codimension formulas, partial orders, closures), and apolar/Waring
decompositions of the dual space.
"""

__version__ = "0.1.0"

from .closure import BuildTrace, StepRecord, build_h, build_n, build_t, step_n, step_t
from .errors import PreconditionError
from .fields import GF, QQ, FieldSpec
from .forms import BinaryForm, form, format_form, linear_factors, monomial
from .hilbert import (
    Cmp,
    StratumReport,
    dims,
    enumerate_acceptable,
    h_tau,
    hasse_edges,
    le_partial,
    realize_staircase,
    table_rows,
)
from .ideals import (
    GradedIdeal,
    ancestor_ideal,
    generated_ideal,
    generator_degrees,
    hilbert_function,
    ideal_from_generators,
    level_ideal,
    relation_degrees,
    same_ideal,
)
from .osequence import OSequence, oseq, parse_oseq
from .related import (
    ChainSpec,
    apply_chain,
    berman_check,
    normalize_chain,
    related_classes,
)
from .spaces import (
    FormSpace,
    equivalent,
    full_space,
    gcd_of_space,
    principal_space,
    random_space,
    shift,
    span,
    tau,
    zero_space,
)
from .waring import (
    GAD,
    DualSpace,
    Unsplit,
    annihilator,
    dual_space,
    gad,
    mu,
    mu_generic,
    perp,
    random_dual,
    tau_delta,
)

__all__ = [
    "BinaryForm",
    "BuildTrace",
    "ChainSpec",
    "Cmp",
    "DualSpace",
    "FieldSpec",
    "FormSpace",
    "GAD",
    "GF",
    "GradedIdeal",
    "OSequence",
    "PreconditionError",
    "QQ",
    "StepRecord",
    "StratumReport",
    "Unsplit",
    "__version__",
    "ancestor_ideal",
    "annihilator",
    "apply_chain",
    "berman_check",
    "build_h",
    "build_n",
    "build_t",
    "dims",
    "dual_space",
    "enumerate_acceptable",
    "equivalent",
    "form",
    "format_form",
    "full_space",
    "gad",
    "gcd_of_space",
    "generated_ideal",
    "generator_degrees",
    "h_tau",
    "hasse_edges",
    "hilbert_function",
    "ideal_from_generators",
    "le_partial",
    "level_ideal",
    "linear_factors",
    "monomial",
    "mu",
    "mu_generic",
    "normalize_chain",
    "oseq",
    "parse_oseq",
    "perp",
    "principal_space",
    "random_dual",
    "random_space",
    "realize_staircase",
    "related_classes",
    "relation_degrees",
    "same_ideal",
    "shift",
    "span",
    "step_n",
    "step_t",
    "table_rows",
    "tau",
    "tau_delta",
    "zero_space",
]
