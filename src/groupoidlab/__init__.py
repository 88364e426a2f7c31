"""Finite groupoid workbench.

Exact computational algebra for finite groupoids: axiom validation, quotients
by normal subgroupoids, fixed-point abelianization, character duals of abelian
group bundles, and the induced maps and ideals of their convolution
*-algebras, together with a machine-verification suite for the structural
identities relating them.
"""

from .abelian import (
    Character,
    CyclicDecomposition,
    DualBundle,
    FiniteAbelianGroup,
    char_group_structure,
    characters,
    dual_bundle,
    finite_abelian_group,
    invariant_factors,
)
from .algebra import (
    AlgebraHom,
    CharacterFunctional,
    GelfandMatrix,
    abelianization_dim,
    abelianized_fiber,
    commutator_ideal,
    enumerate_characters,
    gelfand_transform,
    pi_hom,
)
from .checks import (
    CheckReport,
    CheckResult,
    corpus_report,
    duality_family_check,
    file_report,
    instance_checks,
    regression_checks,
)
from .core import (
    AxiomViolation,
    FiniteGroupoid,
    MalformedTable,
    NotInvariantError,
    disjoint_union,
    fixed_points,
    isotropy,
    isotropy_group,
    restrict,
    unit_components,
    validate,
)
from .document import (
    DocumentError,
    decode_groupoid,
    encode_groupoid,
)
from .generators import (
    group_action,
    group_bundle,
    klein_cross,
    pair_groupoid,
    random_groupoid,
    s3_a3_bundle,
    s3_point,
    transformation_groupoid,
    trivial_groupoid,
)
from .groups import FiniteGroup, cyclic, dihedral4, finite_group, klein, quaternion8, sym3
from .linalg import BinomialSpan, Qi
from .quotients import (
    Abelianization,
    NormalSubgroupoid,
    QuotientResult,
    abelianize_groupoid,
    commutator_subgroupoid,
    enumerate_normal_subgroupoids,
    is_normal,
    normal_subgroupoid,
    quotient,
    quotient_map,
    quotient_preimage_of_units,
)
from .snf import SmithNormalForm, smith_normal_form

__version__ = "0.1.0"

__all__ = [
    "AlgebraHom", "AxiomViolation", "Abelianization", "BinomialSpan",
    "Character", "CharacterFunctional", "CheckReport", "CheckResult",
    "CyclicDecomposition", "DocumentError", "DualBundle",
    "FiniteAbelianGroup", "FiniteGroup", "FiniteGroupoid", "GelfandMatrix", "MalformedTable",
    "NormalSubgroupoid", "NotInvariantError", "Qi", "QuotientResult",
    "SmithNormalForm", "abelianization_dim",
    "abelianize_groupoid", "abelianized_fiber",
    "char_group_structure", "characters", "commutator_ideal",
    "commutator_subgroupoid", "corpus_report", "cyclic", "decode_groupoid",
    "dihedral4", "disjoint_union", "dual_bundle", "duality_family_check",
    "encode_groupoid", "enumerate_characters",
    "enumerate_normal_subgroupoids", "file_report", "finite_abelian_group",
    "finite_group", "fixed_points", "gelfand_transform", "group_action",
    "group_bundle", "instance_checks", "invariant_factors", "is_normal",
    "isotropy", "isotropy_group", "klein", "klein_cross", "normal_subgroupoid",
    "pair_groupoid", "pi_hom", "quaternion8", "quotient", "quotient_map",
    "quotient_preimage_of_units", "random_groupoid", "regression_checks",
    "restrict", "s3_a3_bundle", "s3_point", "smith_normal_form", "sym3",
    "transformation_groupoid", "trivial_groupoid", "unit_components",
    "validate",
]
