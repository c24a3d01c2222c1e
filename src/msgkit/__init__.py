"""msgkit: exact-arithmetic toolkit for multiply symplectic Grassmannians.

Computes tangent-space dimensions at simultaneously isotropic points,
decides pencil degeneracy over the algebraic closure, verifies the
dimension/degeneracy equivalence by brute force on small instances, and
evaluates rank-2 Brill-Noether expected-dimension formulas -- all over
odd prime fields or the rationals, with no floating point anywhere.
"""

from .fields import (
    Field,
    FieldMismatchError,
    PrimeField,
    QQ,
    RationalField,
    field_from_spec,
)
from .matrices import (
    Matrix,
    SingularMatrixError,
    canonical_alternating,
    random_invertible,
    random_matrix,
    skew_normal_form,
)
from .numerology import (
    bfm_bound,
    gn_bound,
    rho2_special,
    rho_fixed,
    rho_full,
    stable_locus_inequality,
)
from .polynomials import BinaryForm, binary_form_roots
from .symplectic import (
    BudgetExceeded,
    FormSpace,
    Subspace,
    SymplecticForm,
    decode_point,
    derive_seed,
    enumerate_isotropic_subspaces,
    enumerate_subspaces,
    enumeration_budget,
    gaussian_binomial,
    is_isotropic,
    isotropy_failure,
    random_form_space,
    random_independent_pair,
    random_isotropic_subspace,
    random_symplectic_form,
    standard_form,
)
from .tangent import (
    EigenspaceReport,
    MismatchRecord,
    PencilDegeneracy,
    PhiKernelElement,
    PointContext,
    TangentReport,
    VerifyReport,
    build_constraints,
    check_even_eigenspaces,
    decode_kernel_element,
    default_complement,
    find_degenerate_pencil,
    j_V,
    msg_expected_dim,
    tangent_report,
    verify_pair,
    verify_thm_equivalence,
)

__version__ = "0.1.0"
