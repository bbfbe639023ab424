"""L2-optimal structured reduced-order modeling.

Gradient-based fitting of parameter-separable reduced models to weighted
output samples, with residual certificates for the interpolatory optimality
conditions of the continuous/discrete H2, H2xL2, discrete least-squares and
stationary families.
"""

from .core import (
    KronStructure,
    SampleSet,
    ScalarFamily,
    SingularOperatorError,
    StructuredRom,
    check_conjugation_closure,
    kron_rom,
    lti_rom,
    stationary_rom,
)
from .spectral import (
    DefectivePencilError,
    PoleResidue,
    PoleResidue2D,
    diagonalize_pencil,
    kron_pole_residue,
    pole_residue,
    pole_residue_affine_singular,
    pole_residue_eval,
    pole_residue_lti,
)
from .optimize import (
    FitOptions,
    FitTrace,
    fit,
    greedy_rb_init,
    irka_init,
    l2_gradients,
    l2_gradients_kron,
    l2_objective,
)
from .certify import (
    Certificate,
    CertificateRow,
    Interval,
    h2_residuals,
    h2l2_residuals,
    ls_residuals,
    modified_ls_tf_eval,
    modified_output_eval,
    stationary_residuals,
)

__all__ = [
    "KronStructure",
    "SampleSet",
    "ScalarFamily",
    "SingularOperatorError",
    "StructuredRom",
    "check_conjugation_closure",
    "kron_rom",
    "lti_rom",
    "stationary_rom",
    "DefectivePencilError",
    "PoleResidue",
    "PoleResidue2D",
    "diagonalize_pencil",
    "kron_pole_residue",
    "pole_residue",
    "pole_residue_affine_singular",
    "pole_residue_eval",
    "pole_residue_lti",
    "FitOptions",
    "FitTrace",
    "fit",
    "greedy_rb_init",
    "irka_init",
    "l2_gradients",
    "l2_gradients_kron",
    "l2_objective",
    "Certificate",
    "CertificateRow",
    "Interval",
    "h2_residuals",
    "h2l2_residuals",
    "ls_residuals",
    "modified_ls_tf_eval",
    "modified_output_eval",
    "stationary_residuals",
]
