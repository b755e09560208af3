"""Spinorial linear algebra for rank-2 structures in dimension 5.

The package models the 4-dimensional complex spinor module of the
5-dimensional Clifford algebra and the distinguished complex 2-planes
inside it: their canonical frames, annihilating su(2) algebras,
quaternionic structures, Hopf parametrization, behaviour under the spin
group, and the pointwise decomposition of spinor derivative data into
torsion components.  Every documented identity is also available as a
runnable check through :func:`run_checks` or ``spin5 verify-all``; that
registry (``spin5.verify``) is imported on first use, not with the package.
"""

import importlib

from .clifford import (DIM_SPINOR, DIM_TWO_FORMS, DIM_V, KForm, form_action,
                       gamma, hermitian, inner, interior_product,
                       random_two_form, random_unit_spinor,
                       random_unit_vector, spinor_to_real, standard_spinor,
                       standard_vector, two_form_to_matrix, vector_action,
                       vector_matrix, volume_action, wedge_vectors)
from .errors import (BasisDegeneracy, ConjugationNotVector,
                     DegenerateSubspace, DerivationFailure, InputError,
                     KernelDimensionError, NonOrthogonalDerivative,
                     NonUnitGenerator, NonUnitInput, NonUnitQuaternion,
                     NonUnitSpinor, NotAdmissible, OddWord, Spin5Error,
                     NumericalRankFailure)
from .frames import SpinorFrame, build_frame, distribution_basis, reeb_vector
from .numerics import EPS_DEFAULT
from .quaternionic import (AntilinearOp, DistributionTriple, StructureTriple,
                           StructureQuadruplet, adapted_triple,
                           charge_conjugation, complex_structure,
                           global_triple, hopf, hopf_coordinates, hopf_matrix,
                           induced_map, structure_quadruplet,
                           triple_on_distribution)
from .spingroup import (SpinElement, act_on_space, adjoint_form,
                        adjoint_matrix, adjoint_vector, exp_element,
                        identity_element, random_spin,
                        random_stabilizer_element, spin_element,
                        stabilizer_algebra, stabilizer_dimension)
from .su2 import (AdmissibilityResult, AdmissibleSpace, So5Splitting,
                  admissible_space, annihilator, dual_action_span,
                  is_admissible, random_admissible_space, so5_splitting,
                  space_of_spinor, two_form_bracket)
from .torsion import (IntrinsicTorsion, NablaDatum, OmegaDecomposition,
                      TorsionDecomposition, decompose, intrinsic_torsion,
                      omega_decompose, quaternion_product, random_nabla,
                      reconstruct, rotate_spinor_datum,
                      rotation_from_quaternion, split_endomorphism,
                      transform_beta, validate_nabla)

__version__ = "0.1.0"

_REGISTRY_NAMES = ("CheckResult", "VerificationReport", "check_ids", "run_checks")


def __getattr__(name: str):
    """Load the registry module when one of its names is first asked for."""
    if name == "verify" or name in _REGISTRY_NAMES:
        registry = importlib.import_module(".verify", __name__)
        return registry if name == "verify" else getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AdmissibilityResult", "AdmissibleSpace", "AntilinearOp",
    "BasisDegeneracy", "CheckResult", "ConjugationNotVector", "DIM_SPINOR",
    "DIM_TWO_FORMS", "DIM_V", "DegenerateSubspace", "DerivationFailure",
    "DistributionTriple", "EPS_DEFAULT", "InputError", "IntrinsicTorsion",
    "KForm", "KernelDimensionError", "NablaDatum", "NonOrthogonalDerivative",
    "NonUnitGenerator", "NonUnitInput", "NonUnitQuaternion", "NonUnitSpinor",
    "NotAdmissible", "NumericalRankFailure", "OddWord", "OmegaDecomposition",
    "So5Splitting", "Spin5Error", "SpinElement", "SpinorFrame",
    "StructureQuadruplet", "StructureTriple", "TorsionDecomposition",
    "VerificationReport", "act_on_space", "adapted_triple", "adjoint_form",
    "adjoint_matrix", "adjoint_vector", "admissible_space", "annihilator",
    "build_frame", "charge_conjugation", "check_ids", "complex_structure",
    "decompose", "distribution_basis", "dual_action_span", "exp_element",
    "form_action", "gamma", "global_triple", "hermitian", "hopf",
    "hopf_coordinates", "hopf_matrix", "identity_element", "induced_map",
    "inner", "interior_product", "intrinsic_torsion", "is_admissible",
    "omega_decompose", "quaternion_product", "random_admissible_space",
    "random_nabla", "random_spin", "random_stabilizer_element",
    "random_two_form", "random_unit_spinor", "random_unit_vector",
    "reconstruct", "reeb_vector", "rotate_spinor_datum",
    "rotation_from_quaternion", "run_checks", "so5_splitting",
    "space_of_spinor", "spin_element", "spinor_to_real",
    "split_endomorphism", "stabilizer_algebra", "stabilizer_dimension",
    "standard_spinor",
    "standard_vector", "structure_quadruplet", "transform_beta",
    "triple_on_distribution", "two_form_bracket", "two_form_to_matrix",
    "validate_nabla", "vector_action", "vector_matrix", "volume_action",
    "wedge_vectors",
]
