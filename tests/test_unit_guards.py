"""Every unit-norm guard of the library rejects NaN with its non-unit error."""

import numpy as np
import pytest

import spin5 as sp

NAN = float("nan")
NAN_SPINOR = np.full(4, NAN, dtype=complex)
NAN_QUATERNION = np.array([NAN, 0.0, 0.0, 0.0])


def nan_datum():
    return sp.NablaDatum(phi=NAN_SPINOR, derivatives=np.zeros((5, 4), complex))


GUARDED = {
    "reeb_vector": (sp.NonUnitSpinor, lambda s: sp.reeb_vector(NAN_SPINOR)),
    "build_frame": (sp.NonUnitSpinor, lambda s: sp.build_frame(NAN_SPINOR)),
    "space_of_spinor": (sp.NonUnitSpinor,
                        lambda s: sp.space_of_spinor(NAN_SPINOR)),
    "complex_structure": (sp.NonUnitSpinor,
                          lambda s: sp.complex_structure(NAN_SPINOR, s)),
    "induced_map": (sp.NonUnitSpinor,
                    lambda s: sp.induced_map(np.eye(4), NAN_SPINOR, s)),
    "validate_nabla": (sp.NonUnitSpinor, lambda s: sp.validate_nabla(nan_datum())),
    "decompose": (sp.NonUnitSpinor, lambda s: sp.decompose(nan_datum(), s)),
    "omega_decompose": (sp.NonUnitSpinor,
                        lambda s: sp.omega_decompose(nan_datum(), s)),
    "intrinsic_torsion": (sp.NonUnitSpinor,
                          lambda s: sp.intrinsic_torsion(nan_datum(), s)),
    "rotate_spinor_datum": (sp.NonUnitQuaternion,
                            lambda s: sp.rotate_spinor_datum(
                                NAN_QUATERNION, nan_datum(), s)),
    "rotation_from_quaternion": (sp.NonUnitQuaternion,
                                 lambda s: sp.rotation_from_quaternion(
                                     NAN_QUATERNION)),
    "transform_beta": (sp.NonUnitQuaternion,
                       lambda s: sp.transform_beta(NAN_QUATERNION,
                                                   np.zeros((3, 5)))),
    "hopf": (sp.NonUnitInput, lambda s: sp.hopf(NAN, 0.0, 0.0, 0.0)),
    "hopf_matrix": (sp.NonUnitInput, lambda s: sp.hopf_matrix(NAN, 0.0, 0.0)),
    "spin_element": (sp.NonUnitGenerator,
                     lambda s: sp.spin_element([np.full(5, NAN),
                                                sp.standard_vector(1)])),
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_nan_fails_the_unit_guard(fundamental_space, name):
    error, call = GUARDED[name]
    with pytest.raises(error, match="expected 1"):
        call(fundamental_space)
