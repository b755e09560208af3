import numpy as np
import pytest

import spin5 as sp
import spin5.clifford as cl


def test_reeb_of_basis_spinors():
    assert np.allclose(sp.reeb_vector(sp.standard_spinor(1)),
                       sp.standard_vector(5))
    assert np.allclose(sp.reeb_vector(sp.standard_spinor(2)),
                       sp.standard_vector(5))
    assert np.allclose(sp.reeb_vector(sp.standard_spinor(3)),
                       -sp.standard_vector(5))
    mixed = (sp.standard_spinor(1) + 1j * sp.standard_spinor(2)) / np.sqrt(2)
    assert np.allclose(sp.reeb_vector(mixed), sp.standard_vector(5))


def test_reeb_defining_property(rng):
    for _ in range(25):
        phi = cl.random_unit_spinor(rng)
        y = sp.reeb_vector(phi)
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-9
        assert np.linalg.norm(cl.vector_action(y, phi) - 1j * phi) <= 1e-9


def test_reeb_rejects_non_unit():
    with pytest.raises(sp.NonUnitSpinor):
        sp.reeb_vector(2.0 * sp.standard_spinor(1))
    with pytest.raises(sp.NonUnitSpinor):
        sp.reeb_vector(np.zeros(4, dtype=complex))


def test_frame_shapes_and_orthogonality(rng):
    phi = cl.random_unit_spinor(rng)
    fr = sp.build_frame(phi)
    assert fr.d_basis.shape == (4, 5)
    assert fr.v_basis.shape == (2, 4)
    assert np.abs(fr.d_basis @ fr.y).max() <= 1e-12
    assert np.abs(fr.d_basis @ fr.d_basis.T - np.eye(4)).max() <= 1e-12
    assert np.abs(fr.v_basis @ fr.v_basis.conj().T - np.eye(2)).max() <= 1e-9
    for v in fr.v_basis:
        assert abs(cl.hermitian(v, phi)) <= 1e-9
        assert abs(cl.hermitian(v, fr.phi_tilde)) <= 1e-9
    assert abs(cl.hermitian(fr.phi_tilde, phi)) <= 1e-9


def test_v_is_image_of_distribution(rng):
    phi = cl.random_unit_spinor(rng)
    fr = sp.build_frame(phi)
    for b in fr.d_basis:
        image = cl.vector_action(b, phi)
        coeffs = np.array([cl.hermitian(image, v) for v in fr.v_basis])
        rebuilt = fr.v_basis.T @ coeffs
        assert np.linalg.norm(rebuilt - image) <= 1e-9


def test_phi_tilde_same_eigenspace(rng):
    phi = cl.random_unit_spinor(rng)
    fr = sp.build_frame(phi)
    assert np.linalg.norm(
        cl.vector_action(fr.y, fr.phi_tilde) - 1j * fr.phi_tilde) <= 1e-9


def test_w_space_rank(rng):
    from spin5.frames import rep_matrix
    phi = cl.random_unit_spinor(rng)
    sing = np.linalg.svd(rep_matrix(phi), compute_uv=False)
    assert np.abs(sing - 1.0).max() <= 1e-12


def test_distribution_basis_spans_complement(rng):
    y = cl.random_unit_vector(rng)
    d = sp.distribution_basis(y)
    assert d.shape == (4, 5)
    assert np.abs(d @ y).max() <= 1e-12
    assert np.abs(d @ d.T - np.eye(4)).max() <= 1e-12


def test_reeb_closed_form_matches_least_squares(rng):
    from spin5.frames import rep_matrix
    spinors = [cl.random_unit_spinor(rng) for _ in range(200)]
    spinors += [sp.standard_spinor(i) for i in range(1, 5)]
    for phi in spinors:
        ref = np.linalg.lstsq(rep_matrix(phi), cl.spinor_to_real(1j * phi),
                              rcond=None)[0]
        assert np.abs(sp.reeb_vector(phi) - ref).max() <= 1e-14


@pytest.mark.parametrize("scale", [1 + 0.9e-9, 1 - 0.9e-9])
def test_reeb_of_nearly_unit_spinor_is_unit(rng, scale):
    phi = scale * cl.random_unit_spinor(rng)
    assert abs(np.linalg.norm(sp.reeb_vector(phi)) - 1.0) <= 1e-15


def test_reeb_rejects_nan_generator_table(monkeypatch):
    bad = list(cl._GAMMA)
    bad[4] = bad[4].copy()
    bad[4][0, 0] = np.nan
    monkeypatch.setattr(cl, "_GAMMA", tuple(bad))
    with pytest.raises(sp.NumericalRankFailure):
        sp.reeb_vector(sp.standard_spinor(1))
