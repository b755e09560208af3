import numpy as np
import pytest

import spin5 as sp
import spin5.clifford as cl
import spin5.numerics as nx
import spin5.torsion as ts


def test_quaternion_product_table():
    e = np.eye(4)
    # i*j = k, j*k = i, k*i = j, i*i = -1
    assert np.allclose(sp.quaternion_product(e[1], e[2]), e[3])
    assert np.allclose(sp.quaternion_product(e[2], e[3]), e[1])
    assert np.allclose(sp.quaternion_product(e[3], e[1]), e[2])
    assert np.allclose(sp.quaternion_product(e[1], e[1]), -e[0])
    assert np.allclose(sp.quaternion_product(e[2], e[1]), -e[3])


def test_rotation_from_quaternion_identity():
    assert np.allclose(sp.rotation_from_quaternion(np.array([1.0, 0, 0, 0])),
                       np.eye(3))


def test_rotation_is_homomorphism(rng):
    a = cl.random_unit_vector(rng, 4)
    b = cl.random_unit_vector(rng, 4)
    lhs = sp.rotation_from_quaternion(sp.quaternion_product(b, a))
    rhs = sp.rotation_from_quaternion(b) @ sp.rotation_from_quaternion(a)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_rotation_first_row_hopf(rng):
    a = cl.random_unit_vector(rng, 4)
    r = sp.rotation_from_quaternion(a)
    h = sp.hopf(*a)
    assert np.abs(r[0] - np.array([h[0], -h[1], h[2]])).max() <= 1e-12


def test_rotation_rejects_non_unit():
    with pytest.raises(sp.NonUnitQuaternion):
        sp.rotation_from_quaternion(np.array([1.0, 1.0, 0.0, 0.0]))


def test_validate_nabla_shape(fundamental_space, rng):
    phi = fundamental_space.vperp_basis[0]
    with pytest.raises(sp.InputError):
        sp.validate_nabla(sp.NablaDatum(phi=phi,
                                        derivatives=np.zeros((4, 4))))


def test_validate_nabla_radial(fundamental_space):
    phi = fundamental_space.vperp_basis[0]
    derivs = np.zeros((5, 4), dtype=complex)
    derivs[0] = 0.3 * phi   # radial component: not norm-preserving
    with pytest.raises(sp.NonOrthogonalDerivative):
        sp.validate_nabla(sp.NablaDatum(phi=phi, derivatives=derivs))


@pytest.mark.parametrize("factor, ok", [(0.5, True), (2.0, False)])
def test_validate_nabla_radial_bound_scales_with_the_row(fundamental_space,
                                                          factor, ok):
    phi, other = fundamental_space.vperp_basis
    size = 1e6
    derivs = np.zeros((5, 4), dtype=complex)
    derivs[2] = size * other + factor * 1e-9 * size * phi   # |d| rounds to 1e6
    nabla = sp.NablaDatum(phi=phi, derivatives=derivs)
    if ok:
        sp.validate_nabla(nabla, 1e-9)
    else:
        with pytest.raises(sp.NonOrthogonalDerivative, match="derivative 3"):
            sp.validate_nabla(nabla, 1e-9)


@pytest.mark.parametrize("solve", [sp.decompose, sp.omega_decompose,
                                   sp.intrinsic_torsion])
def test_nan_derivative_is_rejected(fundamental_space, rng, solve):
    nabla = sp.random_nabla(fundamental_space, rng)
    derivs = nabla.derivatives.copy()
    derivs[0, 0] = np.nan
    with pytest.raises(sp.Spin5Error):
        solve(sp.NablaDatum(phi=nabla.phi, derivatives=derivs), fundamental_space)


def test_nan_residual_fails_the_solve_guard():
    with pytest.raises(sp.DerivationFailure):
        ts._require_solved(float("nan"), np.zeros(4), 1e-9, "split")


def test_decompose_zero_gives_zero(fundamental_space):
    phi = fundamental_space.vperp_basis[0]
    dec = sp.decompose(sp.NablaDatum(phi=phi,
                                     derivatives=np.zeros((5, 4),
                                                          dtype=complex)),
                       fundamental_space)
    assert np.abs(dec.s_matrix).max() == 0.0
    assert np.abs(dec.beta).max() == 0.0
    assert dec.lambda0 == 0.0
    assert np.abs(dec.sigma).max() == 0.0
    assert dec.residual <= 1e-12


def test_roundtrip(rng):
    for _ in range(10):
        space = sp.random_admissible_space(rng)
        nabla = sp.random_nabla(space, rng)
        dec = sp.decompose(nabla, space)
        assert dec.residual <= 1e-9
        rec = sp.reconstruct(dec, space)
        assert np.abs(rec.derivatives - nabla.derivatives).max() <= 1e-9


def test_torsion_budget(monkeypatch, rng):
    """No SVD per datum, and the rotation forms skip the tangent frame."""
    space = sp.random_admissible_space(rng)
    nabla = sp.random_nabla(space, rng)
    for solve in (sp.decompose, sp.omega_decompose, sp.intrinsic_torsion):
        solve(nabla, space)   # the per-space constants are built once, here
    calls = []

    def counting(fn):
        def counted(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd))
    monkeypatch.setattr(ts, "_tangent_basis", counting(ts._tangent_basis))
    for solve, tangent in ((sp.decompose, 1), (sp.omega_decompose, 0),
                           (sp.intrinsic_torsion, 0)):
        calls.clear()
        solve(nabla, space)
        assert calls.count("svd") == 0
        assert calls.count("_tangent_basis") == tangent


@pytest.mark.parametrize("scale", [2.0, np.nan])
def test_tangent_basis_rejects_non_orthonormal_frame(rng, scale):
    space = sp.random_admissible_space(rng)
    phi = scale * sp.random_nabla(space, rng).phi
    with pytest.raises(sp.BasisDegeneracy):
        ts._tangent_basis(phi, space, sp.adapted_triple(space), nx.EPS_DEFAULT)


def test_split_endomorphism_rejects_nan_triple():
    with pytest.raises(sp.InputError):
        ts.split_endomorphism(np.eye(4), np.full((3, 4, 4), np.nan))


def test_split_endomorphism_laws(rng):
    space = sp.random_admissible_space(rng)
    nabla = sp.random_nabla(space, rng)
    dec = sp.decompose(nabla, space)
    js = sp.triple_on_distribution(space).j_matrices
    rebuilt = dec.lambda0 * np.eye(4) + dec.s0
    for k in range(3):
        rebuilt = rebuilt + dec.lambdas[k] * js[k] + dec.sigma[k]
    assert np.abs(rebuilt - dec.s_d).max() <= 1e-9
    assert abs(np.trace(dec.s0)) <= 1e-9
    for k in range(3):
        assert np.abs(dec.s0 @ js[k] - js[k] @ dec.s0).max() <= 1e-9
        assert np.abs(dec.sigma[k] @ js[k] - js[k] @ dec.sigma[k]).max() <= 1e-9
        for l in range(3):
            if l != k:
                assert np.abs(dec.sigma[k] @ js[l]
                              + js[l] @ dec.sigma[k]).max() <= 1e-9


def test_s_invariant_under_rotation(rng):
    space = sp.random_admissible_space(rng)
    nabla = sp.random_nabla(space, rng)
    dec = sp.decompose(nabla, space)
    for _ in range(5):
        a = cl.random_unit_vector(rng, 4)
        rotated = sp.rotate_spinor_datum(a, nabla, space)
        dec_a = sp.decompose(rotated, space)
        assert np.abs(dec_a.s_matrix - dec.s_matrix).max() <= 1e-9


def test_beta_transformation_law(rng):
    space = sp.random_admissible_space(rng)
    nabla = sp.random_nabla(space, rng)
    dec = sp.decompose(nabla, space)
    for _ in range(5):
        a = cl.random_unit_vector(rng, 4)
        rotated = sp.rotate_spinor_datum(a, nabla, space)
        dec_a = sp.decompose(rotated, space)
        predicted = sp.transform_beta(a, dec.beta)
        assert np.abs(dec_a.beta - predicted).max() <= 1e-9
        r = sp.rotation_from_quaternion(a)
        assert np.abs(r.T @ r - np.eye(3)).max() <= 1e-9
        assert abs(np.linalg.det(r) - 1.0) <= 1e-9


def test_omega_decompose_properties(rng):
    space = sp.random_admissible_space(rng)
    nabla = sp.random_nabla(space, rng)
    dec = sp.decompose(nabla, space)
    om = sp.omega_decompose(nabla, space)
    spl = sp.so5_splitting(space)
    triple = sp.adapted_triple(space)
    jphis = np.array([op(nabla.phi) for op in triple.ops()])
    for i in range(5):
        assert np.abs(om.omega[i] - om.omega_d[i]
                      - space.y[i] * om.omega_zeta).max() <= 1e-9
        assert nx.distance_to_row_span(om.omega[i], spl.su2_plus) <= 1e-9
        target = dec.beta[:, i] @ jphis
        assert np.linalg.norm(
            cl.form_action(om.omega[i], nabla.phi) - target) <= 1e-9


def test_intrinsic_torsion_cancels_derivatives(rng):
    space = sp.random_admissible_space(rng)
    nabla = sp.random_nabla(space, rng)
    xi = sp.intrinsic_torsion(nabla, space)
    om = sp.omega_decompose(nabla, space)
    dec = sp.decompose(nabla, space)
    j = sp.complex_structure(nabla.phi, space)
    for i in range(5):
        assert np.linalg.norm(
            cl.form_action(xi.xi[i], nabla.phi)
            + nabla.derivatives[i]) <= 1e-9
        assert np.abs(xi.su2_plus_part[i] + om.omega[i]).max() <= 1e-9
        js = space.d_basis.T @ (j @ dec.s_matrix[:, i])
        assert np.abs(xi.r4_part[i]
                      - cl.wedge_vectors(js, space.y)).max() <= 1e-9


def test_decompose_rejects_spinor_outside_complement(fundamental_space):
    phi = fundamental_space.v_basis[0]   # inside V, not its complement
    datum = sp.NablaDatum(phi=phi, derivatives=np.zeros((5, 4), dtype=complex))
    with pytest.raises(sp.InputError):
        sp.decompose(datum, fundamental_space)
