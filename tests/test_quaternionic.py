import dataclasses

import numpy as np
import pytest

import spin5 as sp
import spin5.clifford as cl
import spin5.numerics as nx

CONJUGATION_ORACLE = np.array([
    [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=complex)


def test_charge_conjugation_oracle():
    c = sp.charge_conjugation()
    assert np.abs(c - CONJUGATION_ORACLE).max() <= 1e-12
    assert np.abs(c - cl.gamma(2) @ cl.gamma(4)).max() <= 1e-12


def test_charge_conjugation_laws():
    c = sp.charge_conjugation()
    assert np.abs(c @ c.conj() + np.eye(4)).max() <= 1e-12
    for k in range(1, 6):
        g = cl.gamma(k)
        assert np.abs(c @ g.conj() + g @ c).max() <= 1e-12


def test_charge_conjugation_rejects_tampered_generators(monkeypatch):
    bad = list(cl._GAMMA)
    bad[2] = bad[2].copy()
    bad[2][0, 0] = 0.5
    monkeypatch.setattr(cl, "_GAMMA", tuple(bad))
    with pytest.raises(sp.DerivationFailure):
        sp.charge_conjugation()


def test_charge_conjugation_rejects_nan_generator(monkeypatch):
    bad = list(cl._GAMMA)
    bad[4] = bad[4].copy()
    bad[4][0, 0] = np.nan
    monkeypatch.setattr(cl, "_GAMMA", tuple(bad))
    with pytest.raises(sp.DerivationFailure):
        sp.charge_conjugation()


def test_global_triple_quaternion_relations(rng):
    triple = sp.global_triple()
    ops = triple.ops()
    for _ in range(10):
        psi = cl.random_unit_spinor(rng)
        for op in ops:
            assert np.linalg.norm(op(op(psi)) + psi) <= 1e-12
        assert np.linalg.norm(
            triple.k3(psi) - triple.k1(triple.k2(psi))) <= 1e-12
        for a in range(3):
            for b in range(a + 1, 3):
                anti = ops[a](ops[b](psi)) + ops[b](ops[a](psi))
                assert np.linalg.norm(anti) <= 1e-12


def test_apply_quaternion_is_module_action(rng):
    triple = sp.global_triple()
    for _ in range(10):
        a = cl.random_unit_vector(rng, 4)
        b = cl.random_unit_vector(rng, 4)
        phi = cl.random_unit_spinor(rng)
        lhs = triple.apply_quaternion(b, triple.apply_quaternion(a, phi))
        rhs = triple.apply_quaternion(sp.quaternion_product(b, a), phi)
        assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_antilinear_ops_take_stacks(rng):
    space = sp.random_admissible_space(rng)
    stack = np.array([cl.random_unit_spinor(rng) for _ in range(6)])
    for triple in (sp.global_triple(), sp.adapted_triple(space)):
        for op in triple.ops():
            rows = np.array([op(v) for v in stack])
            assert np.array_equal(op(stack), rows)
            assert np.array_equal(op(stack.reshape(2, 3, 4)), rows.reshape(2, 3, 4))
        a = cl.random_unit_vector(rng, 4)
        rows = np.array([triple.apply_quaternion(a, v) for v in stack])
        assert np.array_equal(triple.apply_quaternion(a, stack), rows)


def test_adapted_triple_restriction_signs(rng):
    space = sp.random_admissible_space(rng)
    triple = sp.adapted_triple(space)
    c = sp.charge_conjugation()
    i2 = sp.AntilinearOp(c, True)
    cv = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = space.v_basis.T @ cv
    w = space.vperp_basis.T @ cv
    assert np.linalg.norm(triple.k2(v) - i2(v)) <= 1e-9
    assert np.linalg.norm(triple.k2(w) + i2(w)) <= 1e-9


def test_adapted_triple_commutes_with_distribution(rng):
    space = sp.random_admissible_space(rng)
    triple = sp.adapted_triple(space)
    for _ in range(5):
        psi = cl.random_unit_spinor(rng)
        coords = rng.standard_normal(4)
        x = space.d_basis.T @ coords
        for op in triple.ops():
            assert np.linalg.norm(
                op(cl.vector_action(x, psi))
                - cl.vector_action(x, op(psi))) <= 1e-9


def test_complex_structure_defining_property(rng):
    space = sp.random_admissible_space(rng)
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    phi = space.vperp_basis.T @ c
    phi = phi / np.linalg.norm(phi)
    j = sp.complex_structure(phi, space)
    assert np.abs(j @ j + np.eye(4)).max() <= 1e-9
    coords = rng.standard_normal(4)
    x = space.d_basis.T @ coords
    jx = space.d_basis.T @ (j @ coords)
    assert np.linalg.norm(cl.vector_action(x, 1j * phi)
                          - cl.vector_action(jx, phi)) <= 1e-9


def test_complex_structure_requires_complement_spinor(fundamental_space):
    with pytest.raises(sp.InputError):
        sp.complex_structure(sp.standard_spinor(3), fundamental_space)


def test_complex_structure_rejects_nan_reeb_vector(fundamental_space):
    space = dataclasses.replace(fundamental_space, y=np.full(5, np.nan))
    with pytest.raises(sp.InputError):
        sp.complex_structure(sp.standard_spinor(1), space)


def test_hopf_known_values():
    assert np.allclose(sp.hopf(1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(sp.hopf(r, 0.0, 0.0, r), (0.0, 1.0, 0.0))


def test_hopf_coordinates_oracle(fundamental_space):
    phi = (sp.standard_spinor(1) + 1j * sp.standard_spinor(2)) / np.sqrt(2)
    coords = sp.hopf_coordinates(phi, fundamental_space)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(coords, (r, 0.0, 0.0, r), atol=1e-12)
    assert np.allclose(sp.hopf(*coords), (0.0, 1.0, 0.0), atol=1e-12)


def test_hopf_rejects_non_unit():
    with pytest.raises(sp.NonUnitInput):
        sp.hopf(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(sp.NonUnitInput):
        sp.hopf_matrix(0.5, 0.0, 0.0)


def test_hopf_matrix_matches_solved_structure(fundamental_space, rng):
    space = fundamental_space
    for _ in range(25):
        q = cl.random_unit_vector(rng, 4)
        phi = ((q[0] + 1j * q[1]) * space.vperp_basis[0]
               + (q[2] + 1j * q[3]) * space.vperp_basis[1])
        j = sp.complex_structure(phi, space)
        jm = sp.hopf_matrix(*sp.hopf(*q))
        assert np.abs(j - jm).max() <= 1e-9


def test_hopf_fiber_invariance(rng):
    space = sp.random_admissible_space(rng)
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    phi = space.vperp_basis.T @ c
    phi = phi / np.linalg.norm(phi)
    j = sp.complex_structure(phi, space)
    for _ in range(5):
        lam = np.exp(2j * np.pi * rng.random())
        assert np.abs(sp.complex_structure(lam * phi, space) - j).max() <= 1e-9


def test_sphere_structures_anticommutation(rng):
    for _ in range(25):
        p = cl.random_unit_vector(rng, 3)
        q = cl.random_unit_vector(rng, 3)
        jp, jq = sp.hopf_matrix(*p), sp.hopf_matrix(*q)
        assert np.abs(jp @ jq + jq @ jp
                      + 2.0 * float(p @ q) * np.eye(4)).max() <= 1e-12


def quaternion_form(a, b, c, d):
    return np.array([[a, -b, -c, -d],
                     [b, a, d, -c],
                     [c, -d, a, b],
                     [d, c, -b, a]], dtype=float)


def test_induced_map_displayed_family(fundamental_space, rng):
    # the displayed matrix family reproduces itself at the first basis spinor
    a, b, c, d = rng.standard_normal(4)
    t = quaternion_form(a, b, c, d)
    got = sp.induced_map(t, sp.standard_spinor(1), fundamental_space)
    assert np.abs(got - t).max() <= 1e-12


def test_induced_map_scalar_is_phi_independent(fundamental_space, rng):
    t = 1.7 * np.eye(4)
    maps = []
    for _ in range(6):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi = fundamental_space.vperp_basis.T @ c
        phi = phi / np.linalg.norm(phi)
        maps.append(sp.induced_map(t, phi, fundamental_space))
    spread = max(np.abs(x - y).max()
                 for i, x in enumerate(maps) for y in maps[i + 1:])
    assert spread <= 1e-9
    assert np.abs(maps[0] - t).max() <= 1e-9


def test_induced_map_generic_is_phi_dependent(fundamental_space, rng):
    t = rng.standard_normal((4, 4))
    assert np.linalg.norm(t - np.trace(t) / 4.0 * np.eye(4)) > 0.1
    maps = []
    for _ in range(6):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi = fundamental_space.vperp_basis.T @ c
        phi = phi / np.linalg.norm(phi)
        maps.append(sp.induced_map(t, phi, fundamental_space))
    spread = max(np.abs(x - y).max()
                 for i, x in enumerate(maps) for y in maps[i + 1:])
    assert spread > 1e-6


DISTRIBUTION_OMEGAS = np.array([
    [1.0, 0, 0, 0, 0, 0, 0, 1.0, 0, 0],    # e12 + e34
    [0, -1.0, 0, 0, 0, 1.0, 0, 0, 0, 0],   # -e13 + e24
    [0, 0, 1.0, 0, 1.0, 0, 0, 0, 0, 0],    # e14 + e23
])


def test_distribution_triple_fundamental(fundamental_space):
    tri = sp.triple_on_distribution(fundamental_space)
    assert np.abs(tri.j_matrices[0] - sp.hopf_matrix(1.0, 0.0, 0.0)).max() <= 1e-12
    assert np.abs(tri.j_matrices[1] - sp.hopf_matrix(0.0, 1.0, 0.0)).max() <= 1e-12
    assert np.abs(tri.j_matrices[2] - sp.hopf_matrix(0.0, 0.0, -1.0)).max() <= 1e-12
    assert np.abs(tri.j_matrices[2]
                  - tri.j_matrices[0] @ tri.j_matrices[1]).max() <= 1e-12
    assert np.abs(tri.omegas - DISTRIBUTION_OMEGAS).max() <= 1e-12


def test_distribution_triple_spinor_equations(rng):
    space = sp.random_admissible_space(rng)
    tri = sp.triple_on_distribution(space)
    spl = sp.so5_splitting(space)
    for k in range(3):
        phi_k = tri.spinors[k]
        assert np.linalg.norm(
            cl.form_action(tri.omegas[k], phi_k) - 2j * phi_k) <= 1e-9
        assert nx.distance_to_row_span(tri.omegas[k], spl.su2_plus) <= 1e-9


def test_structure_quadruplet_fundamental(fundamental_space):
    quad = sp.structure_quadruplet(fundamental_space)
    assert quad.alpha.degree == 1
    assert abs(quad.alpha.coefficient(5) - 1.0) <= 1e-12
    assert abs(quad.volume.coefficient(1, 2, 3, 4) - 2.0) <= 1e-12
    top = quad.alpha.wedge(quad.volume)
    assert abs(top.coefficient(1, 2, 3, 4, 5) - 2.0) <= 1e-12


def test_structure_quadruplet_wedge_relations(rng):
    space = sp.random_admissible_space(rng)
    quad = sp.structure_quadruplet(space)
    forms = [cl.KForm.from_two_form(w) for w in quad.omegas]
    for a in range(3):
        for b in range(3):
            diff = forms[a].wedge(forms[b]) + quad.volume.scale(-float(a == b))
            assert diff.norm() <= 1e-12
    assert quad.alpha.wedge(quad.volume).norm() > 1e-6
