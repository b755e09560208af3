import itertools

import numpy as np
import pytest

import spin5 as sp
import spin5.clifford as cl
import spin5.numerics as nx
from spin5.frames import rep_matrix

FUNDAMENTAL_ANNIHILATOR = np.array([
    [1.0, 0, 0, 0, 0, 0, 0, -1.0, 0, 0],   # e12 - e34
    [0, 1.0, 0, 0, 0, 1.0, 0, 0, 0, 0],    # e13 + e24
    [0, 0, 1.0, 0, -1.0, 0, 0, 0, 0, 0],   # e14 - e23
])

DUAL_BASIS = np.array([
    [1.0, 0, 0, 0, 0, 0, 0, 1.0, 0, 0],    # e12 + e34
    [0, 1.0, 0, 0, 0, -1.0, 0, 0, 0, 0],   # e13 - e24
    [0, 0, 1.0, 0, 1.0, 0, 0, 0, 0, 0],    # e14 + e23
])


def test_annihilator_oracle():
    basis = sp.annihilator(sp.standard_spinor(1))
    assert basis.shape == (3, 10)
    assert nx.subspace_distance(basis, FUNDAMENTAL_ANNIHILATOR) <= 1e-12


def test_annihilator_annihilates(rng):
    phi = cl.random_unit_spinor(rng)
    for w in sp.annihilator(phi):
        assert np.linalg.norm(cl.form_action(w, phi)) <= 1e-9


def test_fundamental_space_canonical(fundamental_space):
    space = fundamental_space
    assert np.allclose(space.v_basis,
                       [sp.standard_spinor(3), sp.standard_spinor(4)])
    assert np.allclose(space.vperp_basis,
                       [sp.standard_spinor(1), sp.standard_spinor(2)])
    assert np.allclose(space.y, sp.standard_vector(5))
    assert np.allclose(space.d_basis, np.eye(4, 5))


def test_is_admissible_fundamental(fundamental_space):
    result = sp.is_admissible(fundamental_space.v_basis)
    assert result.verdict
    assert result.spanning_test and result.conjugation_test
    assert result.max_spanning_residual <= 1e-9
    assert result.max_conjugation_residual <= 1e-9


def test_is_admissible_random_plane_fails(rng):
    rows = nx.orthonormalize_rows(
        rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)),
        require=2)
    result = sp.is_admissible(rows)
    assert not result.verdict
    assert result.spanning_test == result.conjugation_test


def test_is_admissible_draws_one_batch(fundamental_space, rng):
    rows = nx.orthonormalize_rows(
        rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)),
        require=2)
    for basis in (fundamental_space.v_basis, rows):
        used = np.random.default_rng(7)
        result = sp.is_admissible(basis, rng=used)
        fresh = np.random.default_rng(7)
        fresh.standard_normal((20, 2, 2))
        assert used.bit_generator.state == fresh.bit_generator.state
        # reference: one least-squares solve per sample, drawn one by one
        ref = np.random.default_rng(7)
        comp = nx.kernel_basis(nx.row_space_basis(basis).conj())
        worst = 0.0
        for _ in range(20):
            psi = comp.T @ (ref.standard_normal(2) + 1j * ref.standard_normal(2))
            _, res = nx.solve_columns(rep_matrix(psi / np.linalg.norm(psi)),
                                      cl.spinor_to_real(basis).T)
            worst = max(worst, res)
        assert abs(result.max_spanning_residual - worst) <= 1e-12


@pytest.mark.parametrize("samples", [0, -1])
def test_is_admissible_rejects_samples_below_one(rng, samples):
    # with no draws a random plane would pass the spanning test vacuously
    rows = nx.orthonormalize_rows(
        rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)),
        require=2)
    with pytest.raises(sp.InputError, match="samples"):
        sp.is_admissible(rows, samples=samples)


def test_admissible_space_rejects_random_plane(rng):
    rows = nx.orthonormalize_rows(
        rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)),
        require=2)
    with pytest.raises(sp.NotAdmissible):
        sp.admissible_space(rows)


def test_degenerate_basis_raises():
    s3 = sp.standard_spinor(3)
    with pytest.raises(sp.DegenerateSubspace):
        sp.is_admissible(np.array([s3, 1j * s3]))


def test_annihilator_shared_on_complement(rng):
    space = sp.random_admissible_space(rng)
    ref = sp.annihilator(space.vperp_basis[0])
    for _ in range(10):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = space.vperp_basis.T @ c
        psi = psi / np.linalg.norm(psi)
        assert nx.subspace_distance(sp.annihilator(psi), ref) <= 1e-9


def test_annihilator_separates_outside(rng):
    space = sp.random_admissible_space(rng)
    ref = sp.annihilator(space.vperp_basis[0])
    for _ in range(10):
        chi = cl.random_unit_spinor(rng)
        if nx.distance_to_row_span(chi, space.vperp_basis) < 0.05:
            continue
        assert nx.subspace_distance(sp.annihilator(chi), ref) > 1e-3


def test_so5_splitting_fundamental(fundamental_space):
    spl = sp.so5_splitting(fundamental_space)
    assert nx.subspace_distance(spl.su2_minus, FUNDAMENTAL_ANNIHILATOR) <= 1e-9
    assert nx.subspace_distance(spl.su2_plus, DUAL_BASIS) <= 1e-9
    stacked = spl.stacked()
    assert stacked.shape == (10, 10)
    assert np.abs(stacked @ stacked.T - np.eye(10)).max() <= 1e-9


def test_splitting_brackets(rng):
    space = sp.random_admissible_space(rng)
    spl = sp.so5_splitting(space)
    for block in (spl.su2_minus, spl.su2_plus):
        for a in range(3):
            for b in range(a + 1, 3):
                br = sp.two_form_bracket(block[a], block[b])
                assert nx.distance_to_row_span(br, block) <= 1e-9
                assert abs(np.linalg.norm(br) - np.sqrt(2)) <= 1e-9
    for a in spl.su2_minus:
        for b in spl.su2_plus:
            assert np.linalg.norm(sp.two_form_bracket(a, b)) <= 1e-9


def test_space_of_spinor_contains_complement(rng):
    phi = cl.random_unit_spinor(rng)
    space = sp.space_of_spinor(phi)
    assert nx.distance_to_row_span(phi, space.vperp_basis) <= 1e-9
    phi_tilde = sp.build_frame(phi).phi_tilde
    assert nx.distance_to_row_span(phi_tilde, space.vperp_basis) <= 1e-9
    result = sp.is_admissible(space.v_basis)
    assert result.verdict


def test_dual_action_spans_quaternion_directions(rng):
    space = sp.random_admissible_space(rng)
    phi = space.vperp_basis[0]
    triple = sp.adapted_triple(space)
    images = np.array([cl.spinor_to_real(v)
                       for v in sp.dual_action_span(space, phi)])
    jphis = np.array([cl.spinor_to_real(op(phi)) for op in triple.ops()])
    assert nx.subspace_distance(images, jphis) <= 1e-9


def test_random_admissible_space_is_admissible(rng):
    for _ in range(5):
        space = sp.random_admissible_space(rng)
        assert sp.is_admissible(space.v_basis).verdict
        assert abs(np.linalg.norm(space.y) - 1.0) <= 1e-9


def _tie_spinors():
    """Unit spinors whose Reeb vector is a distribution_basis tie.

    For each of the 40 vectors (+-e_a +- e_b)/sqrt(2), the columns of norm
    at least 0.5 of the +i eigenprojector (I - i y.)/2 are normalized.
    """
    out = []
    for a, b in itertools.combinations(range(5), 2):
        for sa, sb in itertools.product((1.0, -1.0), repeat=2):
            y = np.zeros(5)
            y[a], y[b] = sa / np.sqrt(2), sb / np.sqrt(2)
            for col in ((np.eye(4) - 1j * cl.vector_matrix(y)) / 2).T:
                if np.linalg.norm(col) >= 0.5:
                    out.append(col / np.linalg.norm(col))
    return out


def test_space_of_spinor_keeps_the_frame_chart_at_ties():
    spinors = _tie_spinors()
    assert len(spinors) == 128
    for phi in spinors:
        fr = sp.build_frame(phi)
        space = sp.space_of_spinor(phi)
        assert np.array_equal(space.y, fr.y)
        assert np.array_equal(space.d_basis, fr.d_basis)
        assert np.array_equal(space.v_basis, fr.v_basis)


def test_admissible_space_matches_space_of_complement_spinor(rng):
    for _ in range(10):
        own = sp.space_of_spinor(cl.random_unit_spinor(rng))
        mixed = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        supplied = sp.admissible_space(mixed @ own.v_basis)
        for a, b in ((own.v_basis, supplied.v_basis),
                     (own.vperp_basis, supplied.vperp_basis)):
            assert np.abs(nx.projector(a) - nx.projector(b)).max() <= 1e-13
        assert np.abs(own.y - supplied.y).max() <= 1e-13


def test_svd_budget(monkeypatch, rng):
    """V and V-perp come from the projectors (1 +- i y.)/2, not from rank tests."""
    phi = cl.random_unit_spinor(rng)
    plane = sp.space_of_spinor(phi).v_basis
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert count(sp.build_frame, phi) == 0
    assert count(sp.space_of_spinor, phi) == 0
    assert count(sp.is_admissible, plane) == 2   # the plane's basis and its kernel
    assert count(sp.admissible_space, plane) == 2   # one basis, shared
