import numpy as np
import pytest

import spin5 as sp
import spin5.clifford as cl
import spin5.numerics as nx


def test_spin_element_requires_even_word():
    with pytest.raises(sp.OddWord):
        sp.spin_element(np.array([cl.standard_vector(1)]))


def test_spin_element_requires_unit_generators():
    word = np.array([2.0 * cl.standard_vector(1), cl.standard_vector(2)])
    with pytest.raises(sp.NonUnitGenerator):
        sp.spin_element(word)


def test_adjoint_of_e1e2_oracle():
    g = sp.spin_element(np.array([cl.standard_vector(1),
                                  cl.standard_vector(2)]))
    a = sp.adjoint_matrix(g)
    assert np.abs(a - np.diag([-1.0, -1.0, 1.0, 1.0, 1.0])).max() <= 1e-12


def test_inverse_is_inverse(rng):
    g = sp.random_spin(rng)
    prod = g @ g.inverse()
    assert np.abs(prod.matrix - np.eye(4)).max() <= 1e-12


def test_equivariance(rng):
    for _ in range(10):
        g = sp.random_spin(rng)
        x = cl.random_unit_vector(rng)
        phi = cl.random_unit_spinor(rng)
        v = sp.adjoint_vector(g, x)
        lhs = g.matrix @ cl.vector_action(x, phi)
        rhs = cl.vector_action(v, g.matrix @ phi)
        assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_adjoint_matrix_special_orthogonal(rng):
    g = sp.random_spin(rng)
    a = sp.adjoint_matrix(g)
    assert np.abs(a.T @ a - np.eye(5)).max() <= 1e-12
    assert abs(np.linalg.det(a) - 1.0) <= 1e-12


def test_adjoint_form_consistent_with_vectors(rng):
    g = sp.random_spin(rng)
    x, y = rng.standard_normal(5), rng.standard_normal(5)
    lhs = sp.adjoint_form(g, cl.wedge_vectors(x, y))
    rhs = cl.wedge_vectors(sp.adjoint_vector(g, x), sp.adjoint_vector(g, y))
    assert np.linalg.norm(lhs - rhs) <= 1e-11


def test_act_on_space_matches_matrix_image(rng):
    space = sp.random_admissible_space(rng)
    g = sp.random_spin(rng)
    moved = sp.act_on_space(g, space)
    target = np.array([g.matrix @ v for v in space.v_basis])
    assert nx.subspace_distance(moved.v_basis, target) <= 1e-9


def test_stabilizer_algebra_dimension_and_content(rng):
    space = sp.random_admissible_space(rng)
    alg = sp.stabilizer_algebra(space)
    assert alg.shape == (6, 10)
    assert sp.stabilizer_dimension(space) == 6
    spl = sp.so5_splitting(space)
    both = np.vstack([spl.su2_minus, spl.su2_plus])
    assert nx.subspace_distance(alg, both) <= 1e-9


def test_stabilizer_of_fundamental_plane(fundamental_space):
    alg = sp.stabilizer_algebra(fundamental_space)
    # span{e_ij : i < j <= 4}: no coefficient on a pair touching index 5
    expected = np.zeros((6, 10))
    for row, slot in enumerate([0, 1, 2, 4, 5, 7]):
        expected[row, slot] = 1.0
    assert nx.subspace_distance(alg, expected) <= 1e-9


def test_exp_element_unitary_and_consistent(rng):
    w = cl.random_two_form(rng)
    g = sp.exp_element(w)
    assert np.abs(g.matrix @ g.matrix.conj().T - np.eye(4)).max() <= 1e-12
    # exp(w/n)^n == exp(w)
    h = sp.exp_element(w / 8.0)
    acc = sp.identity_element()
    for _ in range(8):
        acc = h @ acc
    assert np.abs(acc.matrix - g.matrix).max() <= 1e-10


def test_exp_of_stabilizer_fixes_plane(rng):
    space = sp.random_admissible_space(rng)
    alg = sp.stabilizer_algebra(space)
    g = sp.exp_element(alg.T @ rng.standard_normal(6))
    moved = sp.act_on_space(g, space)
    assert nx.subspace_distance(moved.v_basis, space.v_basis) <= 1e-9


def test_word_stabilizer_fixes_plane(rng):
    space = sp.random_admissible_space(rng)
    g = sp.random_stabilizer_element(space, rng)
    moved = sp.act_on_space(g, space)
    assert nx.subspace_distance(moved.v_basis, space.v_basis) <= 1e-9


def test_conjugation_carries_algebra_to_moved_plane(rng):
    space = sp.random_admissible_space(rng)
    spl = sp.so5_splitting(space)
    g = sp.random_spin(rng)
    image = np.array([sp.adjoint_form(g, w) for w in spl.su2_minus])
    moved = sp.so5_splitting(sp.act_on_space(g, space))
    assert nx.subspace_distance(image, moved.su2_minus) <= 1e-9


def test_global_triple_commutes_with_group(rng):
    triple = sp.global_triple()
    g = sp.random_spin(rng)
    for _ in range(5):
        psi = cl.random_unit_spinor(rng)
        for op in triple.ops():
            assert np.linalg.norm(
                op(g.matrix @ psi) - g.matrix @ op(psi)) <= 1e-12


def test_adjoint_vector_takes_stacks(rng):
    g = sp.random_spin(rng)
    xs = rng.standard_normal((6, 5))
    assert np.array_equal(sp.adjoint_vector(g, xs),
                          np.array([sp.adjoint_vector(g, x) for x in xs]))
    assert np.array_equal(sp.adjoint_matrix(g),
                          np.array([sp.adjoint_vector(g, e) for e in np.eye(5)]).T)


def test_adjoint_vector_bound_is_per_row():
    # g = diag(c, c, 1, 1) is not unitary.  It scales gamma_1..gamma_4, which
    # swap the two halves, into vectors, but its conjugate of gamma_5 is no
    # vector.  Each row must meet sqrt(eps) max(1, |x|) with its own |x|, so
    # a long passing row does not lend its bound to a short failing one.
    g = sp.SpinElement(matrix=np.diag([1.001, 1.001, 1.0, 1.0]).astype(complex),
                       word=np.zeros((0, 5)))
    long_row, bad_row = 1e8 * cl.standard_vector(1), cl.standard_vector(5)
    assert np.abs(sp.adjoint_vector(g, long_row) - 1.001 * long_row).max() <= 1e-6
    with pytest.raises(sp.ConjugationNotVector):
        sp.adjoint_vector(g, bad_row)
    with pytest.raises(sp.ConjugationNotVector):
        sp.adjoint_vector(g, np.array([long_row, bad_row]))


def test_adjoint_vector_rejects_nan_element():
    g = sp.SpinElement(matrix=np.full((4, 4), np.nan, dtype=complex),
                       word=np.zeros((0, 5)))
    with pytest.raises(sp.ConjugationNotVector):
        sp.adjoint_vector(g, cl.standard_vector(1))


def test_adjoint_form_takes_stacks(rng):
    space = sp.random_admissible_space(rng)
    g = sp.random_spin(rng)
    minus = sp.so5_splitting(space).su2_minus
    assert np.array_equal(sp.adjoint_form(g, minus),
                          np.array([sp.adjoint_form(g, w) for w in minus]))


def test_conjugation_budget(monkeypatch, rng):
    """One conjugation of the generator stack per adjoint_matrix, not one per vector."""
    g = sp.random_spin(rng)
    ws = rng.standard_normal((3, 10))
    calls = []
    vector_matrix = cl.vector_matrix

    def counted(x):
        calls.append(x)
        return vector_matrix(x)

    monkeypatch.setattr(cl, "vector_matrix", counted)
    sp.adjoint_matrix(g)
    assert len(calls) == 2   # the generators, then the read-off vectors
    calls.clear()
    sp.adjoint_form(g, ws)
    assert len(calls) == 2
