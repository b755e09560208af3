import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spin5 as sp
import spin5.clifford as cl
from spin5 import InputError

GAMMA_EXPECTED = {
    1: np.array([[0, 0, 0, 1j], [0, 0, 1j, 0], [0, 1j, 0, 0], [1j, 0, 0, 0]]),
    2: np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]],
                dtype=complex),
    3: np.array([[0, 0, -1j, 0], [0, 0, 0, 1j], [-1j, 0, 0, 0], [0, 1j, 0, 0]]),
    4: np.array([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
                dtype=complex),
    5: np.diag([1j, 1j, -1j, -1j]),
}


def test_gamma_matrices_bit_exact():
    for i, expected in GAMMA_EXPECTED.items():
        assert np.array_equal(cl.gamma(i), expected)


def test_gamma_index_range():
    with pytest.raises(InputError):
        cl.gamma(0)
    with pytest.raises(InputError):
        cl.gamma(6)


def test_clifford_relations_exact():
    for i in range(1, 6):
        gi = cl.gamma(i)
        assert np.array_equal(gi, -gi.conj().T)
        for j in range(1, 6):
            gj = cl.gamma(j)
            expect = -2.0 * (i == j) * np.eye(4)
            assert np.array_equal(gi @ gj + gj @ gi, expect)


def test_volume_is_minus_i_identity_exact():
    assert np.array_equal(cl.volume_action(), -1j * np.eye(4))


VECTOR_TABLE = [
    (1, 1, 1j, 4), (2, 1, 1.0, 4), (3, 1, -1j, 3), (4, 1, -1.0, 3),
    (5, 1, 1j, 1),
    (1, 2, 1j, 3), (2, 2, -1.0, 3), (3, 2, 1j, 4), (4, 2, -1.0, 4),
    (5, 2, 1j, 2),
]

TWO_FORM_TABLE = [
    (1, 2, 1j, 1), (1, 3, 1.0, 2), (1, 4, -1j, 2), (1, 5, -1.0, 4),
    (2, 3, -1j, 2), (2, 4, -1.0, 2), (2, 5, 1j, 4),
    (3, 4, 1j, 1), (3, 5, 1.0, 3), (4, 5, -1j, 3),
]


@pytest.mark.parametrize("i, k, coeff, m", VECTOR_TABLE)
def test_vector_action_table(i, k, coeff, m):
    got = cl.vector_action(cl.standard_vector(i), cl.standard_spinor(k))
    assert np.linalg.norm(got - coeff * cl.standard_spinor(m)) <= 1e-15


@pytest.mark.parametrize("i, j, coeff, m", TWO_FORM_TABLE)
def test_two_form_action_table(i, j, coeff, m):
    w = cl.wedge_vectors(cl.standard_vector(i), cl.standard_vector(j))
    got = cl.form_action(w, cl.standard_spinor(1))
    assert np.linalg.norm(got - coeff * cl.standard_spinor(m)) <= 1e-15


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_vector_action_squares_to_minus_norm(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(5)
    phi = cl.random_unit_spinor(rng)
    got = cl.vector_action(x, cl.vector_action(x, phi))
    assert np.linalg.norm(got + float(x @ x) * phi) <= 1e-12 * max(1.0, x @ x)


def test_vector_action_skew_hermitian(rng):
    for _ in range(20):
        x = cl.random_unit_vector(rng)
        phi = cl.random_unit_spinor(rng)
        psi = cl.random_unit_spinor(rng)
        lhs = cl.hermitian(cl.vector_action(x, phi), psi)
        rhs = -cl.hermitian(phi, cl.vector_action(x, psi))
        assert abs(lhs - rhs) <= 1e-12


def test_hermitian_conjugates_second_slot():
    s1, s2 = cl.standard_spinor(1), cl.standard_spinor(2)
    assert cl.hermitian(1j * s1, s1) == 1j
    assert cl.hermitian(s1, 1j * s1) == -1j
    assert cl.hermitian(s1, s2) == 0


def test_contraction_identity(rng):
    for _ in range(20):
        x = rng.standard_normal(5)
        w = cl.random_two_form(rng)
        phi = cl.random_unit_spinor(rng)
        lhs = (cl.vector_action(x, cl.form_action(w, phi))
               - cl.form_action(w, cl.vector_action(x, phi))
               + 2.0 * cl.form_action(cl.interior_product(x, w), phi))
        assert np.linalg.norm(lhs) <= 1e-12 * max(
            1.0, np.linalg.norm(x) * np.linalg.norm(w))


def test_interior_product_convention():
    # (x, w)(v) = w(x, v): contracting e1 into e1^e2 gives +e2
    w = cl.wedge_vectors(cl.standard_vector(1), cl.standard_vector(2))
    got = cl.interior_product(cl.standard_vector(1), w)
    assert np.allclose(got, cl.standard_vector(2))


def test_two_form_matrix_roundtrip(rng):
    w = cl.random_two_form(rng)
    assert np.allclose(cl.matrix_to_two_form(cl.two_form_to_matrix(w)), w)


def test_spinor_real_roundtrip(rng):
    phi = cl.random_unit_spinor(rng)
    assert abs(np.linalg.norm(cl.spinor_to_real(phi)) - 1.0) <= 1e-12
    stack = np.array([cl.random_unit_spinor(rng) for _ in range(3)])
    real = cl.spinor_to_real(stack)
    assert real.shape == (3, 8)
    for row, psi in zip(real, stack):
        assert np.array_equal(row, cl.spinor_to_real(psi))


def test_matrix_reps_accept_batch_axes(rng):
    xs = rng.standard_normal((3, 5))
    ws = rng.standard_normal((2, 3, 10))
    assert np.array_equal(cl.vector_matrix(xs),
                          np.array([cl.vector_matrix(x) for x in xs]))
    stacked = cl.two_form_matrix_rep(ws)
    assert stacked.shape == (2, 3, 4, 4)
    assert np.abs(stacked[1, 2] - cl.two_form_matrix_rep(ws[1, 2])).max() <= 1e-15
    with pytest.raises(InputError):
        cl.vector_matrix(rng.standard_normal((5, 4)))
    with pytest.raises(InputError):
        cl.two_form_matrix_rep(1.0)


def test_two_form_maps_accept_stacks(rng):
    ws = rng.standard_normal((4, 10))
    xs, ys = rng.standard_normal((2, 4, 5))
    mats = cl.two_form_to_matrix(ws)
    assert mats.shape == (4, 5, 5)
    assert np.array_equal(mats, np.array([cl.two_form_to_matrix(w) for w in ws]))
    assert np.array_equal(cl.two_form_to_matrix(ws.reshape(2, 2, 10)),
                          mats.reshape(2, 2, 5, 5))
    assert np.array_equal(cl.matrix_to_two_form(mats), ws)
    assert np.array_equal(cl.matrix_to_two_form(mats),
                          np.array([cl.matrix_to_two_form(m) for m in mats]))
    assert np.array_equal(cl.wedge_vectors(xs, ys),
                          np.array([cl.wedge_vectors(x, y) for x, y in zip(xs, ys)]))
    assert np.array_equal(cl.wedge_vectors(xs, ys[0]),     # broadcast
                          np.array([cl.wedge_vectors(x, ys[0]) for x in xs]))
    assert np.array_equal(cl.interior_product(xs, ws),
                          np.array([cl.interior_product(x, w) for x, w in zip(xs, ws)]))
    assert np.array_equal(cl.interior_product(xs[0], ws),  # broadcast
                          np.array([cl.interior_product(xs[0], w) for w in ws]))
    assert np.array_equal(cl.interior_product(xs, ws[0]),
                          np.array([cl.interior_product(x, ws[0]) for x in xs]))
    pairs = rng.standard_normal((2, 4, 10))
    assert np.array_equal(sp.two_form_bracket(pairs[0], pairs[1]),
                          np.array([sp.two_form_bracket(a, b) for a, b in zip(*pairs)]))
    assert np.array_equal(sp.two_form_bracket(pairs[0], pairs[1, 0]),   # broadcast
                          np.array([sp.two_form_bracket(a, pairs[1, 0])
                                    for a in pairs[0]]))
    with pytest.raises(InputError):
        cl.two_form_to_matrix(1.0)
    with pytest.raises(InputError):
        cl.two_form_to_matrix(rng.standard_normal((10, 4)))


def test_kform_wedge_anticommutes():
    e1 = cl.KForm.from_vector(cl.standard_vector(1))
    e2 = cl.KForm.from_vector(cl.standard_vector(2))
    w = e1.wedge(e2)
    assert w.degree == 2
    assert w.coefficient(1, 2) == 1.0
    assert e2.wedge(e1).coefficient(1, 2) == -1.0
    assert e1.wedge(e1).norm() == 0.0


def test_kform_wedge_associates(rng):
    a = cl.KForm.from_vector(rng.standard_normal(5))
    b = cl.KForm.from_vector(rng.standard_normal(5))
    c = cl.KForm.from_two_form(cl.random_two_form(rng))
    left = a.wedge(b).wedge(c)
    right = a.wedge(b.wedge(c))
    diff = left + right.scale(-1.0)
    assert diff.norm() <= 1e-12


def test_kform_matches_two_form_action(rng):
    w = cl.random_two_form(rng)
    phi = cl.random_unit_spinor(rng)
    via_kform = cl.form_action(cl.KForm.from_two_form(w), phi)
    via_array = cl.form_action(w, phi)
    assert np.linalg.norm(via_kform - via_array) <= 1e-13


def test_form_action_vector_dispatch(rng):
    x = rng.standard_normal(5)
    phi = cl.random_unit_spinor(rng)
    assert np.allclose(cl.form_action(x, phi), cl.vector_action(x, phi))


def test_wedge_vectors_antisymmetric(rng):
    x, y = rng.standard_normal(5), rng.standard_normal(5)
    assert np.allclose(cl.wedge_vectors(x, y), -cl.wedge_vectors(y, x))
    assert np.allclose(cl.wedge_vectors(x, x), 0.0)
