import numpy as np
import pytest

import spin5.clifford as cl
import spin5.frames as fr
import spin5.numerics as nx
import spin5.quaternionic as qt
import spin5.su2 as su
import spin5.torsion as ts
from spin5 import DegenerateSubspace


def test_kernel_basis_finds_nullspace(rng):
    a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    k = nx.kernel_basis(a)
    assert k.shape == (2, 5)
    assert np.abs(a @ k.T).max() <= 1e-12
    assert np.abs(k @ k.conj().T - np.eye(2)).max() <= 1e-12


def test_kernel_basis_zero_matrix():
    k = nx.kernel_basis(np.zeros((3, 4)))
    assert k.shape == (4, 4)
    assert np.allclose(k, np.eye(4))


def test_row_space_basis_orthonormal(rng):
    rows = rng.standard_normal((4, 6))
    rows[3] = rows[0] + rows[1]
    b = nx.row_space_basis(rows)
    assert b.shape == (3, 6)
    assert np.abs(b @ b.conj().T - np.eye(3)).max() <= 1e-12
    for r in rows:
        assert nx.distance_to_row_span(r, b) <= 1e-12 * max(
            1.0, np.linalg.norm(r))


def test_row_space_basis_keeps_complex_span():
    rows = np.array([[1.0 + 1j, 0, 0, 0]])
    b = nx.row_space_basis(rows)
    # span is a complex line: the original row must lie in it
    assert nx.distance_to_row_span(rows[0], b) <= 1e-12


def test_numerical_rank(rng):
    a = rng.standard_normal((5, 5))
    a[4] = a[0]
    assert nx.numerical_rank(a) == 4


def test_solve_columns_exact(rng):
    a = rng.standard_normal((6, 3))
    x = rng.standard_normal(3)
    sol, res = nx.solve_columns(a, a @ x)
    assert np.linalg.norm(sol - x) <= 1e-10
    assert res <= 1e-10
    xs = rng.standard_normal((3, 4))
    sol, res = nx.solve_columns(a, a @ xs)
    assert sol.shape == (3, 4)
    assert np.abs(sol - xs).max() <= 1e-10
    assert res <= 1e-10


def test_solve_columns_reports_inconsistency(rng):
    # a has orthonormal columns, so project_columns applies as well
    for solve in (nx.solve_columns, nx.project_columns):
        a = np.eye(4)[:, :2]
        target = np.array([0.0, 0.0, 1.0, 0.0])
        _, res = solve(a, target)
        assert res >= 0.9
        # columns: consistent, off by 0.5, off by 2; the worst is reported
        targets = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.5, 0.0],
                            [0.0, 0.0, 0.0, 2.0]]).T
        sol, res = solve(a, targets)
        assert np.abs(sol - [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]).max() <= 1e-12
        assert abs(res - 2.0) <= 1e-12


def _clifford_frames(rng):
    """The five orthogonal frames of the pipeline, for random unit spinors."""
    space = su.random_admissible_space(rng)
    phi = su.random_complement_spinor(space, rng)
    splitting = su.so5_splitting(space)
    forms = np.vstack([splitting.su2_plus, splitting.r4])
    return {
        "w_psi": fr.rep_matrix(cl.random_unit_spinor(rng)),
        "d_phi": cl.spinor_to_real(cl.vector_matrix(space.d_basis) @ phi).T,
        "tangent": ts._tangent_basis(phi, space, qt.adapted_triple(space),
                                     nx.EPS_DEFAULT),
        "su2_plus": cl.spinor_to_real(
            cl.two_form_matrix_rep(splitting.su2_plus) @ phi).T,
        "su2_plus_r4": cl.spinor_to_real(cl.two_form_matrix_rep(forms) @ phi).T,
    }


@pytest.mark.parametrize("family", ["w_psi", "d_phi", "tangent", "su2_plus",
                                    "su2_plus_r4"])
def test_project_columns_matches_solve_on_clifford_frames(rng, family):
    for _ in range(5):
        a = _clifford_frames(rng)[family]
        for b in (rng.standard_normal(8), rng.standard_normal((8, 6)),
                  a @ rng.standard_normal((a.shape[1], 3))):
            x_ls, res_ls = nx.solve_columns(a, b)
            x_pr, res_pr = nx.project_columns(a, b)
            assert x_pr.shape == x_ls.shape
            assert np.abs(x_pr - x_ls).max() <= 1e-12
            assert abs(res_pr - res_ls) <= 1e-12


def test_project_columns_on_a_stack(rng):
    phis = np.array([cl.random_unit_spinor(rng) for _ in range(20)])
    stack = fr.rep_matrix(phis)
    assert stack.shape == (20, 8, 5)
    b = rng.standard_normal((8, 2))
    x, res = nx.project_columns(stack, b)
    single = [nx.solve_columns(a, b) for a in stack]
    assert np.abs(x - np.array([s for s, _ in single])).max() <= 1e-12
    assert abs(res - max(r for _, r in single)) <= 1e-12
    for a, phi in zip(stack, phis):
        assert np.array_equal(a, fr.rep_matrix(phi))


def test_require_unit_rejects_nan():
    nx.require_unit(1.0 + 1e-10, 1e-9, ValueError, "norm")
    for value in (float("nan"), 1.0 + 1e-8):
        with pytest.raises(ValueError, match="norm is"):
            nx.require_unit(value, 1e-9, ValueError, "norm")


def test_subspace_distance_bounds(rng):
    b1 = nx.row_space_basis(rng.standard_normal((2, 5)))
    assert nx.subspace_distance(b1, b1) <= 1e-12
    b2 = nx.row_space_basis(rng.standard_normal((2, 5)))
    d = nx.subspace_distance(b1, b2)
    assert 0.0 <= d <= 1.0 + 1e-12


def test_phase_normalize_pins_first_entry(rng):
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = nx.phase_normalize(v)
    first = w[np.argmax(np.abs(w) > 1e-8)]
    assert abs(first.imag) <= 1e-12
    assert first.real > 0
    assert abs(np.linalg.norm(w) - np.linalg.norm(v)) <= 1e-12


def test_orthonormalize_rows(rng):
    rows = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    b = nx.orthonormalize_rows(rows, require=3)
    assert np.abs(b @ b.conj().T - np.eye(3)).max() <= 1e-12


def test_orthonormalize_rows_degenerate():
    rows = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateSubspace):
        nx.orthonormalize_rows(rows, require=2)


def test_canonical_basis_is_basis_independent(rng):
    rows = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    b = nx.orthonormalize_rows(rows, require=2)
    mix = np.array([[0.6 + 0.8j, 0.0], [0.3, 0.9j]]) @ b
    c1 = nx.canonical_complex_basis(b, 2)
    c2 = nx.canonical_complex_basis(nx.orthonormalize_rows(mix, require=2), 2)
    assert np.abs(c1 - c2).max() <= 1e-9


def test_complex_complement(rng):
    rows = nx.orthonormalize_rows(
        rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)),
        require=2)
    comp = nx.projector_basis(np.eye(4) - nx.projector(rows), 2)
    assert comp.shape == (2, 4)
    assert np.abs(rows.conj() @ comp.T).max() <= 1e-12
