"""End-to-end acceptance gate.

Thirteen numbered criteria, one test each, with pinned sample counts and
tolerances.  Each test prints a single summary line on success; pytest -v
shows one pass or fail line per criterion either way.  Random streams are
seeded so every run checks the same instances.
"""

import json

import numpy as np
import pytest

import spin5.clifford as cl
import spin5.frames as fr
import spin5.numerics as nx
import spin5.quaternionic as qt
import spin5.spingroup as sg
import spin5.su2 as su
import spin5.torsion as ts
from spin5 import cli

EPS = 1e-9

# frozen action values on the first two standard spinors:
# (index args) -> (coefficient, target standard spinor)
VECTOR_ON_S1 = {1: (1j, 4), 2: (1, 4), 3: (-1j, 3), 4: (-1, 3), 5: (1j, 1)}
VECTOR_ON_S2 = {1: (1j, 3), 2: (-1, 3), 3: (1j, 4), 4: (-1, 4), 5: (1j, 2)}
TWO_FORM_ON_S1 = {(1, 2): (1j, 1), (1, 3): (1, 2), (1, 4): (-1j, 2),
                  (1, 5): (-1, 4), (2, 3): (-1j, 2), (2, 4): (-1, 2),
                  (2, 5): (1j, 4), (3, 4): (1j, 1), (3, 5): (1, 3),
                  (4, 5): (-1j, 3)}

# annihilator of the first standard spinor: e12-e34, e13+e24, e14-e23
S1_ANNIHILATOR = np.array([
    [1, 0, 0, 0, 0, 0, 0, -1, 0, 0],
    [0, 1, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, -1, 0, 0, 0, 0, 0],
], dtype=float)

# two-forms of the distribution triple on the fundamental plane:
# e12+e34, -e13+e24, e14+e23
FUNDAMENTAL_OMEGAS = np.array([
    [1, 0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, -1, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 1, 0, 0, 0, 0, 0],
], dtype=float)


def basis_two_form(i, j):
    w = np.zeros(10)
    w[cl.TWO_FORM_PAIRS.index((i, j))] = 1.0
    return w


def test_criterion_01_clifford_relations_and_volume():
    worst = 0
    for i in range(1, 6):
        for j in range(1, 6):
            anti = cl.gamma(i) @ cl.gamma(j) + cl.gamma(j) @ cl.gamma(i)
            anti = anti + 2.0 * (i == j) * np.eye(4)
            worst = max(worst, np.abs(anti).max())
    assert worst == 0.0
    vol = cl.volume_action()
    assert np.array_equal(vol, -1j * np.eye(4))
    print("criterion 01 PASS  relations exact; volume element acts as "
          "-i * identity (sign forced by the pinned matrices: e12, e34 and "
          "e5 each act as +i on the first standard spinor, and i^3 = -i)")


def test_criterion_02_fundamental_action_table_and_annihilator():
    worst = 0.0
    s = {k: cl.standard_spinor(k) for k in range(1, 5)}
    for i, (coeff, target) in VECTOR_ON_S1.items():
        got = cl.vector_action(cl.standard_vector(i), s[1])
        worst = max(worst, float(np.abs(got - coeff * s[target]).max()))
    for i, (coeff, target) in VECTOR_ON_S2.items():
        got = cl.vector_action(cl.standard_vector(i), s[2])
        worst = max(worst, float(np.abs(got - coeff * s[target]).max()))
    for (i, j), (coeff, target) in TWO_FORM_ON_S1.items():
        got = cl.form_action(basis_two_form(i, j), s[1])
        worst = max(worst, float(np.abs(got - coeff * s[target]).max()))
    assert worst <= 1e-15
    dist = nx.subspace_distance(su.annihilator(s[1]), S1_ANNIHILATOR)
    assert dist <= 1e-12
    print(f"criterion 02 PASS  20 frozen action values to {worst:.1e}; "
          f"annihilator of s1 matches its stated span to {dist:.1e}")


def test_criterion_03_canonical_frame_of_random_spinors():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        phi = cl.random_unit_spinor(rng)
        y = fr.reeb_vector(phi)
        worst = max(worst, float(np.linalg.norm(
            cl.vector_action(y, phi) - 1j * phi)))
        worst = max(worst, abs(float(np.linalg.norm(y)) - 1.0))
        cols = np.array([cl.vector_action(cl.standard_vector(i), phi)
                         for i in range(1, 6)]).T
        stacked = np.vstack([cols.real, cols.imag])
        assert nx.numerical_rank(stacked) == 5   # y is the unique solution
        space = su.space_of_spinor(phi)
        d_image = np.array([cl.vector_action(b, phi) for b in space.d_basis])
        assert nx.numerical_rank(d_image) == 2   # complex dim of V
        assert space.v_basis.shape == (2, 4)
        full = np.vstack([space.v_basis, space.vperp_basis])
        worst = max(worst, float(np.abs(
            full @ full.conj().T - np.eye(4)).max()))
    assert worst <= EPS
    print(f"criterion 03 PASS  100 spinors: unique unit y with "
          f"y.phi = i phi, dim V = 2, orthogonal split, residual {worst:.1e}")


def test_criterion_04_shared_annihilator_characterizes_complement():
    rng = np.random.default_rng(104)
    worst_inside = 0.0
    least_outside = np.inf
    for _ in range(50):
        space = su.random_admissible_space(rng)
        bases = []
        for _ in range(10):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            phi = space.vperp_basis.T @ c
            bases.append(su.annihilator(phi / np.linalg.norm(phi)))
        for a in range(10):
            for b in range(a + 1, 10):
                worst_inside = max(worst_inside, nx.subspace_distance(
                    bases[a], bases[b]))
        chi = cl.random_unit_spinor(rng)
        while nx.distance_to_row_span(chi, space.vperp_basis) < 0.05:
            chi = cl.random_unit_spinor(rng)
        least_outside = min(least_outside, nx.subspace_distance(
            su.annihilator(chi), bases[0]))
    assert worst_inside <= EPS
    assert least_outside > 1e-3
    print(f"criterion 04 PASS  50 planes x 10 spinors share one annihilator "
          f"to {worst_inside:.1e}; 50 outside spinors separate by at least "
          f"{least_outside:.3f}")


def test_criterion_05_so5_splitting_blocks():
    rng = np.random.default_rng(105)
    worst = 0.0
    max_cond = 0.0
    for _ in range(10):
        space = su.random_admissible_space(rng)
        spl = su.so5_splitting(space)
        blocks = [spl.su2_minus, spl.su2_plus, spl.r4]
        assert [b.shape[0] for b in blocks] == [3, 3, 4]
        for a in range(3):
            for b in range(a + 1, 3):
                worst = max(worst, float(np.abs(
                    blocks[a] @ blocks[b].T).max()))
        stacked = np.vstack(blocks)
        assert nx.numerical_rank(stacked) == 10
        max_cond = max(max_cond, float(np.linalg.cond(stacked)))
    assert worst <= EPS
    assert np.isfinite(max_cond)
    print(f"criterion 05 PASS  blocks pairwise orthogonal to {worst:.1e}; "
          f"10x10 change-of-basis condition number {max_cond:.6f}")


def test_criterion_06_induced_map_phi_dependence():
    rng = np.random.default_rng(106)
    space = su.admissible_space(np.array([cl.standard_spinor(3),
                                          cl.standard_spinor(4)]))
    phis = []
    for _ in range(20):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi = space.vperp_basis.T @ c
        phis.append(phi / np.linalg.norm(phi))
    least_spread = np.inf
    for _ in range(100):
        t = rng.standard_normal((4, 4))
        while np.abs(t - np.trace(t) / 4.0 * np.eye(4)).max() < 1e-3:
            t = rng.standard_normal((4, 4))
        maps = [qt.induced_map(t, phi, space) for phi in phis]
        spread = max(np.abs(maps[a] - maps[b]).max()
                     for a in range(20) for b in range(a + 1, 20))
        least_spread = min(least_spread, float(spread))
    worst_scalar = 0.0
    for _ in range(5):
        lam = float(rng.standard_normal())
        maps = [qt.induced_map(lam * np.eye(4), phi, space) for phi in phis]
        spread = max(np.abs(maps[a] - maps[b]).max()
                     for a in range(20) for b in range(a + 1, 20))
        worst_scalar = max(worst_scalar, float(spread),
                           float(np.abs(maps[0] - lam * np.eye(4)).max()))
    assert least_spread > 1e-6
    assert worst_scalar <= EPS
    print(f"criterion 06 PASS  100 non-scalar maps vary with the spinor "
          f"(spread at least {least_spread:.3f} over 20 spinors); scalar "
          f"maps are constant to {worst_scalar:.1e}")


def test_criterion_07_hopf_formula_fiber_anticommutation():
    rng = np.random.default_rng(107)
    space = su.admissible_space(np.array([cl.standard_spinor(3),
                                          cl.standard_spinor(4)]))
    worst_formula = 0.0
    for _ in range(500):
        a, b, c, d = cl.random_unit_vector(rng, 4)
        phi = (a + 1j * b) * space.vperp_basis[0] \
            + (c + 1j * d) * space.vperp_basis[1]
        j = qt.complex_structure(phi, space)
        closed = qt.hopf_matrix(*qt.hopf(a, b, c, d))
        worst_formula = max(worst_formula, float(np.abs(j - closed).max()))
    assert worst_formula <= EPS
    worst_fiber = 0.0
    for _ in range(10):
        phi = space.vperp_basis.T @ (rng.standard_normal(2)
                                     + 1j * rng.standard_normal(2))
        phi = phi / np.linalg.norm(phi)
        j = qt.complex_structure(phi, space)
        for _ in range(5):
            lam = np.exp(2j * np.pi * rng.random())
            worst_fiber = max(worst_fiber, float(np.abs(
                qt.complex_structure(lam * phi, space) - j).max()))
    assert worst_fiber <= EPS
    worst_identity = 0.0
    worst_orthogonal = 0.0
    least_oblique = np.inf
    for _ in range(100):
        p = cl.random_unit_vector(rng, 3)
        q = cl.random_unit_vector(rng, 3)
        jp, jq = qt.hopf_matrix(*p), qt.hopf_matrix(*q)
        anti = jp @ jq + jq @ jp
        worst_identity = max(worst_identity, float(np.abs(
            anti + 2.0 * float(p @ q) * np.eye(4)).max()))
        q_perp = np.cross(p, q)
        if np.linalg.norm(q_perp) > 1e-3:
            q_perp = q_perp / np.linalg.norm(q_perp)
            j_perp = qt.hopf_matrix(*q_perp)
            worst_orthogonal = max(worst_orthogonal, float(np.abs(
                jp @ j_perp + j_perp @ jp).max()))
        if abs(float(p @ q)) > 1e-3:
            least_oblique = min(least_oblique, float(np.abs(anti).max()))
    assert worst_identity <= EPS
    assert worst_orthogonal <= EPS
    assert least_oblique > 1e-3
    print(f"criterion 07 PASS  closed form matches the solved structure on "
          f"500 points to {worst_formula:.1e}; 50 fiber phases to "
          f"{worst_fiber:.1e}; anticommutation tracks orthogonality on 100 "
          f"sphere pairs to {worst_identity:.1e}")


def test_criterion_08_admissibility_tests_agree():
    rng = np.random.default_rng(108)
    space0 = su.admissible_space(np.array([cl.standard_spinor(3),
                                           cl.standard_spinor(4)]))
    disagreements = 0
    for _ in range(100):
        g = sg.random_spin(rng)
        moved = np.array([g.matrix @ v for v in space0.v_basis])
        result = su.is_admissible(moved, rng=rng)
        assert result.verdict   # constructed planes stay admissible
        disagreements += result.spanning_test != result.conjugation_test
    for _ in range(100):
        rows = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        result = su.is_admissible(nx.orthonormalize_rows(rows), rng=rng)
        disagreements += result.spanning_test != result.conjugation_test
    assert disagreements == 0
    print("criterion 08 PASS  both admissibility tests agree on 100 moved "
          "copies of the fundamental plane and 100 random planes "
          "(0 disagreements)")


def test_criterion_09_conjugation_and_distribution_triple():
    c = qt.charge_conjugation()
    worst_conj = float(np.abs(c @ c.conj() + np.eye(4)).max())
    for i in range(1, 6):
        worst_conj = max(worst_conj, float(np.abs(
            c @ cl.gamma(i).conj() + cl.gamma(i) @ c).max()))
    assert worst_conj <= 1e-12
    rng = np.random.default_rng(109)
    worst_eq = 0.0
    for _ in range(10):
        space = su.random_admissible_space(rng)
        tri = qt.triple_on_distribution(space)
        for k in range(3):
            worst_eq = max(worst_eq, float(np.linalg.norm(
                cl.form_action(tri.omegas[k], tri.spinors[k])
                - 2j * tri.spinors[k])))
    assert worst_eq <= EPS
    space0 = su.admissible_space(np.array([cl.standard_spinor(3),
                                           cl.standard_spinor(4)]))
    tri = qt.triple_on_distribution(space0)
    worst_exact = float(np.abs(tri.omegas - FUNDAMENTAL_OMEGAS).max())
    worst_exact = max(worst_exact, float(np.abs(
        tri.j_matrices[0] - qt.hopf_matrix(1, 0, 0)).max()))
    worst_exact = max(worst_exact, float(np.abs(
        tri.j_matrices[1] - qt.hopf_matrix(0, 1, 0)).max()))
    worst_exact = max(worst_exact, float(np.abs(
        tri.j_matrices[2] - qt.hopf_matrix(0, 0, -1)).max()))
    assert worst_exact <= 1e-15
    print(f"criterion 09 PASS  antilinear structure laws to {worst_conj:.1e};"
          f" w_k . phi_k = 2i phi_k to {worst_eq:.1e}; fundamental-plane "
          f"matrices reproduced to {worst_exact:.1e} (one ulp)")


def test_criterion_10_group_action_stabilizer_conjugation():
    rng = np.random.default_rng(110)
    for k in range(100):
        space = su.random_admissible_space(rng)
        moved = sg.act_on_space(sg.random_spin(rng), space, rng=rng)
        assert su.is_admissible(moved.v_basis, rng=rng).verdict
    for _ in range(50):
        space = su.random_admissible_space(rng)
        assert sg.stabilizer_dimension(space) == 6
    forward = 0.0
    backward = np.inf
    for _ in range(10):
        space = su.random_admissible_space(rng)
        spl = su.so5_splitting(space)
        g = sg.random_spin(rng)
        image = np.array([sg.adjoint_form(g, w) for w in spl.su2_minus])
        moved = su.so5_splitting(sg.act_on_space(g, space, rng=rng))
        moved_back = su.so5_splitting(
            sg.act_on_space(g.inverse(), space, rng=rng))
        forward = max(forward, nx.subspace_distance(image, moved.su2_minus))
        backward = min(backward, nx.subspace_distance(
            image, moved_back.su2_minus))
    assert forward <= EPS
    print(f"criterion 10 PASS  100 moved planes stay admissible; stabilizer "
          f"dimension 6 on 50 planes; NOTE conjugation direction: the "
          f"algebra of V maps onto the algebra of gV (residual "
          f"{forward:.1e}) while the inverse-image variant misses by "
          f"{backward:.3f}")


def test_criterion_11_torsion_roundtrip_invariance_audit():
    rng = np.random.default_rng(111)
    worst_round = 0.0
    for _ in range(50):
        space = su.random_admissible_space(rng)
        for _ in range(4):
            nabla = ts.random_nabla(space, rng)
            dec = ts.decompose(nabla, space)
            worst_round = max(worst_round, dec.residual)
            rec = ts.reconstruct(dec, space)
            worst_round = max(worst_round, float(np.abs(
                rec.derivatives - nabla.derivatives).max()))
    assert worst_round <= EPS
    worst_inv = 0.0
    worst_beta = 0.0
    worst_so3 = 0.0
    for _ in range(10):
        space = su.random_admissible_space(rng)
        nabla = ts.random_nabla(space, rng)
        dec = ts.decompose(nabla, space)
        om = ts.omega_decompose(nabla, space)
        for _ in range(10):
            a = cl.random_unit_vector(rng, 4)
            rotated = ts.rotate_spinor_datum(a, nabla, space)
            dec_a = ts.decompose(rotated, space)
            om_a = ts.omega_decompose(rotated, space)
            worst_inv = max(worst_inv, float(np.abs(
                dec_a.s_matrix - dec.s_matrix).max()))
            worst_inv = max(worst_inv, float(np.abs(
                om_a.omega - om.omega).max()))
            worst_beta = max(worst_beta, float(np.abs(
                dec_a.beta - ts.transform_beta(a, dec.beta)).max()))
            r = ts.rotation_from_quaternion(a)
            worst_so3 = max(worst_so3, float(np.abs(
                r.T @ r - np.eye(3)).max()),
                abs(float(np.linalg.det(r)) - 1.0))
    assert worst_inv <= EPS
    assert worst_beta <= EPS
    assert worst_so3 <= EPS
    space = su.random_admissible_space(rng)
    phi = ts.random_nabla(space, rng).phi
    zero = ts.decompose(ts.NablaDatum(
        phi=phi, derivatives=np.zeros((5, 4), dtype=complex)), space)
    cols = []
    for p in range(35):
        s_matrix = np.zeros((4, 5))
        beta = np.zeros((3, 5))
        if p < 20:
            s_matrix[p % 4, p // 4] = 1.0
        else:
            beta[(p - 20) % 3, (p - 20) // 3] = 1.0
        datum = ts.reconstruct(ts.TorsionDecomposition(
            phi=phi, s_matrix=s_matrix, beta=beta, z=zero.z, f=zero.f,
            s_d=zero.s_d, beta_d=zero.beta_d, lambda0=0.0,
            lambdas=zero.lambdas, s0=zero.s0, sigma=zero.sigma,
            residual=0.0), space)
        dec = ts.decompose(datum, space)
        cols.append(np.concatenate([
            [dec.lambda0], dec.lambdas, dec.s0.ravel(), dec.sigma.ravel(),
            dec.z, dec.f, dec.beta_d.ravel()]))
    m = np.array(cols).T
    sing = np.linalg.svd(m, compute_uv=False)
    assert nx.numerical_rank(m) == 35
    assert float(sing[34]) > 1e-6
    print(f"criterion 11 PASS  200 round trips to {worst_round:.1e}; S and "
          f"omega invariant under 100 rotations to {worst_inv:.1e}; beta "
          f"follows its 3x3 law to {worst_beta:.1e} with the matrix in "
          f"SO(3) to {worst_so3:.1e}; 35-parameter map bijective (smallest "
          f"singular value {float(sing[34]):.3f})")


def test_criterion_12_quadruplet_wedge_relations():
    rng = np.random.default_rng(112)
    worst = 0.0
    least_top = np.inf
    for _ in range(20):
        space = su.random_admissible_space(rng)
        quad = qt.structure_quadruplet(space)
        forms = [cl.KForm.from_two_form(w) for w in quad.omegas]
        for a in range(3):
            for b in range(3):
                diff = forms[a].wedge(forms[b]) \
                    + quad.volume.scale(-float(a == b))
                worst = max(worst, diff.norm())
        least_top = min(least_top, quad.alpha.wedge(quad.volume).norm())
    assert worst <= 1e-12
    assert least_top > 1e-6
    print(f"criterion 12 PASS  w_k ^ w_l = delta_kl v to {worst:.1e} and "
          f"alpha ^ v has norm at least {least_top:.3f} on 20 planes")


def test_criterion_13_tampered_gamma_exits_nonzero(monkeypatch, capsys):
    bad = list(cl._GAMMA)
    bad[2] = bad[2].copy()
    bad[2][0, 0] = 0.5
    monkeypatch.setattr(cl, "_GAMMA", tuple(bad))
    code = cli.main(["verify-all", "--json", "--samples", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["summary"]["fail"] > 0
    print("criterion 13 PASS  a tampered generator makes verify-all "
          "report failures and exit 1")
