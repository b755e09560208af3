"""Correctness oracles for the benchmark.

Every check here is built from the Clifford generator matrices and the
laws the method must obey, never from a stored copy of earlier output:

* the Reeb vector has the closed form y_k = Re<i phi, gamma_k phi>;
* a complex structure J on D satisfies J^2 = -I, J^T J = I and
  x.(i phi) = J(x).phi, so J_pq = Re<d_p.phi, i d_q.phi> in closed form;
* a derivative datum is rebuilt from raw Clifford products as
  nabla_i phi = S(e_i).phi + sum_k beta_k(e_i) j_k phi, where for phi in
  the plane's complement j_1 phi = i phi, j_2 phi = -C conj(phi),
  j_3 phi = -i C conj(phi) and C is the antilinear structure, a product of
  the real generators pinned as the method documents;
* the torsion forms satisfy xi_i.phi = -nabla_i phi and
  omega_X.phi = sum_k beta_k(X) j_k phi;
* the S_D split obeys its commutation laws;
* a quaternion rotation sends beta to R(a) beta, R(a) being conjugation
  v -> a v conj(a) on the imaginary quaternions, and leaves S and omega.

Each check raises OracleError with a message naming the violated law.
The module needs numpy only; the generator table is passed in.
"""

from __future__ import annotations

import numpy as np

#: Absolute tolerance for in-process results (the program works to 1e-9
#: and its residuals sit near 1e-14).
TOL = 1e-8
#: Tolerance for values printed with six decimals.
TEXT_TOL = 1e-6
#: Lexicographic index pairs of the two-form basis, as the wire format
#: documents them.
PAIRS = tuple((i, j) for i in range(5) for j in range(i + 1, 5))
#: Check ids of the registry's convention probes; a healthy build reports
#: exactly these as NOTE.
EXPECTED_NOTES = ("02", "10", "19", "34")
REGISTRY_SIZE = 43


class OracleError(AssertionError):
    """An output broke a law it must obey."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


def close(a, b, tol: float, what: str) -> None:
    """Require max |a - b| <= tol; `what` names the law."""
    err = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    _require(err <= tol, f"{what}: deviation {err:.3e} > {tol:.1e}")


def _re_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b).real)


def _pin_phase(m: np.ndarray, eps: float = 1e-9) -> np.ndarray:
    flat = m.reshape(-1)
    mags = np.abs(flat)
    pivot = flat[int(np.argmax(mags > eps * mags.max()))]
    return m * (pivot.conjugate() / abs(pivot))


def quaternion_product(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Hamilton product b*a in (scalar, i, j, k) coordinates."""
    b0, bv = b[0], np.asarray(b[1:], dtype=float)
    a0, av = a[0], np.asarray(a[1:], dtype=float)
    return np.concatenate([[b0 * a0 - bv @ av],
                           b0 * av + a0 * bv + np.cross(bv, av)])


def rotation_matrix(a: np.ndarray) -> np.ndarray:
    """Matrix of v -> a v conj(a) on the imaginary quaternions."""
    a = np.asarray(a, dtype=float)
    a_bar = a * np.array([1.0, -1.0, -1.0, -1.0])
    cols = [quaternion_product(quaternion_product(a, e), a_bar)[1:]
            for e in np.eye(4)[1:]]
    return np.array(cols).T


class Laws:
    """The generator table and the constants derived from it by law."""

    def __init__(self, gammas: np.ndarray):
        g = np.asarray(gammas, dtype=complex)
        _require(g.shape == (5, 4, 4), f"generator table has shape {g.shape}")
        eye = np.eye(4)
        for i in range(5):
            for j in range(5):
                anti = g[i] @ g[j] + g[j] @ g[i]
                close(anti, -2.0 * eye * (i == j), 1e-12,
                      f"Clifford relation for generators {i + 1},{j + 1}")
        self.g = g
        self.g2 = np.stack([g[i] @ g[j] for i, j in PAIRS])
        # C anticommutes with every generator through conj: the real
        # generators must anticommute with it and the imaginary ones
        # commute, which the product of the real generators does.
        real = [k for k in range(5) if np.array_equal(g[k].conj(), g[k])]
        c = eye.astype(complex)
        for k in real:
            c = c @ g[k]
        for k in range(5):
            close(c @ g[k].conj(), -g[k] @ c, 1e-12,
                  f"antilinear structure against generator {k + 1}")
        close(c @ c.conj(), -eye, 1e-12, "C conj(C) = -Id")
        self.c = _pin_phase(c)

    # -- elementary actions ------------------------------------------------

    def vec(self, x: np.ndarray) -> np.ndarray:
        """Matrix of Clifford multiplication by x in R^5."""
        return np.tensordot(np.asarray(x, dtype=float), self.g, axes=1)

    def form(self, w: np.ndarray) -> np.ndarray:
        """Matrix of the Clifford action of a two-form (10 coefficients)."""
        return np.tensordot(np.asarray(w, dtype=float), self.g2, axes=1)

    def reeb(self, phi: np.ndarray) -> np.ndarray:
        """Closed-form Reeb vector y_k = Re<i phi, gamma_k phi>."""
        phi = np.asarray(phi, dtype=complex)
        return np.array([_re_inner(gk @ phi, 1j * phi) for gk in self.g])

    def plus_space(self, y: np.ndarray) -> np.ndarray:
        """Projector onto the +i eigenspace of y, the complement of V."""
        return 0.5 * (np.eye(4) - 1j * self.vec(y))

    def j_phis(self, phi: np.ndarray) -> np.ndarray:
        """j_1 phi, j_2 phi, j_3 phi for phi in the plane's complement."""
        cphi = self.c @ np.asarray(phi, dtype=complex).conj()
        return np.array([1j * phi, -cphi, -1j * cphi])

    def structure(self, psi: np.ndarray, d_basis: np.ndarray) -> np.ndarray:
        """Closed-form J with x.(i psi) = J(x).psi on D-coordinates."""
        imgs = np.array([self.vec(d) @ psi for d in d_basis])
        return np.array([[_re_inner(imgs[p], 1j * imgs[q]) for q in range(4)]
                         for p in range(4)])

    def triple(self, psi1: np.ndarray, psi2: np.ndarray,
               d_basis: np.ndarray) -> np.ndarray:
        """Distribution triple from an orthonormal complement basis."""
        j1 = self.structure(psi1, d_basis)
        j2 = self.structure((psi1 + 1j * psi2) / np.sqrt(2.0), d_basis)
        return np.array([j1, j2, j1 @ j2])

    # -- frames, planes and the su(2) splitting ----------------------------

    def check_reeb(self, phi: np.ndarray, y: np.ndarray,
                   tol: float = TOL) -> None:
        phi = np.asarray(phi, dtype=complex)
        close(y, self.reeb(phi), tol, "Reeb vector against its closed form")
        close(np.linalg.norm(y), 1.0, tol, "|y| = 1")
        close(self.vec(y) @ phi, 1j * phi, 10 * tol, "y.phi = i phi")

    def check_frame(self, phi, y, d_basis, j, hopf_point,
                    v_basis=None, su2_minus=None) -> None:
        """Frame of a unit spinor: Reeb vector, D, J, Hopf point, su(2)-."""
        phi = np.asarray(phi, dtype=complex)
        d = np.asarray(d_basis, dtype=float)
        j = np.asarray(j, dtype=float)
        self.check_reeb(phi, y)
        close(d @ d.T, np.eye(4), TOL, "D basis orthonormal")
        close(d @ y, 0.0, TOL, "D basis orthogonal to y")
        close(j @ j, -np.eye(4), TOL, "J^2 = -I")
        close(j.T @ j, np.eye(4), TOL, "J^T J = I")
        for q in range(4):
            lhs = self.vec(d[q]) @ (1j * phi)
            rhs = self.vec(d.T @ j[:, q]) @ phi
            close(lhs, rhs, TOL, f"x.(i phi) = J(x).phi for d_{q}")
        close(np.linalg.norm(hopf_point), 1.0, TOL, "Hopf point on S^2")
        if v_basis is not None:
            v = np.asarray(v_basis, dtype=complex)
            close(v @ v.conj().T, np.eye(2), TOL, "V basis orthonormal")
            for row in v:
                close(self.vec(y) @ row, -1j * row, TOL,
                      "V is the -i eigenspace of y")
        if su2_minus is not None:
            for w in np.asarray(su2_minus, dtype=float):
                close(self.form(w) @ phi, 0.0, TOL, "su(2)- annihilates phi")

    def check_complement(self, vperp: np.ndarray, y: np.ndarray) -> None:
        """The complement basis is orthonormal and spans the +i space of y."""
        vperp = np.asarray(vperp, dtype=complex)
        close(vperp @ vperp.conj().T, np.eye(2), TOL,
              "complement basis orthonormal")
        for row in vperp:
            close(self.vec(y) @ row, 1j * row, TOL,
                  "complement is the +i eigenspace of y")

    def check_same_plane(self, basis_a, basis_b, what: str) -> None:
        def proj(b):
            q, _ = np.linalg.qr(np.asarray(b, dtype=complex).T)
            return q @ q.conj().T
        close(proj(basis_a), proj(basis_b), TOL, what)

    # -- torsion -------------------------------------------------------------

    def check_datum(self, phi, derivs, s_matrix, beta, d_basis, y,
                    z=None, f=None, tol: float = TOL) -> None:
        """Rebuild nabla_i phi = S(e_i).phi + sum_k beta_k(e_i) j_k phi."""
        phi = np.asarray(phi, dtype=complex)
        derivs = np.asarray(derivs, dtype=complex)
        s = np.asarray(s_matrix, dtype=float)
        beta = np.asarray(beta, dtype=float)
        d = np.asarray(d_basis, dtype=float)
        jp = self.j_phis(phi)
        scale = max(1.0, float(np.abs(derivs).max()))
        for i in range(5):
            rebuilt = self.vec(d.T @ s[:, i]) @ phi + beta[:, i] @ jp
            close(rebuilt, derivs[i], tol * scale,
                  f"rebuilt derivative {i + 1}")
        if z is not None:
            close(z, s @ y, tol * scale, "z = S(y)")
        if f is not None:
            close(f, beta @ y, tol * scale, "f = beta(y)")

    def check_datum_frame_free(self, phi, derivs, s_matrix, beta,
                               y) -> np.ndarray:
        """Rebuild check when the D basis is not part of the output.

        r_i = nabla_i phi - sum_k beta_k(e_i) j_k phi must be x_i.phi for
        one x_i in D, read off as x_i = (Re<gamma_j phi, r_i>)_j, and the
        D-coordinates of S must have the Gram matrix of the x_i.  Returns
        the D basis that these coordinates imply.
        """
        phi = np.asarray(phi, dtype=complex)
        derivs = np.asarray(derivs, dtype=complex)
        s = np.asarray(s_matrix, dtype=float)
        beta = np.asarray(beta, dtype=float)
        jp = self.j_phis(phi)
        scale = max(1.0, float(np.abs(derivs).max()))
        xs = []
        for i in range(5):
            r = derivs[i] - beta[:, i] @ jp
            x = np.array([_re_inner(gk @ phi, r) for gk in self.g])
            close(self.vec(x) @ phi, r, TOL * scale,
                  f"derivative {i + 1} minus its beta part is x.phi")
            close(x @ y, 0.0, TOL * scale, f"S(e_{i + 1}) tangent to D")
            xs.append(x)
        xs = np.array(xs).T
        close(s.T @ s, xs.T @ xs, TOL * scale * scale,
              "Gram matrix of S against the rebuilt vectors")
        # s_matrix = d_basis @ xs fixes the D basis the program used.
        d = s @ np.linalg.pinv(xs)
        close(d @ d.T, np.eye(4), TOL * scale, "implied D basis orthonormal")
        close(d @ y, 0.0, TOL * scale, "implied D basis orthogonal to y")
        return d

    def check_intrinsic(self, phi, derivs, xi) -> None:
        phi = np.asarray(phi, dtype=complex)
        derivs = np.asarray(derivs, dtype=complex)
        scale = max(1.0, float(np.abs(derivs).max()))
        for i, w in enumerate(np.asarray(xi, dtype=float)):
            close(self.form(w) @ phi, -derivs[i], TOL * scale,
                  f"xi_{i + 1}.phi = -nabla_{i + 1} phi")

    def check_omega(self, phi, beta, omega, omega_zeta, y) -> None:
        phi = np.asarray(phi, dtype=complex)
        beta = np.asarray(beta, dtype=float)
        jp = self.j_phis(phi)
        scale = max(1.0, float(np.abs(beta).max()))
        for i, w in enumerate(np.asarray(omega, dtype=float)):
            close(self.form(w) @ phi, beta[:, i] @ jp, TOL * scale,
                  f"omega_(e_{i + 1}).phi = beta(e_{i + 1}) j phi")
        close(self.form(omega_zeta) @ phi, (beta @ y) @ jp, TOL * scale,
              "omega_y.phi = beta(y) j phi")

    def check_split(self, s_d, lambda0, lambdas, s0, sigma, js) -> None:
        """S_D = lambda0 I + s0 + sum_k (lambda_k J_k + sigma_k), with laws."""
        s_d = np.asarray(s_d, dtype=float)
        s0 = np.asarray(s0, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        lambdas = np.asarray(lambdas, dtype=float)
        scale = max(1.0, float(np.abs(s_d).max()))
        tol = TOL * scale
        for k in range(3):
            close(js[k] @ js[k], -np.eye(4), TOL, f"J_{k + 1}^2 = -I")
        rebuilt = (lambda0 * np.eye(4) + s0
                   + np.tensordot(lambdas, js, axes=1) + sigma.sum(axis=0))
        close(rebuilt, s_d, tol, "S_D rebuilt from its split")
        close(np.trace(s0), 0.0, tol, "s0 traceless")
        for k in range(3):
            close(s0 @ js[k], js[k] @ s0, tol, f"s0 commutes with J_{k + 1}")
            sk = sigma[k]
            close(sk @ js[k], js[k] @ sk, tol,
                  f"sigma_{k + 1} commutes with J_{k + 1}")
            close(np.sum(sk * js[k]), 0.0, tol,
                  f"sigma_{k + 1} orthogonal to J_{k + 1}")
            for m in range(3):
                if m != k:
                    close(sk @ js[m], -js[m] @ sk, tol,
                          f"sigma_{k + 1} anticommutes with J_{m + 1}")

    def check_split_frame_free(self, s_d, lambda0, lambdas, s0, sigma,
                               js) -> None:
        """The split laws that hold for any orthonormal basis of the triple.

        Used when the output does not name the triple it used: js is the
        oracle's own triple in the same D-coordinates.
        """
        s_d = np.asarray(s_d, dtype=float)
        s0 = np.asarray(s0, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        tol = TOL * max(1.0, float(np.abs(s_d).max()))
        own = np.array([-np.trace(j @ s_d) / 4.0 for j in js])
        close(lambda0, np.trace(s_d) / 4.0, tol, "lambda0 = tr(S_D)/4")
        close(np.linalg.norm(lambdas), np.linalg.norm(own), tol,
              "|lambda| against the oracle's triple")
        close(np.trace(s0), 0.0, tol, "s0 traceless")
        for k in range(3):
            close(s0 @ js[k], js[k] @ s0, tol, "s0 commutes with the triple")
            close(np.trace(sigma[k]), 0.0, tol, f"sigma_{k + 1} traceless")
        conj = sum(j @ s_d @ j for j in js)
        sigma_sum = (3.0 * s_d + conj) / 4.0 - np.tensordot(own, js, axes=1)
        close(sigma.sum(axis=0), sigma_sum, tol, "sum of the sigma_k")

    def check_rotation(self, a, beta, beta_rot, s=None, s_rot=None,
                       omega=None, omega_rot=None) -> None:
        scale = max(1.0, float(np.abs(beta).max()))
        close(beta_rot, rotation_matrix(a) @ np.asarray(beta), TOL * scale,
              "rotated beta = R(a) beta")
        if s is not None:
            close(s_rot, s, TOL * scale, "S unchanged by the rotation")
        if omega is not None:
            close(omega_rot, omega, TOL * scale,
                  "omega unchanged by the rotation")


# -- the verification registry ------------------------------------------------

def check_registry(results) -> None:
    """results: (check_id, status) pairs of one registry run."""
    results = list(results)
    _require(len(results) == REGISTRY_SIZE,
             f"registry ran {len(results)} checks, expected {REGISTRY_SIZE}")
    failed = [cid for cid, status in results if status == "FAIL"]
    _require(not failed, f"registry FAILs: {failed}")
    notes = tuple(sorted(cid[:2] for cid, status in results
                         if status == "NOTE"))
    _require(notes == EXPECTED_NOTES,
             f"registry NOTEs {notes}, expected {EXPECTED_NOTES}")
